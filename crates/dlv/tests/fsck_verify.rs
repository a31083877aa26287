//! `mh_dlv::fsck` checks archived snapshots store by store, decoding each
//! stored plane once. These tests hold it to the per-snapshot reads it
//! stands for: on a clean repository and under each kind of damage, the
//! stores and staged blobs its errors name are exactly those holding a
//! snapshot that `get_weights` cannot read.

#![allow(clippy::unwrap_used)] // test code: panics are failures
use mh_dlv::fsck::{fsck, FsckConfig, FsckReport, Severity};
use mh_dlv::{ArchiveConfig, CommitRequest, Repository};
use mh_dnn::{zoo, Weights};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-fsckv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Commit `name` with three drifting snapshots of one initialisation, so
/// archiving at a loose budget stores delta chains.
fn commit_drifting(repo: &Repository, name: &str, seed: u64) {
    let net = zoo::lenet_s(3);
    let mut w = Weights::init(&net, seed).unwrap();
    let mut req = CommitRequest::new(name, net);
    for i in 0..3 {
        req.snapshots.push((i * 10, w.clone()));
        let mut next = Weights::new();
        for (layer, m) in w.layers() {
            next.insert(layer, m.map(|x| x * 1.001 + 1e-5));
        }
        w = next;
    }
    req.files
        .push(("notes.txt".into(), name.as_bytes().to_vec()));
    repo.commit(&req).unwrap();
}

/// Two archived versions in two stores (`store0000`, `store0001`) and
/// one staged version.
fn build_repo(dir: &Path) {
    let repo = Repository::init(dir).unwrap();
    let loose = ArchiveConfig {
        alpha: 100.0,
        ..Default::default()
    };
    commit_drifting(&repo, "a", 1);
    repo.archive(&loose).unwrap();
    commit_drifting(&repo, "b", 2);
    repo.archive(&loose).unwrap();
    commit_drifting(&repo, "c", 3);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Where a snapshot's weights live, at store granularity: the store
/// directory (`pas/store0000`) of an archived snapshot, the blob
/// (`weights/...`) of a staged one.
fn unit_of_location(location: &str) -> String {
    match location.strip_prefix("pas:") {
        Some(store) => format!("pas/{store}"),
        None => location.trim_start_matches("staged:").to_string(),
    }
}

/// The oracle: every unit holding a snapshot that `get_weights` cannot
/// read, found by reading each snapshot on its own.
fn per_snapshot_damage(repo: &Repository) -> BTreeSet<String> {
    let mut damaged = BTreeSet::new();
    for v in repo.list() {
        let spec = v.key.to_string();
        for s in repo.snapshots(&spec).unwrap() {
            if repo.get_weights(&spec, Some(s.index)).is_err() {
                damaged.insert(unit_of_location(&s.location));
            }
        }
    }
    damaged
}

/// The units the verifier's errors name: a finding inside a store
/// (`pas/store0000/obj000003_p0.mhz`) counts for the store.
fn fsck_damage(report: &FsckReport) -> BTreeSet<String> {
    report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| match f.location.strip_prefix("pas/") {
            Some(rest) => format!("pas/{}", rest.split(['/', ':']).next().unwrap()),
            None => f.location.clone(),
        })
        .collect()
}

fn run(dir: &Path) -> FsckReport {
    fsck(dir, &FsckConfig::default()).unwrap()
}

/// The rows of a store's `manifest.mhp`.
fn store_rows(store: &Path) -> Vec<mh_pas::ManifestRow> {
    mh_pas::parse_manifest(&std::fs::read_to_string(store.join("manifest.mhp")).unwrap()).unwrap()
}

fn plane(store: &Path, v: mh_pas::VertexId, p: usize) -> PathBuf {
    store.join(mh_pas::plane_file_name(v, p))
}

#[test]
fn fsck_matches_the_per_snapshot_check_under_every_corruption() {
    let base = temp_dir("diff");
    let pristine = base.join("pristine");
    build_repo(&pristine);
    let store0 = Path::new("pas/store0000");
    let rows = store_rows(&pristine.join(store0));
    // A chain root that a delta depends on, and a delta object.
    let delta = rows
        .iter()
        .find(|r| r.kind != mh_pas::ObjectKind::Materialized)
        .expect("a loose budget stores delta chains");
    let root = delta.parent;
    let other_shape = rows
        .iter()
        .find(|r| (r.rows, r.cols) != (delta.rows, delta.cols));
    let other_shape = other_shape.unwrap().vertex;

    type Corruption<'a> = Box<dyn Fn(&Path) + 'a>;
    let cases: Vec<(&str, Corruption<'_>)> = vec![
        (
            "truncated plane",
            Box::new(move |d| {
                let path = plane(&d.join(store0), root, 0);
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            }),
        ),
        (
            "deleted plane file",
            Box::new(|d| std::fs::remove_file(plane(&d.join(store0), delta.vertex, 3)).unwrap()),
        ),
        (
            "garbage plane bytes",
            Box::new(|d| {
                let path = plane(&d.join(store0), delta.vertex, 1);
                let len = std::fs::read(&path).unwrap().len();
                let garbage: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
                std::fs::write(&path, garbage).unwrap();
            }),
        ),
        (
            "plane of the wrong length",
            Box::new(move |d| {
                let store = d.join(store0);
                std::fs::copy(
                    plane(&store, other_shape, 2),
                    plane(&store, delta.vertex, 2),
                )
                .unwrap();
            }),
        ),
        (
            "dangling parent in the store manifest",
            Box::new(|d| {
                let path = d.join(store0).join("manifest.mhp");
                let text = std::fs::read_to_string(&path).unwrap();
                let mut out = String::new();
                for line in text.lines() {
                    let mut f: Vec<String> = line.split('\t').map(str::to_string).collect();
                    if f[0] == delta.vertex.to_string() {
                        f[2] = "999999".into();
                    }
                    out.push_str(&f.join("\t"));
                    out.push('\n');
                }
                assert_ne!(out, text);
                std::fs::write(&path, out).unwrap();
            }),
        ),
        (
            "removed store directory",
            Box::new(|d| std::fs::remove_dir_all(d.join("pas/store0001")).unwrap()),
        ),
        (
            "corrupt staged blob",
            Box::new(|d| {
                let blob = std::fs::read_dir(d.join("weights"))
                    .unwrap()
                    .next()
                    .unwrap()
                    .unwrap()
                    .path();
                let mut bytes = std::fs::read(&blob).unwrap();
                let n = bytes.len() - 5;
                bytes[n] ^= 0x80;
                std::fs::write(&blob, bytes).unwrap();
            }),
        ),
    ];

    let clean = run(&pristine);
    assert!(clean.is_clean(), "{:?}", clean.findings);
    assert!(per_snapshot_damage(&Repository::open(&pristine).unwrap()).is_empty());
    for (i, (what, corrupt)) in cases.iter().enumerate() {
        let dir = base.join(format!("case{i}"));
        copy_dir(&pristine, &dir);
        corrupt(&dir);
        let oracle = per_snapshot_damage(&Repository::open(&dir).unwrap());
        assert!(!oracle.is_empty(), "{what}: the damage must show");
        let report = run(&dir);
        assert_eq!(
            fsck_damage(&report),
            oracle,
            "{what}: {:?}",
            report.findings
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_clean_fsck_decodes_each_stored_plane_once() {
    let dir = temp_dir("once");
    build_repo(&dir);
    let objects: usize = ["store0000", "store0001"]
        .iter()
        .map(|s| store_rows(&dir.join("pas").join(s)).len())
        .sum();
    // Spans from other tests in this binary carry other trace ids.
    mh_obs::enable_capture();
    let trace = mh_obs::begin_trace();
    let report = run(&dir);
    let spans: Vec<_> = mh_obs::drain_capture()
        .into_iter()
        .filter(|s| s.trace == trace)
        .collect();
    assert!(report.is_clean(), "{:?}", report.findings);
    let fsck = spans.iter().find(|s| s.name == "dlv.fsck").unwrap();
    let field = |k: &str| {
        fsck.fields
            .iter()
            .find(|(key, _)| *key == k)
            .map(|(_, v)| v.parse::<usize>().unwrap())
    };
    assert_eq!(field("stores"), Some(2));
    assert_eq!(field("snapshots"), Some(9));
    // Every stored object lies on some snapshot's chain: four planes
    // each, decoded once.
    assert_eq!(field("planes_decoded"), Some(4 * objects));
    assert!(
        !spans
            .iter()
            .any(|s| s.name == "pas.recreate" || s.name == "pas.plane_refine"),
        "a clean fsck recreates nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}
