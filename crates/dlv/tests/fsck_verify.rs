//! `Repository::fsck` checks archived snapshots store by store, decoding
//! each stored plane once. These tests hold it to the per-snapshot check
//! it replaces: on a clean repository and under each kind of damage, its
//! problem list is exactly the one built by reading every snapshot with
//! `get_weights`.

#![allow(clippy::unwrap_used)] // test code: panics are failures
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

/// The per-snapshot fsck: every check of `Repository::fsck`, with each
/// snapshot read through `get_weights`.
fn per_snapshot_fsck(repo: &Repository) -> Vec<String> {
    let mut problems = Vec::new();
    let versions = repo.list();
    let keys: BTreeSet<String> = versions.iter().map(|v| v.key.to_string()).collect();
    for v in &versions {
        let spec = v.key.to_string();
        match repo.get_network(&spec) {
            Ok(net) => {
                if net.infer_shapes().is_err() {
                    problems.push(format!("{spec}: stored network fails shape inference"));
                }
            }
            Err(e) => problems.push(format!("{spec}: network unreadable ({e})")),
        }
        match repo.snapshots(&spec) {
            Ok(snaps) => {
                for s in snaps {
                    if let Err(e) = repo.get_weights(&spec, Some(s.index)) {
                        problems.push(format!("{spec}: snapshot {} unreadable ({e})", s.index));
                    }
                }
            }
            Err(e) => problems.push(format!("{spec}: snapshot list unreadable ({e})")),
        }
        if let Ok(desc) = repo.desc(&spec) {
            for (path, digest, bytes) in &desc.files {
                match std::fs::read(repo.root().join("objects").join(digest)) {
                    Ok(content) => {
                        if mh_dlv::hash::sha256_hex(&content) != *digest {
                            problems.push(format!("{spec}: file '{path}' digest mismatch"));
                        } else if content.len() as i64 != *bytes {
                            problems.push(format!("{spec}: file '{path}' size mismatch"));
                        }
                    }
                    Err(_) => problems.push(format!("{spec}: file object '{path}' missing")),
                }
            }
        }
    }
    for (base, derived) in repo.lineage() {
        for end in [&base, &derived] {
            if !keys.contains(end) {
                problems.push(format!("lineage references missing version '{end}'"));
            }
        }
    }
    problems
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

    let clean = Repository::open(&pristine).unwrap();
    assert!(clean.fsck().is_empty(), "{:?}", clean.fsck());
    assert!(per_snapshot_fsck(&clean).is_empty());
    for (i, (what, corrupt)) in cases.iter().enumerate() {
        let dir = base.join(format!("case{i}"));
        copy_dir(&pristine, &dir);
        corrupt(&dir);
        let repo = Repository::open(&dir).unwrap();
        let oracle = per_snapshot_fsck(&repo);
        assert!(!oracle.is_empty(), "{what}: the damage must show");
        assert_eq!(repo.fsck(), oracle, "{what}");
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
    let repo = Repository::open(&dir).unwrap();
    // Spans from other tests in this binary carry other trace ids.
    mh_obs::enable_capture();
    let trace = mh_obs::begin_trace();
    let problems = repo.fsck();
    let spans: Vec<_> = mh_obs::drain_capture()
        .into_iter()
        .filter(|s| s.trace == trace)
        .collect();
    assert!(problems.is_empty(), "{problems:?}");
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
