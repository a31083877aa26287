//! Integration tests: build a real repository (commit + archive), inject
//! one corruption per test, and assert `fsck` reports exactly the
//! expected finding code. A freshly built repository must be fully clean.

#![allow(clippy::unwrap_used)] // test/bench/demo code: panics are failures
use mh_check::{fsck, FsckConfig, FsckReport, Severity};
use mh_dlv::{ArchiveConfig, CommitRequest, Repository};
use mh_dnn::{zoo, Weights};
use mh_store::{Catalog, Predicate, Value};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-check-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Shift every weight by a small constant — successive snapshots stay
/// close together, so archival produces genuine delta chains.
fn perturbed(base: &mh_dnn::Weights, eps: f32) -> mh_dnn::Weights {
    let mut w = base.clone();
    for name in w.layer_names() {
        for v in w.get_mut(&name).unwrap().as_mut_slice() {
            *v += eps;
        }
    }
    w
}

/// Build a repository with two archived versions (with lineage and an
/// associated file) and one still-staged version.
fn build_repo(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let repo = Repository::init(&dir).unwrap();
    let net = zoo::lenet_s(3);
    let w0 = Weights::init(&net, 1).unwrap();

    let mut req = CommitRequest::new("a", net.clone());
    req.snapshots = vec![(0, w0.clone()), (5, perturbed(&w0, 1e-3))];
    req.files
        .push(("train.cfg".into(), b"base_lr=0.05\n".to_vec()));
    req.comment = "base".into();
    repo.commit(&req).unwrap();

    let mut req = CommitRequest::new("b", net.clone());
    req.snapshots = vec![(0, perturbed(&w0, 2e-3))];
    req.parent = Some("a:1".into());
    req.comment = "derived".into();
    repo.commit(&req).unwrap();

    repo.archive(&ArchiveConfig::default()).unwrap();

    // A third, still-staged version.
    let mut req = CommitRequest::new("c", net.clone());
    req.snapshots = vec![(0, perturbed(&w0, 3e-3))];
    req.parent = Some("b:1".into());
    req.comment = "staged".into();
    repo.commit(&req).unwrap();
    dir
}

fn run(dir: &Path) -> FsckReport {
    fsck(dir, &FsckConfig::default()).unwrap()
}

fn codes(report: &FsckReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.code).collect()
}

/// Mutate the catalog through the same mh-store API the repository uses.
fn with_catalog(
    dir: &Path,
    f: impl FnOnce(&mut mh_store::Database) -> Result<(), mh_store::StoreError>,
) {
    let catalog = Catalog::open(&dir.join("catalog.mhs")).unwrap();
    catalog.write(f).unwrap();
}

/// The store directory created by `archive` (exactly one in `build_repo`).
fn store_dir(dir: &Path) -> PathBuf {
    let mut stores: Vec<PathBuf> = std::fs::read_dir(dir.join("pas"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    stores.sort();
    assert_eq!(stores.len(), 1, "build_repo makes one store");
    stores.remove(0)
}

#[test]
fn clean_repo_has_zero_findings() {
    let dir = build_repo("clean");
    let report = run(&dir);
    assert!(
        report.is_clean(),
        "unexpected findings: {:?}",
        report.findings
    );
    assert_eq!(report.versions_checked, 3);
    assert_eq!(report.stores_checked, 1);

    // Deep mode is also clean and reports per-snapshot bounds.
    let deep = fsck(&dir, &FsckConfig { deep: true }).unwrap();
    assert!(deep.is_clean(), "deep findings: {:?}", deep.findings);
    assert!(!deep.bounds.is_empty(), "deep mode reports snapshot bounds");
    assert!(deep.bounds.iter().any(|b| b.snapshot == "a:1/s0"));
    for b in &deep.bounds {
        assert!(b.worst_width >= 0.0 && b.layers > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_archive_rounds_are_deep_clean() {
    // Archive `a`, then commit `b` and archive again: two stores, each
    // snapshot bound to the round that archived it.
    let dir = temp_dir("two-rounds");
    let repo = Repository::init(&dir).unwrap();
    let net = zoo::lenet_s(3);
    let w0 = Weights::init(&net, 1).unwrap();
    let mut req = CommitRequest::new("a", net.clone());
    req.snapshots = vec![(0, w0.clone()), (5, perturbed(&w0, 1e-3))];
    repo.commit(&req).unwrap();
    repo.archive(&ArchiveConfig::default()).unwrap();
    let mut req = CommitRequest::new("b", net.clone());
    req.snapshots = vec![(0, perturbed(&w0, 2e-3)), (5, perturbed(&w0, 3e-3))];
    req.parent = Some("a:1".into());
    repo.commit(&req).unwrap();
    repo.archive(&ArchiveConfig::default()).unwrap();

    let deep = fsck(&dir, &FsckConfig { deep: true }).unwrap();
    assert!(deep.is_clean(), "deep findings: {:?}", deep.findings);
    assert_eq!(deep.stores_checked, 2);
    for snapshot in ["a:1/s0", "a:1/s1", "b:1/s0", "b:1/s1"] {
        assert!(
            deep.bounds.iter().any(|b| b.snapshot == snapshot),
            "no bound for {snapshot}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- catalog corruption ----------------------------------------------

#[test]
fn deleted_version_row_dangles_children_and_lineage() {
    let dir = build_repo("delrow");
    with_catalog(&dir, |db| {
        let rows = db
            .table("model_version")?
            .select(&Predicate::Eq("name".into(), Value::Text("a".into())));
        db.table_mut("model_version")?.delete(rows[0].id);
        Ok(())
    });
    let report = run(&dir);
    let codes = codes(&report);
    assert!(
        codes.contains(&mh_check::C_DANGLING_VERSION_REF),
        "{:?}",
        report.findings
    );
    assert!(
        codes.contains(&mh_check::C_DANGLING_LINEAGE),
        "{:?}",
        report.findings
    );
    assert!(report.errors() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rewired_lineage_edge_makes_a_cycle() {
    let dir = build_repo("lincycle");
    with_catalog(&dir, |db| {
        // b derives from a and c from b already; adding a:1 ← c:1 closes
        // the loop a → b → c → a.
        db.table_mut("parent")?.insert(vec![
            Value::Text("c:1".into()),
            Value::Text("a:1".into()),
            Value::Text("rewired".into()),
        ])?;
        Ok(())
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::C_LINEAGE_CYCLE),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lineage_edge_to_missing_version() {
    let dir = build_repo("linmiss");
    with_catalog(&dir, |db| {
        let row = db.table("parent")?.scan().next().unwrap();
        db.table_mut("parent")?
            .update(row.id, "base", Value::Text("ghost:7".into()))?;
        Ok(())
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::C_DANGLING_LINEAGE),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_to_missing_node_and_bad_layer_def() {
    let dir = build_repo("badnet");
    with_catalog(&dir, |db| {
        let edge = db.table("edge")?.scan().next().unwrap();
        db.table_mut("edge")?
            .update(edge.id, "to_id", Value::Int(9999))?;
        let node = db.table("node")?.scan().next().unwrap();
        db.table_mut("node")?
            .update(node.id, "def", Value::Text("quantum(42)".into()))?;
        Ok(())
    });
    let report = run(&dir);
    let codes = codes(&report);
    assert!(
        codes.contains(&mh_check::C_BAD_EDGE_ENDPOINT),
        "{:?}",
        report.findings
    );
    assert!(
        codes.contains(&mh_check::C_BAD_LAYER_DEF),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_snapshot_location_scheme() {
    let dir = build_repo("badloc");
    with_catalog(&dir, |db| {
        let row = db.table("snapshot")?.scan().next().unwrap();
        db.table_mut("snapshot")?
            .update(row.id, "location", Value::Text("ftp://nope".into()))?;
        Ok(())
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::C_BAD_SNAPSHOT_LOCATION),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---- blob corruption --------------------------------------------------

#[test]
fn truncated_staged_blob() {
    let dir = build_repo("truncblob");
    let blob = dir.join("weights").join("c_1_s0.mhw");
    let bytes = std::fs::read(&blob).unwrap();
    std::fs::write(&blob, &bytes[..bytes.len() / 2]).unwrap();
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::B_CORRUPT_BLOB),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_staged_blob_and_orphan() {
    let dir = build_repo("missblob");
    let blob = dir.join("weights").join("c_1_s0.mhw");
    std::fs::rename(&blob, dir.join("weights").join("stray.mhw")).unwrap();
    let report = run(&dir);
    let codes = codes(&report);
    assert!(
        codes.contains(&mh_check::B_MISSING_BLOB),
        "{:?}",
        report.findings
    );
    assert!(
        codes.contains(&mh_check::B_ORPHAN_BLOB),
        "{:?}",
        report.findings
    );
    // The orphan alone is a warning, the missing blob an error.
    assert!(report.errors() >= 1 && report.warnings() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_object_hash_mismatch() {
    let dir = build_repo("tamperobj");
    let obj = std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .flatten()
        .next()
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&obj).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&obj, &bytes).unwrap();
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::B_HASH_MISMATCH),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deleted_object_is_missing() {
    let dir = build_repo("missobj");
    let obj = std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .flatten()
        .next()
        .unwrap()
        .path();
    std::fs::remove_file(&obj).unwrap();
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::B_MISSING_OBJECT),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dangling_pas_vertex_row() {
    let dir = build_repo("dangvert");
    with_catalog(&dir, |db| {
        let row = db.table("pas_vertex")?.scan().next().unwrap();
        db.table_mut("pas_vertex")?
            .update(row.id, "vertex", Value::Int(424242))?;
        Ok(())
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::B_DANGLING_PAS_VERTEX),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_read_from_another_store_is_flagged() {
    // Two archive rounds number their vertices alike, so pointing a:1's
    // first snapshot at the second store still reads, but b's weights.
    let dir = temp_dir("wrongstore");
    let repo = Repository::init(&dir).unwrap();
    let net = zoo::lenet_s(3);
    let w0 = Weights::init(&net, 1).unwrap();
    let mut req = CommitRequest::new("a", net.clone());
    req.snapshots = vec![(0, w0.clone())];
    repo.commit(&req).unwrap();
    repo.archive(&ArchiveConfig::default()).unwrap();
    let mut req = CommitRequest::new("b", net);
    req.snapshots = vec![(0, perturbed(&w0, 0.5))];
    repo.commit(&req).unwrap();
    repo.archive(&ArchiveConfig::default()).unwrap();
    with_catalog(&dir, |db| {
        let row = db.table("snapshot")?.scan().next().unwrap();
        assert_eq!(row.values[3], Value::Text("pas:store0000".into()));
        db.table_mut("snapshot")?.update(
            row.id,
            "location",
            Value::Text("pas:store0001".into()),
        )?;
        Ok(())
    });
    let report = run(&dir);
    let codes = codes(&report);
    assert!(!codes.is_empty(), "{:?}", report.findings);
    assert!(
        codes.iter().all(|c| *c == mh_check::B_DANGLING_PAS_VERTEX),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---- PAS store corruption ---------------------------------------------

/// Rewrite the manifest through a line-level editor.
fn edit_manifest(store: &Path, f: impl Fn(usize, &str) -> String) {
    let path = store.join("manifest.mhp");
    let text = std::fs::read_to_string(&path).unwrap();
    let out: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, line)| f(i, line))
        .collect();
    std::fs::write(&path, out.join("\n") + "\n").unwrap();
}

/// 0-based manifest line index of the first delta (non-mat) row.
fn first_delta_line(store: &Path) -> usize {
    let text = std::fs::read_to_string(store.join("manifest.mhp")).unwrap();
    text.lines()
        .position(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            f.len() == 10 && f[1] != "mat"
        })
        .expect("archive produces delta chains")
}

#[test]
fn broken_plan_parent_edge_dangles() {
    let dir = build_repo("dangpar");
    let store = store_dir(&dir);
    let target = first_delta_line(&store);
    edit_manifest(&store, |i, line| {
        if i == target {
            let mut f: Vec<&str> = line.split('\t').collect();
            f[2] = "424242";
            f.join("\t")
        } else {
            line.to_string()
        }
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::P_DANGLING_PARENT),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_parent_cycle_detected_without_hanging() {
    let dir = build_repo("plancycle");
    let store = store_dir(&dir);
    let target = first_delta_line(&store);
    // Point the delta at itself: a one-vertex cycle, unreachable from ν₀.
    edit_manifest(&store, |i, line| {
        if i == target {
            let mut f: Vec<&str> = line.split('\t').collect();
            let own = f[0].to_string();
            f[2] = &own;
            return f.join("\t");
        }
        line.to_string()
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::P_CHAIN_CYCLE),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_manifest_header_and_rows() {
    let dir = build_repo("badmanifest");
    let store = store_dir(&dir);
    let path = store.join("manifest.mhp");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replacen("MHPAS1", "MHPASX", 1)).unwrap();
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::P_BAD_MANIFEST),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn materialized_mid_chain_and_rootless_delta() {
    let dir = build_repo("badkinds");
    let store = store_dir(&dir);
    let target = first_delta_line(&store);
    // Turn the first delta's parent to 0: a rootless delta chain.
    edit_manifest(&store, |i, line| {
        if i == target {
            let mut f: Vec<&str> = line.split('\t').collect();
            f[2] = "0";
            return f.join("\t");
        }
        line.to_string()
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::P_ROOT_NOT_MATERIALIZED),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_and_truncated_plane_files() {
    let dir = build_repo("planes");
    let store = store_dir(&dir);
    let mut planes: Vec<PathBuf> = std::fs::read_dir(&store)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "mhz"))
        .collect();
    planes.sort();
    // Pick two non-empty planes: delete one, truncate another.
    let fat: Vec<&PathBuf> = planes
        .iter()
        .filter(|p| std::fs::metadata(p).unwrap().len() > 2)
        .collect();
    assert!(fat.len() >= 2);
    std::fs::remove_file(fat[0]).unwrap();
    let bytes = std::fs::read(fat[1]).unwrap();
    std::fs::write(fat[1], &bytes[..bytes.len() - 1]).unwrap();
    let report = run(&dir);
    let codes = codes(&report);
    assert!(
        codes.contains(&mh_check::P_MISSING_PLANE),
        "{:?}",
        report.findings
    );
    assert!(
        codes.contains(&mh_check::P_PLANE_SIZE_MISMATCH),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_manifest_vertex_row() {
    let dir = build_repo("dupvert");
    let store = store_dir(&dir);
    let path = store.join("manifest.mhp");
    let text = std::fs::read_to_string(&path).unwrap();
    let dup = text.lines().nth(1).unwrap().to_string();
    std::fs::write(&path, format!("{text}{dup}\n")).unwrap();
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::P_DUPLICATE_VERTEX),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_numeric_rows_field_is_a_bad_manifest_to_both_checkers() {
    let dir = build_repo("badrows");
    let store = store_dir(&dir);
    edit_manifest(&store, |i, line| {
        if i == 1 {
            let mut f: Vec<&str> = line.split('\t').collect();
            f[3] = "x";
            return f.join("\t");
        }
        line.to_string()
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::P_BAD_MANIFEST),
        "{:?}",
        report.findings
    );
    let repo = Repository::open(&dir).unwrap();
    assert!(
        repo.get_weights("a:1", None).is_err(),
        "the store must not open either"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_vertex_row_fails_the_repository_check_too() {
    let dir = build_repo("duprepo");
    let store = store_dir(&dir);
    let target = first_delta_line(&store);
    let path = store.join("manifest.mhp");
    let text = std::fs::read_to_string(&path).unwrap();
    let dup = text.lines().nth(target).unwrap().to_string();
    std::fs::write(&path, format!("{text}{dup}\n")).unwrap();
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::P_DUPLICATE_VERTEX),
        "{:?}",
        report.findings
    );
    let err = Repository::open(&dir)
        .unwrap()
        .get_weights("a:1", None)
        .unwrap_err();
    assert!(err.to_string().contains("duplicate vertex"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_file_in_store_is_an_orphan_warning() {
    let dir = build_repo("strayplane");
    let store = store_dir(&dir);
    std::fs::write(store.join("notes.txt"), b"scratch").unwrap();
    let report = run(&dir);
    let f = report
        .findings
        .iter()
        .find(|f| f.code == mh_check::P_ORPHAN_PLANE)
        .unwrap_or_else(|| panic!("{:?}", report.findings));
    assert_eq!(f.severity, Severity::Warning);
    std::fs::remove_dir_all(&dir).ok();
}

// ---- error-bound / budget corruption ----------------------------------

#[test]
fn tampered_budget_is_flagged() {
    let dir = build_repo("budget");
    with_catalog(&dir, |db| {
        let row = db.table("pas_budget")?.scan().next().unwrap();
        let cost = row.values[4].as_real().unwrap();
        db.table_mut("pas_budget")?
            .update(row.id, "budget", Value::Real(cost / 2.0))?;
        Ok(())
    });
    let report = run(&dir);
    let f = report
        .findings
        .iter()
        .find(|f| f.code == mh_check::E_BUDGET_EXCEEDED)
        .unwrap_or_else(|| panic!("{:?}", report.findings));
    assert_eq!(f.severity, Severity::Error);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_row_for_unknown_store() {
    let dir = build_repo("budgetstore");
    with_catalog(&dir, |db| {
        let row = db.table("pas_budget")?.scan().next().unwrap();
        db.table_mut("pas_budget")?
            .update(row.id, "store", Value::Text("store9999".into()))?;
        Ok(())
    });
    let report = run(&dir);
    assert!(
        codes(&report).contains(&mh_check::E_BUDGET_STORE_MISSING),
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_budget_table_is_a_warning_for_archived_repos() {
    let dir = build_repo("nobudget");
    with_catalog(&dir, |db| {
        db.drop_table("pas_budget");
        Ok(())
    });
    let report = run(&dir);
    let f = report
        .findings
        .iter()
        .find(|f| f.code == mh_check::E_MISSING_BUDGET_TABLE)
        .unwrap_or_else(|| panic!("{:?}", report.findings));
    assert_eq!(f.severity, Severity::Warning);
    // Pre-upgrade repos must not be flagged as damaged.
    assert_eq!(report.errors(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deep_check_flags_undecodable_plane_data() {
    let dir = build_repo("deepbound");
    let store = store_dir(&dir);
    // Overwrite a plane-0 stream with same-length garbage and keep the
    // manifest size intact: structure checks pass, but decoding the plane
    // fails at the default level, and deriving interval bounds from the
    // prefix fails in deep mode.
    let plane = std::fs::read_dir(&store)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with("_p0.mhz"))
        .find(|p| std::fs::metadata(p).unwrap().len() > 8)
        .expect("a non-trivial plane-0 file");
    let len = std::fs::metadata(&plane).unwrap().len() as usize;
    std::fs::write(&plane, vec![0xAB; len]).unwrap();

    let shallow = run(&dir);
    let store_loc = format!("pas/{}", store.file_name().unwrap().to_string_lossy());
    assert_eq!(
        shallow
            .findings
            .iter()
            .map(|f| (f.code, f.location.as_str()))
            .collect::<Vec<_>>(),
        [(mh_check::P_UNDECODABLE_STORE, store_loc.as_str())],
        "structure intact, one store that does not decode"
    );
    let deep = fsck(&dir, &FsckConfig { deep: true }).unwrap();
    assert!(
        deep.findings
            .iter()
            .any(|f| f.code == mh_check::E_BOUND_VIOLATION),
        "{:?}",
        deep.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_network_that_does_not_infer_shapes_is_flagged() {
    let dir = build_repo("badshape");
    with_catalog(&dir, |db| {
        // Wire a's last layer back to its first: the network has a cycle.
        let mv = db
            .table("model_version")?
            .select(&Predicate::Eq("name".into(), Value::Text("a".into())))[0]
            .id as i64;
        let ids: Vec<i64> = db
            .table("node")?
            .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
            .iter()
            .filter_map(|r| r.values[1].as_int())
            .collect();
        let (first, last) = (*ids.iter().min().unwrap(), *ids.iter().max().unwrap());
        db.table_mut("edge")?
            .insert(vec![Value::Int(mv), Value::Int(last), Value::Int(first)])?;
        Ok(())
    });
    let report = run(&dir);
    assert_eq!(
        codes(&report),
        [mh_check::C_BAD_NETWORK],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.starts_with("a:1: "));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn archived_snapshot_without_vertex_rows() {
    let dir = build_repo("novertices");
    with_catalog(&dir, |db| {
        let rows = db
            .table("pas_vertex")?
            .select(&Predicate::Eq("snap_idx".into(), Value::Int(1)));
        assert!(!rows.is_empty());
        for r in rows {
            db.table_mut("pas_vertex")?.delete(r.id);
        }
        Ok(())
    });
    let report = run(&dir);
    assert_eq!(
        codes(&report),
        [mh_check::B_NO_PAS_VERTICES],
        "{:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}
