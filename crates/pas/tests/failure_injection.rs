//! Failure injection: corrupted or missing chunk files, truncated
//! manifests, and mismatched plane data must surface as errors — never
//! panics, never silently wrong matrices.

#![allow(clippy::unwrap_used)] // test/bench/demo code: panics are failures
use mh_compress::Level;
use mh_delta::{bit_equal, DeltaOp};
use mh_pas::{solver, CostModel, GraphBuilder, PasError, SegmentStore};
use mh_tensor::Matrix;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-fi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn build_store(dir: &std::path::Path) -> (SegmentStore, Vec<(mh_pas::VertexId, Matrix)>) {
    let mut b = GraphBuilder::new(CostModel::default());
    let net = mh_dnn::zoo::lenet_s(3);
    let w0 = mh_dnn::Weights::init(&net, 1).unwrap();
    let w1: mh_dnn::Weights = w0
        .layers()
        .map(|(n, m)| (n.clone(), m.map(|x| x + 1e-4)))
        .collect();
    let lv0 = b.add_snapshot("v", 0, &w0);
    let lv1 = b.add_snapshot("v", 1, &w1);
    b.link_version_chain("v", &[0, 1]);
    let (g, mats) = b.finish();
    let plan = solver::mst(&g).unwrap();
    let store = SegmentStore::create(dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
    let mut expected = Vec::new();
    for (layer, &v) in lv0.iter().chain(lv1.iter()) {
        let m = mats[&v].clone();
        let _ = layer;
        expected.push((v, m));
    }
    (store, expected)
}

#[test]
fn bitflip_in_chunk_is_detected() {
    let dir = temp_dir("bitflip");
    let (store, expected) = build_store(&dir);
    // Sanity: everything recreates.
    for (v, m) in &expected {
        assert!(bit_equal(&store.recreate(*v).unwrap(), m));
    }
    // Flip one byte in every chunk file, one at a time; at least the
    // affected vertex must fail (checksum) — and no call may panic.
    let mut detected = 0usize;
    let chunks: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "mhz"))
        .collect();
    assert!(!chunks.is_empty());
    for chunk in &chunks {
        let orig = std::fs::read(chunk).unwrap();
        let mut bad = orig.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x5a;
        std::fs::write(chunk, &bad).unwrap();
        let any_err = expected.iter().any(|(v, _)| store.recreate(*v).is_err());
        if any_err {
            detected += 1;
        }
        std::fs::write(chunk, &orig).unwrap();
    }
    assert!(
        detected as f64 >= chunks.len() as f64 * 0.9,
        "corruption detected in only {detected}/{} chunks",
        chunks.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_chunk_file_is_an_error() {
    let dir = temp_dir("missing");
    let (store, expected) = build_store(&dir);
    // Remove the first chunk file.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "mhz"))
        .unwrap();
    std::fs::remove_file(&victim).unwrap();
    let mut failures = 0;
    for (v, _) in &expected {
        match store.recreate(*v) {
            Err(PasError::Io(_)) => failures += 1,
            Err(_) => failures += 1,
            Ok(_) => {}
        }
    }
    assert!(
        failures >= 1,
        "a missing chunk must break at least one chain"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Cut one plane file of `v`'s own object to half its length.
fn truncate_plane(dir: &std::path::Path, v: mh_pas::VertexId) {
    let plane = dir.join(format!("obj{v:06}_p1.mhz"));
    let data = std::fs::read(&plane).unwrap();
    std::fs::write(&plane, &data[..data.len() / 2]).unwrap();
}

#[test]
fn truncated_plane_on_one_chain_fails_the_whole_group() {
    let dir = temp_dir("group-trunc");
    let (store, expected) = build_store(&dir);
    let members: Vec<mh_pas::VertexId> = expected.iter().map(|(v, _)| *v).collect();
    let victim = *members.last().unwrap();
    truncate_plane(&dir, victim);
    // The group read is all or nothing: an error, no partial result.
    assert!(store.recreate_group_parallel(&members).is_err());
    assert!(store.recreate(victim).is_err());
    // Members whose chains avoid the victim still read on their own.
    let intact = expected
        .iter()
        .filter(|(v, _)| store.plane_prefix(*v).unwrap().chain_len() == 1 && *v != victim)
        .inspect(|(v, m)| assert!(bit_equal(&store.recreate(*v).unwrap(), m)))
        .count();
    assert!(intact > 0, "every chain ran through the victim");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_plane_makes_get_weights_a_pas_error() {
    use mh_dlv::{ArchiveConfig, CommitRequest, DlvError, Repository};
    let dir = temp_dir("dlv-trunc");
    let repo = Repository::init(&dir).unwrap();
    let net = mh_dnn::zoo::lenet_s(3);
    let w0 = mh_dnn::Weights::init(&net, 1).unwrap();
    let w1: mh_dnn::Weights = w0
        .layers()
        .map(|(n, m)| (n.clone(), m.map(|x| x + 1e-4)))
        .collect();
    let mut req = CommitRequest::new("m", net);
    req.snapshots = vec![(0, w0), (1, w1.clone())];
    repo.commit(&req).unwrap();
    repo.archive(&ArchiveConfig::default()).unwrap();
    assert_eq!(repo.get_weights("m", Some(1)).unwrap(), w1);
    let (store_dir, layers) = repo.pas_binding("m", Some(1)).unwrap();
    truncate_plane(&store_dir, *layers.values().next().unwrap());
    assert!(matches!(
        repo.get_weights("m", Some(1)),
        Err(DlvError::Pas(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_manifest_rejected_on_open() {
    let dir = temp_dir("manifest");
    let (_store, _) = build_store(&dir);
    let manifest = dir.join("manifest.mhp");

    // Garbage header.
    std::fs::write(&manifest, "NOT A MANIFEST\n").unwrap();
    assert!(matches!(
        SegmentStore::open(&dir),
        Err(PasError::Corrupt(_))
    ));

    // Structurally valid header, broken row.
    std::fs::write(
        &manifest,
        "MHPAS1\n1\tmat\tnot-a-number\t2\t2\t1\t1\t1\t1\tx\n",
    )
    .unwrap();
    assert!(matches!(
        SegmentStore::open(&dir),
        Err(PasError::Corrupt(_))
    ));

    // Truncated row arity.
    std::fs::write(&manifest, "MHPAS1\n1\tmat\t0\n").unwrap();
    assert!(matches!(
        SegmentStore::open(&dir),
        Err(PasError::Corrupt(_))
    ));

    // Missing manifest entirely.
    std::fs::remove_file(&manifest).unwrap();
    assert!(matches!(SegmentStore::open(&dir), Err(PasError::Io(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_pointing_at_wrong_shapes_fails_cleanly() {
    let dir = temp_dir("shapes");
    let (_store, expected) = build_store(&dir);
    // Rewrite the manifest doubling every row count: plane byte counts no
    // longer match rows*cols, which decode must reject.
    let manifest = dir.join("manifest.mhp");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let mut out = String::from("MHPAS1\n");
    for line in text.lines().skip(1) {
        let mut f: Vec<String> = line.split('\t').map(str::to_string).collect();
        let rows: usize = f[3].parse().unwrap();
        f[3] = (rows * 2).to_string();
        out.push_str(&f.join("\t"));
        out.push('\n');
    }
    std::fs::write(&manifest, out).unwrap();
    let store = SegmentStore::open(&dir).unwrap();
    for (v, _) in &expected {
        assert!(
            store.recreate(*v).is_err(),
            "shape lie must not produce data"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn weight_blob_corruption_detected_by_dlv() {
    use mh_dlv::{CommitRequest, Repository};
    let dir = temp_dir("dlv-blob");
    let repo = Repository::init(&dir).unwrap();
    let net = mh_dnn::zoo::lenet_s(3);
    let w = mh_dnn::Weights::init(&net, 1).unwrap();
    let mut req = CommitRequest::new("m", net);
    req.snapshots = vec![(0, w)];
    repo.commit(&req).unwrap();
    // Corrupt the staged blob.
    let blob = std::fs::read_dir(dir.join("weights"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let mut data = std::fs::read(&blob).unwrap();
    let mid = data.len() - 8;
    data[mid] ^= 0xff;
    std::fs::write(&blob, data).unwrap();
    assert!(repo.get_weights("m", None).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_catalog_rejected() {
    use mh_dlv::Repository;
    let dir = temp_dir("dlv-cat");
    Repository::init(&dir).unwrap();
    let cat = dir.join("catalog.mhs");
    let mut data = std::fs::read(&cat).unwrap();
    data.truncate(data.len() / 2);
    std::fs::write(&cat, data).unwrap();
    assert!(Repository::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
