//! Parallel archival/retrieval stress: the mh-par fan-out in
//! `SegmentStore::create`, `recreate_group_parallel` and the progressive
//! paths must be invisible — bit-identical stores and matrices at every
//! thread count — and a failing worker must surface an error, never a
//! deadlock or a poisoned caller.
//!
//! The worker-pool width (`mh_par::set_threads`) is process-global and the
//! libtest harness runs tests concurrently, so every test here holds
//! `width_lock` while it runs.

#![allow(clippy::unwrap_used)] // test/bench/demo code: panics are failures
use mh_compress::Level;
use mh_delta::{bit_equal, DeltaOp};
use mh_pas::{solver, CostModel, GraphBuilder, PasError, SegmentStore, StorageGraph, VertexId};
use mh_tensor::Matrix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Serialises the tests in this file: each one sets or relies on the
/// process-global pool width.
fn width_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-parstress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Three snapshots of a small model, version-chained: enough structure for
/// materialize + delta edges on every recreation chain.
fn build_graph() -> (StorageGraph, BTreeMap<VertexId, Matrix>) {
    let mut b = GraphBuilder::new(CostModel::default());
    let net = mh_dnn::zoo::lenet_s(3);
    let w0 = mh_dnn::Weights::init(&net, 7).unwrap();
    let w1: mh_dnn::Weights = w0
        .layers()
        .map(|(n, m)| (n.clone(), m.map(|x| x * 0.99 + 3e-4)))
        .collect();
    let w2: mh_dnn::Weights = w1
        .layers()
        .map(|(n, m)| (n.clone(), m.map(|x| x * 1.01 - 2e-4)))
        .collect();
    b.add_snapshot("v", 0, &w0);
    b.add_snapshot("v", 1, &w1);
    b.add_snapshot("v", 2, &w2);
    b.link_version_chain("v", &[0, 1, 2]);
    let (g, mats) = b.finish();
    (g, mats)
}

/// Sorted (file name, contents) of a store directory.
type StoreFingerprint = Vec<(String, Vec<u8>)>;

fn dir_fingerprint(dir: &Path) -> StoreFingerprint {
    let mut entries: StoreFingerprint = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn archival_and_retrieval_bit_identical_across_thread_counts() {
    let _width = width_lock();
    let (graph, mats) = build_graph();
    let plan = solver::mst(&graph).unwrap();
    let verts: Vec<VertexId> = graph.matrix_vertices().collect();

    // Batch-budget independence of the pool itself is covered by mh-par's
    // own unit tests; here the width sweep runs at the fixed budget.
    let mut baseline: Option<(StoreFingerprint, Vec<Matrix>)> = None;
    for threads in [1usize, 2, 8] {
        mh_par::set_threads(Some(threads));
        let dir = temp_dir(&format!("sweep-{threads}"));
        let store =
            SegmentStore::create(&dir, &graph, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let files = dir_fingerprint(&dir);
        let group = store.recreate_group_parallel(&verts).unwrap();
        // Per-vertex retrieval agrees with the group path at this width.
        for (m, &v) in group.iter().zip(&verts) {
            assert!(
                bit_equal(m, &store.recreate(v).unwrap()),
                "group vs single retrieval diverged at {threads} threads"
            );
        }
        match &baseline {
            None => baseline = Some((files, group)),
            Some((base_files, base_group)) => {
                assert_eq!(
                    base_files, &files,
                    "store layout differs at {threads} threads"
                );
                for (a, b) in base_group.iter().zip(&group) {
                    assert!(
                        bit_equal(a, b),
                        "retrieved matrices differ at {threads} threads"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    mh_par::set_threads(None);
}

#[test]
fn failing_worker_surfaces_error_not_deadlock() {
    // A chunk deleted after create makes some recreation chains fail inside
    // pool workers. The parallel group call must return Err (not hang, not
    // panic).
    let _width = width_lock();
    let (graph, mats) = build_graph();
    let plan = solver::mst(&graph).unwrap();
    let verts: Vec<VertexId> = graph.matrix_vertices().collect();
    let dir = temp_dir("worker-fail");
    let store =
        SegmentStore::create(&dir, &graph, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "mhz") {
            std::fs::remove_file(&p).unwrap();
        }
    }
    let err = store.recreate_group_parallel(&verts).unwrap_err();
    assert!(
        matches!(
            err,
            PasError::Io(_) | PasError::Corrupt(_) | PasError::Parallel(_)
        ),
        "unexpected error kind: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_propagates_through_pool_with_pas_error_conversion() {
    // Drive the pool directly with a panicking closure over PAS inputs and
    // check the PasError::from conversion the archival paths rely on: the
    // producer must not deadlock and the panic message must survive.
    let _width = width_lock();
    let (graph, _) = build_graph();
    let verts: Vec<VertexId> = graph.matrix_vertices().collect();
    assert!(verts.len() >= 8, "need enough items to keep the queue busy");
    let failing = verts[verts.len() / 2];
    mh_par::set_threads(Some(4));
    let result = mh_par::parallel_map(&verts, |&v| {
        if v == failing {
            panic!("injected failure on vertex {v}");
        }
        v
    });
    mh_par::set_threads(None);
    let err = PasError::from(result.unwrap_err());
    let msg = err.to_string();
    assert!(
        msg.contains("injected failure"),
        "panic payload lost in transit: {msg}"
    );
    assert!(matches!(err, PasError::Parallel(_)));
}
