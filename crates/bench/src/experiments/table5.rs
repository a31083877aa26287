//! Table V — snapshot recreation wall-clock for different storage plans.
//!
//! An SD-style checkpoint chain is physically stored three ways —
//! full materialization (SPT), minimum storage (MST), and a PAS plan at
//! α = 1.6 — then each snapshot group is recreated at full precision and
//! at 2-byte / 1-byte partial precision, under the Independent (one
//! member after another) and Parallel retrieval schemes. The Parallel read
//! is one plane-prefix refinement of the whole group: its decode fans out
//! to the worker pool and shared chain objects are decoded once, so it is
//! also Table III's reusable scheme (ψr).

use crate::report::{results_dir, Table};
use crate::workload::checkpointed_model;
use mh_compress::Level;
use mh_delta::DeltaOp;
use mh_pas::{
    apply_alpha_budgets, solver, CostModel, GraphBuilder, RetrievalScheme, SegmentStore,
    StorageGraph, StoragePlan, VertexId,
};
use mh_tensor::Matrix;
use std::collections::BTreeMap;

struct Setup {
    graph: StorageGraph,
    matrices: BTreeMap<VertexId, Matrix>,
    groups: Vec<Vec<VertexId>>,
}

fn build(snapshots: usize, iters_each: usize) -> Setup {
    let m = checkpointed_model(snapshots, iters_each);
    let mut builder = GraphBuilder::new(CostModel::default());
    let mut indices = Vec::new();
    for (idx, (_, w)) in m.result.snapshots.iter().enumerate() {
        builder.add_snapshot("chain", idx, w);
        indices.push(idx);
    }
    builder.link_version_chain("chain", &indices);
    let groups = (0..indices.len())
        .map(|i| builder.snapshot_members("chain", i).expect("group"))
        .collect();
    let (graph, matrices) = builder.finish();
    Setup {
        graph,
        matrices,
        groups,
    }
}

/// Wall-clock of recreating every group, averaged per snapshot, in ms.
fn measure(store: &SegmentStore, groups: &[Vec<VertexId>], planes: usize, parallel: bool) -> f64 {
    let reps = 3;
    let start = mh_par::sync::now();
    for _ in 0..reps {
        for g in groups {
            if parallel && planes == 4 {
                store.recreate_group_parallel(g).expect("retrieve");
            } else if parallel {
                let mut prefixes: Vec<_> = g
                    .iter()
                    .map(|&v| store.plane_prefix(v).expect("retrieve"))
                    .collect();
                store.refine(&mut prefixes, planes).expect("retrieve");
                for p in &prefixes {
                    p.bounds().expect("retrieve");
                }
            } else {
                for &v in g {
                    if planes == 4 {
                        store.recreate(v).expect("retrieve");
                    } else {
                        store.recreate_bounds(v, planes).expect("retrieve");
                    }
                }
            }
        }
    }
    start.elapsed().as_secs_f64() * 1000.0 / (reps * groups.len()) as f64
}

pub fn run(snapshots: usize, iters_each: usize) -> std::io::Result<()> {
    let setup = build(snapshots, iters_each);
    let scheme = RetrievalScheme::Independent;

    // The three storage plans of the table.
    let spt = solver::spt(&setup.graph).expect("spt");
    let mst = solver::mst(&setup.graph).expect("mst");
    let pas = {
        let mut g = setup.graph.clone();
        apply_alpha_budgets(&mut g, 1.6, scheme).expect("budgets");
        solver::pas_mt(&g, scheme).expect("pas")
    };
    let plans: Vec<(&str, StoragePlan)> = vec![
        ("Materialization (SPT)", spt),
        ("Min storage (MST)", mst),
        ("PAS (alpha=1.6)", pas),
    ];

    let mut t = Table::new(
        "Table V — snapshot recreation performance (ms/snapshot) and disk",
        &[
            "Storage plan",
            "Query",
            "Independent ms",
            "Parallel ms",
            "Disk bytes",
        ],
    );
    for (name, plan) in plans {
        let dir = std::env::temp_dir().join(format!(
            "mh-table5-{}-{}",
            std::process::id(),
            name.chars()
                .filter(char::is_ascii_alphanumeric)
                .collect::<String>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SegmentStore::create(
            &dir,
            &setup.graph,
            &plan,
            &setup.matrices,
            DeltaOp::Sub,
            Level::Default,
        )
        .expect("store");
        let disk = store.bytes_on_disk();
        for (query, planes) in [("Full", 4usize), ("2 bytes", 2), ("1 byte", 1)] {
            let seq = measure(&store, &setup.groups, planes, false);
            let par = measure(&store, &setup.groups, planes, true);
            t.row(vec![
                name.to_string(),
                query.to_string(),
                format!("{seq:.2}"),
                format!("{par:.2}"),
                if query == "Full" {
                    disk.to_string()
                } else {
                    String::new()
                },
            ]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.emit(&results_dir(), "table5")
}
