//! Fig 6(d) — progressive query evaluation using high-order bytes.
//!
//! Each of the three trained models is archived; every test input is then
//! answered progressively (top-1 and top-k). We report, per prefix size,
//! the fraction of compressed data that had to be retrieved and the
//! fraction of queries whose prediction was *not yet* determined at that
//! prefix (the "error rate requiring lower-order bytes"). Each row runs on
//! a fresh evaluator, so its first query pays for decoding the planes the
//! levels it reaches need ("cold"), and the rest reuse them ("warm").

use crate::report::{results_dir, Table};
use crate::workload::three_models;
use mh_compress::Level;
use mh_delta::DeltaOp;
use mh_pas::{
    solver, BatchStats, CostModel, GraphBuilder, ModelBinding, ProgressiveEvaluator, SegmentStore,
};

pub fn run(classes: usize, iters: usize) -> std::io::Result<()> {
    let models = three_models(classes, iters);
    let mut t = Table::new(
        "Fig 6(d) — progressive evaluation: data retrieved vs undetermined queries",
        &[
            "Model",
            "top-k",
            "avg % data read",
            "% undetermined @1B",
            "% undetermined @2B",
            "% undetermined @3B",
            "accuracy",
            "cold first query ms",
            "warm ms/query",
        ],
    );
    for m in &models {
        // Archive the final snapshot (materialized, MST of one snapshot).
        let mut builder = GraphBuilder::new(CostModel::default());
        let lv = builder.add_snapshot(m.name, 0, &m.result.weights);
        let (graph, mats) = builder.finish();
        let plan = solver::mst(&graph).expect("mst");
        let dir = std::env::temp_dir().join(format!("mh-fig6d-{}-{}", std::process::id(), m.name));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SegmentStore::create(&dir, &graph, &plan, &mats, DeltaOp::Sub, Level::Default)
            .expect("store");
        let binding = ModelBinding::new(m.network.clone(), lv);

        for top_k in [1usize, 3] {
            let ev = ProgressiveEvaluator::new(&store, &binding);
            let mut stats = BatchStats::default();
            let mut ms = Vec::with_capacity(m.data.test.len());
            for (x, label) in &m.data.test {
                let start = mh_par::sync::now();
                stats.record(&ev.eval(x, top_k).expect("eval"), *label);
                ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            let (cold, warm) = ms.split_first().expect("test inputs");
            let warm_ms = warm.iter().sum::<f64>() / warm.len().max(1) as f64;
            t.row(vec![
                m.name.to_string(),
                format!("top-{top_k}"),
                format!("{:.1}", stats.read_fraction() * 100.0),
                format!("{:.1}", stats.fraction_beyond(1) * 100.0),
                format!("{:.1}", stats.fraction_beyond(2) * 100.0),
                format!("{:.1}", stats.fraction_beyond(3) * 100.0),
                format!("{:.3}", stats.accuracy()),
                format!("{cold:.2}"),
                format!("{warm_ms:.3}"),
            ]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.emit(&results_dir(), "fig6d")
}
