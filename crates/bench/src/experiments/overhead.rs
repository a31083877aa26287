//! Observability overhead guards — `repro overhead`.
//!
//! One fixed workload: a serial archival build (`SegmentStore::create`,
//! delta encode + per-plane compression) of every snapshot of the three
//! §V-A models, version chains linked and α budgets applied. Two legs time
//! that build with an instrumentation layer off and on, and assert a budget:
//!
//! * span tracing, when turned on, costs ≤ 5 % of the untraced build;
//! * the always-on flight recorder (armed ring, tracing off) costs ≤ 3 % of
//!   the fully-disarmed build.
//!
//! Each leg times [`SAMPLES`] samples of a fixed [`BUILDS_PER_SAMPLE`]-build
//! workload so a single build's jitter can't dominate, compares the
//! medians (robust to one slow outlier in either leg, unlike min, which
//! reports negative overhead whenever the baseline catches one lucky run),
//! and clamps the percentage at zero: instrumentation cannot speed a build
//! up, so a negative reading is timer noise, not data. A 10 ms floor keeps
//! sub-second builds from gating on scheduler noise. Both legs are skipped
//! when ambient tracing is already on at entry (under `modelhub prof` or
//! `--trace`): there is no clean baseline then.

use crate::report::{results_dir, Table};
use mh_compress::Level;
use mh_delta::DeltaOp;
use mh_pas::{apply_alpha_budgets, solver, CostModel, GraphBuilder, RetrievalScheme, SegmentStore};
use std::path::{Path, PathBuf};

/// Timed samples per leg side; the median is reported.
const SAMPLES: usize = 5;

/// Store builds per timed sample.
const BUILDS_PER_SAMPLE: usize = 3;

/// One leg's medians: baseline and instrumented, in milliseconds.
struct Leg {
    baseline_ms: f64,
    instrumented_ms: f64,
}

impl Leg {
    /// Overhead in percent, clamped at zero.
    fn pct(&self) -> f64 {
        let raw = if self.baseline_ms > 0.0 {
            (self.instrumented_ms - self.baseline_ms) / self.baseline_ms * 100.0
        } else {
            0.0
        };
        raw.max(0.0)
    }
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-bench-overhead-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

pub fn run(quick: bool) -> std::io::Result<()> {
    let iters = if quick { 6 } else { 24 };
    let models = crate::workload::three_models(4, iters);

    let mut builder = GraphBuilder::new(CostModel::default());
    for m in &models {
        let mut indices = Vec::new();
        for (i, w) in &m.result.snapshots {
            builder.add_snapshot(m.name, *i, w);
            indices.push(*i);
        }
        builder.link_version_chain(m.name, &indices);
    }
    let (mut graph, matrices) = builder.finish();
    let scheme = RetrievalScheme::Independent;
    apply_alpha_budgets(&mut graph, 2.0, scheme).expect("alpha budgets");
    let total_bytes: u64 = matrices
        .values()
        .map(|m| (m.rows() * m.cols() * 4) as u64)
        .sum();

    mh_par::set_threads(Some(1));
    let plan = solver::pas_mt(&graph, scheme).expect("pas-mt");
    let median_build_ms = |dir: &Path| -> f64 {
        let mut samples = [0.0f64; SAMPLES];
        for s in &mut samples {
            let start = mh_par::sync::now();
            for _ in 0..BUILDS_PER_SAMPLE {
                let _ = std::fs::remove_dir_all(dir);
                SegmentStore::create(dir, &graph, &plan, &matrices, DeltaOp::Sub, Level::Fast)
                    .expect("overhead-leg store");
            }
            *s = start.elapsed().as_secs_f64() * 1000.0;
        }
        samples.sort_by(f64::total_cmp);
        samples[SAMPLES / 2]
    };

    // Ambient tracing already on (e.g. under `modelhub prof` or `--trace`):
    // there is no untraced baseline, and the recorder's marginal cost is
    // hidden inside the traced build.
    let ambient = mh_obs::enabled();

    // Leg 1 — span tracing: ≤ 5 % of the untraced serial build.
    let trace = (!ambient).then(|| {
        let dir_t = temp_store_dir("traceleg");
        let untraced = median_build_ms(&dir_t);
        mh_obs::enable_capture();
        let traced = median_build_ms(&dir_t);
        let spans = mh_obs::drain_capture().len();
        mh_obs::disable();
        let _ = std::fs::remove_dir_all(&dir_t);
        assert!(spans > 0, "traced build must have recorded spans");
        let leg = Leg {
            baseline_ms: untraced,
            instrumented_ms: traced,
        };
        assert!(
            traced <= untraced * 1.05 + 10.0,
            "tracing overhead {:.1}% exceeds the 5% budget: \
             traced {traced:.1}ms vs untraced {untraced:.1}ms",
            leg.pct()
        );
        leg
    });

    // Leg 2 — flight recorder: ≤ 3 % of the fully-disarmed serial build.
    // The CLI arms the recorder on every invocation, so the leg saves and
    // restores the ambient armed state around its baselines.
    let flightrec = (!ambient).then(|| {
        let was_armed = mh_obs::flightrec::armed();
        let dir_f = temp_store_dir("flightrecleg");
        mh_obs::flightrec::disable();
        let disarmed = median_build_ms(&dir_f);
        mh_obs::flightrec::enable();
        let armed = median_build_ms(&dir_f);
        assert!(
            mh_obs::flightrec::len() > 0,
            "armed build must have recorded spans"
        );
        if !was_armed {
            mh_obs::flightrec::disable();
        }
        let _ = std::fs::remove_dir_all(&dir_f);
        let leg = Leg {
            baseline_ms: disarmed,
            instrumented_ms: armed,
        };
        assert!(
            armed <= disarmed * 1.03 + 10.0,
            "flight-recorder overhead {:.1}% exceeds the 3% budget: \
             armed {armed:.1}ms vs disarmed {disarmed:.1}ms",
            leg.pct()
        );
        leg
    });
    mh_par::set_threads(None);

    let mut t = Table::new(
        &format!(
            "Observability overhead on the serial archival build ({} matrices, {}, \
             median of {SAMPLES} × {BUILDS_PER_SAMPLE} builds)",
            matrices.len(),
            crate::report::human_bytes(total_bytes),
        ),
        &[
            "layer",
            "baseline ms",
            "instrumented ms",
            "overhead",
            "budget",
        ],
    );
    for (name, leg, budget) in [
        ("tracing", trace, "5%"),
        ("flight recorder", flightrec, "3%"),
    ] {
        let [base, inst, pct] = match leg {
            Some(l) => [
                format!("{:.1}", l.baseline_ms),
                format!("{:.1}", l.instrumented_ms),
                format!("{:.1}%", l.pct()),
            ],
            None => ["-".into(), "-".into(), "skipped".into()],
        };
        t.row(vec![name.into(), base, inst, pct, budget.into()]);
    }
    t.emit(&results_dir(), "overhead")?;
    if ambient {
        println!("overhead legs skipped: ambient tracing already enabled");
    }
    Ok(())
}
