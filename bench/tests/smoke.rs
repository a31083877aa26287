//! A `--scale 0.02` run of all four workloads, untraced and traced: every
//! metric the tables name is emitted with a finite value, no operation
//! fails, each traced run leaves a trace file, and the whole thing takes
//! seconds.

use mh_lifecycle_bench::gen::WORKLOADS;
use mh_lifecycle_bench::metrics::{END_TO_END, PER_LAYER};
use mh_lifecycle_bench::run::{run_workload, trace_path, Options};
use std::path::Path;
use std::time::Instant;

// One test, not one per mode: the runs set the process-wide `mh-par`
// thread override, which parallel test threads would share.
#[test]
fn smoke_run_emits_every_metric_within_ten_seconds() {
    let out_dir =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/smoke-{}", std::process::id()));
    let start = Instant::now();
    for trace in [false, true] {
        let opts = Options {
            seed: 11,
            seconds: 0.0,
            trace,
            scale: 0.02,
            out_dir: out_dir.clone(),
        };
        let expected: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for spec in &WORKLOADS {
            let report = run_workload(spec, &opts).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(report.correct(), "{}: {:?}", spec.name, report.failures);
            assert!(report.attempted > 0);
            let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(names, expected, "{}", spec.name);
            for (name, value, _) in &report.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", spec.name);
            }
            let json = report.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            if trace {
                let text = std::fs::read_to_string(trace_path(&out_dir, spec.name)).unwrap();
                let spans = report
                    .metrics
                    .iter()
                    .find(|(n, _, _)| *n == "trace.spans")
                    .unwrap()
                    .1;
                assert_eq!(text.lines().count() as f64, spans);
                assert!(text
                    .lines()
                    .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&out_dir).unwrap();
    assert!(elapsed < 10.0, "smoke run took {elapsed:.1} s");
}
