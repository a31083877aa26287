//! # mh-bench
//!
//! The experiment harness regenerating every table and figure of the
//! ModelHub paper's evaluation (§V), on the scaled substrate described in
//! DESIGN.md, plus the observability overhead guards. `modelhub repro`
//! drives the experiments in [`experiments`]. Performance is measured by
//! the lifecycle benchmark under `bench/`, not here.

pub mod experiments;
pub mod report;
pub mod workload;

/// Every experiment name, in the order `repro all` runs them.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig6a",
    "fig6b",
    "table4",
    "fig6c",
    "table5",
    "fig6d",
    "rd",
    "ablations",
    "overhead",
];

/// Run one named experiment (writing its artifacts under `results/`).
/// `quick` shrinks training lengths and workload sizes so a run finishes
/// in seconds. Unknown names return `InvalidInput`, so callers can keep
/// their own usage reporting.
pub fn run_experiment(name: &str, quick: bool) -> std::io::Result<()> {
    use experiments::*;
    let train_iters = if quick { 6 } else { 24 };
    let (sd_versions, sd_snapshots) = if quick { (3, 2) } else { (6, 4) };
    let (t5_snapshots, t5_iters) = if quick { (3, 3) } else { (6, 6) };
    let fig6d_iters = if quick { 8 } else { 80 };
    match name {
        "table1" => table1::run(),
        "fig6a" => fig6a::run(train_iters),
        "fig6b" => fig6b::run(train_iters),
        "table4" => table4::run(train_iters),
        "fig6c" => fig6c::run(sd_versions, sd_snapshots),
        "table5" => table5::run(t5_snapshots, t5_iters),
        "fig6d" => fig6d::run(4, fig6d_iters),
        "ablations" => ablations::run(train_iters),
        "overhead" => overhead::run(quick),
        "rd" => rd::run(),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown experiment '{other}'"),
        )),
    }
}
