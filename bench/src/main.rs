//! Command line of the lifecycle benchmark. See `README.md`.

use mh_lifecycle_bench::gen::{self, Spec, WORKLOADS};
use mh_lifecycle_bench::metrics::{self, Better, END_TO_END, RUN_SECONDS};
use mh_lifecycle_bench::run::{metric_value, run_workload, Options};
use mh_lifecycle_bench::stats::median;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  mh-lifecycle-bench run --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--scale <f>]
  mh-lifecycle-bench run --all [--seed ..] [--seconds ..] [--trace ..] [--scale ..]
  mh-lifecycle-bench run --repeat-check [--seed ..] [--seconds ..] [--scale ..]
  mh-lifecycle-bench manifest        print BENCHMARK.json
  mh-lifecycle-bench workloads       print each workload's parameters

Each run prints one JSON object per workload on stdout; remarks go to stderr.";

enum Selection {
    One(&'static Spec),
    All,
    RepeatCheck,
}

fn parse_run(args: &[String]) -> Result<(Selection, Options), String> {
    let mut selection = None;
    let mut opts = Options {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--all" => selection = Some(Selection::All),
            "--repeat-check" => selection = Some(Selection::RepeatCheck),
            "--workload" => {
                let v = value()?;
                let spec = gen::spec(v).ok_or_else(|| format!("unknown workload '{v}'"))?;
                selection = Some(Selection::One(spec));
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--scale" => {
                let v = value()?;
                opts.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 16.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let selection = selection.ok_or("one of --workload, --all, --repeat-check is required")?;
    Ok((selection, opts))
}

/// `--all` and `--repeat-check` give every workload a process of its own,
/// as the driver does: the resident-set high-water mark is the process's,
/// and freed heap stays resident, so a second workload in the same process
/// would report the first one's peak. Returns the child's JSON line.
fn run_child(spec: &Spec, opts: &Options) -> Option<String> {
    let output = Command::new(std::env::current_exe().ok()?)
        .args(["run", "--workload", spec.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--scale", &opts.scale.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8(output.stdout).ok()?;
    print!("{stdout}");
    let line = stdout.lines().last()?.to_string();
    output.status.success().then_some(line)
}

/// Run one workload, print its JSON line and remarks; false on failure.
fn run_and_print(spec: &Spec, opts: &Options) -> bool {
    match run_workload(spec, opts) {
        Ok(report) => {
            eprintln!("== {} seed {} ==", report.workload, opts.seed);
            for note in &report.notes {
                eprintln!("  {note}");
            }
            for (name, value, unit) in &report.metrics {
                eprintln!("  {name:36} {value:>14.4} {unit}");
            }
            let share = report.failed as f64 / report.attempted.max(1) as f64;
            eprintln!(
                "  fail_share {share} ({} of {} operations)",
                report.failed, report.attempted
            );
            for f in &report.failures {
                eprintln!("  FAILED: {f}");
            }
            println!("{}", report.to_json());
            report.correct()
        }
        Err(e) => {
            eprintln!("{}: run aborted: {e}", spec.name);
            false
        }
    }
}

/// Runs of each workload in one set of `--repeat-check`. One run now and
/// then lands in a quarter of a minute in which the box is 20 % slower; the
/// median of three does not.
const RUNS_PER_SET: usize = 3;

/// Two full sets back to back, after a warm-up set of one run per workload
/// that is printed but not compared: every end-to-end metric's median over
/// a set's runs must agree within its bound between the sets, the
/// deterministic ones exactly. The warm-up is there so that both compared
/// sets follow other runs and neither follows a build or an idle spell
/// (README.md, "Caveats").
fn repeat_check(opts: &Options) -> bool {
    let mut sets: Vec<Vec<Vec<String>>> = Vec::new();
    for (label, runs) in [
        ("warm-up", 1),
        ("first", RUNS_PER_SET),
        ("second", RUNS_PER_SET),
    ] {
        eprintln!("---- {label} set ----");
        let mut set = Vec::new();
        for spec in &WORKLOADS {
            let lines: Option<Vec<String>> = (0..runs).map(|_| run_child(spec, opts)).collect();
            match lines {
                Some(l) => set.push(l),
                None => return false,
            }
        }
        sets.push(set);
    }
    let mut ok = true;
    eprintln!(
        "{:22} {:26} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (spec, (a, b)) in WORKLOADS.iter().zip(sets[1].iter().zip(&sets[2])) {
        for def in &END_TO_END {
            let over = |lines: &[String]| -> Option<f64> {
                let values: Option<Vec<f64>> =
                    lines.iter().map(|l| metric_value(l, def.name)).collect();
                values.map(|v| median(&v))
            };
            let (Some(x), Some(y)) = (over(a), over(b)) else {
                eprintln!("{}: {} missing from a result line", spec.name, def.name);
                return false;
            };
            // How much worse the second set is than the first.
            let worse = match def.better {
                Better::Lower => y / x - 1.0,
                Better::Higher => x / y - 1.0,
            };
            let agrees = if def.deterministic {
                x == y
            } else {
                worse.abs() <= def.bound
            };
            ok &= agrees;
            eprintln!(
                "{:22} {:26} {x:>12.4} {y:>12.4} {:>7.2}% {:>6.1}%{}",
                spec.name,
                def.name,
                worse * 100.0,
                def.bound * 100.0,
                if agrees { "" } else { "  DISAGREES" }
            );
        }
    }
    ok
}

fn print_workloads() {
    for w in &WORKLOADS {
        println!(
            "{}: {:?}, {} versions x {} checkpoints, version drift {}, checkpoint drift {}, alpha {}, R {} I {} Q {}, {} publishes {} cold pulls {} warm pulls\n  why: {}",
            w.name,
            w.shape,
            w.versions,
            w.checkpoints,
            gen::VERSION_DRIFT,
            gen::CHECKPOINT_DRIFT,
            w.alpha,
            w.recreate_rounds,
            w.eval_inputs,
            w.query_rounds,
            w.publishes,
            w.cold_pulls,
            w.warm_pulls,
            w.why
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            true
        }
        Some("workloads") => {
            print_workloads();
            true
        }
        Some("run") => match parse_run(&args[1..]) {
            Ok((Selection::One(spec), opts)) => run_and_print(spec, &opts),
            // Every workload runs even when an earlier one failed.
            Ok((Selection::All, opts)) => {
                let failed = WORKLOADS.iter().filter(|w| run_child(w, &opts).is_none());
                failed.count() == 0
            }
            Ok((Selection::RepeatCheck, opts)) => repeat_check(&opts),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                false
            }
        },
        _ => {
            eprintln!("{USAGE}");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
