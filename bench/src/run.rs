//! One benchmark run of one workload: passes, checks, metrics.

use crate::gen::Spec;
use crate::lifecycle::{self, Checks, Extent, PassOutcome, Phase, Stage, PHASES};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::{self_seconds_by_name, Tracer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    /// Where temporary repositories and trace files go.
    pub out_dir: PathBuf,
}

/// Passes a run makes however short `--seconds` is, so that medians and
/// the recreate tail have something to stand on.
const MIN_PASSES: usize = 2;

/// Set-ups a run makes besides the one before each pass. Set-up takes
/// milliseconds, so a handful of passes alone gives a jumpy median.
const EXTRA_SETUPS: usize = 6;

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable remarks: sample counts, tails, phase times.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The value of metric `name` in a line `Report::to_json` wrote.
pub fn metric_value(json: &str, name: &str) -> Option<f64> {
    let (_, rest) = json.split_once(&format!("\"{name}\": {{\"value\": "))?;
    rest.split_once(',')?.0.parse().ok()
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

struct Runner<'a> {
    spec: &'a Spec,
    opts: &'a Options,
    dir: PathBuf,
    stages: usize,
    checks: Checks,
}

impl Runner<'_> {
    /// A fresh stage directory. Its name is new on this machine (process
    /// id, clock), because the name is what `spread_children` makes the file
    /// system choose its place by.
    fn stage(&mut self) -> Result<Stage, String> {
        self.stages += 1;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let name = format!("stage{}-{}-{nanos}", self.stages, std::process::id());
        Stage::new(self.spec, self.opts.seed, &self.dir.join(name))
    }

    fn pass(&mut self, extent: Extent, tr: &mut Tracer) -> Result<PassOutcome, String> {
        let stage = self.stage()?;
        let r = lifecycle::run(&stage, self.spec, extent, tr, &mut self.checks);
        stage.teardown();
        r.map(|(outcome, _)| outcome)
    }

    /// The store-building and store-reading phases at one thread, and the
    /// process's peak resident set after them. Doubles as the warm-up: it
    /// runs before the first timed pass. The peak is read here because one
    /// thread allocates in one order: at default width the high-water mark
    /// moves by 5-15 % with how the workers interleave.
    fn serial_pass(&mut self) -> Result<(PassOutcome, f64), String> {
        mh_par::set_threads(Some(1));
        let r = self.pass(Extent::StoreOnly, &mut Tracer::new(false));
        mh_par::set_threads(None);
        r.map(|outcome| (outcome, peak_rss_mb()))
    }

    /// A store built at one thread must be the store built at any width.
    fn check_width_independence(&mut self, serial: &PassOutcome, wide: &PassOutcome) {
        let c = &mut self.checks;
        c.check(
            "store files are bit-identical at 1 thread and at default width",
            serial.store_digest == wide.store_digest,
        );
        c.check(
            "storage_ratio is identical at 1 thread and at default width",
            serial.stored_bytes == wide.stored_bytes,
        );
        c.check(
            "progressive_read_fraction is identical at 1 thread and at default width",
            (serial.bytes_read, serial.full_bytes) == (wide.bytes_read, wide.full_bytes),
        );
    }
}

/// Ask the file system to place every directory made in `dir` in a block
/// group of its own, chosen by the new directory's name (`chattr +T`, the
/// Orlov allocator's "top of a hierarchy" hint), instead of next to `dir`.
///
/// Why a benchmark cares: ext4 without a journal (the sandbox's root disk)
/// does not hand out an inode again for a minute after it was freed, and
/// every file creation in a block group walks past each such inode of the
/// group. A pass creates and then deletes thousands of small files, so with
/// all stages side by side in one group a pull costs twice as much after
/// back-to-back runs as after an idle minute, and the hub metrics measure
/// the history of the disk (README.md, "Caveats"). With the hint each pass
/// works in a group nothing was deleted from lately.
///
/// The hint changes where files go, not what the program does. Where it is
/// not supported (another file system, another OS) the call fails and the
/// run goes on without it; the remarks of the run say which it was.
fn spread_children(dir: &Path) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_long, c_ulong};
        use std::os::fd::AsRawFd;
        extern "C" {
            fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
        }
        // <linux/fs.h>: _IOR('f', 1, long), _IOW('f', 2, long), FS_TOPDIR_FL.
        const FS_IOC_GETFLAGS: c_ulong = 0x8008_6601;
        const FS_IOC_SETFLAGS: c_ulong = 0x4008_6602;
        const FS_TOPDIR_FL: c_long = 0x0002_0000;
        let Ok(handle) = std::fs::File::open(dir) else {
            return false;
        };
        let mut flags: c_long = 0;
        // SAFETY: `handle` is an open descriptor for the whole block and
        // `flags` is a live, writable `long`, which is what both requests
        // read or write through the pointer.
        unsafe {
            if ioctl(
                handle.as_raw_fd(),
                FS_IOC_GETFLAGS,
                &mut flags as *mut c_long,
            ) != 0
            {
                return false;
            }
            flags |= FS_TOPDIR_FL;
            ioctl(handle.as_raw_fd(), FS_IOC_SETFLAGS, &flags as *const c_long) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = dir;
        false
    }
}

pub fn run_workload(spec: &Spec, opts: &Options) -> Result<Report, String> {
    let spec = &spec.at_scale(opts.scale);
    let dir = opts
        .out_dir
        .join(format!("run-{}-{}", std::process::id(), spec.name));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let spread = spread_children(&dir);
    let mut runner = Runner {
        spec,
        opts,
        dir: dir.clone(),
        stages: 0,
        checks: Checks::default(),
    };
    let result = if opts.trace {
        traced(&mut runner)
    } else {
        untraced(&mut runner)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let (metrics, mut notes) = result?;
    notes.push(format!(
        "stage directories {} over the disk's block groups",
        if spread { "spread" } else { "NOT spread" }
    ));
    for (name, value, _) in &metrics {
        runner.checks.check(
            &format!("metric {name} is a finite number"),
            value.is_finite(),
        );
    }
    let Checks {
        attempted,
        failed,
        failures,
    } = runner.checks;
    Ok(Report {
        workload: spec.name,
        attempted,
        failed,
        failures,
        metrics,
        notes,
    })
}

type Measured = (Vec<(&'static str, f64, &'static str)>, Vec<String>);

fn untraced(r: &mut Runner) -> Result<Measured, String> {
    // `--seconds` is the length of the whole run, the one-thread pass
    // included: the driver budgets wall time, not passes.
    let start = Instant::now();
    let (serial, peak_rss) = r.serial_pass()?;
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let stage = r.stage()?;
        setups.push(stage.setup_s);
        stage.teardown();
    }
    let mut passes = Vec::new();
    loop {
        let pass_start = Instant::now();
        passes.push(r.pass(Extent::Full, &mut Tracer::new(false))?);
        // Another pass only if it would end nearer to `--seconds` than this
        // one did, so that runs last `--seconds` on average and not
        // `--seconds` plus half a pass.
        let next_end = start.elapsed() + pass_start.elapsed();
        let over = next_end.as_secs_f64() - r.opts.seconds;
        let under = r.opts.seconds - start.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && over > under {
            break;
        }
    }
    r.check_width_independence(&serial, &passes[0]);
    setups.extend(passes.iter().map(|p| p.setup_s));

    let user_mb = passes[0].user_bytes as f64 / 1e6;
    let over = |f: &dyn Fn(&PassOutcome) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&PassOutcome) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let mb_s = |phase: Phase, repeats: usize| over(&|p| repeats as f64 * user_mb / p.secs(phase));
    let recreate = pooled(&|p| &p.recreate_ms);
    let progressive = pooled(&|p| &p.progressive_ms);
    // One publish or pull is hundreds of small file operations, and a
    // single call lands 20-30 % off now and then. The median over every
    // call of the run shrugs that off; the median over three or four
    // per-pass sums does not.
    let publish = pooled(&|p| &p.publish_ms);
    let cold = pooled(&|p| &p.pull_cold_ms);
    let warm = pooled(&|p| &p.pull_warm_ms);
    let spec = r.spec;
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&setups),
            "lifecycle_s" => over(&|p| p.lifecycle_s()),
            "commit_mb_s" => mb_s(Phase::Commit, 1),
            "archive_mb_s" => mb_s(Phase::Archive, 1),
            "storage_ratio" => over(&|p| p.storage_ratio()),
            "recreate_mb_s" => mb_s(Phase::Recreate, spec.recreate_rounds),
            "recreate_p90_ms" => percentile(&sorted(&recreate), 90.0),
            "publish_mb_s" => user_mb / (median(&publish) / 1e3),
            "pull_cold_mb_s" => user_mb / (median(&cold) / 1e3),
            "pull_warm_ms" => median(&warm),
            "progressive_p50_ms" => median(&progressive),
            "progressive_read_fraction" => over(&|p| p.read_fraction()),
            "query_ops_s" => over(&|p| p.query_ops as f64 / p.secs(Phase::Query)),
            "peak_rss_mb" => peak_rss,
            other => unreachable!("end-to-end metric '{other}' has no definition"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();

    let mut notes = vec![format!(
        "{} passes, {:.2} MB of weights, {} hardware threads, no fsync issued, reads from the page cache",
        passes.len(),
        user_mb,
        mh_par::current_threads()
    )];
    for (i, phase) in PHASES.iter().enumerate() {
        notes.push(format!(
            "phase {phase}: median {:.3} s per pass",
            over(&|p| p.phase_s[i])
        ));
    }
    for (what, samples) in [
        ("recreate", &recreate),
        ("progressive", &progressive),
        ("publish", &publish),
        ("pull_cold", &cold),
        ("pull_warm", &warm),
    ] {
        notes.push(match tail(samples) {
            Some((p, v, n)) => format!("{what}: p{p} = {v:.3} ms over {n} samples"),
            None => format!(
                "{what}: {} samples, too few for a percentile",
                samples.len()
            ),
        });
    }
    Ok((metrics, notes))
}

fn traced(r: &mut Runner) -> Result<Measured, String> {
    let start = Instant::now();
    let (serial, _) = r.serial_pass()?;
    let plain = r.pass(Extent::Full, &mut Tracer::new(false))?;
    r.check_width_independence(&serial, &plain);

    let mut tr = Tracer::new(true);
    let stage = r.stage()?;
    let outcome = lifecycle::run(&stage, r.spec, Extent::Full, &mut tr, &mut r.checks);
    let probed = outcome.and_then(|(traced, repo)| {
        let left = (r.opts.seconds - start.elapsed().as_secs_f64()).max(0.0);
        let budget = Duration::from_secs_f64(left / PROBE_SLICES);
        let cx = probes::Context {
            spec: r.spec,
            inputs: &stage.inputs,
            repo: &repo,
            dir: &stage.dir,
            archive_serial_s: serial.secs(Phase::Archive),
        };
        probes::run(&cx, budget, &mut tr, &mut r.checks).map(|m| (traced, m))
    });
    stage.teardown();
    let (traced, mut m) = probed?;

    let rounds = r.spec.recreate_rounds as f64;
    m.insert("par.threads", mh_par::current_threads() as f64);
    m.insert(
        "par.archive_speedup",
        serial.secs(Phase::Archive) / traced.secs(Phase::Archive),
    );
    m.insert(
        "par.recreate_speedup",
        serial.secs(Phase::Recreate) / (traced.secs(Phase::Recreate) / rounds),
    );
    m.insert(
        "dlv.staged_bytes_per_user_byte",
        traced.staged_bytes as f64 / traced.user_bytes as f64,
    );
    let planes = &traced.planes_used;
    m.insert(
        "pas.progressive_planes_mean",
        planes.iter().sum::<usize>() as f64 / planes.len() as f64,
    );
    let h = &traced.hub;
    m.insert("hub.publish_objects", h.publish_objects as f64);
    m.insert("hub.publish_bytes_in", h.publish_bytes_in as f64);
    m.insert("hub.pull_cold_bytes_out", h.pull_cold_bytes_out as f64);
    m.insert("hub.pull_warm_bytes_out", h.pull_warm_bytes_out as f64);
    m.insert("hub.objects_p50_ms", h.objects_p50_ms);
    m.insert("hub.objects_p99_ms", h.objects_p99_ms);
    m.insert("hub.manifest_p50_ms", h.manifest_p50_ms);
    m.insert("hub.errors", h.errors as f64);
    m.insert("trace.spans", tr.spans().len() as f64);
    m.insert(
        "trace_overhead_pct",
        (traced.lifecycle_s() / plain.lifecycle_s() - 1.0) * 100.0,
    );

    let path = trace_path(&r.opts.out_dir, r.spec.name);
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut notes = vec![format!(
        "{} spans written to {}",
        tr.spans().len(),
        path.display()
    )];
    let mut selfs: Vec<(String, f64)> = self_seconds_by_name(tr.spans()).into_iter().collect();
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.extend(
        selfs
            .iter()
            .take(12)
            .map(|(name, s)| format!("self time {name}: {s:.3} s")),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let v = m.get(d.name).copied();
            (
                d.name,
                v.unwrap_or_else(|| unreachable!("per-layer metric '{}' was not measured", d.name)),
                d.unit,
            )
        })
        .collect();
    Ok((metrics, notes))
}

/// The probes that repeat their sweep share what is left of `--seconds`
/// after the three lifecycle passes of a traced run.
const PROBE_SLICES: f64 = 32.0;

pub fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("{workload}.trace.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_value_reads_back_what_to_json_wrote() {
        let report = Report {
            workload: "w",
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![
                ("a_s", 1.5, "s"),
                ("a_s2", 0.25, "s"),
                ("b.c_mb_s", 1e-7, "MB/s"),
            ],
            notes: Vec::new(),
        };
        let json = report.to_json();
        assert_eq!(metric_value(&json, "a_s"), Some(1.5));
        assert_eq!(metric_value(&json, "a_s2"), Some(0.25));
        assert_eq!(metric_value(&json, "b.c_mb_s"), Some(1e-7));
        assert_eq!(metric_value(&json, "missing"), None);
    }
}
