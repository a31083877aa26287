//! One lifecycle pass: set-up, the eight timed phases, and the checks.
//!
//! `init → commit × versions → archive → get_weights × R → publish → cold
//! pull → warm pull → progressive eval × I → query mix × Q`, one client, one
//! process, a loopback hubd with one worker. Every call into the system is
//! timed on its own; verification happens between the timed calls.

use crate::gen::{self, Inputs, Spec};
use crate::trace::Tracer;
use mh_dlv::hash::Sha256;
use mh_dlv::{committed_manifest, ArchiveConfig, ManifestEntry, Repository};
use mh_dnn::Weights;
use mh_hub::{HubServer, RemoteHub, StatLine};
use mh_pas::{ModelBinding, ProgressiveEvaluator, SegmentStore};
use std::fs::File;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The timed phases of a pass; `as usize` indexes `PassOutcome::phase_s`
/// and `PHASES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Commit,
    Archive,
    Recreate,
    Publish,
    PullCold,
    PullWarm,
    Progressive,
    Query,
}

pub const PHASES: [&str; 8] = [
    "commit",
    "archive",
    "recreate",
    "publish",
    "pull_cold",
    "pull_warm",
    "progressive",
    "query",
];

/// Operations attempted and failed. A verification miss is a failed
/// operation like any other.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what.to_string());
        }
    }

    /// Count one operation; `Err` is a failure and yields `None`.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

/// What set-up produces: generated inputs, a fresh directory, a running
/// hubd. Everything a pass needs before its first timed call.
pub struct Stage {
    pub dir: PathBuf,
    pub inputs: Inputs,
    pub server: HubServer,
    pub setup_s: f64,
    /// An empty file for `warm_page_cache`.
    scratch: File,
}

/// What `Stage::warm_page_cache` writes, as a multiple of the user bytes:
/// more than any one timed call adds to the page cache. The most is a cold
/// pull's two copies of the repository, cache and destination, which is
/// 0.6-0.85 of the user bytes each.
const WARM_PER_USER_BYTE: u64 = 3;

static ZEROS: [u8; 1 << 20] = [0; 1 << 20];

impl Stage {
    pub fn new(spec: &Spec, seed: u64, dir: &Path) -> Result<Self, String> {
        let t = Instant::now();
        let inputs = gen::generate(spec, seed);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let server = HubServer::start(&dir.join("hub"), "127.0.0.1:0", Some(1))
            .map_err(|e| format!("start hubd: {e}"))?;
        let scratch = dir.join("scratch");
        let scratch =
            File::create(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            inputs,
            server,
            setup_s: t.elapsed().as_secs_f64(),
            scratch,
        })
    }

    /// Write `WARM_PER_USER_BYTE` times the user bytes to the scratch file,
    /// in whole MB, and truncate it again, so that
    /// the memory the next timed call gets for its files is memory the
    /// machine has behind it. Called before every timed call that writes
    /// files; the time it takes is nobody's.
    ///
    /// The sandbox's host takes back guest memory that has been free for
    /// two seconds (virtio-balloon free page reporting) and hands it out
    /// again page by page when it is next touched, at 17 us a page: writing
    /// 100 MB of files takes 25 ms into memory freed just now and 450 ms
    /// into memory freed three seconds ago (README.md, "Caveats"). Whether a
    /// publish or a pull lands on the one or the other depends on what was
    /// deleted when, which made the hub metrics shift by 20-50 % between
    /// runs of the same code. That cost is the sandbox's, not the program's;
    /// this moves it out of the timed calls.
    pub fn warm_page_cache(&self) -> Result<(), String> {
        let mut file = &self.scratch;
        let chunks = (WARM_PER_USER_BYTE * self.inputs.user_bytes).div_ceil(ZEROS.len() as u64);
        (0..chunks)
            .try_for_each(|_| file.write_all(&ZEROS))
            .and_then(|()| file.set_len(0))
            .and_then(|()| file.rewind())
            .map_err(|e| format!("warm the page cache: {e}"))
    }

    /// Stop hubd (joining its threads) and remove the directory.
    pub fn teardown(self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Server-side counters of the hub phases, from `GET /stats`.
#[derive(Debug, Default, Clone)]
pub struct HubCounts {
    pub publish_objects: u64,
    pub publish_bytes_in: u64,
    pub pull_cold_bytes_out: u64,
    pub pull_warm_bytes_out: u64,
    pub objects_p50_ms: f64,
    pub objects_p99_ms: f64,
    pub manifest_p50_ms: f64,
    pub errors: u64,
}

#[derive(Debug, Default)]
pub struct PassOutcome {
    pub setup_s: f64,
    /// Seconds per phase, in `PHASES` order.
    pub phase_s: [f64; 8],
    pub recreate_ms: Vec<f64>,
    pub progressive_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub pull_cold_ms: Vec<f64>,
    pub pull_warm_ms: Vec<f64>,
    pub user_bytes: u64,
    /// Bytes of the archived repository directory.
    pub stored_bytes: u64,
    /// Bytes of the staged blobs between commit and archive.
    pub staged_bytes: u64,
    pub bytes_read: u64,
    pub full_bytes: u64,
    pub planes_used: Vec<usize>,
    pub query_ops: u64,
    /// SHA-256 over the PAS store's files: equal digests, equal stores.
    pub store_digest: String,
    pub hub: HubCounts,
}

impl PassOutcome {
    pub fn secs(&self, phase: Phase) -> f64 {
        self.phase_s[phase as usize]
    }

    pub fn lifecycle_s(&self) -> f64 {
        self.phase_s.iter().sum()
    }

    pub fn storage_ratio(&self) -> f64 {
        self.stored_bytes as f64 / self.user_bytes as f64
    }

    pub fn read_fraction(&self) -> f64 {
        self.bytes_read as f64 / self.full_bytes as f64
    }
}

/// Which part of the lifecycle a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// All eight phases.
    Full,
    /// Commit, archive, one recreate sweep, progressive: the store-building
    /// and store-reading phases, for the thread-width comparison.
    StoreOnly,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

fn store_digest(manifest: &[ManifestEntry]) -> String {
    let mut h = Sha256::new();
    for e in manifest.iter().filter(|e| e.path.starts_with("pas/")) {
        h.update(e.path.as_bytes());
        h.update(e.hash.as_bytes());
    }
    h.finalize_hex()
}

fn bit_equal(a: &Weights, b: &Weights) -> bool {
    a.len() == b.len()
        && a.layers()
            .zip(b.layers())
            .all(|((na, ma), (nb, mb))| na == nb && mh_delta::bit_equal(ma, mb))
}

fn stat<'a>(lines: &'a [StatLine], endpoint: &str) -> Option<&'a StatLine> {
    lines.iter().find(|l| l.endpoint == endpoint)
}

/// `mh_check::fsck` must report nothing at all, warnings included.
fn fsck_clean(root: &Path) -> Result<(), String> {
    let report =
        mh_check::fsck(root, &mh_check::FsckConfig::default()).map_err(|e| e.to_string())?;
    match report.findings.first() {
        None => Ok(()),
        Some(f) => Err(format!("{} finding(s), first: {f}", report.findings.len())),
    }
}

/// Run one pass over a fresh stage. A failing lifecycle call aborts the
/// pass with `Err`; a verification miss is counted in `checks` and the
/// pass goes on. The archived repository is returned for the layer probes.
pub fn run(
    stage: &Stage,
    spec: &Spec,
    extent: Extent,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<(PassOutcome, Repository), String> {
    let inputs = &stage.inputs;
    let mut out = PassOutcome {
        setup_s: stage.setup_s,
        user_bytes: inputs.user_bytes,
        ..PassOutcome::default()
    };

    // ---- commit ------------------------------------------------------
    let repo_dir = stage.dir.join("repo");
    let repo = Repository::init(&repo_dir).map_err(|e| format!("init: {e}"))?;
    stage.warm_page_cache()?;
    let phase = tr.begin("phase.commit");
    for req in &inputs.commits {
        let bytes: u64 = req
            .snapshots
            .iter()
            .map(|(_, w)| w.byte_size() as u64)
            .sum();
        let sp = tr.begin("dlv.commit");
        let r = repo.commit(req);
        tr.end(sp, bytes);
        checks.op("commit", r).ok_or("commit failed")?;
    }
    out.phase_s[Phase::Commit as usize] = tr.end(phase, inputs.user_bytes);
    out.staged_bytes = dir_bytes(&repo_dir.join("weights"));

    // ---- archive -----------------------------------------------------
    let cfg = ArchiveConfig {
        alpha: spec.alpha,
        ..ArchiveConfig::default()
    };
    stage.warm_page_cache()?;
    let phase = tr.begin("phase.archive");
    let sp = tr.begin("dlv.archive");
    let report = repo.archive(&cfg);
    tr.end(sp, inputs.user_bytes);
    out.phase_s[Phase::Archive as usize] = tr.end(phase, inputs.user_bytes);
    let report = checks.op("archive", report).ok_or("archive failed")?;
    checks.check(
        "archive plan satisfies every snapshot budget",
        report.satisfied,
    );
    out.stored_bytes = dir_bytes(&repo_dir);
    checks.op("fsck archived repo", fsck_clean(&repo_dir));
    let manifest = checks
        .op("committed_manifest", committed_manifest(&repo))
        .ok_or("manifest failed")?;
    out.store_digest = store_digest(&manifest);

    // ---- recreate ----------------------------------------------------
    let rounds = match extent {
        Extent::Full => spec.recreate_rounds,
        Extent::StoreOnly => 1,
    };
    let phase = tr.begin("phase.recreate");
    for _ in 0..rounds {
        for (req, idx, committed) in inputs.snapshots() {
            let sp = tr.begin("dlv.get_weights");
            let got = repo.get_weights(&req.name, Some(idx));
            let s = tr.end(sp, committed.byte_size() as u64);
            out.recreate_ms.push(s * 1e3);
            out.phase_s[Phase::Recreate as usize] += s;
            let ok = checks
                .op("get_weights", got)
                .is_some_and(|w| bit_equal(&w, committed));
            checks.check("recreated weights are bit-equal to the committed ones", ok);
        }
    }
    tr.end(phase, rounds as u64 * inputs.user_bytes);

    if extent == Extent::Full {
        hub_phases(stage, spec, &repo, &manifest, tr, checks, &mut out)?;
    }
    progressive_phase(stage, &repo, tr, checks, &mut out)?;
    if extent == Extent::Full {
        query_phase(stage, spec, &repo, tr, checks, &mut out);
    }
    Ok((out, repo))
}

fn hub_phases(
    stage: &Stage,
    spec: &Spec,
    repo: &Repository,
    manifest: &[ManifestEntry],
    tr: &mut Tracer,
    checks: &mut Checks,
    out: &mut PassOutcome,
) -> Result<(), String> {
    let url = stage.server.url();
    let open = || RemoteHub::open(&url).map_err(|e| e.to_string());
    let plain = open()?;
    let stats = |checks: &mut Checks| checks.op("hub stats", plain.stats()).unwrap_or_default();
    let bytes_in = |l: &[StatLine], ep: &str| stat(l, ep).map_or(0, |l| l.bytes_in);
    let bytes_out = |l: &[StatLine], ep: &str| stat(l, ep).map_or(0, |l| l.bytes_out);
    let user = stage.inputs.user_bytes;
    let cache = |i: usize| stage.dir.join(format!("cache{i}"));
    // Every pull fetches the first publication; the later ones only exist
    // so that each publish is a full upload to a name the hub has not seen.
    let name = |i: usize| format!("bench/r{i}");

    let before = stats(checks);
    for i in 0..spec.publishes {
        stage.warm_page_cache()?;
        let sp = tr.begin("hub.publish_repo");
        let r = plain.publish_repo(repo, &name(i));
        let s = tr.end(sp, user);
        out.phase_s[Phase::Publish as usize] += s;
        out.publish_ms.push(s * 1e3);
        checks.op("publish", r).ok_or("publish failed")?;
    }
    let published = stats(checks);

    let mut pulled = Vec::new();
    for i in 0..spec.cold_pulls {
        let dir = stage.dir.join(format!("cold{i}"));
        let client = open()?.with_cache(&cache(i));
        stage.warm_page_cache()?;
        let sp = tr.begin("hub.pull_repo.cold");
        let r = client.pull_repo(&name(0), &dir);
        let s = tr.end(sp, user);
        out.phase_s[Phase::PullCold as usize] += s;
        out.pull_cold_ms.push(s * 1e3);
        let repo = checks.op("cold pull", r).ok_or("cold pull failed")?;
        if i == 0 {
            pulled.push(("cold", repo, dir));
        }
    }
    let cold = stats(checks);

    for i in 0..spec.warm_pulls {
        let dir = stage.dir.join(format!("warm{i}"));
        let client = open()?.with_cache(&cache(0));
        stage.warm_page_cache()?;
        let sp = tr.begin("hub.pull_repo.warm");
        let r = client.pull_repo(&name(0), &dir);
        let s = tr.end(sp, user);
        out.phase_s[Phase::PullWarm as usize] += s;
        out.pull_warm_ms.push(s * 1e3);
        let repo = checks.op("warm pull", r).ok_or("warm pull failed")?;
        if i == 0 {
            pulled.push(("warm", repo, dir));
        }
    }
    let warm = stats(checks);

    for (what, repo, dir) in &pulled {
        checks.op(&format!("fsck {what} pull"), fsck_clean(dir));
        let same = checks
            .op(&format!("{what} pull manifest"), committed_manifest(repo))
            .is_some_and(|m| m == manifest);
        checks.check("pulled manifest equals the published one", same);
    }
    let mut hashes: Vec<&str> = manifest.iter().map(|e| e.hash.as_str()).collect();
    hashes.sort_unstable();
    hashes.dedup();
    // Per publish and per pull, so the counts do not depend on how often a
    // pass repeats them.
    let warm_out = bytes_out(&warm, "objects") - bytes_out(&cold, "objects");
    checks.check("warm pulls move zero object bytes", warm_out == 0);
    out.hub = HubCounts {
        publish_objects: hashes.len() as u64,
        publish_bytes_in: (bytes_in(&published, "publish") - bytes_in(&before, "publish"))
            / spec.publishes as u64,
        pull_cold_bytes_out: (bytes_out(&cold, "objects") - bytes_out(&published, "objects"))
            / spec.cold_pulls as u64,
        pull_warm_bytes_out: warm_out / spec.warm_pulls as u64,
        objects_p50_ms: stat(&warm, "objects").map_or(0.0, |l| l.p50_ms),
        objects_p99_ms: stat(&warm, "objects").map_or(0.0, |l| l.p99_ms),
        manifest_p50_ms: stat(&warm, "manifest").map_or(0.0, |l| l.p50_ms),
        errors: warm.iter().map(|l| l.errors).sum(),
    };
    Ok(())
}

fn progressive_phase(
    stage: &Stage,
    repo: &Repository,
    tr: &mut Tracer,
    checks: &mut Checks,
    out: &mut PassOutcome,
) -> Result<(), String> {
    let inputs = &stage.inputs;
    let version = &inputs.eval_version;
    let eval = inputs
        .commits
        .last()
        .expect("generated inputs are non-empty");
    let (_, full) = eval.snapshots.last().expect("non-empty commit");
    let (store_dir, mapping) = checks
        .op("pas_binding", repo.pas_binding(version, None))
        .ok_or("pas_binding failed")?;
    let store = checks
        .op("open store", SegmentStore::open(&store_dir))
        .ok_or("open store failed")?;
    let binding = ModelBinding::new(eval.network.clone(), mapping);
    let evaluator = ProgressiveEvaluator::new(&store, &binding);
    let phase = tr.begin("phase.progressive");
    for input in &inputs.eval_inputs {
        let sp = tr.begin("pas.progressive_eval");
        let r = evaluator.eval(input, 1);
        let s = tr.end(sp, 0);
        out.progressive_ms.push(s * 1e3);
        out.phase_s[Phase::Progressive as usize] += s;
        let Some(r) = checks.op("progressive eval", r) else {
            continue;
        };
        out.bytes_read += r.bytes_read;
        out.full_bytes += r.full_bytes;
        out.planes_used.push(r.planes_used);
        let exact = mh_dnn::predict(&eval.network, full, input).ok();
        checks.check(
            "progressive top-1 equals full-precision predict",
            exact.is_some() && r.prediction.first().copied() == exact,
        );
    }
    tr.end(phase, out.bytes_read);
    Ok(())
}

fn query_phase(
    stage: &Stage,
    spec: &Spec,
    repo: &Repository,
    tr: &mut Tracer,
    checks: &mut Checks,
    out: &mut PassOutcome,
) {
    let commits = &stage.inputs.commits;
    let exec = mh_dql::Executor::new(repo);
    let phase = tr.begin("phase.query");
    for round in 0..spec.query_rounds {
        // Slice, construct and diff recreate their version's weights, so
        // their cost follows that version's place in the storage plan. The
        // target rotates over every version to measure the plan, not one
        // vertex of it.
        let target = &commits[round % commits.len()];
        let other = &commits[(round + 1) % commits.len()].name;
        let mix = QueryMix::new(&target.name, &target.network);
        for (name, text, want) in mix.dql() {
            let sp = tr.begin(name);
            let r = exec.run(text);
            out.phase_s[Phase::Query as usize] += tr.end(sp, 0);
            let rows = checks.op(name, r).map(|r| match r {
                mh_dql::QueryResult::Versions(v) => v.len(),
                mh_dql::QueryResult::Derived(d) => d.len(),
                mh_dql::QueryResult::Evaluated(e) => e.len(),
            });
            checks.check(
                "query returns the expected rows",
                rows.is_some_and(|n| want.matches(n)),
            );
        }
        let sp = tr.begin("dlv.list");
        let listed = repo.list().len();
        out.phase_s[Phase::Query as usize] += tr.end(sp, 0);
        checks.check("list returns every version", listed == commits.len());
        let sp = tr.begin("dlv.desc");
        let r = repo.desc(&target.name);
        out.phase_s[Phase::Query as usize] += tr.end(sp, 0);
        checks.op("desc", r);
        let sp = tr.begin("dlv.diff");
        let r = mh_dlv::diff(repo, &target.name, other);
        out.phase_s[Phase::Query as usize] += tr.end(sp, 0);
        checks.op("diff", r);
        out.query_ops += mix.dql().len() as u64 + 3;
    }
    tr.end(phase, 0);
}

/// How many rows a query of the mix must return.
#[derive(Debug, Clone, Copy)]
pub enum Rows {
    Exactly(usize),
    AtLeast(usize),
}

impl Rows {
    fn matches(self, n: usize) -> bool {
        match self {
            Rows::Exactly(k) => n == k,
            Rows::AtLeast(k) => n >= k,
        }
    }
}

/// The DQL part of the query mix: a metadata select and a structural
/// select over every version, and a slice and a construct on one version
/// (both recreate its weights).
pub struct QueryMix {
    queries: [(&'static str, String, Rows); 4],
}

impl QueryMix {
    pub fn new(version: &str, net: &mh_dnn::Network) -> Self {
        let layers = net.parametric_layers().expect("generated network is valid");
        let (first, last) = (&layers[0], &layers[layers.len() - 1]);
        Self {
            queries: [
                (
                    "dql.select",
                    r#"select m where m.name like "m%" and m.accuracy > 0.1"#.to_string(),
                    Rows::AtLeast(1),
                ),
                (
                    "dql.select_structural",
                    r#"select m where m["relu*"].next has FULL"#.to_string(),
                    Rows::AtLeast(1),
                ),
                (
                    "dql.slice",
                    format!(
                        r#"slice s from m where m.name like "{version}" mutate s.input = m["{first}"] and s.output = m["{last}"]"#
                    ),
                    Rows::Exactly(1),
                ),
                (
                    "dql.construct",
                    format!(
                        r#"construct c from m where m.name like "{version}" mutate m["{first}"].insert = TANH("tanh_probe")"#
                    ),
                    Rows::Exactly(1),
                ),
            ],
        }
    }

    pub fn dql(&self) -> &[(&'static str, String, Rows)] {
        &self.queries
    }
}
