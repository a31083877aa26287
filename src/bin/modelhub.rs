//! `modelhub` — repository maintenance commands.
//!
//! ```text
//! modelhub fsck <dir> [--deep] [--jobs N]  # static integrity verification
//! modelhub check <query> [--repo <dir>]    # DQL semantic analysis (no execution)
//! modelhub gen-sample <dir>                # create a small trained sample repo
//! modelhub archive <dir> [--alpha F] [--jobs N]  # archive staged snapshots into PAS
//! modelhub hubd <root> [--addr H:P] [--jobs N] [--max-conns N] [--body-budget N]  # serve a hosted hub over TCP
//! modelhub audit [root] [--report FILE] [--max-waivers N]  # panic/alloc static audit
//! modelhub repro <experiment> [--quick] [--jobs N]  # run an mh-bench experiment
//! modelhub prof <subcommand...>            # run a subcommand, print a span profile
//! modelhub prof --from-dump <spans.jsonl>  # render a span dump as a profile tree
//! modelhub trace view <spans.jsonl>...     # stitch client+server spans into one trace tree
//! ```
//!
//! Global flags (any command): `--verbose`/`-v` and `--quiet`/`-q` set the
//! stderr log level; `--trace <file>` (or `MH_TRACE=<file>`) streams every
//! completed span as JSON Lines. Command output on stdout is unaffected.
//!
//! `fsck` runs `mh_dlv::fsck`, the verifier every pull runs too (catalog
//! referential integrity, networks, blob hashes, PAS plan invariants,
//! α-budget accounting, every stored plane decoded once; `--deep`
//! additionally recreates every vertex and derives per-snapshot error
//! bounds from byte-plane prefixes) and exits nonzero when any
//! Error-severity finding is present.
//!
//! `check` type-checks a DQL query against the catalog schema — and, with
//! `--repo`, against the repository's network layer names — printing
//! caret-rendered span diagnostics without executing the query.
//!
//! `gen-sample` and `archive` exist for smoke testing and demos: the first
//! trains two tiny lineage-related models and commits their checkpoints,
//! the second runs the PAS archival pipeline over everything staged.
//!
//! `audit` runs the mh-audit static analyzer over the workspace rooted at
//! `[root]` (default `.`): panic-reachability from every
//! `mh-audit: no_panic_zone` entry point, untrusted-length taint, and the
//! sync-facade token rules. Exits nonzero on any unwaived finding, or when
//! `--max-waivers N` is exceeded; `--report FILE` writes the deterministic
//! findings report.
//!
//! `hubd` serves the hub rooted at `<root>` (created if absent) over a
//! small HTTP/1.1-subset wire protocol with git-style incremental object
//! transfer; `dlv publish/search/pull` accept its `http://host:port` URL
//! anywhere a hub directory is accepted. Default address: 127.0.0.1:7797.
//! Each connection is served on a blocking thread of its own, up to
//! `--max-conns` at once (default 1024; over-cap connects get 503 +
//! Retry-After); at most `--jobs` requests are routed at once.
//! `--body-budget` (bytes, default 256 MiB) caps the aggregate declared
//! request-body bytes buffered across all connections; requests past it
//! are answered 503 + Retry-After (one body is always admitted when
//! nothing else is in flight). `--slow-ms N` (default 1000; 0 disables)
//! logs a warn line naming the request's trace id whenever routing takes
//! at least N milliseconds. `GET /debug/flightrec` returns the server's
//! always-on flight-recorder dump: the most recent span records and
//! warn/error events, captured even with tracing off.
//!
//! `trace view` merges one or more `--trace` JSONL files (client- and
//! server-side) by 128-bit trace id and prints each trace as a single
//! cross-process tree; the gap between a client rpc span and the nested
//! server request span is attributed as `network+queue=` explicitly.
//!
//! `--jobs N` bounds the worker pool for the invocation (overrides the
//! `MH_THREADS` environment variable; default: all available cores).

use modelhub::check::{fsck, FsckConfig};
use modelhub::dlv::{ArchiveConfig, CommitRequest, Repository};
use modelhub::dnn::{synth_dataset, zoo, Hyperparams, SynthConfig, Trainer, Weights};
use modelhub::dql::analyze::{self, AnalyzeContext};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    mh_obs::error!(
        "usage: modelhub fsck <dir> [--deep] [--jobs N] | fsck --version\n       \
         modelhub check \"<DQL>\" [--repo <dir>]\n       \
         modelhub gen-sample <dir>\n       \
         modelhub archive <dir> [--alpha F] [--jobs N]\n       \
         modelhub hubd <root> [--addr HOST:PORT] [--jobs N] [--max-conns N] [--body-budget N] [--slow-ms N]\n       \
         modelhub audit [root] [--report FILE] [--max-waivers N]\n       \
         modelhub repro <experiment|all> [--quick] [--jobs N]\n       \
         modelhub prof <subcommand...> | prof --from-dump <spans.jsonl>\n       \
         modelhub trace view <spans.jsonl>...\n       \
         global flags: [--verbose|-v] [--quiet|-q] [--trace <file>]"
    );
    ExitCode::from(2)
}

/// Parse `--flag <value>` anywhere in the argument list.
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, Box<dyn std::error::Error>> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?;
            raw.parse()
                .map(Some)
                .map_err(|_| format!("invalid value for {flag}: {raw}").into())
        }
    }
}

/// Apply `--jobs N` to the process-wide worker pool.
fn apply_jobs(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(n) = flag_value::<usize>(args, "--jobs")? {
        if n == 0 {
            return Err("--jobs must be at least 1".into());
        }
        modelhub::par::set_threads(Some(n));
    }
    Ok(())
}

/// Train one tiny model and assemble its commit.
fn trained_commit(name: &str, seed: u64, parent: Option<&str>) -> CommitRequest {
    let net = zoo::lenet_s(3);
    let data = synth_dataset(&SynthConfig {
        num_classes: 3,
        train_per_class: 8,
        test_per_class: 4,
        noise: 0.05,
        seed: 11,
        height: 16,
        width: 16,
    });
    let trainer = Trainer {
        hp: Hyperparams {
            base_lr: 0.08,
            ..Default::default()
        },
        snapshot_every: 3,
    };
    let init = Weights::init(&net, seed).expect("zoo network shapes are valid");
    let result = trainer
        .train(&net, init, &data, 9)
        .expect("training the sample model");
    let mut req = CommitRequest::new(name, net);
    req.snapshots = result
        .snapshots
        .iter()
        .map(|(i, w)| (*i, w.clone()))
        .collect();
    req.log = result.log.clone();
    req.accuracy = Some(result.final_accuracy);
    req.hyperparams.insert("base_lr".into(), "0.08".into());
    req.parent = parent.map(String::from);
    req.comment = format!("sample model {name}");
    req
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    modelhub::cli::apply_global_flags(&mut args)?;
    dispatch(&args)
}

fn dispatch(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    match args.first().map(String::as_str) {
        Some("prof") => {
            let rest = &args[1..];
            if rest.first().map(String::as_str) == Some("--from-dump") {
                // Offline mode: render a previously captured span dump (a
                // `--trace` JSONL file or a flight-recorder dump) as the
                // same aggregated profile tree `prof` prints live.
                let path = rest.get(1).ok_or("--from-dump needs a JSONL file")?;
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let spans = mh_obs::traceview::parse_jsonl(&text, 0);
                if spans.is_empty() {
                    return Err(format!("no span records found in {path}").into());
                }
                let records = mh_obs::traceview::to_records(&spans);
                let profile = mh_obs::build_profile(&records);
                println!("--- profile ({path}) ---");
                print!("{}", mh_obs::render_profile(&profile));
                return Ok(ExitCode::SUCCESS);
            }
            if rest.first().is_none_or(|a| a.starts_with("--")) {
                return Err(
                    "prof needs a subcommand to profile (e.g. `modelhub prof repro fig6c --quick`)"
                        .into(),
                );
            }
            mh_obs::enable_capture();
            let code = dispatch(rest)?;
            let profile = mh_obs::build_profile(&mh_obs::drain_capture());
            println!("--- profile ---");
            print!("{}", mh_obs::render_profile(&profile));
            return Ok(code);
        }
        Some("trace") => {
            if args.get(1).map(String::as_str) != Some("view") {
                return Err("trace needs a subcommand: trace view <spans.jsonl>...".into());
            }
            let files = &args[2..];
            if files.is_empty() || files.iter().any(|a| a.starts_with("--")) {
                return Err("trace view needs one or more JSONL span files".into());
            }
            let mut spans = Vec::new();
            let mut sources = Vec::new();
            for (i, path) in files.iter().enumerate() {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                spans.extend(mh_obs::traceview::parse_jsonl(&text, i));
                sources.push(path.clone());
            }
            let untraced = spans.iter().filter(|s| s.trace == 0).count();
            let trees = mh_obs::traceview::stitch(&spans);
            if trees.is_empty() {
                println!(
                    "no traced spans in {} record(s) ({untraced} without a trace id); \
                     capture with `--trace <file>` on both client and server",
                    spans.len()
                );
                return Ok(ExitCode::SUCCESS);
            }
            for tree in &trees {
                print!("{}", mh_obs::traceview::render_trace(tree, &sources));
            }
            if untraced > 0 {
                mh_obs::debug!("trace view: ignored {untraced} spans without a trace id");
            }
            return Ok(ExitCode::SUCCESS);
        }
        Some("repro") => {
            apply_jobs(args)?;
            let quick = args.iter().any(|a| a == "--quick");
            let what = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("all");
            mh_obs::debug!("running experiment(s) '{what}' (quick={quick})");
            if what == "all" {
                for name in modelhub::bench::EXPERIMENTS {
                    println!("\n### {name} ###");
                    modelhub::bench::run_experiment(name, quick)?;
                }
            } else {
                modelhub::bench::run_experiment(what, quick)?;
            }
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    match args.first().map(String::as_str) {
        Some("fsck") => {
            if args.iter().any(|a| a == "--version") {
                println!(
                    "modelhub fsck {} (sync backend: {})",
                    env!("CARGO_PKG_VERSION"),
                    mh_par::backend()
                );
                println!("audit rule inventory:");
                for (code, what) in modelhub::audit::report::rules_inventory() {
                    println!("  {code}  {what}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(PathBuf::from);
            let dir = dir.ok_or("fsck needs a repository directory")?;
            apply_jobs(args)?;
            let cfg = FsckConfig {
                deep: args.iter().any(|a| a == "--deep"),
            };
            mh_obs::debug!("fsck {} (deep={})", dir.display(), cfg.deep);
            let report = fsck(&dir, &cfg)?;
            for f in &report.findings {
                println!("{f}");
            }
            if !report.bounds.is_empty() {
                println!(
                    "per-snapshot worst-case bounds ({}-plane prefix):",
                    report.bounds[0].planes
                );
                for b in &report.bounds {
                    println!(
                        "  {}/{}: {} layers, worst interval width {:.6}",
                        b.store, b.snapshot, b.layers, b.worst_width
                    );
                }
            }
            println!(
                "checked {} versions, {} stores, {} blobs: {} errors, {} warnings",
                report.versions_checked,
                report.stores_checked,
                report.blobs_checked,
                report.errors(),
                report.warnings()
            );
            Ok(if report.errors() > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("check") => {
            let query = args.get(1).ok_or("check needs a DQL query string")?;
            let ctx = match args.iter().position(|a| a == "--repo") {
                Some(i) => {
                    let dir = args.get(i + 1).ok_or("--repo needs a directory")?;
                    let repo = modelhub::dlv::Repository::open(&PathBuf::from(dir))?;
                    AnalyzeContext::from_repository(&repo)
                }
                None => AnalyzeContext::default(),
            };
            let diags = match analyze::check(query, &ctx) {
                Ok(d) => d,
                Err(e) => {
                    mh_obs::error!("parse error: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let mut errors = 0usize;
            for d in &diags {
                render(query, d);
                if d.severity == analyze::Severity::Error {
                    errors += 1;
                }
            }
            if diags.is_empty() {
                println!("ok: no diagnostics");
            }
            Ok(if errors > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("gen-sample") => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .ok_or("gen-sample needs a target directory")?;
            let repo = Repository::init(&dir)?;
            let base = trained_commit("lenet", 1, None);
            let base_key = repo.commit(&base)?;
            let tuned = trained_commit("lenet-tuned", 2, Some(&base_key.to_string()));
            let tuned_key = repo.commit(&tuned)?;
            println!(
                "created sample repository at {} with versions {base_key} and {tuned_key}",
                dir.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        Some("archive") => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .ok_or("archive needs a repository directory")?;
            apply_jobs(args)?;
            let cfg = ArchiveConfig {
                alpha: flag_value::<f64>(args, "--alpha")?
                    .unwrap_or(ArchiveConfig::default().alpha),
                ..Default::default()
            };
            mh_obs::debug!("archiving {} with alpha {}", dir.display(), cfg.alpha);
            let repo = Repository::open(&dir)?;
            let report = repo.archive(&cfg)?;
            println!(
                "archived {} snapshots ({} matrices) into store {}: {} bytes on disk, \
                 plan cost {:.1}, budget {}",
                report.num_snapshots,
                report.num_matrices,
                report.store.0,
                report.bytes_on_disk,
                report.storage_cost,
                if report.satisfied {
                    "satisfied"
                } else {
                    "exceeded"
                }
            );
            Ok(ExitCode::SUCCESS)
        }
        Some("audit") => {
            if args.iter().any(|a| a == "--version") {
                println!("modelhub audit {}", env!("CARGO_PKG_VERSION"));
                println!("rule inventory:");
                for (code, what) in modelhub::audit::report::rules_inventory() {
                    println!("  {code}  {what}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            let root = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("."));
            let report_path = flag_value::<PathBuf>(args, "--report")?;
            let max_waivers = flag_value::<usize>(args, "--max-waivers")?;
            let report = modelhub::audit::audit_root(&root)
                .map_err(|e| format!("walking {}: {e}", root.display()))?;
            let rendered = report.render();
            if let Some(path) = &report_path {
                std::fs::write(path, &rendered)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            print!("{rendered}");
            if !report.is_clean() {
                mh_obs::error!(
                    "audit: FAIL — fix the finding or add `mh-audit: allow(CODE, reason)`"
                );
                return Ok(ExitCode::FAILURE);
            }
            if let Some(cap) = max_waivers {
                if report.waived > cap {
                    mh_obs::error!(
                        "audit: FAIL — waiver count {} exceeds --max-waivers {cap}; \
                         remove a waiver or consciously raise the cap",
                        report.waived
                    );
                    return Ok(ExitCode::FAILURE);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("hubd") => {
            let root = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(PathBuf::from)
                .ok_or("hubd needs a hub root directory")?;
            let addr = flag_value::<String>(args, "--addr")?
                .unwrap_or_else(|| "127.0.0.1:7797".to_string());
            let jobs = flag_value::<usize>(args, "--jobs")?;
            if jobs == Some(0) {
                return Err("--jobs must be at least 1".into());
            }
            let mut config = modelhub::hub::server::Config {
                jobs,
                ..modelhub::hub::server::Config::default()
            };
            if let Some(max_conns) = flag_value::<usize>(args, "--max-conns")? {
                if max_conns == 0 {
                    return Err("--max-conns must be at least 1".into());
                }
                config.max_conns = max_conns;
            }
            if let Some(body_budget) = flag_value::<u64>(args, "--body-budget")? {
                config.body_budget_bytes = body_budget;
            }
            if let Some(slow_ms) = flag_value::<u64>(args, "--slow-ms")? {
                config.slow_ms = slow_ms;
            }
            let server = modelhub::hub::HubServer::start_with(&root, &addr, config)?;
            println!(
                "hubd serving {} at {} (ctrl-c to stop)",
                root.display(),
                server.url()
            );
            server.run();
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

/// Print a diagnostic with a caret line under its span.
fn render(src: &str, d: &modelhub::dql::Diagnostic) {
    println!("{}: [{}] {}", d.severity, d.code, d.message);
    println!("  | {src}");
    let width = d.span.end.saturating_sub(d.span.start).max(1);
    println!("  | {}{}", " ".repeat(d.span.start), "^".repeat(width));
}

fn main() -> ExitCode {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            mh_obs::error!("modelhub: {e}");
            ExitCode::FAILURE
        }
    };
    mh_obs::flush();
    code
}
