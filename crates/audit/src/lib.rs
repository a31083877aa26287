//! mh-audit — syntax-aware panic/alloc auditor for the workspace's
//! untrusted-input hot paths.
//!
//! The hub serves arbitrary clients; a single reachable `unwrap()`,
//! out-of-bounds index, or `Vec::with_capacity(attacker_len)` in the
//! request path is a remote kill-a-worker or OOM primitive. This crate
//! proves the absence of those *syntactically*: a hand-rolled lexer and
//! item parser ([`lexer`], [`parser`]), an over-approximate workspace
//! call graph ([`graph`]), and three analyses:
//!
//! * **Pass A** ([`panics`]) — panic reachability from
//!   `// mh-audit: no_panic_zone` entry points (codes A001–A006).
//! * **Pass B** ([`taint`]) — untrusted-length flow from
//!   deserialization sources to allocation/index sinks (A007–A009).
//! * **Token rules** ([`rules`]) — the absorbed sync-facade lint
//!   (A101–A104), now over real tokens instead of text.
//! * **Pass R** ([`conc`], on [`effects`]) — static concurrency audit:
//!   blocking-effect inference, a whole-workspace lock-order graph with
//!   ABBA-cycle detection (R003), and guard-held-region analysis for
//!   blocking I/O / pool waits under a lock (R004/R005).
//!
//! Deliberate exceptions carry `// mh-audit: allow(CODE, reason)`
//! waivers; a reason-less waiver is itself a finding (A010) and a
//! *stale* waiver — one that suppresses nothing — is W001. Functions
//! proven total by review are `// mh-audit: trusted(reason)` boundaries.
//! Output is deterministic: byte-identical across runs on identical
//! sources (everything is `BTreeMap`-ordered; no timestamps).
//!
//! See DESIGN.md § mh-audit for the annotation grammar and the known
//! over-approximations.

pub mod conc;
pub mod effects;
pub mod graph;
pub mod lexer;
pub mod panics;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

use graph::Graph;
use parser::ParsedFile;
use report::{Finding, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A source file handed to the auditor: workspace-relative path,
/// owning crate's lib name, file-derived module path, and text.
pub struct SourceFile {
    pub rel: String,
    pub crate_name: String,
    pub module: Vec<String>,
    pub text: String,
}

/// Audit a set of in-memory sources (the driver for both the real
/// workspace walk and the fixture tests).
pub fn audit_sources(sources: &[SourceFile]) -> Report {
    let parsed: Vec<ParsedFile> = sources
        .iter()
        .map(|s| {
            let mut lexed = lexer::lex(&s.text);
            // The auditor's own sources (pattern tables, doc examples
            // that spell out the annotation grammar) are not allowed to
            // carry live directives — otherwise prose like the marker
            // followed by `no_panic_zone` in a doc comment would create
            // phantom entry points.
            if rules::facade_allowlisted(&s.rel) {
                lexed.anns.clear();
            }
            parser::parse(&s.rel, &s.crate_name, &s.module, lexed)
        })
        .collect();
    let graph = Graph::build(&parsed);
    let tokens_of_file: Vec<&[lexer::Token]> = parsed.iter().map(|p| p.tokens.as_slice()).collect();
    let anns_of_file: Vec<&[lexer::Ann]> = parsed.iter().map(|p| p.anns.as_slice()).collect();

    let mut raw_by_file: BTreeMap<usize, Vec<Finding>> = BTreeMap::new();
    for (fi, findings) in panics::run(&graph, &tokens_of_file) {
        raw_by_file.entry(fi).or_default().extend(findings);
    }
    for (fi, findings) in taint::run(&graph, &tokens_of_file, &anns_of_file) {
        raw_by_file.entry(fi).or_default().extend(findings);
    }
    for (fi, findings) in conc::run(&graph, &parsed) {
        raw_by_file.entry(fi).or_default().extend(findings);
    }
    for (fi, p) in parsed.iter().enumerate() {
        if !rules::facade_allowlisted(&p.rel) {
            raw_by_file
                .entry(fi)
                .or_default()
                .extend(rules::scan(&p.tokens));
        }
    }

    let mut report = Report {
        scanned_files: parsed.len(),
        ..Report::default()
    };
    let (audited, _) = graph.reachable();
    report.audited_fns = audited.len();
    report.entries = {
        let mut e: Vec<String> = graph
            .funcs
            .iter()
            .filter(|f| f.entry && !f.in_test)
            .map(|f| f.qualified())
            .collect();
        e.sort();
        e.dedup();
        e
    };
    for (fi, p) in parsed.iter().enumerate() {
        let raw = raw_by_file.remove(&fi).unwrap_or_default();
        let kept = report::apply_waivers(&p.rel, &p.anns, raw, &mut report.waived);
        report.findings.extend(kept);
    }
    report.findings.sort();
    report.findings.dedup();
    report
}

/// Walk a workspace root and audit every `.rs` file under `crates/`,
/// `src/` and `tools/` (skipping `target/`, dot-dirs, and `vendor/`).
pub fn audit_root(root: &Path) -> std::io::Result<Report> {
    let mut sources: Vec<SourceFile> = Vec::new();
    // Crate dirs: crates/*, tools/*, plus the root package (src/).
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for top in ["crates", "tools"] {
        let dir = root.join(top);
        if dir.is_dir() {
            let mut subdirs: Vec<PathBuf> = std::fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            subdirs.sort();
            crate_dirs.extend(subdirs);
        }
    }
    crate_dirs.push(root.to_path_buf());

    for dir in crate_dirs {
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let crate_name = package_lib_name(&manifest).unwrap_or_else(|| {
            dir.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("unknown")
                .replace('-', "_")
        });
        let src_dir = dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let module = module_path_of(&path, &src_dir);
            let text = std::fs::read_to_string(&path)?;
            sources.push(SourceFile {
                rel,
                crate_name: crate_name.clone(),
                module,
                text,
            });
        }
    }
    Ok(audit_sources(&sources))
}

/// `[package] name = "..."` from a Cargo.toml, underscored.
fn package_lib_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let name = rest.trim().trim_matches('"');
                    if !name.is_empty() {
                        return Some(name.replace('-', "_"));
                    }
                }
            }
        }
    }
    None
}

/// File-derived module path: `src/a/b.rs` → `[a, b]`, `src/lib.rs` and
/// `src/main.rs` → `[]`, `src/a/mod.rs` → `[a]`, `src/bin/x.rs` → `[]`.
fn module_path_of(path: &Path, src_dir: &Path) -> Vec<String> {
    let rel = match path.strip_prefix(src_dir) {
        Ok(r) => r,
        Err(_) => return Vec::new(),
    };
    let mut parts: Vec<String> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .map(String::from)
        .collect();
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    let stem = last.trim_end_matches(".rs");
    if parts.first().map(String::as_str) == Some("bin") {
        return Vec::new();
    }
    if stem != "lib" && stem != "main" && stem != "mod" {
        parts.push(stem.to_string());
    }
    parts
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, src: &str) -> Vec<SourceFile> {
        vec![SourceFile {
            rel: rel.into(),
            crate_name: "t".into(),
            module: Vec::new(),
            text: src.into(),
        }]
    }

    #[test]
    fn end_to_end_zone_finding() {
        let m = lexer::MARKER;
        let src = format!("// {m} no_panic_zone\nfn entry(v: &[u8]) {{ let x = v[0]; }}\n");
        let r = audit_sources(&one("x.rs", &src));
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, "A004");
        assert_eq!(r.entries, vec!["t::entry"]);
        assert!(!r.is_clean());
    }

    #[test]
    fn waived_finding_is_counted_not_reported() {
        let m = lexer::MARKER;
        let src = format!(
            "// {m} no_panic_zone\nfn entry(v: &[u8]) {{ let x = v[0]; // {m} allow(A004, v checked nonempty by caller)\n}}\n"
        );
        let r = audit_sources(&one("x.rs", &src));
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn outside_zone_panics_not_flagged_but_rules_still_fire() {
        let src = "fn helper(v: &[u8]) { let x = v[0].min(1); }\n\
                   fn timer() { let t = Instant::now(); }\n";
        let r = audit_sources(&one("x.rs", src));
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec!["A104"]);
    }

    #[test]
    fn render_stable_across_runs() {
        let m = lexer::MARKER;
        let src = format!(
            "// {m} no_panic_zone\nfn entry(v: &[u8]) {{ let a = v[0]; let b = v.split_at(2); b.0.len() / a as usize }}\n"
        );
        let r1 = audit_sources(&one("x.rs", &src)).render();
        let r2 = audit_sources(&one("x.rs", &src)).render();
        assert_eq!(r1, r2);
    }
}
