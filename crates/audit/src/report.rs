//! Findings, waiver application, and deterministic rendering.

use crate::lexer::{Ann, Directive};
use std::fmt::Write as _;

/// One finding. `file` is filled in by the driver once the file is
/// known (passes produce findings with only line/code/message).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub code: &'static str,
    pub message: String,
}

impl Finding {
    pub fn new(line: u32, code: &'static str, message: String) -> Finding {
        Finding {
            file: String::new(),
            line,
            code,
            message,
        }
    }
}

/// Full audit result.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived waivers, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// Count of findings suppressed by a reasoned waiver.
    pub waived: usize,
    /// Files scanned.
    pub scanned_files: usize,
    /// Functions audited by the panic/taint passes (zone-reachable).
    pub audited_fns: usize,
    /// Declared entry points (qualified names, sorted).
    pub entries: Vec<String>,
}

/// Every code the auditor can emit, with a one-line meaning. The CLIs
/// print this for `--version`; keep it in sync when adding a pass.
pub fn rules_inventory() -> &'static [(&'static str, &'static str)] {
    &[
        ("A001", "`.unwrap()` reachable in a no_panic_zone"),
        ("A002", "`.expect()` reachable in a no_panic_zone"),
        ("A003", "panicking macro reachable in a no_panic_zone"),
        (
            "A004",
            "indexing / bounds-panicking slice method in a no_panic_zone",
        ),
        (
            "A005",
            "range slice `expr[a..b]` reachable in a no_panic_zone",
        ),
        (
            "A006",
            "non-literal divisor or chunk size (panics on zero) in a no_panic_zone",
        ),
        ("A007", "untrusted length flows into an allocation sink"),
        ("A008", "untrusted value used as index/slice bound"),
        ("A009", "unchecked arithmetic on an untrusted length"),
        ("A010", "malformed or reason-less mh-audit directive"),
        (
            "A101",
            "parking_lot primitive; use mh_par::sync::{Mutex, RwLock}",
        ),
        ("A102", "std::sync primitive; use mh_par::sync"),
        ("A103", "std::thread primitive; use mh_par::sync::thread"),
        ("A104", "direct Instant::now; use mh_par::sync::now()"),
        (
            "R003",
            "lock-order cycle across the workspace (potential ABBA deadlock)",
        ),
        ("R004", "blocking I/O while a lock guard is held"),
        (
            "R005",
            "pool/thread wait while a lock guard is held (worker exhaustion)",
        ),
        (
            "W001",
            "stale waiver: allow(...) suppresses no current finding (not waivable)",
        ),
    ]
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic text rendering: one `file:line: [CODE] message`
    /// per finding plus a trailer summary. Byte-identical across runs
    /// on identical sources.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.code, f.message);
        }
        let _ = writeln!(
            out,
            "mh-audit: {} finding(s), {} waived, {} file(s) scanned, {} fn(s) audited from {} entry point(s)",
            self.findings.len(),
            self.waived,
            self.scanned_files,
            self.audited_fns,
            self.entries.len(),
        );
        out
    }
}

/// Apply waivers to raw findings for one file.
///
/// An `allow(CODE, reason)` on the finding's own line — or standing
/// alone on the line directly above — suppresses it. A malformed or
/// reason-less directive becomes an **A010** finding itself and waives
/// nothing. A waiver that suppresses *no* current finding is stale and
/// becomes a **W001** finding at the waiver's own line: the ledger must
/// shrink with the code it excuses, not outlive it. W001 itself is not
/// waivable (the lexer rejects `allow(W...)`) — a stale waiver is
/// deleted, not excused.
pub fn apply_waivers(
    rel: &str,
    anns: &[Ann],
    raw: Vec<Finding>,
    waived_count: &mut usize,
) -> Vec<Finding> {
    // One entry per allow directive, so each can report staleness
    // individually even when several share a line.
    struct Waiver<'a> {
        /// Line the waiver covers (its own, or the next for standalone).
        covers: u32,
        /// Line the directive itself sits on (W001 anchor).
        at: u32,
        code: &'a str,
        used: bool,
    }
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut out: Vec<Finding> = Vec::new();
    for ann in anns {
        match &ann.directive {
            Directive::Allow { code, reason: _ } => {
                let covers = if ann.standalone {
                    ann.line + 1
                } else {
                    ann.line
                };
                waivers.push(Waiver {
                    covers,
                    at: ann.line,
                    code: code.as_str(),
                    used: false,
                });
            }
            Directive::Malformed(msg) => {
                out.push(Finding {
                    file: rel.to_string(),
                    line: ann.line,
                    code: "A010",
                    message: format!("malformed mh-audit directive: {msg}"),
                });
            }
            _ => {}
        }
    }
    for mut f in raw {
        let mut waived = false;
        for w in waivers.iter_mut() {
            if w.covers == f.line && w.code == f.code {
                w.used = true;
                waived = true;
            }
        }
        if waived {
            *waived_count += 1;
            continue;
        }
        f.file = rel.to_string();
        out.push(f);
    }
    for w in &waivers {
        if !w.used {
            out.push(Finding {
                file: rel.to_string(),
                line: w.at,
                code: "W001",
                message: format!(
                    "stale waiver: `allow({}, ..)` suppresses no current finding — delete it",
                    w.code
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn waiver_suppresses_matching_code_only() {
        let m = crate::lexer::MARKER;
        let src = format!("let a = v[i]; // {m} allow(A004, caller checked bounds)\n");
        let anns = lex(&src).anns;
        let raw = vec![
            Finding::new(1, "A004", "indexing".into()),
            Finding::new(1, "A001", "unwrap".into()),
        ];
        let mut waived = 0;
        let out = apply_waivers("f.rs", &anns, raw, &mut waived);
        assert_eq!(waived, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "A001");
    }

    #[test]
    fn standalone_waiver_covers_next_line() {
        let m = crate::lexer::MARKER;
        let src = format!("// {m} allow(A001, startup only)\nlet a = x.unwrap();\n");
        let anns = lex(&src).anns;
        let raw = vec![Finding::new(2, "A001", "unwrap".into())];
        let mut waived = 0;
        let out = apply_waivers("f.rs", &anns, raw, &mut waived);
        assert_eq!(waived, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn reasonless_waiver_is_a010_and_waives_nothing() {
        let m = crate::lexer::MARKER;
        let src = format!("let a = x.unwrap(); // {m} allow(A001)\n");
        let anns = lex(&src).anns;
        let raw = vec![Finding::new(1, "A001", "unwrap".into())];
        let mut waived = 0;
        let out = apply_waivers("f.rs", &anns, raw, &mut waived);
        assert_eq!(waived, 0);
        let codes: Vec<&str> = out.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"A010"));
        assert!(codes.contains(&"A001"));
    }

    #[test]
    fn stale_waiver_is_w001() {
        let m = crate::lexer::MARKER;
        let src = format!("let a = v.get(i); // {m} allow(A004, caller checked bounds)\n");
        let anns = lex(&src).anns;
        let mut waived = 0;
        let out = apply_waivers("f.rs", &anns, Vec::new(), &mut waived);
        assert_eq!(waived, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "W001");
        assert_eq!(out[0].line, 1);
        assert!(out[0].message.contains("A004"));
    }

    #[test]
    fn used_waiver_is_not_stale() {
        let m = crate::lexer::MARKER;
        let src = format!("let a = v[i]; // {m} allow(A004, caller checked bounds)\n");
        let anns = lex(&src).anns;
        let raw = vec![Finding::new(1, "A004", "indexing".into())];
        let mut waived = 0;
        let out = apply_waivers("f.rs", &anns, raw, &mut waived);
        assert_eq!(waived, 1);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn w001_is_not_waivable() {
        // `allow(W001, ...)` is rejected at lex time: a stale waiver
        // must be deleted, never excused by another waiver.
        let m = crate::lexer::MARKER;
        let src = format!("// {m} allow(W001, keep it)\n");
        let anns = lex(&src).anns;
        assert_eq!(anns.len(), 1);
        assert!(matches!(anns[0].directive, Directive::Malformed(_)));
    }

    #[test]
    fn inventory_covers_all_codes() {
        let inv = rules_inventory();
        let codes: Vec<&str> = inv.iter().map(|(c, _)| *c).collect();
        for c in ["A001", "A010", "A104", "R003", "R005", "W001"] {
            assert!(codes.contains(&c), "{c} missing from inventory");
        }
        // Sorted and unique — the --version listing is deterministic.
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn render_is_deterministic() {
        let mut r = Report::default();
        r.findings.push(Finding {
            file: "a.rs".into(),
            line: 3,
            code: "A001",
            message: "x".into(),
        });
        assert_eq!(r.render(), r.render());
        assert!(r.render().contains("a.rs:3: [A001] x"));
    }
}
