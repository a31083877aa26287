//! Negative self-check: every finding code has a fixture that makes it
//! fire exactly once, the clean fixture yields zero findings, and the
//! rendered report is byte-identical across runs.

use mh_audit::{audit_sources, SourceFile};
use std::path::PathBuf;

fn fixture(name: &str) -> SourceFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    SourceFile {
        rel: format!("fixtures/{name}"),
        crate_name: "fixture".into(),
        module: Vec::new(),
        text: std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display())),
    }
}

/// (fixture file, code expected to fire exactly once, waivers consumed).
const CASES: &[(&str, &str, usize)] = &[
    ("a001.rs", "A001", 0),
    ("a002.rs", "A002", 0),
    ("a003.rs", "A003", 0),
    ("a004.rs", "A004", 0),
    ("a005.rs", "A005", 0),
    ("a006.rs", "A006", 0),
    ("a007.rs", "A007", 0),
    // a008 waives the A004 that shares the taint sink's line.
    ("a008.rs", "A008", 1),
    ("a009.rs", "A009", 0),
    ("a010.rs", "A010", 0),
    ("a101.rs", "A101", 0),
    ("a102.rs", "A102", 0),
    ("a103.rs", "A103", 0),
    ("a104.rs", "A104", 0),
    ("r003.rs", "R003", 0),
    ("r004.rs", "R004", 0),
    ("r005.rs", "R005", 0),
    ("w001.rs", "W001", 0),
];

#[test]
fn each_code_fires_exactly_once() {
    for &(file, code, waived) in CASES {
        let r = audit_sources(&[fixture(file)]);
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert_eq!(
            codes,
            vec![code],
            "fixture {file} must fire exactly [{code}]; report:\n{}",
            r.render()
        );
        assert_eq!(r.waived, waived, "fixture {file} waiver count");
    }
}

#[test]
fn clean_fixture_is_clean() {
    let r = audit_sources(&[fixture("clean.rs")]);
    assert!(r.is_clean(), "clean fixture flagged:\n{}", r.render());
    assert_eq!(r.waived, 0);
    // The zone entry was actually audited, not skipped.
    assert_eq!(r.entries, vec!["fixture::entry"]);
}

#[test]
fn whole_corpus_report_is_deterministic() {
    let load = || {
        let mut sources: Vec<SourceFile> = CASES.iter().map(|&(f, _, _)| fixture(f)).collect();
        sources.push(fixture("clean.rs"));
        audit_sources(&sources).render()
    };
    let r1 = load();
    let r2 = load();
    assert_eq!(r1, r2);
    // All 18 codes present in the combined report.
    for &(_, code, _) in CASES {
        assert!(r1.contains(code), "combined report lost {code}:\n{r1}");
    }
}
