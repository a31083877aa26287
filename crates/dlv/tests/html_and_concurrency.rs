//! Tests for the HTML front end and concurrent catalog access.

#![allow(clippy::unwrap_used)] // test/bench/demo code: panics are failures
use mh_dlv::{CommitRequest, Repository};
use mh_dnn::{zoo, Weights};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-dlv-hc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn quick_commit(repo: &Repository, name: &str) {
    let net = zoo::lenet_s(3);
    let mut req = CommitRequest::new(name, net);
    req.snapshots = vec![(0, Weights::init(&req.network, 7).unwrap())];
    req.hyperparams.insert("base_lr".into(), "0.05".into());
    req.log = vec![
        mh_dnn::LogEntry {
            iteration: 1,
            loss: 2.0,
            accuracy: None,
            lr: 0.05,
        },
        mh_dnn::LogEntry {
            iteration: 2,
            loss: 1.5,
            accuracy: Some(0.4),
            lr: 0.05,
        },
    ];
    req.files
        .push(("notes <&> weird.txt".into(), b"hello".to_vec()));
    repo.commit(&req).unwrap();
}

#[test]
fn html_rendering_escapes_and_includes_everything() {
    let dir = temp_dir("html");
    let repo = Repository::init(&dir).unwrap();
    quick_commit(&repo, "html-model");
    let html = repo.desc("html-model").unwrap().render_html();
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("<h1>Model html-model:1</h1>"));
    // Layer table, hyperparameters, snapshot rows, loss sparkline, files.
    assert!(html.contains("conv1"));
    assert!(html.contains("base_lr"));
    assert!(html.contains("staged:"));
    assert!(html.contains("<svg"));
    // HTML-special characters in file names are escaped.
    assert!(html.contains("notes &lt;&amp;&gt; weird.txt"));
    assert!(!html.contains("notes <&> weird.txt"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_readers_and_writers() {
    let dir = temp_dir("conc");
    let repo = Arc::new(Repository::init(&dir).unwrap());
    quick_commit(&repo, "seed");

    // 4 reader threads hammer list/desc/weights while 2 writers commit.
    let mut handles = Vec::new();
    for t in 0..4 {
        let r = Arc::clone(&repo);
        handles.push(mh_par::sync::thread::spawn(move || {
            for _ in 0..20 {
                let list = r.list();
                assert!(!list.is_empty());
                let spec = list[0].key.to_string();
                let _ = r.desc(&spec);
                let _ = r.get_weights(&spec, None);
                let _ = t;
            }
        }));
    }
    for t in 0..2 {
        let r = Arc::clone(&repo);
        handles.push(mh_par::sync::thread::spawn(move || {
            for i in 0..5 {
                quick_commit(&r, &format!("writer{t}-{i}"));
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panics");
    }
    assert_eq!(repo.list().len(), 1 + 2 * 5);
    let report = mh_dlv::fsck::fsck(repo.root(), &Default::default()).unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
    std::fs::remove_dir_all(&dir).ok();
}
