//! End-to-end DQL tests: build a small repository of trained models, then
//! run the paper's four query archetypes against it.

#![allow(clippy::unwrap_used)] // test/bench/demo code: panics are failures
use mh_dlv::{ArchiveConfig, CommitRequest, Repository};
use mh_dnn::{synth_dataset, zoo, Hyperparams, SynthConfig, Trainer, Weights};
use mh_dql::{DqlError, Executor, QueryResult};
use mh_store::{Predicate, Value};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-dql-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn dataset() -> mh_dnn::Dataset {
    synth_dataset(&SynthConfig {
        num_classes: 3,
        train_per_class: 8,
        test_per_class: 4,
        noise: 0.05,
        seed: 21,
        ..Default::default()
    })
}

/// A repo with a lenet family (trained) and an alexnet-style model.
fn fixture(tag: &str) -> (Repository, PathBuf) {
    let dir = temp_dir(tag);
    let repo = Repository::init(&dir).unwrap();
    let data = dataset();
    let trainer = Trainer::new(Hyperparams {
        base_lr: 0.08,
        ..Default::default()
    });

    for (name, seed) in [("lenet-origin", 1u64), ("lenet-avgv1", 2)] {
        let net = zoo::lenet_s(3);
        let init = Weights::init(&net, seed).unwrap();
        let result = trainer.train(&net, init, &data, 8).unwrap();
        let mut req = CommitRequest::new(name, net);
        req.snapshots = vec![(8, result.weights)];
        req.accuracy = Some(result.final_accuracy);
        req.comment = format!("{name} baseline");
        repo.commit(&req).unwrap();
    }
    {
        let net = zoo::alexnet_s(3);
        let init = Weights::init(&net, 5).unwrap();
        let result = trainer.train(&net, init, &data, 4).unwrap();
        let mut req = CommitRequest::new("alexnet-v1", net);
        req.snapshots = vec![(4, result.weights)];
        req.accuracy = Some(result.final_accuracy);
        repo.commit(&req).unwrap();
    }
    (repo, dir)
}

#[test]
fn select_by_name_and_structure() {
    let (repo, dir) = fixture("select");
    let exec = Executor::new(&repo);

    // Name pattern only.
    let QueryResult::Versions(v) = exec
        .run(r#"select m1 where m1.name like "lenet%""#)
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(v.len(), 2);

    // Structural condition: lenet_s has conv layers followed by relu, and
    // pools downstream: conv1.next is relu1, not a POOL.
    let QueryResult::Versions(v) = exec
        .run(r#"select m1 where m1["conv?"].next has POOL("MAX")"#)
        .unwrap()
    else {
        panic!()
    };
    assert!(v.is_empty(), "conv is followed by relu, not pool: {v:?}");

    // relu1.next IS a max pool in both scaled families (lenet_s and
    // alexnet_s), so the structural filter alone matches all three.
    let QueryResult::Versions(v) = exec
        .run(r#"select m1 where m1["relu[1,2]"].next has POOL("MAX")"#)
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(v.len(), 3, "relu->maxpool appears in every committed model");

    // Mixing the structural condition with a name predicate narrows it —
    // the paper's Query 1 shape.
    let QueryResult::Versions(v) = exec
        .run(r#"select m1 where m1.name like "lenet%" and m1["relu[1,2]"].next has POOL("MAX")"#)
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(v.len(), 2, "both lenets have relu->maxpool");

    // Numeric predicate over metadata.
    let QueryResult::Versions(v) = exec
        .run(r#"select m1 where m1.params > 1 and m1.accuracy >= 0"#)
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(v.len(), 3);

    // Or / not combinations.
    let QueryResult::Versions(v) = exec
        .run(r#"select m1 where m1.name like "alexnet%" or m1.name like "lenet-origin%""#)
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(v.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slice_extracts_subnetwork_with_weights() {
    let (repo, dir) = fixture("slice");
    let exec = Executor::new(&repo);
    let QueryResult::Derived(d) = exec
        .run(
            r#"slice m2 from m1 where m1.name like "lenet-origin%"
               mutate m2.input = m1["conv1"] and m2.output = m1["ip1"]"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(d.len(), 1);
    let sub = &d[0].network;
    let names: Vec<&str> = sub.nodes().map(|n| n.name.as_str()).collect();
    assert!(names.contains(&"conv1") && names.contains(&"ip1"));
    assert!(!names.contains(&"data") && !names.contains(&"ip2"));
    // Warm-start weights for surviving parametric layers came along.
    let init = d[0].init.as_ref().unwrap();
    assert!(init.get("conv1").is_some() && init.get("ip1").is_some());
    assert!(init.get("ip2").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn construct_inserts_templated_layers() {
    let (repo, dir) = fixture("construct");
    let exec = Executor::new(&repo);
    // Insert a tanh after every pool (captures number the new layers).
    let QueryResult::Derived(d) = exec
        .run(
            r#"construct m2 from m1 where m1.name like "lenet%"
               mutate m1["pool(*)"].insert = TANH("posttanh$1")"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(d.len(), 2);
    for dm in &d {
        let names: Vec<&str> = dm.network.nodes().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"posttanh1"), "{names:?}");
        assert!(names.contains(&"posttanh2"), "{names:?}");
        // Inserted after pool1: pool1 -> posttanh1 -> conv2.
        let pool1 = dm.network.node_by_name("pool1").unwrap().id;
        let next = dm.network.next(pool1);
        assert_eq!(next.len(), 1);
        assert_eq!(dm.network.node(next[0]).unwrap().name, "posttanh1");
        dm.network.infer_shapes().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn construct_delete_layers() {
    let (repo, dir) = fixture("delete");
    let exec = Executor::new(&repo);
    let QueryResult::Derived(d) = exec
        .run(
            r#"construct m2 from m1 where m1.name like "lenet-origin%"
               mutate m1["relu3"].delete"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(d.len(), 1);
    assert!(d[0].network.node_by_name("relu3").is_err());
    // ip1 now feeds ip2 directly.
    let ip1 = d[0].network.node_by_name("ip1").unwrap().id;
    let next = d[0].network.next(ip1);
    assert_eq!(d[0].network.node(next[0]).unwrap().name, "ip2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_grid_search_and_keep_top() {
    let (repo, dir) = fixture("evaluate");
    let mut exec = Executor::new(&repo);
    exec.register_dataset("synth3", dataset());
    let before = repo.list().len();

    let QueryResult::Evaluated(rows) = exec
        .run(
            r#"evaluate m from "lenet-origin%"
               vary config.base_lr in [0.1, 0.01]
               keep top(1, m["loss"], 5)"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(rows.len(), 2, "2 lr values × 1 model");
    let kept: Vec<_> = rows.iter().filter(|r| r.kept).collect();
    assert_eq!(kept.len(), 1);
    // The kept model was committed with lineage back to the source.
    let committed = kept[0].committed.as_ref().unwrap();
    assert_eq!(repo.list().len(), before + 1);
    assert!(repo
        .lineage()
        .iter()
        .any(|(base, derived)| base == "lenet-origin:1" && derived == &committed.to_string()));
    // Kept rows sort first and have the lowest loss.
    assert!(rows[0].kept);
    assert!(rows[0].loss <= rows[1].loss);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_nested_construct_with_layer_lr_auto() {
    let (repo, dir) = fixture("nested");
    let mut exec = Executor::new(&repo);
    exec.register_dataset("synth3", dataset());
    exec.auto_lr_grid = vec![1.0, 0.0]; // second config freezes matched layers

    let QueryResult::Evaluated(rows) = exec
        .run(
            r#"evaluate m from (construct m2 from m1 where m1.name like "lenet-origin%"
                                mutate m1["pool2"].insert = TANH("t1"))
               vary config.net["conv*"].lr auto
               keep top(2, m["loss"], 4)"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(rows.len(), 2, "one derived model × 2 auto lr settings");
    assert!(rows.iter().all(|r| r.kept));
    assert!(rows.iter().all(|r| r.config.contains("lr[conv*]")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_threshold_keep_and_input_data() {
    let (repo, dir) = fixture("threshold");
    let mut exec = Executor::new(&repo);
    exec.register_dataset("easy", dataset());
    exec.register_dataset(
        "noisy",
        synth_dataset(&SynthConfig {
            num_classes: 3,
            train_per_class: 8,
            test_per_class: 4,
            noise: 0.6,
            seed: 77,
            ..Default::default()
        }),
    );
    let QueryResult::Evaluated(rows) = exec
        .run(
            r#"evaluate m from "alexnet%"
               vary config.input_data in ["easy", "noisy"]
               keep m["loss"] < 100.0, 3"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().any(|r| r.config.contains("data=easy")));
    assert!(rows.iter().any(|r| r.config.contains("data=noisy")));
    assert!(
        rows.iter().all(|r| r.kept),
        "threshold 100 keeps everything"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Ways to break an archived fixture so that none of its archived
/// weights can be read back.
#[derive(Clone, Copy, Debug)]
enum Corruption {
    /// Every non-empty plane file cut short by a byte.
    TruncatedPlanes,
    /// The archive's store directory removed.
    StoreRemoved,
    /// The `pas_vertex` row of `lenet-origin`'s `conv1` pointed at
    /// vertex 0, the null vertex.
    VertexZero,
}

/// The fixture, archived, then broken as `how` says.
fn archived_and_corrupted(tag: &str, how: Corruption) -> (Repository, PathBuf) {
    let (repo, dir) = fixture(tag);
    repo.archive(&ArchiveConfig::default()).unwrap();
    let stores: Vec<PathBuf> = std::fs::read_dir(dir.join("pas"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    assert!(!stores.is_empty(), "archive wrote no store");
    match how {
        Corruption::TruncatedPlanes => {
            let mut cut = 0;
            for store in &stores {
                for plane in std::fs::read_dir(store).unwrap().flatten() {
                    let path = plane.path();
                    if path.extension().is_some_and(|e| e == "mhz") {
                        let bytes = std::fs::read(&path).unwrap();
                        if !bytes.is_empty() {
                            std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
                            cut += 1;
                        }
                    }
                }
            }
            assert!(cut > 0, "archive wrote no planes");
        }
        Corruption::StoreRemoved => {
            for store in &stores {
                std::fs::remove_dir_all(store).unwrap();
            }
        }
        Corruption::VertexZero => {
            drop(repo);
            let catalog = mh_store::Catalog::open(&dir.join("catalog.mhs")).unwrap();
            catalog
                .write(|db| {
                    let mv = db.table("model_version")?.select(&Predicate::Eq(
                        "name".into(),
                        Value::Text("lenet-origin".into()),
                    ))[0]
                        .id as i64;
                    let row = db.table("pas_vertex")?.select(
                        &Predicate::Eq("mv".into(), Value::Int(mv))
                            .and(Predicate::Eq("layer".into(), Value::Text("conv1".into()))),
                    )[0]
                    .id;
                    db.table_mut("pas_vertex")?
                        .update(row, "vertex", Value::Int(0))?;
                    Ok(())
                })
                .unwrap();
            let report = mh_dlv::fsck::fsck(&dir, &mh_dlv::fsck::FsckConfig::default()).unwrap();
            let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
            assert_eq!(
                codes,
                [mh_dlv::fsck::B_DANGLING_PAS_VERTEX],
                "{:?}",
                report.findings
            );
            return (Repository::open(&dir).unwrap(), dir);
        }
    }
    (repo, dir)
}

fn assert_read_error(how: Corruption, result: Result<QueryResult, DqlError>) {
    match result {
        Err(DqlError::Dlv(_)) => {}
        other => panic!("{how:?} must surface as a read error: {other:?}"),
    }
}

fn slice_is_an_error(tag: &str, how: Corruption) {
    let (repo, dir) = archived_and_corrupted(tag, how);
    let exec = Executor::new(&repo);
    assert_read_error(
        how,
        exec.run(
            r#"slice m2 from m1 where m1.name like "lenet-origin%"
               mutate m2.input = m1["conv1"] and m2.output = m1["ip1"]"#,
        ),
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn construct_is_an_error(tag: &str, how: Corruption) {
    let (repo, dir) = archived_and_corrupted(tag, how);
    let exec = Executor::new(&repo);
    assert_read_error(
        how,
        exec.run(
            r#"construct m2 from m1 where m1.name like "lenet-origin%"
               mutate m1["pool2"].insert = TANH("t1")"#,
        ),
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn evaluate_is_an_error(tag: &str, how: Corruption) {
    let (repo, dir) = archived_and_corrupted(tag, how);
    let mut exec = Executor::new(&repo);
    exec.register_dataset("synth3", dataset());
    let before = repo.list().len();
    assert_read_error(
        how,
        exec.run(
            r#"evaluate m from "lenet-origin%"
               vary config.base_lr in [0.1]
               keep top(1, m["loss"], 1)"#,
        ),
    );
    assert_eq!(repo.list().len(), before, "nothing trained or committed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slice_over_a_truncated_plane_is_an_error() {
    slice_is_an_error("cut-slice", Corruption::TruncatedPlanes);
}

#[test]
fn construct_over_a_truncated_plane_is_an_error() {
    construct_is_an_error("cut-construct", Corruption::TruncatedPlanes);
}

#[test]
fn evaluate_over_a_truncated_plane_is_an_error() {
    evaluate_is_an_error("cut-evaluate", Corruption::TruncatedPlanes);
}

#[test]
fn slice_over_a_removed_store_is_an_error() {
    slice_is_an_error("gone-slice", Corruption::StoreRemoved);
}

#[test]
fn construct_over_a_removed_store_is_an_error() {
    construct_is_an_error("gone-construct", Corruption::StoreRemoved);
}

#[test]
fn evaluate_over_a_removed_store_is_an_error() {
    evaluate_is_an_error("gone-evaluate", Corruption::StoreRemoved);
}

#[test]
fn slice_over_a_zero_vertex_row_is_an_error() {
    slice_is_an_error("zero-slice", Corruption::VertexZero);
}

#[test]
fn construct_over_a_zero_vertex_row_is_an_error() {
    construct_is_an_error("zero-construct", Corruption::VertexZero);
}

#[test]
fn evaluate_over_a_zero_vertex_row_is_an_error() {
    evaluate_is_an_error("zero-evaluate", Corruption::VertexZero);
}

#[test]
fn bad_queries_fail_cleanly() {
    let (repo, dir) = fixture("bad");
    let exec = Executor::new(&repo);
    assert!(exec.run("select m1 where m2.name like 'x'").is_err());
    assert!(exec.run("select m1 where m1.nonsense > 1").is_err());
    assert!(exec.run("not a query at all").is_err());
    // Evaluate without a dataset registered.
    assert!(exec
        .run(r#"evaluate m from "lenet%" keep top(1, m["loss"], 2)"#)
        .is_err());
    std::fs::remove_dir_all(&dir).ok();
}
