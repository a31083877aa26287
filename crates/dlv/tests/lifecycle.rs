//! End-to-end DLV lifecycle tests: init → commit (with training artifacts)
//! → list/desc/diff/eval → archive → retrieve from PAS → publish/pull.

#![allow(clippy::unwrap_used)] // test/bench/demo code: panics are failures
use mh_dlv::fsck::{FsckConfig, FsckReport};
use mh_dlv::{diff, ArchiveConfig, CommitRequest, Hub, Repository, VersionKey};
use mh_dnn::{fine_tune_setup, synth_dataset, zoo, Hyperparams, SynthConfig, Trainer, Weights};
use std::path::PathBuf;

/// The repository verifier at its default level.
fn fsck(repo: &Repository) -> FsckReport {
    mh_dlv::fsck::fsck(repo.root(), &FsckConfig::default()).unwrap()
}

fn codes(report: &FsckReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.code).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-dlv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn small_data() -> mh_dnn::Dataset {
    synth_dataset(&SynthConfig {
        num_classes: 3,
        train_per_class: 8,
        test_per_class: 4,
        noise: 0.05,
        seed: 11,
        height: 16,
        width: 16,
    })
}

/// Train a small model and build its commit request.
fn trained_commit(name: &str, seed: u64, iters: usize) -> (CommitRequest, f32) {
    let net = zoo::lenet_s(3);
    let data = small_data();
    let trainer = Trainer {
        hp: Hyperparams {
            base_lr: 0.08,
            ..Default::default()
        },
        snapshot_every: iters / 3,
    };
    let init = Weights::init(&net, seed).unwrap();
    let result = trainer.train(&net, init, &data, iters).unwrap();
    let mut req = CommitRequest::new(name, net);
    req.snapshots = result
        .snapshots
        .iter()
        .map(|(i, w)| (*i, w.clone()))
        .collect();
    req.log = result.log.clone();
    req.accuracy = Some(result.final_accuracy);
    req.hyperparams.insert("base_lr".into(), "0.08".into());
    req.hyperparams.insert("momentum".into(), "0.9".into());
    req.files
        .push(("train.cfg".into(), b"base_lr=0.08\nmomentum=0.9\n".to_vec()));
    req.comment = format!("trained {name} for {iters} iters");
    (req, result.final_accuracy)
}

#[test]
fn init_commit_list_desc() {
    let dir = temp_dir("basic");
    let repo = Repository::init(&dir).unwrap();
    assert!(Repository::init(&dir).is_err(), "double init must fail");

    let (req, acc) = trained_commit("lenet", 1, 9);
    let key = repo.commit(&req).unwrap();
    assert_eq!(key.to_string(), "lenet:1");

    let list = repo.list();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].key, key);
    assert_eq!(list[0].num_snapshots, 3);
    assert!(!list[0].archived);
    assert!((list[0].accuracy.unwrap() - f64::from(acc)).abs() < 1e-6);

    let desc = repo.desc("lenet").unwrap();
    assert_eq!(desc.hyperparams["base_lr"], "0.08");
    assert!(!desc.loss_curve.is_empty());
    assert_eq!(desc.files.len(), 1);
    assert!(desc.layers.iter().any(|(n, _)| n == "conv1"));

    // Reopen and verify persistence.
    drop(repo);
    let repo = Repository::open(&dir).unwrap();
    assert_eq!(repo.list().len(), 1);
    let file = repo.read_file("lenet", "train.cfg").unwrap();
    assert!(file.starts_with(b"base_lr"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn versions_under_same_name_get_increasing_ids() {
    let dir = temp_dir("vids");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("m", 1, 3);
    assert_eq!(repo.commit(&req).unwrap().id, 1);
    assert_eq!(repo.commit(&req).unwrap().id, 2);
    // name:id addressing picks the exact one; bare name picks the newest.
    assert_eq!(repo.desc("m:1").unwrap().summary.key.id, 1);
    assert_eq!(repo.desc("m").unwrap().summary.key.id, 2);
    assert!(repo.desc("m:9").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn network_and_weights_roundtrip() {
    let dir = temp_dir("roundtrip");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("m", 2, 6);
    repo.commit(&req).unwrap();

    let net = repo.get_network("m").unwrap();
    assert_eq!(net.num_nodes(), req.network.num_nodes());
    assert_eq!(
        net.param_count().unwrap(),
        req.network.param_count().unwrap()
    );

    let latest = repo.get_weights("m", None).unwrap();
    assert_eq!(&latest, &req.snapshots.last().unwrap().1);
    let first = repo.get_weights("m", Some(0)).unwrap();
    assert_eq!(&first, &req.snapshots[0].1);
    assert!(repo.get_weights("m", Some(99)).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_matches_recorded_accuracy() {
    let dir = temp_dir("eval");
    let repo = Repository::init(&dir).unwrap();
    let (req, acc) = trained_commit("m", 3, 9);
    repo.commit(&req).unwrap();
    let data = small_data();
    let measured = repo.eval("m", &data.test).unwrap();
    assert!((measured - acc).abs() < 1e-6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lineage_and_diff_for_finetuned_model() {
    let dir = temp_dir("lineage");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("base", 4, 9);
    let base_key = repo.commit(&req).unwrap();

    // Fine-tune onto 5 classes.
    let base_w = repo.get_weights("base", None).unwrap();
    let base_net = repo.get_network("base").unwrap();
    let (ft_net, ft_w) = fine_tune_setup(&base_net, &base_w, 5, 99).unwrap();
    let mut ft_req = CommitRequest::new("base-ft5", ft_net);
    ft_req.snapshots = vec![(0, ft_w)];
    ft_req.parent = Some(base_key.to_string());
    ft_req.hyperparams.insert("base_lr".into(), "0.01".into());
    ft_req.comment = "fine-tuned to 5 classes".into();
    let ft_key = repo.commit(&ft_req).unwrap();

    let lineage = repo.lineage();
    assert_eq!(lineage, vec![("base:1".to_string(), ft_key.to_string())]);

    let report = diff(&repo, "base", "base-ft5").unwrap();
    assert!(!report.is_architecture_identical());
    // The fc head was replaced: fc (old name) only-left, fc_ft only-right.
    assert!(report.only_left.iter().any(|(n, _)| n == "ip2"));
    assert!(report.only_right.iter().any(|(n, _)| n == "ip2_ft"));
    assert!(report.hyper_diff.iter().any(|(k, _, _)| k == "base_lr"));
    assert!(report.render().contains("diff base:1 .. base-ft5:1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn copy_scaffolds_with_lineage() {
    let dir = temp_dir("copy");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("orig", 5, 6);
    repo.commit(&req).unwrap();
    let key = repo.copy("orig", "derived", "forked for tuning").unwrap();
    assert_eq!(key.name, "derived");
    assert_eq!(repo.lineage(), vec![("orig:1".into(), "derived:1".into())]);
    // Copied version carries the source's latest weights as snapshot 0.
    let w = repo.get_weights("derived", Some(0)).unwrap();
    assert_eq!(w, repo.get_weights("orig", None).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn archive_and_retrieve_from_pas() {
    let dir = temp_dir("archive");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("m", 6, 9);
    repo.commit(&req).unwrap();

    // Remember staged weights to verify exact recreation.
    let before: Vec<Weights> = (0..3)
        .map(|i| repo.get_weights("m", Some(i)).unwrap())
        .collect();

    let report = repo.archive(&ArchiveConfig::default()).unwrap();
    assert!(report.satisfied);
    assert_eq!(report.num_snapshots, 3);
    assert!(report.bytes_on_disk > 0);

    // Staged blobs are gone; list shows archived.
    assert!(repo.list()[0].archived);
    // Second archive call has nothing to do.
    assert!(repo.archive(&ArchiveConfig::default()).is_err());

    // Retrieval is transparent and bit-exact.
    for (i, w) in before.iter().enumerate() {
        let back = repo.get_weights("m", Some(i)).unwrap();
        assert_eq!(&back, w, "snapshot {i} must recreate exactly");
    }
    // Eval still works against the archived model.
    let data = small_data();
    let acc = repo.eval("m", &data.test).unwrap();
    assert!((0.0..=1.0).contains(&acc));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_pas_vertex_row_is_corrupt() {
    use mh_dlv::DlvError;
    use mh_store::{Database, Value};
    let dir = temp_dir("bad-vertex-row");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("m", 6, 9);
    repo.commit(&req).unwrap();
    repo.archive(&ArchiveConfig::default()).unwrap();
    drop(repo);
    // Point one layer of one snapshot at vertex 0, the null vertex.
    let catalog = dir.join("catalog.mhs");
    let mut db = Database::load(&catalog).unwrap();
    let table = db.table_mut("pas_vertex").unwrap();
    let row = table.scan().next().unwrap();
    table.update(row.id, "vertex", Value::Int(0)).unwrap();
    db.save(&catalog).unwrap();
    let snap = row.values[1].as_int().map(|i| i as usize);
    let repo = Repository::open(&dir).unwrap();
    assert!(matches!(
        repo.get_weights("m", snap),
        Err(DlvError::Corrupt(_))
    ));
    assert!(matches!(
        repo.pas_binding("m", snap),
        Err(DlvError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn archive_exploits_deltas_across_checkpoints() {
    // At α = 1 every snapshot must recreate at its shortest-path cost, so
    // each matrix is materialized; a loose α = 100 lets the checkpoint
    // chain share structure through delta edges, which must show on disk.
    let (req, _) = trained_commit("m", 7, 9);
    let archive_at = |tag: &str, alpha: f64| {
        let dir = temp_dir(tag);
        let repo = Repository::init(&dir).unwrap();
        repo.commit(&req).unwrap();
        let report = repo
            .archive(&ArchiveConfig {
                alpha,
                ..Default::default()
            })
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        report
    };
    let tight = archive_at("delta-tight", 1.0);
    let loose = archive_at("delta-loose", 100.0);
    assert_eq!(loose.num_matrices, 3 * req.snapshots[0].1.len());
    assert!(
        loose.bytes_on_disk < tight.bytes_on_disk,
        "α = 100 archive {} B !< α = 1 archive {} B",
        loose.bytes_on_disk,
        tight.bytes_on_disk
    );
}

#[test]
fn second_archive_round_gets_its_own_store() {
    let dir = temp_dir("two-rounds");
    let repo = Repository::init(&dir).unwrap();
    let staged_weights = |name: &str| -> Vec<Weights> {
        (0..3)
            .map(|i| repo.get_weights(name, Some(i)).unwrap())
            .collect()
    };
    repo.commit(&trained_commit("a", 3, 9).0).unwrap();
    let before_a = staged_weights("a");
    let first = repo.archive(&ArchiveConfig::default()).unwrap();
    repo.commit(&trained_commit("b", 4, 9).0).unwrap();
    let before_b = staged_weights("b");
    let second = repo.archive(&ArchiveConfig::default()).unwrap();
    assert_eq!(first.store.0, "store0000");
    assert_eq!(second.store.0, "store0001");

    // The first round's rows keep their store; only the newly staged
    // snapshots move to the second one.
    for (name, before, location) in [
        ("a", &before_a, "pas:store0000"),
        ("b", &before_b, "pas:store0001"),
    ] {
        let snaps = repo.snapshots(name).unwrap();
        assert_eq!(snaps.len(), 3);
        for info in &snaps {
            assert_eq!(info.location, location, "{name} snapshot {}", info.index);
        }
        for (i, w) in before.iter().enumerate() {
            assert_eq!(
                &repo.get_weights(name, Some(i)).unwrap(),
                w,
                "{name} snapshot {i} must recreate exactly"
            );
        }
    }
    let report = fsck(&repo);
    assert!(report.is_clean(), "{:?}", report.findings);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hub_publish_search_pull() {
    let dir = temp_dir("hub-repo");
    let hub_dir = temp_dir("hub-root");
    let pull_dir = temp_dir("hub-pull").join("clone");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("lenet-pub", 8, 6);
    repo.commit(&req).unwrap();

    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "vision-models").unwrap();
    assert_eq!(hub.repositories().unwrap(), vec!["vision-models"]);

    let hits = hub.search("%lenet%").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].repo, "vision-models");
    assert!(hub.search("%nonexistent-model-name%").unwrap().is_empty());

    let cloned = hub.pull("vision-models", &pull_dir).unwrap();
    assert_eq!(cloned.list().len(), 1);
    let w1 = repo.get_weights("lenet-pub", None).unwrap();
    let w2 = cloned.get_weights("lenet-pub", None).unwrap();
    assert_eq!(w1, w2);
    assert!(hub.pull("missing", &temp_dir("x").join("y")).is_err());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&hub_dir).ok();
    std::fs::remove_dir_all(pull_dir.parent().unwrap()).ok();
}

#[test]
fn version_key_parsing() {
    assert_eq!(VersionKey::parse("model"), ("model".into(), None));
    assert_eq!(VersionKey::parse("model:3"), ("model".into(), Some(3)));
    assert_eq!(VersionKey::parse("a:b:2"), ("a:b".into(), Some(2)));
    assert_eq!(VersionKey::parse("weird:x"), ("weird:x".into(), None));
}

#[test]
fn commit_validation() {
    let dir = temp_dir("validate");
    let repo = Repository::init(&dir).unwrap();
    let net = zoo::lenet_s(3);
    // No snapshots.
    let req = CommitRequest::new("m", net.clone());
    assert!(matches!(
        repo.commit(&req),
        Err(mh_dlv::DlvError::EmptyCommit)
    ));
    // Wrong-shape weights.
    let mut req = CommitRequest::new("m", net);
    let other = zoo::alexnet_s(3);
    req.snapshots = vec![(0, Weights::init(&other, 1).unwrap())];
    assert!(repo.commit(&req).is_err());
    // Unknown parent.
    let net = zoo::lenet_s(3);
    let mut req = CommitRequest::new("m", net.clone());
    req.snapshots = vec![(0, Weights::init(&net, 1).unwrap())];
    req.parent = Some("ghost".into());
    assert!(repo.commit(&req).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delete_version_rules() {
    let dir = temp_dir("delete");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("base", 9, 6);
    let base = repo.commit(&req).unwrap();
    let forked = repo.copy("base", "fork", "fork").unwrap();

    // Parent with descendants cannot be deleted.
    assert!(matches!(
        repo.delete_version("base"),
        Err(mh_dlv::DlvError::HasDescendants(_))
    ));
    // Leaf deletion works and removes staged blobs + catalog rows.
    repo.delete_version(&forked.to_string()).unwrap();
    assert_eq!(repo.list().len(), 1);
    assert!(repo.desc("fork").is_err());
    assert!(repo.lineage().is_empty());
    // Now the parent is a leaf and can go too.
    repo.delete_version(&base.to_string()).unwrap();
    assert!(repo.list().is_empty());
    let blobs = std::fs::read_dir(dir.join("weights")).unwrap().count();
    assert_eq!(blobs, 0, "staged blobs removed");
    // Archived versions are protected.
    let (req, _) = trained_commit("keeper", 10, 6);
    repo.commit(&req).unwrap();
    repo.archive(&ArchiveConfig::default()).unwrap();
    assert!(matches!(
        repo.delete_version("keeper"),
        Err(mh_dlv::DlvError::Archived(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lossy_checkpoint_archival_shrinks_disk_and_keeps_latest_exact() {
    let dir = temp_dir("lossy");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("m", 12, 9);
    repo.commit(&req).unwrap();
    let latest = repo.get_weights("m", None).unwrap();
    let early = repo.get_weights("m", Some(0)).unwrap();
    let report = repo
        .archive(&ArchiveConfig {
            checkpoint_scheme: Some(mh_tensor::Scheme::Fixed { bits: 8 }),
            ..Default::default()
        })
        .unwrap();
    // Latest snapshot survives bit-exactly.
    assert_eq!(repo.get_weights("m", None).unwrap(), latest);
    // Early checkpoints are lossy but close.
    let early_back = repo.get_weights("m", Some(0)).unwrap();
    assert_ne!(early_back, early);
    let d = early_back.distance(&early);
    assert!(d > 0.0 && d < 0.05, "lossy checkpoint drift {d}");
    std::fs::remove_dir_all(&dir).ok();

    // Compare footprints against a lossless archive of the same commit.
    let dir2 = temp_dir("lossless-ref");
    let repo2 = Repository::init(&dir2).unwrap();
    repo2.commit(&req).unwrap();
    let lossless = repo2.archive(&ArchiveConfig::default()).unwrap();
    assert!(
        report.bytes_on_disk < lossless.bytes_on_disk,
        "lossy {} !< lossless {}",
        report.bytes_on_disk,
        lossless.bytes_on_disk
    );
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn compare_versions_on_dataset() {
    let dir = temp_dir("compare");
    let repo = Repository::init(&dir).unwrap();
    let (req_a, _) = trained_commit("well-trained", 13, 12);
    let (req_b, _) = trained_commit("barely-trained", 14, 1);
    repo.commit(&req_a).unwrap();
    repo.commit(&req_b).unwrap();
    let data = small_data();
    let cmp = repo
        .compare("well-trained", "barely-trained", &data.test)
        .unwrap();
    assert_eq!(cmp.total, data.test.len());
    assert!(cmp.accuracy_a >= cmp.accuracy_b);
    // Self-comparison is exact agreement.
    let self_cmp = repo
        .compare("well-trained", "well-trained", &data.test)
        .unwrap();
    assert_eq!(self_cmp.agreement, 1.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_start_resumes_from_checkpoint() {
    // The paper's motivation for keeping snapshots: training can resume
    // ("warm-start") from any checkpoint instead of restarting.
    let dir = temp_dir("warm");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("m", 15, 9);
    repo.commit(&req).unwrap();
    let net = repo.get_network("m").unwrap();
    let warm = repo.get_weights("m", Some(1)).unwrap();
    let data = small_data();
    let trainer = Trainer::new(Hyperparams {
        base_lr: 0.05,
        ..Default::default()
    });
    let resumed = trainer.train(&net, warm.clone(), &data, 5).unwrap();
    // Resumed run starts from the checkpoint (first-iteration loss well
    // below a cold start's) and can be committed as a new version.
    let cold = trainer
        .train(&net, Weights::init(&net, 999).unwrap(), &data, 5)
        .unwrap();
    assert!(resumed.log[0].loss < cold.log[0].loss);
    let mut req2 = CommitRequest::new("m-resumed", net);
    req2.snapshots = vec![(5, resumed.weights)];
    req2.parent = Some("m".into());
    repo.commit(&req2).unwrap();
    assert_eq!(repo.lineage().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_detects_injected_damage() {
    let dir = temp_dir("fsck");
    let repo = Repository::init(&dir).unwrap();
    let (req, _) = trained_commit("m", 16, 6);
    repo.commit(&req).unwrap();
    assert!(fsck(&repo).is_clean(), "fresh repository must be clean");

    // Metrics API returns the committed loss curve.
    let loss = repo.metrics("m", "loss").unwrap();
    assert_eq!(loss.len(), req.log.len());
    assert!(loss.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(repo.metrics("ghost", "loss").is_err());

    // Damage 1: corrupt a staged blob.
    let blob = std::fs::read_dir(dir.join("weights"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let orig = std::fs::read(&blob).unwrap();
    let mut bad = orig.clone();
    let n = bad.len() - 5;
    bad[n] ^= 0x80;
    std::fs::write(&blob, &bad).unwrap();
    let report = fsck(&repo);
    assert!(
        codes(&report).contains(&mh_dlv::fsck::B_CORRUPT_BLOB),
        "{:?}",
        report.findings
    );
    std::fs::write(&blob, &orig).unwrap();
    assert!(fsck(&repo).is_clean());

    // Damage 2: delete a content-addressed file object.
    let obj = std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let saved = std::fs::read(&obj).unwrap();
    std::fs::remove_file(&obj).unwrap();
    let report = fsck(&repo);
    assert!(
        codes(&report).contains(&mh_dlv::fsck::B_MISSING_OBJECT),
        "{:?}",
        report.findings
    );
    std::fs::write(&obj, &saved).unwrap();

    // Archived repositories fsck clean too (every stored plane decoded).
    repo.archive(&ArchiveConfig::default()).unwrap();
    assert!(fsck(&repo).is_clean());
    std::fs::remove_dir_all(&dir).ok();
}

/// Commit `name` with weights of its own seed and return those weights.
fn commit_named(repo: &Repository, name: &str, seed: u64) -> Weights {
    let net = zoo::lenet_s(3);
    let w = Weights::init(&net, seed).unwrap();
    let mut req = CommitRequest::new(name, net);
    req.snapshots = vec![(0, w.clone())];
    repo.commit(&req).unwrap();
    w
}

#[test]
fn names_that_sanitize_alike_keep_their_own_blobs() {
    let dir = temp_dir("blob-names");
    let hub_dir = temp_dir("blob-names-hub");
    let pull_dir = temp_dir("blob-names-pull").join("clone");
    let repo = Repository::init(&dir).unwrap();
    let names = ["m_x", "m.x", "a/b", "a_b"];
    let weights: Vec<Weights> = (0..)
        .zip(names)
        .map(|(seed, name)| commit_named(&repo, name, seed))
        .collect();
    for (name, w) in names.iter().zip(&weights) {
        assert_eq!(&repo.get_weights(name, None).unwrap(), w, "{name}");
    }
    let mut blobs: Vec<String> = std::fs::read_dir(dir.join("weights"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    blobs.sort();
    assert_eq!(
        blobs,
        [
            "a_b_1_s0-1.mhw",
            "a_b_1_s0.mhw",
            "m_x_1_s0-1.mhw",
            "m_x_1_s0.mhw"
        ]
    );
    assert!(fsck(&repo).is_clean(), "{:?}", fsck(&repo).findings);

    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "collide").unwrap();
    let cloned = hub.pull("collide", &pull_dir).unwrap();
    for (name, w) in names.iter().zip(&weights) {
        assert_eq!(&cloned.get_weights(name, None).unwrap(), w, "{name}");
    }
    assert!(fsck(&cloned).is_clean());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&hub_dir).ok();
    std::fs::remove_dir_all(pull_dir.parent().unwrap()).ok();
}

#[test]
fn a_non_ascii_name_commits_publishes_and_pulls() {
    let dir = temp_dir("non-ascii");
    let hub_dir = temp_dir("non-ascii-hub");
    let pull_dir = temp_dir("non-ascii-pull").join("clone");
    let repo = Repository::init(&dir).unwrap();
    let w = commit_named(&repo, "модель", 3);
    assert_eq!(repo.get_weights("модель", None).unwrap(), w);
    let loc = &repo.snapshots("модель").unwrap()[0].location;
    assert!(loc.is_ascii(), "{loc}");
    assert!(fsck(&repo).is_clean(), "{:?}", fsck(&repo).findings);

    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "cyrillic").unwrap();
    let cloned = hub.pull("cyrillic", &pull_dir).unwrap();
    assert_eq!(cloned.get_weights("модель", None).unwrap(), w);
    assert!(fsck(&cloned).is_clean());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&hub_dir).ok();
    std::fs::remove_dir_all(pull_dir.parent().unwrap()).ok();
}
