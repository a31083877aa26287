//! Hashed bytes per repository byte over a loopback hubd, from the
//! process-wide `sha256_bytes_total` counter. The file holds a single
//! test so that no other test in the process feeds the counter while a
//! phase is measured; client and server share the process, so each
//! phase counts both sides' hashing.
//!
//! The bounds are the ratios this fixture measures today. A change that
//! hashes the same bytes more often fails here; one that hashes less
//! lowers the bounds.

#![allow(clippy::unwrap_used)] // test code: panics are failures
use mh_dlv::{committed_manifest, ArchiveConfig, Repository};
use mh_dnn::{synth_dataset, zoo, Hyperparams, SynthConfig, Trainer, Weights};
use mh_hub::{HubServer, RemoteHub};
use std::time::Duration;

/// Two trained LeNet versions with an associated file, archived.
fn fixture_repo(dir: &std::path::Path) -> Repository {
    let repo = Repository::init(dir).unwrap();
    let net = zoo::lenet_s(3);
    let data = synth_dataset(&SynthConfig {
        num_classes: 3,
        train_per_class: 6,
        test_per_class: 3,
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
    for (name, seed) in [("lenet-a", 31), ("lenet-b", 32)] {
        let init = Weights::init(&net, seed).unwrap();
        let result = trainer.train(&net, init, &data, 6).unwrap();
        let mut req = mh_dlv::CommitRequest::new(name, net.clone());
        req.snapshots = result.snapshots.clone();
        req.log = result.log.clone();
        req.accuracy = Some(result.final_accuracy);
        req.files.push(("notes.txt".into(), b"hashed".to_vec()));
        req.comment = format!("hashed-bytes model {name}");
        repo.commit(&req).unwrap();
    }
    repo.archive(&ArchiveConfig::default()).unwrap();
    repo
}

fn hashed_bytes() -> u64 {
    mh_obs::counter!("sha256_bytes_total").get()
}

#[test]
fn publish_and_pull_hash_no_more_than_today() {
    let dir = std::env::temp_dir().join(format!("mh-hashed-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = fixture_repo(&dir.join("repo"));
    let manifest = committed_manifest(&repo).unwrap();
    let repo_bytes: u64 = manifest.iter().map(|e| e.size).sum();
    assert!(repo_bytes > 10_000, "fixture too small: {repo_bytes} bytes");

    let server = HubServer::start(&dir.join("hub"), "127.0.0.1:0", Some(2)).unwrap();
    let client = RemoteHub::open(&server.url())
        .unwrap()
        .with_timeout(Duration::from_secs(10))
        .with_cache(&dir.join("cache"));

    // (phase, bound): hashed bytes per repository byte measured on this
    // fixture when the counter was added.
    // - A first publish hashes each byte in `committed_manifest`, in the
    //   client's and hubd's transfer checksums, and in hubd's per-object
    //   check.
    // - A cold pull hashes it in hubd's verify-on-serve, in both transfer
    //   checksums, and in the client's per-object check.
    // - An unchanged republish uploads nothing: `committed_manifest`, then
    //   hubd's `copy_verified` of the held objects.
    // - A warm pull finds every object cached.
    // Each pull's fsck also hashes the two 6-byte associated files.
    let phases: [(&str, f64); 4] = [
        ("first publish", 4.0),
        ("cold pull", 4.0),
        ("unchanged republish", 2.0),
        ("warm pull", 0.0),
    ];
    let mut ratios = Vec::new();
    for (i, (phase, _)) in phases.iter().enumerate() {
        let before = hashed_bytes();
        let pulled = match i {
            0 | 2 => {
                client.publish_repo(&repo, "counted").unwrap();
                None
            }
            _ => Some(
                client
                    .pull_repo("counted", &dir.join(format!("pull{i}")))
                    .unwrap(),
            ),
        };
        let hashed = hashed_bytes() - before;
        let ratio = hashed as f64 / repo_bytes as f64;
        println!("{phase}: {ratio:.4} hashed bytes per repository byte ({hashed} / {repo_bytes})");
        ratios.push(ratio);
        // Outside the counted window: the manifest check hashes too.
        if let Some(pulled) = pulled {
            assert_eq!(committed_manifest(&pulled).unwrap(), manifest);
        }
    }
    server.stop();
    for ((phase, bound), ratio) in phases.iter().zip(ratios) {
        assert!(
            ratio <= bound + 0.001,
            "{phase} hashed {ratio:.3} bytes per repository byte, above {bound}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
