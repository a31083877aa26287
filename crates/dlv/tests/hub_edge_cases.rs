//! Hub hardening tests: atomic publish, path-traversal rejection,
//! transient/symlink exclusion, concurrent publishers, nested
//! namespaces, and pulls into existing destinations.

#![allow(clippy::unwrap_used)] // test code: panics are failures
use mh_dlv::hash::sha256_hex;
use mh_dlv::{
    committed_manifest, encode_manifest, replace_published, validate_rel_path, validate_repo_name,
    ArchiveConfig, DlvError, Hub, HubBackend, ManifestEntry, Repository, Source, MANIFEST_FILE,
};
use mh_dnn::{synth_dataset, zoo, Hyperparams, SynthConfig, Trainer, Weights};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-hubedge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small committed repository to publish.
fn sample_repo(dir: &std::path::Path, name: &str, seed: u64) -> Repository {
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
    let init = Weights::init(&net, seed).unwrap();
    let result = trainer.train(&net, init, &data, 6).unwrap();
    let mut req = mh_dlv::CommitRequest::new(name, net);
    req.snapshots = result.snapshots.clone();
    req.log = result.log.clone();
    req.accuracy = Some(result.final_accuracy);
    req.files.push(("notes.txt".into(), b"hello".to_vec()));
    req.comment = format!("edge-case model {name}");
    repo.commit(&req).unwrap();
    repo
}

/// The stored-manifest oracle: the `.manifest` a publish leaves in the
/// publication is `encode_manifest` of `committed_manifest` computed
/// over the published directory.
fn assert_stored_manifest(hub_dir: &Path, name: &str) {
    let dir = hub_dir.join(name);
    let stored = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let oracle = committed_manifest(&Repository::open(&dir).unwrap()).unwrap();
    assert_eq!(
        stored,
        encode_manifest(&oracle),
        "stored manifest of '{name}'"
    );
}

#[test]
fn traversal_names_are_rejected() {
    for bad in [
        "../escape",
        "a/../b",
        "/absolute",
        "a//b",
        "",
        ".hidden",
        "a/.hidden",
        "nul\0byte",
        "sp ace",
    ] {
        assert!(validate_repo_name(bad).is_err(), "accepted '{bad}'");
    }
    for good in ["lenet", "team/vision", "a-b_c.d/e9"] {
        assert!(validate_repo_name(good).is_ok(), "rejected '{good}'");
    }
    assert!(validate_rel_path("weights/../../x").is_err());
    assert!(validate_rel_path("weights/m_1_s0.mhw").is_ok());

    let dir = temp_dir("trav-repo");
    let hub_dir = temp_dir("trav-hub");
    let repo = sample_repo(&dir, "m", 1);
    let hub = Hub::open(&hub_dir).unwrap();
    for bad in ["../escape", "/absolute", "a/../b"] {
        assert!(
            matches!(hub.publish(&repo, bad), Err(DlvError::InvalidName(_))),
            "publish accepted '{bad}'"
        );
        assert!(
            matches!(
                hub.pull(bad, &temp_dir("trav-pull").join("d")),
                Err(DlvError::InvalidName(_))
            ),
            "pull accepted '{bad}'"
        );
    }
    // Nothing escaped the hub root.
    assert!(!hub_dir.parent().unwrap().join("escape").exists());
    assert!(!PathBuf::from("/absolute").exists());
}

#[test]
fn publish_excludes_transients_and_symlinks() {
    let dir = temp_dir("excl-repo");
    let hub_dir = temp_dir("excl-hub");
    let repo = sample_repo(&dir, "m", 2);

    // Litter the working repo with state that must not be published.
    std::fs::write(dir.join("catalog.mhs.tmp"), b"partial").unwrap();
    std::fs::write(dir.join("weights").join("w.lock"), b"").unwrap();
    std::fs::write(dir.join("weights").join("x.part"), b"").unwrap();
    std::fs::write(dir.join("orphan.bin"), b"not committed").unwrap();
    std::fs::create_dir_all(dir.join(".cache")).unwrap();
    std::fs::write(dir.join(".cache").join("junk"), b"junk").unwrap();
    #[cfg(unix)]
    std::os::unix::fs::symlink("/etc/hostname", dir.join("weights").join("link")).unwrap();

    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "clean").unwrap();
    assert_stored_manifest(&hub_dir, "clean");
    let pub_dir = hub_dir.join("clean");
    assert!(pub_dir.join("catalog.mhs").exists());
    for absent in [
        "catalog.mhs.tmp",
        "orphan.bin",
        ".cache",
        "weights/w.lock",
        "weights/x.part",
        "weights/link",
    ] {
        assert!(!pub_dir.join(absent).exists(), "published {absent}");
    }

    // The published copy is exactly the committed content.
    let src_manifest = committed_manifest(&repo).unwrap();
    let pub_manifest = committed_manifest(&Repository::open(&pub_dir).unwrap()).unwrap();
    assert_eq!(src_manifest, pub_manifest);

    // A pull of it skips transients dropped into the hub copy too.
    std::fs::write(pub_dir.join("stray.lock"), b"").unwrap();
    let dest = temp_dir("excl-pull").join("clone");
    let pulled = hub.pull("clean", &dest).unwrap();
    assert!(!dest.join("stray.lock").exists());
    assert_eq!(committed_manifest(&pulled).unwrap(), src_manifest);
}

#[test]
fn failed_publish_leaves_previous_publication_intact() {
    let dir = temp_dir("atomic-repo");
    let hub_dir = temp_dir("atomic-hub");
    let repo = sample_repo(&dir, "m", 3);
    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "stable").unwrap();
    assert_stored_manifest(&hub_dir, "stable");
    let before = committed_manifest(&Repository::open(&hub_dir.join("stable")).unwrap()).unwrap();

    // A publish whose build fails halfway must not disturb the previous
    // publication and must clean up its staging directory.
    let err = replace_published(&hub_dir, "stable", |stage| {
        std::fs::write(stage.join("catalog.mhs"), b"half-written garbage").unwrap();
        Err(DlvError::Hub("simulated mid-publish crash".into()))
    })
    .unwrap_err();
    assert!(matches!(err, DlvError::Hub(_)));

    let after = committed_manifest(&Repository::open(&hub_dir.join("stable")).unwrap()).unwrap();
    assert_eq!(before, after, "previous publication was disturbed");
    let leftovers: Vec<String> = std::fs::read_dir(&hub_dir)
        .unwrap()
        .filter_map(|e| {
            let n = e.unwrap().file_name().to_string_lossy().to_string();
            n.starts_with('.').then_some(n)
        })
        .collect();
    assert!(leftovers.is_empty(), "staging leftovers: {leftovers:?}");

    // And the pull of the intact publication still verifies.
    hub.pull("stable", &temp_dir("atomic-pull").join("c"))
        .unwrap();
}

#[test]
fn concurrent_publish_same_name_is_safe() {
    let dir_a = temp_dir("conc-a");
    let dir_b = temp_dir("conc-b");
    let hub_dir = temp_dir("conc-hub");
    let repo_a = Arc::new(sample_repo(&dir_a, "ma", 4));
    let repo_b = Arc::new(sample_repo(&dir_b, "mb", 5));
    let hub_dir = Arc::new(hub_dir);

    let mut handles = Vec::new();
    for repo in [Arc::clone(&repo_a), Arc::clone(&repo_b)] {
        let hub_dir = Arc::clone(&hub_dir);
        handles.push(mh_par::sync::thread::spawn(move || {
            let hub = Hub::open(&hub_dir).unwrap();
            for _ in 0..4 {
                hub.publish(&repo, "contested").unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Whoever won, the published state is one complete, verifiable repo.
    let hub = Hub::open(&hub_dir).unwrap();
    assert_stored_manifest(&hub_dir, "contested");
    assert_eq!(hub.repositories().unwrap(), vec!["contested"]);
    let pulled = hub
        .pull("contested", &temp_dir("conc-pull").join("c"))
        .unwrap();
    let got = committed_manifest(&pulled).unwrap();
    let a = committed_manifest(&repo_a).unwrap();
    let b = committed_manifest(&repo_b).unwrap();
    assert!(got == a || got == b, "published state is neither input");
    // No hidden staging/old dirs left behind.
    for e in std::fs::read_dir(hub_dir.as_path()).unwrap() {
        let n = e.unwrap().file_name().to_string_lossy().to_string();
        assert!(!n.starts_with('.'), "leftover hidden entry {n}");
    }
}

#[test]
fn pull_into_existing_destination_fails_cleanly() {
    let dir = temp_dir("dest-repo");
    let hub_dir = temp_dir("dest-hub");
    let repo = sample_repo(&dir, "m", 6);
    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "m").unwrap();
    assert_stored_manifest(&hub_dir, "m");

    let dest_parent = temp_dir("dest-pull");
    let dest = dest_parent.join("clone");
    hub.pull("m", &dest).unwrap();
    // Second pull into the same destination: typed error, dest untouched.
    let before = committed_manifest(&Repository::open(&dest).unwrap()).unwrap();
    assert!(matches!(
        hub.pull("m", &dest),
        Err(DlvError::AlreadyExists(_))
    ));
    let after = committed_manifest(&Repository::open(&dest).unwrap()).unwrap();
    assert_eq!(before, after);
    // A plain existing file is refused the same way.
    let file_dest = dest_parent.join("a-file");
    std::fs::write(&file_dest, b"x").unwrap();
    assert!(matches!(
        hub.pull("m", &file_dest),
        Err(DlvError::AlreadyExists(_))
    ));
    // No staging leftovers next to dest.
    for e in std::fs::read_dir(&dest_parent).unwrap() {
        let n = e.unwrap().file_name().to_string_lossy().to_string();
        assert!(!n.starts_with(".pull-"), "leftover staging {n}");
    }
}

#[test]
fn nested_namespaces_publish_search_pull() {
    let dir_a = temp_dir("ns-a");
    let dir_b = temp_dir("ns-b");
    let hub_dir = temp_dir("ns-hub");
    let repo_a = sample_repo(&dir_a, "resnet-mini", 7);
    let repo_b = sample_repo(&dir_b, "lstm-mini", 8);
    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo_a, "team/vision/resnet").unwrap();
    hub.publish(&repo_b, "team/nlp/lstm").unwrap();
    assert_stored_manifest(&hub_dir, "team/vision/resnet");
    assert_stored_manifest(&hub_dir, "team/nlp/lstm");

    assert_eq!(
        hub.repositories().unwrap(),
        vec!["team/nlp/lstm", "team/vision/resnet"]
    );
    let hits = hub.search("%vision%").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].repo, "team/vision/resnet");
    let hits = hub.search("%mini%").unwrap();
    assert_eq!(hits.len(), 2);

    // Publishing inside an existing publication is refused.
    assert!(matches!(
        hub.publish(&repo_b, "team/vision/resnet/sub"),
        Err(DlvError::Hub(_))
    ));

    let pulled = hub
        .pull("team/vision/resnet", &temp_dir("ns-pull").join("c"))
        .unwrap();
    assert_eq!(
        committed_manifest(&pulled).unwrap(),
        committed_manifest(&repo_a).unwrap()
    );
}

#[test]
fn hub_backend_trait_object_works_for_local_hub() {
    let dir = temp_dir("dyn-repo");
    let hub_dir = temp_dir("dyn-hub");
    let repo = sample_repo(&dir, "m", 9);
    let backend: Box<dyn HubBackend> = Box::new(Hub::open(&hub_dir).unwrap());
    backend.publish(&repo, "via-trait").unwrap();
    assert_stored_manifest(&hub_dir, "via-trait");
    assert_eq!(backend.repositories().unwrap(), vec!["via-trait"]);
    assert_eq!(backend.search("%via%").unwrap().len(), 1);
    let pulled = backend
        .pull("via-trait", &temp_dir("dyn-pull").join("c"))
        .unwrap();
    assert_eq!(pulled.list().len(), 1);
}

/// Every committed file of `repo`, keyed by hash, as a hubd commit would
/// receive it.
/// Overwrite one byte plane of the publication at `published` with bytes
/// that do not decode, then store the manifest of what it now holds: a
/// publication every hash of which checks out, but that is not a
/// readable repository.
fn corrupt_a_plane_keeping_hashes(published: &Path) {
    let store = published.join("pas").join("store0000");
    let plane = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().ends_with("_p0.mhz"))
        .unwrap();
    let len = std::fs::read(&plane).unwrap().len();
    let garbage: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
    std::fs::write(&plane, garbage).unwrap();
    let manifest = committed_manifest(&Repository::open(published).unwrap()).unwrap();
    std::fs::write(published.join(MANIFEST_FILE), encode_manifest(&manifest)).unwrap();
}

fn objects_of(repo: &Repository) -> BTreeMap<String, Vec<u8>> {
    committed_manifest(repo)
        .unwrap()
        .into_iter()
        .map(|e| (e.hash, std::fs::read(repo.root().join(&e.path)).unwrap()))
        .collect()
}

#[test]
fn commits_whose_manifest_is_not_the_content_are_refused() {
    let dir = temp_dir("refuse-repo");
    let hub_dir = temp_dir("refuse-hub");
    let repo = sample_repo(&dir, "m", 6);
    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "guarded").unwrap();
    assert_stored_manifest(&hub_dir, "guarded");
    let published = hub_dir.join("guarded");
    let stored = std::fs::read(published.join(MANIFEST_FILE)).unwrap();
    let manifest = committed_manifest(&repo).unwrap();
    let mut objects = objects_of(&repo);
    let intact = |what: &str| {
        assert_eq!(
            std::fs::read(published.join(MANIFEST_FILE)).unwrap(),
            stored,
            "{what}: the previous publication changed"
        );
        assert_stored_manifest(&hub_dir, "guarded");
    };

    // A path the catalog does not reference, with a genuine object.
    let mut extra = manifest.clone();
    extra.push(ManifestEntry {
        path: "objects/extra".into(),
        size: 5,
        hash: sha256_hex(b"extra"),
    });
    objects.insert(sha256_hex(b"extra"), b"extra".to_vec());
    let err = hub
        .commit("guarded", &extra, Source::Objects(&objects))
        .unwrap_err();
    assert!(matches!(err, DlvError::BadManifest(_)), "extra path: {err}");
    intact("extra path");

    // The same path twice.
    let mut twice = manifest.clone();
    twice.push(manifest.last().unwrap().clone());
    let err = hub
        .commit("guarded", &twice, Source::Objects(&objects))
        .unwrap_err();
    assert!(
        matches!(err, DlvError::BadManifest(_)),
        "duplicate path: {err}"
    );
    intact("duplicate path");

    // A snapshot blob the catalog references, left out.
    let missing: Vec<ManifestEntry> = manifest
        .iter()
        .filter(|e| !e.path.starts_with("weights/"))
        .cloned()
        .collect();
    assert!(missing.len() < manifest.len());
    let err = hub
        .commit("guarded", &missing, Source::Objects(&objects))
        .unwrap_err();
    assert!(
        matches!(err, DlvError::BadManifest(_)),
        "missing path: {err}"
    );
    intact("missing path");

    // A size its object does not have.
    let mut resized = manifest.clone();
    resized.first_mut().unwrap().size += 1;
    let err = hub
        .commit("guarded", &resized, Source::Objects(&objects))
        .unwrap_err();
    assert!(matches!(err, DlvError::BadManifest(_)), "wrong size: {err}");
    intact("wrong size");

    // A held object whose bytes rotted on disk: nothing is uploaded, so
    // every entry is copied from the publication and hashed on the way.
    let victim = manifest
        .iter()
        .find(|e| e.path.starts_with("weights/"))
        .unwrap();
    let mut rotten = std::fs::read(published.join(&victim.path)).unwrap();
    *rotten.last_mut().unwrap() ^= 0xFF;
    std::fs::write(published.join(&victim.path), &rotten).unwrap();
    let err = hub
        .commit("guarded", &manifest, Source::Objects(&BTreeMap::new()))
        .unwrap_err();
    assert!(
        matches!(err, DlvError::Verify(_)),
        "corrupt held object: {err}"
    );
    assert_eq!(
        std::fs::read(published.join(MANIFEST_FILE)).unwrap(),
        stored,
        "corrupt held object: the previous publication changed"
    );
    assert_eq!(std::fs::read(published.join(&victim.path)).unwrap(), rotten);

    // The same commit with every object uploaded repairs it.
    hub.commit("guarded", &manifest, Source::Objects(&objects_of(&repo)))
        .unwrap();
    assert_stored_manifest(&hub_dir, "guarded");
    hub.pull("guarded", &temp_dir("refuse-pull").join("c"))
        .unwrap();
}

#[test]
fn a_manifest_cannot_name_the_stored_manifest() {
    let dir = temp_dir("shadow-repo");
    let hub_dir = temp_dir("shadow-hub");
    let repo = sample_repo(&dir, "m", 7);
    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "shadow").unwrap();
    let mut manifest = committed_manifest(&repo).unwrap();
    manifest.push(ManifestEntry {
        path: MANIFEST_FILE.into(),
        size: 0,
        hash: sha256_hex(b""),
    });
    let mut objects = objects_of(&repo);
    objects.insert(sha256_hex(b""), Vec::new());
    let err = hub
        .commit("shadow", &manifest, Source::Objects(&objects))
        .unwrap_err();
    assert!(matches!(err, DlvError::InvalidName(_)), "{err}");
    assert_stored_manifest(&hub_dir, "shadow");
}

#[test]
fn a_corrupt_stored_manifest_is_an_error_not_a_fallback() {
    let dir = temp_dir("garbled-repo");
    let hub_dir = temp_dir("garbled-hub");
    let repo = sample_repo(&dir, "m", 8);
    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "garbled").unwrap();
    std::fs::write(
        hub_dir.join("garbled").join(MANIFEST_FILE),
        b"not a manifest\n",
    )
    .unwrap();
    assert!(matches!(hub.manifest("garbled"), Err(DlvError::Hub(_))));
    assert!(hub
        .pull("garbled", &temp_dir("garbled-pull").join("c"))
        .is_err());

    // Negotiation treats the publication as holding nothing, so the
    // republish hubd runs (upload what `wants` names, then commit)
    // replaces the garbled manifest.
    let manifest = committed_manifest(&repo).unwrap();
    let wants = hub.wants("garbled", &manifest).unwrap();
    let every: BTreeSet<String> = manifest.iter().map(|e| e.hash.clone()).collect();
    assert_eq!(wants, every);
    let uploaded: BTreeMap<String, Vec<u8>> = objects_of(&repo)
        .into_iter()
        .filter(|(hash, _)| wants.contains(hash))
        .collect();
    hub.commit("garbled", &manifest, Source::Objects(&uploaded))
        .unwrap();
    assert_stored_manifest(&hub_dir, "garbled");
    let pulled = hub
        .pull("garbled", &temp_dir("garbled-repull").join("c"))
        .unwrap();
    assert_eq!(committed_manifest(&pulled).unwrap(), manifest);
}

#[test]
fn a_publication_whose_hashes_match_but_planes_do_not_decode_fails_the_pull() {
    let dir = temp_dir("undecodable-repo");
    let hub_dir = temp_dir("undecodable-hub");
    let repo = sample_repo(&dir, "m", 9);
    repo.archive(&ArchiveConfig::default()).unwrap();
    let hub = Hub::open(&hub_dir).unwrap();
    hub.publish(&repo, "rotten").unwrap();
    let published = hub_dir.join("rotten");
    corrupt_a_plane_keeping_hashes(&published);
    assert_eq!(
        hub.manifest("rotten").unwrap(),
        committed_manifest(&Repository::open(&published).unwrap()).unwrap()
    );
    let pulls = temp_dir("undecodable-pull");
    let dest = pulls.join("c");
    let err = hub.pull("rotten", &dest).unwrap_err();
    assert!(matches!(err, DlvError::Verify(_)), "{err}");
    assert!(err.to_string().contains("unreadable"), "{err}");
    assert!(!dest.exists(), "a failed pull must leave no destination");
    assert_eq!(
        std::fs::read_dir(&pulls).unwrap().count(),
        0,
        "stage left behind"
    );
}
