//! End-to-end tests over a real loopback socket: publish → search →
//! pull round-trips bit-identically, repeat pulls are near-zero-byte
//! (asserted via `/stats`), and injected connection drops are recovered
//! by client retry/backoff — or surface as typed errors, never a hang.

#![allow(clippy::unwrap_used)] // test code: panics are failures
use mh_dlv::{
    committed_manifest, encode_manifest, ArchiveConfig, DlvError, Hub, HubBackend, Repository,
    MANIFEST_FILE,
};
use mh_dnn::{synth_dataset, zoo, Hyperparams, SynthConfig, Trainer, Weights};
use mh_hub::{HubError, HubServer, RemoteHub};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-hubnet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

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
    req.files.push(("notes.txt".into(), b"remote".to_vec()));
    req.comment = format!("remote model {name}");
    repo.commit(&req).unwrap();
    repo
}

fn start_server(tag: &str) -> (HubServer, RemoteHub) {
    let root = temp_dir(&format!("{tag}-hubroot"));
    let server = HubServer::start(&root, "127.0.0.1:0", Some(2)).unwrap();
    let client = RemoteHub::open(&server.url())
        .unwrap()
        .with_timeout(Duration::from_secs(5))
        .with_retries(4, Duration::from_millis(20));
    (server, client)
}

fn endpoint_bytes_out(client: &RemoteHub, endpoint: &str) -> u64 {
    client
        .stats()
        .unwrap()
        .iter()
        .find(|l| l.endpoint == endpoint)
        .map(|l| l.bytes_out)
        .unwrap_or(0)
}

/// One raw request to hubd: (status, response body).
fn raw_request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    let split = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let status = std::str::from_utf8(&out[9..12]).unwrap().parse().unwrap();
    (status, out[split + 4..].to_vec())
}

/// The stored-manifest oracle: the `.manifest` a publish leaves in the
/// publication is `encode_manifest` of `committed_manifest` computed
/// over the published directory, and hubd's `/manifest` body (when a
/// server is given) is exactly those bytes.
fn assert_stored_manifest(root: &Path, name: &str, server: Option<&HubServer>) {
    let dir = root.join(name);
    let stored = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
    let oracle = committed_manifest(&Repository::open(&dir).unwrap()).unwrap();
    assert_eq!(
        stored,
        encode_manifest(&oracle).into_bytes(),
        "stored manifest of '{name}'"
    );
    if let Some(server) = server {
        let (status, body) = raw_request(
            server.local_addr(),
            "GET",
            &format!("/manifest/{name}"),
            b"",
        );
        assert_eq!(status, 200);
        assert_eq!(body, stored, "/manifest body of '{name}'");
    }
}

#[test]
fn publish_search_pull_roundtrip_over_socket() {
    let dir = temp_dir("rt-repo");
    let repo = sample_repo(&dir, "lenet-remote", 21);
    let (server, client) = start_server("rt");

    client.publish_repo(&repo, "team/vision").unwrap();
    assert_stored_manifest(server.root(), "team/vision", Some(&server));
    assert_eq!(client.repositories().unwrap(), vec!["team/vision"]);
    let hits = client.search("%lenet%").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].repo, "team/vision");
    assert!(client.search("%no-such-model%").unwrap().is_empty());

    let dest = temp_dir("rt-pull").join("clone");
    let pulled = client.pull_repo("team/vision", &dest).unwrap();
    // Bit-identical: same committed-content manifest on both sides.
    assert_eq!(
        committed_manifest(&pulled).unwrap(),
        committed_manifest(&repo).unwrap()
    );
    let w1 = repo.get_weights("lenet-remote", None).unwrap();
    let w2 = pulled.get_weights("lenet-remote", None).unwrap();
    assert_eq!(w1, w2);

    // Unknown names surface as typed errors mapped through the trait.
    let backend: &dyn HubBackend = &client;
    assert!(matches!(
        backend.pull("missing/name", &temp_dir("rt-x").join("y")),
        Err(DlvError::NoSuchVersion(_) | DlvError::Hub(_))
    ));
    server.stop();
}

#[test]
fn directory_hub_and_hubd_publish_and_pull_the_same_content() {
    let dir = temp_dir("both-repo");
    let repo = sample_repo(&dir, "lenet-both", 25);
    let local_root = temp_dir("both-local");
    let local = Hub::open(&local_root).unwrap();
    let (server, client) = start_server("both");
    local.publish(&repo, "team/both").unwrap();
    client.publish_repo(&repo, "team/both").unwrap();
    assert_stored_manifest(&local_root, "team/both", None);
    assert_stored_manifest(server.root(), "team/both", Some(&server));

    let pulls = temp_dir("both-pull");
    let from_local = local.pull("team/both", &pulls.join("local")).unwrap();
    let from_remote = client
        .pull_repo("team/both", &pulls.join("remote"))
        .unwrap();
    let published = |root: &std::path::Path| {
        committed_manifest(&Repository::open(&root.join("team/both")).unwrap()).unwrap()
    };
    let want = committed_manifest(&repo).unwrap();
    for (what, got) in [
        ("directory hub publication", published(&local_root)),
        ("hubd publication", published(server.root())),
        (
            "pull from directory hub",
            committed_manifest(&from_local).unwrap(),
        ),
        ("pull from hubd", committed_manifest(&from_remote).unwrap()),
    ] {
        assert_eq!(got, want, "{what} differs from the source repository");
    }
    server.stop();
}

#[test]
fn second_pull_with_cache_transfers_near_zero_object_bytes() {
    let dir = temp_dir("inc-repo");
    let repo = sample_repo(&dir, "lenet-inc", 22);
    let (server, client) = start_server("inc");
    client.publish_repo(&repo, "inc").unwrap();
    assert_stored_manifest(server.root(), "inc", Some(&server));

    let cache = temp_dir("inc-cache");
    let cached_client = client.clone().with_cache(&cache);

    let before_first = endpoint_bytes_out(&client, "objects");
    let dest1 = temp_dir("inc-pull1").join("c");
    cached_client.pull_repo("inc", &dest1).unwrap();
    let after_first = endpoint_bytes_out(&client, "objects");
    let first_bytes = after_first - before_first;
    assert!(
        first_bytes > 10_000,
        "first pull should move real object bytes, moved {first_bytes}"
    );

    // Second pull of unchanged content: every object is already in the
    // cache, so the object channel moves (near) nothing.
    let dest2 = temp_dir("inc-pull2").join("c");
    let pulled = cached_client.pull_repo("inc", &dest2).unwrap();
    let after_second = endpoint_bytes_out(&client, "objects");
    let second_bytes = after_second - after_first;
    assert!(
        second_bytes < 256,
        "repeat pull should be near-zero object bytes, moved {second_bytes}"
    );
    assert_eq!(
        committed_manifest(&pulled).unwrap(),
        committed_manifest(&repo).unwrap()
    );

    // Incremental republish of unchanged content uploads no objects
    // either: negotiation answers an empty want set.
    let publish_in_before = client
        .stats()
        .unwrap()
        .iter()
        .find(|l| l.endpoint == "publish")
        .map(|l| l.bytes_in)
        .unwrap_or(0);
    client.publish_repo(&repo, "inc").unwrap();
    assert_stored_manifest(server.root(), "inc", Some(&server));
    let publish_in_after = client
        .stats()
        .unwrap()
        .iter()
        .find(|l| l.endpoint == "publish")
        .map(|l| l.bytes_in)
        .unwrap_or(0);
    let manifest_overhead = (committed_manifest(&repo).unwrap().len() as u64 + 2) * 200;
    assert!(
        publish_in_after - publish_in_before < 2 * manifest_overhead + 256,
        "republish uploaded object bytes: {}",
        publish_in_after - publish_in_before
    );
    server.stop();
}

#[test]
fn injected_connection_drops_are_recovered_by_retry() {
    let dir = temp_dir("fault-repo");
    let repo = sample_repo(&dir, "lenet-fault", 23);
    let (server, client) = start_server("fault");
    client.publish_repo(&repo, "faulty").unwrap();
    assert_stored_manifest(server.root(), "faulty", Some(&server));

    // Drop the first two /objects responses mid-object: the pull must
    // retry, resume from what already arrived, and still verify.
    server
        .faults()
        .drop_object_responses
        .store(2, Ordering::SeqCst);
    let dest = temp_dir("fault-pull").join("c");
    let started = mh_par::sync::now();
    let pulled = client.pull_repo("faulty", &dest).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "faulted pull took too long"
    );
    assert_eq!(
        committed_manifest(&pulled).unwrap(),
        committed_manifest(&repo).unwrap()
    );
    assert_eq!(
        server.faults().drop_object_responses.load(Ordering::SeqCst),
        0,
        "both faults were consumed"
    );

    // Errors were recorded against the objects endpoint.
    let errors = client
        .stats()
        .unwrap()
        .iter()
        .find(|l| l.endpoint == "objects")
        .map(|l| l.errors)
        .unwrap_or(0);
    assert!(
        errors >= 2,
        "expected >=2 recorded object errors, got {errors}"
    );
    server.stop();
}

#[test]
fn exhausted_retries_surface_a_typed_error_not_a_hang() {
    let dir = temp_dir("dead-repo");
    let repo = sample_repo(&dir, "lenet-dead", 24);
    let (server, client) = start_server("dead");
    client.publish_repo(&repo, "doomed").unwrap();
    assert_stored_manifest(server.root(), "doomed", Some(&server));

    // More injected faults than the client has retries (and no object
    // ever completes, so progress never resets the budget: every drop
    // truncates the same first object).
    let impatient = client.clone().with_retries(2, Duration::from_millis(5));
    server
        .faults()
        .drop_object_responses
        .store(1000, Ordering::SeqCst);
    let started = mh_par::sync::now();
    let err = impatient
        .pull_repo("doomed", &temp_dir("dead-pull").join("c"))
        .unwrap_err();
    assert!(
        matches!(err, HubError::RetriesExhausted { .. }),
        "unexpected error: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "exhaustion took {:?}",
        started.elapsed()
    );
    server
        .faults()
        .drop_object_responses
        .store(0, Ordering::SeqCst);
    server.stop();
}

#[test]
fn unresponsive_server_times_out() {
    // A listener that accepts but never answers: requests must time out,
    // then retries must exhaust — bounded wall-clock, typed error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = mh_par::sync::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = listener.accept() {
            held.push(s); // keep sockets open, say nothing
            if held.len() >= 8 {
                break;
            }
        }
    });
    let client = RemoteHub::open(&format!("http://{addr}"))
        .unwrap()
        .with_timeout(Duration::from_millis(300))
        .with_retries(2, Duration::from_millis(5));
    let started = mh_par::sync::now();
    let err = client.repositories().unwrap_err();
    assert!(
        matches!(err, HubError::RetriesExhausted { .. }),
        "unexpected error: {err}"
    );
    assert!(started.elapsed() < Duration::from_secs(10));
    drop(handle); // listener thread exits when the test process does
}

#[test]
fn raw_traversal_requests_are_rejected_with_4xx() {
    use std::io::{Read, Write};
    let (server, client) = start_server("raw");
    // Raw request, bypassing client-side validation entirely.
    for (method, target) in [
        ("GET", "/manifest/../escape"),
        ("GET", "/manifest/.hidden"),
        ("POST", "/publish/..%2Fx?phase=negotiate"),
        ("POST", "/objects/a//b"),
    ] {
        let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
        write!(
            s,
            "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let status: u16 = resp
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        assert!(
            (400..500).contains(&status),
            "target {target} answered {status}: {resp}"
        );
    }
    // And a malformed request line gets a 400, not a dropped worker.
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(b"complete garbage\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "got: {resp}");
    // The server still works afterwards.
    assert!(client.repositories().unwrap().is_empty());
    server.stop();
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let dir = temp_dir("prom-repo");
    let repo = sample_repo(&dir, "lenet-prom", 33);
    let (server, client) = start_server("prom");
    client.publish_repo(&repo, "prom").unwrap();
    assert_stored_manifest(server.root(), "prom", Some(&server));

    let pull_dir = temp_dir("prom-pull");
    client.pull("prom", &pull_dir.join("prom")).unwrap();

    let text = client.metrics_text().unwrap();
    // Hub request series, labeled per endpoint, with real traffic counted.
    assert!(text.contains("# TYPE hub_requests_total counter"), "{text}");
    assert!(text.contains("# TYPE hub_bytes_out_total counter"));
    assert!(text.contains("# TYPE hub_errors_total counter"));
    let requests = |ep: &str| -> u64 {
        let needle = format!("hub_requests_total{{endpoint=\"{ep}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&needle))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    assert!(requests("publish") >= 2, "negotiate + commit");
    assert!(requests("objects") >= 1, "pull fetched objects");
    assert_eq!(requests("other"), 0);
    let objects_bytes: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("hub_bytes_out_total{endpoint=\"objects\"} "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    assert!(objects_bytes > 0, "pull transferred object bytes");

    // Process-global series (PAS / compression / pool) are pre-registered
    // at server start, so a scrape exposes them even before first use.
    for series in [
        "compress_calls_total",
        "compress_bytes_in_total",
        "pas_repair_rounds_total",
        "par_tasks_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {series} counter")),
            "missing {series} in exposition"
        );
    }
    assert!(text.contains("# TYPE pas_progressive_planes_used histogram"));
    assert!(text.contains("# TYPE par_task_wait_us histogram"));

    // /metrics traffic is itself accounted, from actual bytes written.
    let stats = client.stats().unwrap();
    let metrics_line = stats.iter().find(|l| l.endpoint == "metrics").unwrap();
    assert_eq!(metrics_line.requests, 1);
    assert_eq!(metrics_line.bytes_out, text.len() as u64);
    assert_eq!(metrics_line.errors, 0);

    // Server-side latency quantiles ride along on both surfaces.
    assert!(
        text.contains("# TYPE hub_request_duration_ms histogram"),
        "{text}"
    );
    assert!(
        text.contains("hub_request_duration_ms_bucket{endpoint=\"publish\",le=\"+Inf\"}"),
        "{text}"
    );
    let publish_line = stats.iter().find(|l| l.endpoint == "publish").unwrap();
    assert!(publish_line.p99_ms >= publish_line.p50_ms);
    assert!(
        publish_line.p99_ms > 0.0,
        "real publishes took nonzero time"
    );
    server.stop();
}

#[test]
fn flight_recorder_captures_requests_with_tracing_off() {
    // No MH_TRACE / enable_stderr anywhere: spans are inert for JSONL
    // output, yet the server's always-on flight recorder still holds
    // the most recent request history for post-hoc debugging.
    assert!(!mh_obs::enabled(), "test requires tracing off");
    let dir = temp_dir("fr-repo");
    let repo = sample_repo(&dir, "lenet-fr", 44);
    let (server, client) = start_server("fr");
    client.publish_repo(&repo, "fr").unwrap();
    assert_stored_manifest(server.root(), "fr", Some(&server));
    client.pull("fr", &temp_dir("fr-pull").join("fr")).unwrap();

    let dump = client.flightrec_text().unwrap();
    assert!(
        dump.lines().any(|l| l.contains("\"name\":\"hub.request\"")),
        "flight recorder should hold recent request spans, got:\n{dump}"
    );
    // Every line is a JSON object; the dump is machine-parseable.
    for line in dump.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }

    // A failing request leaves a warn event in the recorder that names
    // the endpoint, so the error context survives in the server log.
    let backend: &dyn HubBackend = &client;
    assert!(backend
        .pull("no/such-repo", &temp_dir("fr-miss").join("x"))
        .is_err());
    let dump = client.flightrec_text().unwrap();
    assert!(
        dump.lines()
            .any(|l| l.contains("request error") && l.contains("manifest")),
        "expected a request-error log event, got:\n{dump}"
    );
    server.stop();
}

#[test]
fn publications_without_a_stored_manifest_are_served_the_same() {
    let dir = temp_dir("legacy-repo");
    let repo = sample_repo(&dir, "lenet-legacy", 23);
    repo.archive(&ArchiveConfig::default()).unwrap();
    let other = sample_repo(&temp_dir("legacy-other"), "lenet-other", 24);
    let (server, client) = start_server("legacy");
    client.publish_repo(&repo, "old/style").unwrap();
    assert_stored_manifest(server.root(), "old/style", Some(&server));
    let hub = Hub::open(server.root()).unwrap();
    let candidates = [
        committed_manifest(&repo).unwrap(),
        committed_manifest(&other).unwrap(),
    ];
    let observe = |tag: &str| {
        let (status, body) = raw_request(server.local_addr(), "GET", "/manifest/old/style", b"");
        assert_eq!(status, 200);
        let wants: Vec<_> = candidates
            .iter()
            .map(|m| hub.wants("old/style", m).unwrap())
            .collect();
        let pulls = temp_dir(&format!("legacy-pull-{tag}"));
        let remote = client
            .pull_repo("old/style", &pulls.join("remote"))
            .unwrap();
        let local = hub.pull("old/style", &pulls.join("local")).unwrap();
        let pulled = [
            committed_manifest(&remote).unwrap(),
            committed_manifest(&local).unwrap(),
        ];
        (body, wants, pulled)
    };
    let stored = observe("stored");
    assert!(stored.1[0].is_empty() && !stored.1[1].is_empty());
    assert_eq!(stored.2[0], candidates[0]);

    // A publication made before manifests were stored has none.
    std::fs::remove_file(server.root().join("old/style").join(MANIFEST_FILE)).unwrap();
    assert_eq!(observe("legacy"), stored);
    server.stop();
}

#[test]
fn commit_with_a_bad_manifest_is_422_and_keeps_the_publication() {
    let dir = temp_dir("bad-repo");
    let repo = sample_repo(&dir, "lenet-bad", 26);
    let (server, client) = start_server("bad");
    client.publish_repo(&repo, "kept").unwrap();
    let stored = std::fs::read(server.root().join("kept").join(MANIFEST_FILE)).unwrap();

    // Every object is held, so the commit carries none: the manifest
    // with one path listed twice, then an empty object stream.
    let mut twice = committed_manifest(&repo).unwrap();
    twice.push(twice[0].clone());
    let manifest = encode_manifest(&twice);
    let mut body = format!("{}\n{manifest}", manifest.len()).into_bytes();
    body.extend_from_slice(format!("end {}\n", mh_dlv::hash::sha256_hex(b"")).as_bytes());
    let (status, text) = raw_request(
        server.local_addr(),
        "POST",
        "/publish/kept?phase=commit",
        &body,
    );
    let text = String::from_utf8_lossy(&text);
    assert_eq!(status, 422, "{text}");
    assert!(text.contains("code=bad-manifest"), "{text}");
    assert_eq!(
        std::fs::read(server.root().join("kept").join(MANIFEST_FILE)).unwrap(),
        stored
    );
    assert_stored_manifest(server.root(), "kept", Some(&server));
    server.stop();
}

#[test]
fn a_publication_whose_hashes_match_but_planes_do_not_decode_fails_the_pull() {
    let dir = temp_dir("undecodable-repo");
    let repo = sample_repo(&dir, "lenet-rotten", 27);
    repo.archive(&ArchiveConfig::default()).unwrap();
    let (server, client) = start_server("undecodable");
    client.publish_repo(&repo, "rotten").unwrap();
    // Garble one byte plane, then store the manifest of what the
    // publication now holds: every hash checks out, nothing decodes.
    let published = server.root().join("rotten");
    let store = published.join("pas").join("store0000");
    let plane = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().ends_with("_p0.mhz"))
        .unwrap();
    let len = std::fs::read(&plane).unwrap().len();
    let garbage: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
    std::fs::write(&plane, garbage).unwrap();
    let manifest = committed_manifest(&Repository::open(&published).unwrap()).unwrap();
    std::fs::write(published.join(MANIFEST_FILE), encode_manifest(&manifest)).unwrap();

    let pulls = temp_dir("undecodable-pull");
    let dest = pulls.join("c");
    let err = client.pull_repo("rotten", &dest).unwrap_err();
    assert!(matches!(err, HubError::Dlv(DlvError::Verify(_))), "{err}");
    assert!(!dest.exists(), "a failed pull must leave no destination");
    assert_eq!(
        std::fs::read_dir(&pulls).unwrap().count(),
        0,
        "stage or object cache left behind"
    );
    server.stop();
}

#[test]
fn a_remote_republish_repairs_a_garbled_stored_manifest() {
    let dir = temp_dir("garbled-repo");
    let repo = sample_repo(&dir, "lenet-garbled", 28);
    let (server, client) = start_server("garbled");
    client.publish_repo(&repo, "garbled").unwrap();
    let stored = server.root().join("garbled").join(MANIFEST_FILE);
    std::fs::write(&stored, b"not a manifest\n").unwrap();
    let pulls = temp_dir("garbled-pull");
    assert!(client.pull_repo("garbled", &pulls.join("before")).is_err());

    client.publish_repo(&repo, "garbled").unwrap();
    assert_stored_manifest(server.root(), "garbled", Some(&server));
    let pulled = client.pull_repo("garbled", &pulls.join("after")).unwrap();
    assert_eq!(
        committed_manifest(&pulled).unwrap(),
        committed_manifest(&repo).unwrap()
    );
    server.stop();
}
