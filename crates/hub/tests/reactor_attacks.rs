//! Connection-handling regression tests over raw loopback sockets:
//! stalled and hostile clients must be reaped by the per-state timeout
//! axes without stalling anyone else, saturation must answer 503 +
//! `Retry-After`, the connection peak must be able to exceed the handler
//! slot count, and `stop` must not wait out held connections.

#![allow(clippy::unwrap_used)] // test code: panics are failures
use mh_dnn::zoo;
use mh_hub::server::Config;
use mh_hub::{HubServer, RemoteHub};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-hubreactor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A repository whose object stream is far larger than loopback socket
/// buffers, so a non-reading client forces the server into partial
/// writes.
fn big_repo(dir: &std::path::Path, name: &str) -> mh_dlv::Repository {
    let repo = mh_dlv::Repository::init(dir).unwrap();
    let net = zoo::lenet_s(3);
    let weights = mh_dnn::Weights::init(&net, 7).unwrap();
    let mut req = mh_dlv::CommitRequest::new(name, net);
    req.snapshots = vec![(0, weights)];
    req.files.push(("blob.bin".into(), vec![0xA5u8; 8 << 20]));
    req.comment = "big payload for stall tests".into();
    repo.commit(&req).unwrap();
    repo
}

fn start_server(tag: &str, config: Config) -> (HubServer, RemoteHub) {
    let root = temp_dir(&format!("{tag}-hubroot"));
    let server = HubServer::start_with(&root, "127.0.0.1:0", config).unwrap();
    let client = RemoteHub::open(&server.url())
        .unwrap()
        .with_timeout(Duration::from_secs(5))
        .with_retries(2, Duration::from_millis(20));
    (server, client)
}

fn objects_request(name: &str) -> Vec<u8> {
    format!(
        "POST /objects/{name} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .into_bytes()
}

/// Parse `Content-Length` out of a response-head prefix.
fn content_length_of(head: &str) -> Option<u64> {
    head.lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn stalled_mid_stream_client_is_reaped_without_stalling_others() {
    let repo_dir = temp_dir("stall-repo");
    let repo = big_repo(&repo_dir, "big-stall");
    let (server, client) = start_server(
        "stall",
        Config {
            jobs: Some(2),
            idle_timeout: Duration::from_millis(400),
            state_deadline: Duration::from_secs(10),
            ..Config::default()
        },
    );
    client.publish_repo(&repo, "big-stall").unwrap();

    // The staller: request the whole object stream, read a token amount,
    // then stop reading entirely. The server's send fills the socket
    // buffers and blocks; idle (no write progress) must reap it.
    let mut staller = TcpStream::connect(server.local_addr()).unwrap();
    staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    staller.write_all(&objects_request("big-stall")).unwrap();
    let mut first = vec![0u8; 1024];
    let n = staller.read(&mut first).unwrap();
    assert!(n > 0, "stream must start");
    let head = String::from_utf8_lossy(&first[..n]).to_string();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let declared = content_length_of(&head).expect("content-length header");
    assert!(declared > 8 << 20, "stream must exceed socket buffers");

    // While the staller is wedged, other connections make normal
    // progress — each request is served well inside the stall window.
    let t0 = std::time::Instant::now();
    for _ in 0..5 {
        assert_eq!(client.repositories().unwrap(), vec!["big-stall"]);
    }
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "healthy connections must not be stalled by the wedged one: {:?}",
        t0.elapsed()
    );

    // Give the reaper time, then drain: the server must have cut us off
    // long before the declared length arrived.
    std::thread::sleep(Duration::from_millis(1200));
    let mut rest = Vec::new();
    let _ = staller.read_to_end(&mut rest);
    let got = n as u64 + rest.len() as u64;
    assert!(
        got < declared,
        "stalled connection must be reaped mid-stream (got {got} of {declared})"
    );
    server.stop();
}

#[test]
fn never_reading_client_is_reaped_and_write_buffer_stays_bounded() {
    let repo_dir = temp_dir("noread-repo");
    let repo = big_repo(&repo_dir, "big-noread");
    let (server, client) = start_server(
        "noread",
        Config {
            jobs: Some(2),
            idle_timeout: Duration::from_millis(400),
            state_deadline: Duration::from_secs(10),
            ..Config::default()
        },
    );
    client.publish_repo(&repo, "big-noread").unwrap();
    let baseline_open = server.stats().conn_open().get();

    // Request the stream and never read a single byte. The response is a
    // fixed segment list staged once — the server buffers nothing more on
    // a slow reader, it just stops writing until reaped.
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    silent.write_all(&objects_request("big-noread")).unwrap();

    // The connection must be reaped: open-connection gauge returns to
    // baseline even though we never read.
    let mut reaped = false;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(100));
        if server.stats().conn_open().get() <= baseline_open {
            reaped = true;
            break;
        }
    }
    assert!(reaped, "non-reading client must be reaped by idle timeout");

    // The server is fully healthy afterwards.
    assert_eq!(client.repositories().unwrap(), vec!["big-noread"]);
    drop(silent);
    server.stop();
}

#[test]
fn slowloris_headers_hit_the_state_deadline() {
    let (server, client) = start_server(
        "slowloris",
        Config {
            jobs: Some(2),
            // Idle alone would never fire: the attacker trickles a byte
            // well inside it. The per-state deadline is the axis that
            // catches this.
            idle_timeout: Duration::from_secs(30),
            state_deadline: Duration::from_millis(700),
            ..Config::default()
        },
    );

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    sock.write_all(b"POST /publish/x?phase=commit HTTP/1.1\r\n")
        .unwrap();
    let t0 = std::time::Instant::now();
    let mut cut_off = false;
    // One header byte every 50ms — each write resets idle, none finish
    // the head. The server must cut the connection near the state
    // deadline; detect it via write failure or EOF on read.
    for _ in 0..200usize {
        std::thread::sleep(Duration::from_millis(50));
        if sock.write_all(b"X").is_err() {
            cut_off = true;
            break;
        }
        let mut probe = [0u8; 64];
        match sock.read(&mut probe) {
            Ok(0) => {
                cut_off = true;
                break;
            }
            Ok(_) => {
                // An error response counts as a cut: the server has
                // abandoned the request either way.
                cut_off = true;
                break;
            }
            Err(_) => {} // timeout: still trickling
        }
    }
    assert!(
        cut_off,
        "byte-at-a-time headers must not hold a connection forever"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "cutoff must come from the state deadline, not some 30s fallback: {:?}",
        t0.elapsed()
    );
    // Healthy clients are unaffected.
    assert_eq!(client.repositories().unwrap(), Vec::<String>::new());
    server.stop();
}

#[test]
fn saturation_answers_503_with_retry_after() {
    let (server, client) = start_server(
        "sat",
        Config {
            jobs: Some(1),
            max_conns: 2,
            idle_timeout: Duration::from_secs(5),
            state_deadline: Duration::from_secs(5),
            ..Config::default()
        },
    );

    // Two idle connections occupy every slot.
    let hold_a = TcpStream::connect(server.local_addr()).unwrap();
    let hold_b = TcpStream::connect(server.local_addr()).unwrap();
    let mut seen = false;
    for _ in 0..100 {
        if server.stats().conn_open().get() >= 2 {
            seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(seen, "both holders must register as open connections");

    // The third connection is rejected with backpressure, not queued.
    let mut extra = TcpStream::connect(server.local_addr()).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = extra.write_all(b"GET /repos HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let mut resp = Vec::new();
    let _ = extra.read_to_end(&mut resp);
    let text = String::from_utf8_lossy(&resp);
    assert!(
        text.starts_with("HTTP/1.1 503 "),
        "over-cap connection must get 503: {text}"
    );
    assert!(text.contains("Retry-After: 1"), "{text}");
    assert!(server.stats().conn_rejected().get() >= 1);
    assert!(
        server.stats().conn_peak().get() <= 2,
        "a rejected connection must not count as open (peak = {})",
        server.stats().conn_peak().get()
    );

    // Freeing the slots restores service.
    drop(hold_a);
    drop(hold_b);
    assert_eq!(client.repositories().unwrap(), Vec::<String>::new());
    server.stop();
}

#[test]
fn connection_peak_exceeds_pool_width() {
    let (server, client) = start_server(
        "peak",
        Config {
            jobs: Some(2),
            max_conns: 256,
            idle_timeout: Duration::from_secs(10),
            state_deadline: Duration::from_secs(10),
            ..Config::default()
        },
    );

    // 16 connections each holding a partial request head — far more
    // than the 2 handler slots; every one of them is open at once.
    let mut held: Vec<TcpStream> = Vec::new();
    for _ in 0..16 {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /repos HTT").unwrap();
        held.push(s);
    }
    let mut peak_ok = false;
    for _ in 0..200 {
        if server.stats().conn_peak().get() >= 16 {
            peak_ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        peak_ok,
        "16 simultaneous connections must all be open (peak = {})",
        server.stats().conn_peak().get()
    );

    // A fresh, complete request is served through the held load: the
    // parked heads occupy connections, not pool workers.
    assert_eq!(client.repositories().unwrap(), Vec::<String>::new());

    // Complete every request: all must succeed despite pool width 2.
    for s in &mut held {
        s.write_all(b"P/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
    }
    for mut s in held {
        let mut resp = Vec::new();
        let _ = s.read_to_end(&mut resp);
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
    }
    assert!(server.stats().conn_peak().get() > 2);
    assert_eq!(client.repositories().unwrap(), Vec::<String>::new());
    server.stop();
}

#[test]
fn uncached_objects_stream_lazily_and_still_verify() {
    // The 8 MiB blob does not fit what is left of the per-response load
    // budget after the catalog, so it goes out as a lazily-streamed file
    // segment. The stream must still parse and verify end to end —
    // per-object hashes and the trailing whole-transfer checksum —
    // proving the streaming-verify pass feeds the same bytes the write
    // path later reads from disk.
    let repo_dir = temp_dir("lazy-repo");
    let repo = big_repo(&repo_dir, "big-lazy");
    let (server, client) = start_server(
        "lazy",
        Config {
            jobs: Some(2),
            ..Config::default()
        },
    );
    client.publish_repo(&repo, "big-lazy").unwrap();

    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(&objects_request("big-lazy")).unwrap();
    let mut r = std::io::BufReader::new(s);
    let head = mh_hub::http::read_response_head(&mut r).unwrap();
    assert_eq!(head.status, 200);
    let mut objects = 0usize;
    let mut payload_bytes = 0u64;
    mh_hub::protocol::read_object_stream(&mut r, |_hash, payload| {
        objects += 1;
        payload_bytes += payload.len() as u64;
        Ok(())
    })
    .expect("lazily-streamed object stream must parse and verify");
    assert!(objects > 0, "stream must carry objects");
    assert!(
        payload_bytes > 8u64 << 20,
        "the oversized blob must be included ({payload_bytes} bytes)"
    );
    server.stop();
}

#[test]
fn request_body_budget_rejects_concurrent_large_bodies() {
    let (server, client) = start_server(
        "bodybudget",
        Config {
            jobs: Some(2),
            body_budget_bytes: 64 << 10,
            idle_timeout: Duration::from_secs(10),
            state_deadline: Duration::from_secs(10),
            ..Config::default()
        },
    );
    let declare_64k =
        b"POST /publish/x?phase=commit HTTP/1.1\r\nHost: t\r\nContent-Length: 65536\r\nConnection: close\r\n\r\n";

    // The holder declares a budget-filling body (admitted: nothing else
    // in flight) and then stalls, pinning the reservation in Reading.
    let mut holder = TcpStream::connect(server.local_addr()).unwrap();
    holder.write_all(declare_64k).unwrap();
    std::thread::sleep(Duration::from_millis(500));

    // A second large declared body overruns the aggregate budget: 503 +
    // Retry-After at head-parse, counted in hub_body_rejected_total —
    // and NOT in the accept-time connection-cap counter.
    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    second.write_all(declare_64k).unwrap();
    let mut resp = Vec::new();
    let _ = second.read_to_end(&mut resp);
    let text = String::from_utf8_lossy(&resp);
    assert!(
        text.starts_with("HTTP/1.1 503 "),
        "over-budget body must get 503: {text}"
    );
    assert!(text.contains("Retry-After: 1"), "{text}");
    assert!(server.stats().body_rejected().get() >= 1);
    assert_eq!(
        server.stats().conn_rejected().get(),
        0,
        "body-budget rejections are not connection-cap rejections"
    );

    // Requests with no body are unaffected while the budget is pinned.
    assert_eq!(client.repositories().unwrap(), Vec::<String>::new());

    // Closing the holder releases its reservation; a retry is admitted
    // past head-parse (it fails later as a malformed commit, not a 503).
    drop(holder);
    let mut admitted = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(100));
        let mut retry = TcpStream::connect(server.local_addr()).unwrap();
        retry
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        retry.write_all(declare_64k).unwrap();
        retry.write_all(&vec![0u8; 65536]).unwrap();
        let mut resp = Vec::new();
        let _ = retry.read_to_end(&mut resp);
        let text = String::from_utf8_lossy(&resp);
        if !text.starts_with("HTTP/1.1 503 ") {
            admitted = true;
            break;
        }
    }
    assert!(admitted, "released budget must admit a retry");
    server.stop();
}

#[test]
fn second_pull_wave_streams_the_identical_bytes() {
    let repo_dir = temp_dir("rewave-repo");
    let repo = big_repo(&repo_dir, "big-rewave");
    let (server, client) = start_server("rewave", Config::default());
    client.publish_repo(&repo, "big-rewave").unwrap();

    let addr: SocketAddr = server.local_addr();
    let fetch = |addr: SocketAddr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(&objects_request("big-rewave")).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        out
    };
    let first = fetch(addr);
    let second = fetch(addr);
    assert_eq!(
        first.len(),
        second.len(),
        "both waves must deliver the identical stream"
    );
    server.stop();
}

#[test]
fn stop_returns_promptly_with_held_connections() {
    let repo_dir = temp_dir("stop-repo");
    let repo = big_repo(&repo_dir, "big-stop");
    let (server, client) = start_server("stop", Config::default());
    client.publish_repo(&repo, "big-stop").unwrap();
    let stats = server.stats();

    // One connection parked mid-head, one `/objects` stream that is
    // never read: both threads sit in a blocking read or write, far
    // inside the default idle timeout and state deadline.
    let mut partial = TcpStream::connect(server.local_addr()).unwrap();
    partial.write_all(b"GET /repos HTT").unwrap();
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent.write_all(&objects_request("big-stop")).unwrap();
    let mut held = false;
    for _ in 0..200 {
        if stats.conn_open().get() >= 2 {
            held = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(held, "both connections must be open before stop");
    // The `/objects` handler hashes every payload before the head goes
    // out, and `stop` waits for work in a handler. Once the head can be
    // peeked the handler is done and its thread is writing.
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut first = [0u8; 1];
    assert_eq!(
        silent.peek(&mut first).unwrap(),
        1,
        "the response head must arrive before stop"
    );
    // Let the stream fill the socket buffers.
    std::thread::sleep(Duration::from_millis(200));

    let t0 = std::time::Instant::now();
    server.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "stop must not wait out the held connections: {:?}",
        t0.elapsed()
    );
    assert_eq!(stats.conn_open().get(), 0, "no connection may outlive stop");
    drop(partial);
    drop(silent);
}
