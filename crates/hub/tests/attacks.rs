//! Raw-socket regression tests against a live `hubd`: hand-crafted
//! hostile requests (oversized length prefixes, truncated manifests,
//! huge count/length headers) must come back as clean 4xx protocol
//! errors with `hub_errors_total` incremented — never a dead worker.
//! After every attack the same server must answer a well-formed request.

#![allow(clippy::unwrap_used)] // test code: panics are failures
use mh_dlv::{MAX_MANIFEST_ENTRIES, MAX_OBJECT_BYTES};
use mh_hub::protocol::MAX_LINE_BYTES;
use mh_hub::{HubServer, RemoteHub};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-hubattack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn start_server(tag: &str) -> (HubServer, RemoteHub) {
    let root = temp_dir(&format!("{tag}-hubroot"));
    let server = HubServer::start(&root, "127.0.0.1:0", Some(2)).unwrap();
    let client = RemoteHub::open(&server.url())
        .unwrap()
        .with_timeout(Duration::from_secs(5))
        .with_retries(2, Duration::from_millis(20));
    (server, client)
}

/// Total errors across all endpoints, as the client sees them via
/// `/stats` (the same counters `/metrics` exports as `hub_errors_total`).
fn errors_total(client: &RemoteHub) -> u64 {
    client.stats().unwrap().iter().map(|l| l.errors).sum()
}

/// Send raw bytes, half-close the write side, and read the complete
/// response. Returns the parsed status code and the full response text.
fn raw(addr: SocketAddr, payload: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(payload).unwrap();
    s.flush().unwrap();
    let _ = s.shutdown(Shutdown::Write);
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf).to_string();
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    (status, text)
}

fn post(target: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// The worker that just absorbed an attack must still answer a
/// well-formed request on a fresh connection.
fn assert_alive(client: &RemoteHub) {
    assert_eq!(
        client.repositories().unwrap(),
        Vec::<String>::new(),
        "server must keep answering well-formed requests after an attack"
    );
}

#[test]
fn oversized_object_length_prefix_is_422_not_worker_death() {
    let (server, client) = start_server("objlen");
    let before = errors_total(&client);

    // Commit body: empty manifest, then an object header whose length
    // prefix is one byte past the cap. The server must reject it at the
    // header, before reserving any payload memory.
    let body = format!("0\nobj {} {}\n", "a".repeat(64), MAX_OBJECT_BYTES + 1);
    let (status, text) = raw(
        server.local_addr(),
        &post("/publish/x?phase=commit", body.as_bytes()),
    );
    assert_eq!(status, 422, "oversized length prefix must be 422: {text}");
    assert!(text.contains("code=too-large"), "{text}");

    assert_alive(&client);
    assert!(errors_total(&client) > before, "hub_errors_total must grow");
    server.stop();
}

#[test]
fn manifest_declaring_oversized_object_is_422() {
    let (server, client) = start_server("decl");
    let before = errors_total(&client);

    // A single well-formed manifest line declaring an over-cap size: a
    // handful of header bytes must not reserve gigabytes server-side.
    let body = format!("{} {} weights.bin\n", "b".repeat(64), MAX_OBJECT_BYTES + 1);
    let (status, text) = raw(
        server.local_addr(),
        &post("/publish/x?phase=negotiate", body.as_bytes()),
    );
    assert_eq!(status, 422, "oversized declared size must be 422: {text}");
    assert!(text.contains("code=too-large"), "{text}");

    assert_alive(&client);
    assert!(errors_total(&client) > before);
    server.stop();
}

#[test]
fn huge_manifest_entry_count_is_422() {
    let (server, client) = start_server("count");
    let before = errors_total(&client);

    // One entry past the manifest cap; the reject must fire before the
    // entry vector materializes the excess.
    let line = format!("{} 1 p\n", "c".repeat(64));
    let body = line.repeat(MAX_MANIFEST_ENTRIES + 1);
    let (status, text) = raw(
        server.local_addr(),
        &post("/publish/x?phase=negotiate", body.as_bytes()),
    );
    assert_eq!(status, 422, "over-count manifest must be 422: {text}");
    assert!(text.contains("code=too-large"), "{text}");

    assert_alive(&client);
    assert!(errors_total(&client) > before);
    server.stop();
}

#[test]
fn truncated_manifest_is_400() {
    let (server, client) = start_server("trunc");
    let before = errors_total(&client);

    // Commit whose manifest length prefix promises far more bytes than
    // the body carries.
    let (status, text) = raw(
        server.local_addr(),
        &post("/publish/x?phase=commit", b"9999\nshort"),
    );
    assert_eq!(status, 400, "truncated manifest must be 400: {text}");
    assert!(text.contains("code=bad-request"), "{text}");

    // And a structurally broken manifest row inside a valid length frame.
    let garbage = b"7\nnot-ok\n";
    let (status2, text2) = raw(
        server.local_addr(),
        &post("/publish/x?phase=commit", garbage),
    );
    assert_eq!(status2, 400, "garbage manifest row must be 400: {text2}");

    assert_alive(&client);
    assert!(errors_total(&client) >= before + 2);
    server.stop();
}

#[test]
fn huge_content_length_header_is_400() {
    let (server, client) = start_server("clen");
    let before = errors_total(&client);

    // Declared body over MAX_BODY_BYTES: rejected from the header alone,
    // with no body bytes sent at all.
    let head = format!(
        "POST /publish/x?phase=commit HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        (1u64 << 40)
    );
    let (status, text) = raw(server.local_addr(), head.as_bytes());
    assert_eq!(status, 400, "huge content-length must be 400: {text}");
    assert!(text.contains("code=bad-request"), "{text}");

    assert_alive(&client);
    assert!(errors_total(&client) > before);
    server.stop();
}

#[test]
fn unterminated_oversized_request_line_is_400() {
    let (server, client) = start_server("line");
    let before = errors_total(&client);

    // A request line past MAX_LINE_BYTES with no newline: the line buffer
    // must stop growing at the cap instead of following the peer.
    let payload = vec![b'A'; MAX_LINE_BYTES + 128];
    let (status, text) = raw(server.local_addr(), &payload);
    assert_eq!(status, 400, "oversized request line must be 400: {text}");
    assert!(text.contains("code=bad-request"), "{text}");

    assert_alive(&client);
    assert!(errors_total(&client) > before);
    server.stop();
}
