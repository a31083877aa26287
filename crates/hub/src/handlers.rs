//! hubd's request handlers: map a parsed request to the hub operation
//! it names and stage the response. [`crate::server`] owns the sockets
//! and the connection threads; everything here runs on a connection
//! thread holding a handler slot.
//! Publication and negotiation are `mh_dlv::Hub`'s, shared with the
//! directory hub; this module keeps only the wire format around them.

use crate::http::Request;
use crate::protocol::{encode_hits, object_stream_len, read_object_stream};
use crate::server::{protocol_error_response, Faults, FileSeg, Response, Seg, FILE_CHUNK};
use crate::stats::Stats;
use crate::HubError;
use mh_dlv::hash::{sha256_hex, Sha256};
use mh_dlv::{
    encode_manifest, parse_manifest, pct_decode, validate_repo_name, DlvError, Hub, ManifestEntry,
    Source,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek};
use std::path::Path;

fn error_response(e: &DlvError) -> Response {
    let (status, code) = match e {
        DlvError::InvalidName(_) => (422, "invalid-name"),
        DlvError::NoSuchVersion(_) => (404, "not-found"),
        DlvError::AlreadyExists(_) | DlvError::MissingObject(_) => (409, "conflict"),
        DlvError::BadManifest(_) => (422, "bad-manifest"),
        _ => (500, "internal"),
    };
    Response::error(status, code, &e.to_string())
}

pub(crate) fn route(hub: &Hub, req: &Request, stats: &Stats, faults: &Faults) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/repos") => match hub.repositories() {
            Ok(names) => lines_response(names),
            Err(e) => error_response(&e),
        },
        ("GET", "/stats") => Response::full(200, stats.render().into_bytes()),
        ("GET", "/metrics") => Response::full(200, stats.render_prometheus().into_bytes()),
        // Flight-recorder dump: the most recent span records and
        // warn/error log events, captured even with tracing off.
        ("GET", "/debug/flightrec") => Response::full(200, mh_obs::flightrec::dump().into_bytes()),
        ("GET", "/search") => {
            let Some(pattern) = query_param(req, "q").and_then(|enc| pct_decode(enc).ok()) else {
                return Response::error(400, "bad-request", "search needs ?q=<pattern>");
            };
            match hub.search(&pattern) {
                Ok(hits) => Response::full(200, encode_hits(&hits).into_bytes()),
                Err(e) => error_response(&e),
            }
        }
        ("GET", path) if path.starts_with("/manifest/") => {
            let name = path.strip_prefix("/manifest/").unwrap_or_default();
            match hub.manifest(name) {
                Ok(manifest) => Response::full(200, encode_manifest(&manifest).into_bytes()),
                Err(e) => error_response(&e),
            }
        }
        ("POST", path) if path.starts_with("/objects/") => {
            let name = path.strip_prefix("/objects/").unwrap_or_default();
            let haves: BTreeSet<&str> = std::str::from_utf8(&req.body)
                .unwrap_or("")
                .lines()
                .collect();
            respond_objects(hub, name, &haves, faults)
        }
        ("POST", path) if path.starts_with("/publish/") => {
            let name = path.strip_prefix("/publish/").unwrap_or_default();
            if let Err(e) = validate_repo_name(name) {
                return error_response(&e);
            }
            match query_param(req, "phase").unwrap_or_default() {
                "negotiate" => handle_negotiate(hub, name, &req.body),
                "commit" => handle_commit(hub, name, &req.body),
                other => Response::error(400, "bad-request", &format!("unknown phase '{other}'")),
            }
        }
        _ => Response::error(404, "not-found", "no such endpoint"),
    }
}

/// The value of the query parameter `key`, if the request carries one.
fn query_param<'a>(req: &'a Request, key: &str) -> Option<&'a str> {
    req.query
        .as_deref()?
        .split('&')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// A 200 response listing `items` one per line.
fn lines_response<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> Response {
    let body: String = items.into_iter().map(|i| format!("{i}\n")).collect();
    Response::full(200, body.into_bytes())
}

/// Per-response budget for object payloads loaded into memory. Objects
/// up to this many bytes in total are read whole and verified; past it
/// the payload is staged as a lazy [`FileSeg`] that streams from disk in
/// bounded chunks on write readiness. Net bound per connection: this
/// budget plus one [`FILE_CHUNK`] scratch buffer, no matter how large
/// the repo — a never-reading client cannot hold multi-GiB staged
/// responses for the idle-timeout window.
const RESPONSE_LOAD_BUDGET: u64 = 8 << 20;

/// One staged object payload: bytes loaded within the budget, or an
/// open file streamed lazily at write time.
#[derive(Debug)]
enum Payload {
    Mem(Vec<u8>),
    File { file: std::fs::File, len: u64 },
}

impl Payload {
    fn len(&self) -> u64 {
        match self {
            Self::Mem(d) => d.len() as u64,
            Self::File { len, .. } => *len,
        }
    }

    fn into_seg(self) -> Seg {
        match self {
            Self::Mem(d) => Seg::Owned(d),
            Self::File { file, len } => Seg::File(FileSeg::new(file, len)),
        }
    }
}

/// Stage one object's payload, feeding its bytes (in stream order) into
/// the whole-transfer checksum. An object within the load budget is read
/// and verified; anything else is hash-verified in a streaming pass and
/// staged as an open file handle — the payload is never fully resident.
fn stage_object(
    dir: &Path,
    entry: &ManifestEntry,
    loaded: &mut u64,
    transfer: &mut Sha256,
) -> Result<Payload, ()> {
    // Raced with a concurrent republish or the content is corrupt: both
    // surface as a load failure and the response becomes an error (the
    // client retries against the new content).
    let path = dir.join(&entry.path);
    if loaded.saturating_add(entry.size) <= RESPONSE_LOAD_BUDGET {
        let data = std::fs::read(&path).map_err(|_| ())?;
        if sha256_hex(&data) != entry.hash {
            return Err(());
        }
        transfer.update(&data);
        *loaded = loaded.saturating_add(data.len() as u64);
        return Ok(Payload::Mem(data));
    }
    // Streaming verify: hash the file in bounded chunks, then rewind for
    // the lazy write-time stream. The held handle pins the inode, so the
    // bytes that verified here are the bytes that will stream.
    let mut file = std::fs::File::open(&path).map_err(|_| ())?;
    let mut hasher = Sha256::new();
    let mut len = 0u64;
    let mut chunk = vec![0u8; FILE_CHUNK];
    loop {
        match file.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let part = chunk.get(..n).unwrap_or_default();
                hasher.update(part);
                transfer.update(part);
                len = len.saturating_add(n as u64);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    if hasher.finalize_hex() != entry.hash {
        return Err(());
    }
    file.seek(std::io::SeekFrom::Start(0)).map_err(|_| ())?;
    Ok(Payload::File { file, len })
}

/// Stage the objects of `name` the client does not yet have. The
/// response body is length-prefixed per object with a trailing
/// whole-transfer checksum; payload segments are verified in-memory
/// loads or lazily-streamed file handles (see [`RESPONSE_LOAD_BUDGET`]).
fn respond_objects(hub: &Hub, name: &str, haves: &BTreeSet<&str>, faults: &Faults) -> Response {
    let manifest = match hub.manifest(name) {
        Ok(m) => m,
        Err(e) => return error_response(&e),
    };
    let mut seen = BTreeSet::new();
    let missing: Vec<&ManifestEntry> = manifest
        .iter()
        .filter(|e| !haves.contains(e.hash.as_str()) && seen.insert(e.hash.as_str()))
        .collect();
    let dir = hub.root().join(name);

    // Stage every payload (verifying hashes and accumulating the
    // whole-transfer checksum in stream order); lengths come from the
    // staged payloads so the declared Content-Length is always exact.
    let mut loaded = 0u64;
    let mut transfer = Sha256::new();
    let mut payloads: Vec<(&ManifestEntry, Payload)> = Vec::with_capacity(missing.len());
    for entry in &missing {
        match stage_object(&dir, entry, &mut loaded, &mut transfer) {
            Ok(payload) => payloads.push((entry, payload)),
            Err(()) => {
                return Response::error(
                    500,
                    "internal",
                    &format!("object {} unavailable or corrupt", entry.hash),
                )
            }
        }
    }
    let lens: Vec<(String, u64)> = payloads
        .iter()
        .map(|(e, p)| (e.hash.clone(), p.len()))
        .collect();
    let total = object_stream_len(&lens);

    if faults.take_object_drop() {
        // Injected fault: promise the full stream, deliver a truncated
        // first object, then drop the connection.
        let mut segs = Vec::new();
        if let Some((entry, payload)) = payloads.into_iter().next() {
            let len = payload.len();
            let header = format!("obj {} {len}\n", entry.hash);
            let half = match payload {
                Payload::Mem(mut data) => {
                    data.truncate(data.len() / 2);
                    Seg::Owned(data)
                }
                Payload::File { file, .. } => Seg::File(FileSeg::new(file, len / 2)),
            };
            segs.push(Seg::Owned(header.into_bytes()));
            segs.push(half);
        }
        return Response::new(200, total, segs, true);
    }

    let mut segs: Vec<Seg> = Vec::with_capacity(payloads.len() * 2 + 1);
    for (entry, payload) in payloads {
        segs.push(Seg::Owned(
            format!("obj {} {}\n", entry.hash, payload.len()).into_bytes(),
        ));
        segs.push(payload.into_seg());
    }
    segs.push(Seg::Owned(
        format!("end {}\n", transfer.finalize_hex()).into_bytes(),
    ));
    Response::new(200, total, segs, false)
}

/// Publish negotiation: given the client's manifest, answer with the
/// hashes the hub does not already hold under this name.
fn handle_negotiate(hub: &Hub, name: &str, body: &[u8]) -> Response {
    let Ok(body) = std::str::from_utf8(body) else {
        return Response::error(400, "bad-request", "manifest must be utf-8");
    };
    let manifest = match parse_manifest(body) {
        Ok(m) => m,
        Err(e) => return protocol_error_response(&e.into()),
    };
    match hub.wants(name, &manifest) {
        Ok(wants) => lines_response(wants),
        Err(e) => error_response(&e),
    }
}

/// Publish commit: body = `<manifest-byte-length>\n` + manifest + object
/// stream of the negotiated objects. `Hub::commit` checks the manifest
/// and assembles the new publication from the received objects plus
/// objects the previous publication of the same name already holds.
fn handle_commit(hub: &Hub, name: &str, body: &[u8]) -> Response {
    let bad = |msg: &str| Response::error(400, "bad-request", msg);
    let Some(nl) = body.iter().position(|&b| b == b'\n') else {
        return bad("missing manifest length prefix");
    };
    let Ok(manifest_len) = std::str::from_utf8(body.get(..nl).unwrap_or_default())
        .unwrap_or("")
        .trim()
        .parse::<usize>()
    else {
        return bad("bad manifest length prefix");
    };
    let rest = body.get(nl + 1..).unwrap_or_default();
    // The length-prefix check and the slice are one `get`: a prefix
    // exceeding the remaining body cannot reach the parser, and no
    // arithmetic on the attacker's length happens outside it.
    let Some(manifest_bytes) = rest.get(..manifest_len) else {
        return bad("manifest length prefix exceeds body");
    };
    let Ok(manifest_str) = std::str::from_utf8(manifest_bytes) else {
        return bad("manifest must be utf-8");
    };
    let manifest = match parse_manifest(manifest_str) {
        Ok(m) => m,
        Err(e) => return protocol_error_response(&e.into()),
    };
    let mut received: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut reader = std::io::BufReader::new(rest.get(manifest_len..).unwrap_or_default());
    if let Err(e) = read_object_stream(&mut reader, |hash, payload| {
        received.insert(hash.to_string(), payload.to_vec());
        Ok(())
    }) {
        if matches!(e, HubError::TooLarge(_)) {
            return protocol_error_response(&e);
        }
        return bad(&format!("bad object stream: {e}"));
    }
    match hub.commit(name, &manifest, Source::Objects(&received)) {
        Ok(()) => Response::full(200, b"ok\n".to_vec()),
        Err(e) => error_response(&e),
    }
}
