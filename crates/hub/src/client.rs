//! [`RemoteHub`] — the client side of the hub wire protocol. Implements
//! `mh_dlv::HubBackend`, so `dlv publish/search/pull` work against
//! `http://host:port` specs exactly as against local hub directories.
//!
//! Resilience model:
//! - every request carries connect/read/write timeouts;
//! - transient failures (transport errors, 5xx, checksum mismatches) are
//!   retried with exponential backoff plus jitter, up to a bounded
//!   attempt count;
//! - pulls are resumable at object granularity: each verified object
//!   lands in a hash-keyed cache as it arrives, every retry re-negotiates
//!   with the server from what the cache already holds, and making
//!   progress resets the retry budget;
//! - publishes re-negotiate from scratch on retry (the server answers
//!   idempotently from its current content);
//! - every pulled repository passes `mh_dlv::fsck` (the verifier behind
//!   `modelhub fsck`) before the pull reports success.

use crate::http::{read_body, read_response_head, write_request, ResponseHead};
use crate::protocol::{
    parse_error, parse_hits, read_object_stream, write_object, write_object_stream_end,
};
use crate::stats::{parse_stats, StatLine};
use crate::{HubError, URL_PREFIX};
use mh_dlv::hash::Sha256;
use mh_dlv::{
    committed_manifest, encode_manifest, parse_manifest, pct_encode, pull_into, validate_repo_name,
    DlvError, HubBackend, ManifestEntry, Repository, SearchHit,
};
use std::collections::BTreeSet;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);
const DEFAULT_RETRIES: u32 = 4;
const DEFAULT_BACKOFF: Duration = Duration::from_millis(50);

/// Client for a remote `hubd` instance.
#[derive(Debug, Clone)]
pub struct RemoteHub {
    /// `host:port`, used both to connect and as the HTTP Host header.
    host: String,
    timeout: Duration,
    retries: u32,
    backoff: Duration,
    /// Hash-keyed object cache for resumable / incremental pulls. When
    /// unset, each pull uses an ephemeral cache removed on success.
    cache: Option<PathBuf>,
}

impl RemoteHub {
    /// Parse an `http://host:port` hub spec.
    pub fn open(spec: &str) -> Result<Self, HubError> {
        let rest = spec.strip_prefix(URL_PREFIX).ok_or_else(|| {
            HubError::Protocol(format!("hub URL must start with http://: '{spec}'"))
        })?;
        let host = rest.trim_end_matches('/');
        if host.is_empty() || !host.contains(':') {
            return Err(HubError::Protocol(format!(
                "hub URL needs host:port: '{spec}'"
            )));
        }
        Ok(Self {
            host: host.to_string(),
            timeout: DEFAULT_TIMEOUT,
            retries: DEFAULT_RETRIES,
            backoff: DEFAULT_BACKOFF,
            cache: None,
        })
    }

    /// Use a persistent object cache, making repeat pulls of unchanged
    /// content transfer near-zero object bytes.
    pub fn with_cache(mut self, dir: &Path) -> Self {
        self.cache = Some(dir.to_path_buf());
        self
    }

    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    pub fn with_retries(mut self, retries: u32, backoff: Duration) -> Self {
        self.retries = retries.max(1);
        self.backoff = backoff;
        self
    }

    fn connect(&self) -> Result<TcpStream, HubError> {
        let addr = self
            .host
            .to_socket_addrs()
            .map_err(|e| HubError::Protocol(format!("cannot resolve '{}': {e}", self.host)))?
            .next()
            .ok_or_else(|| HubError::Protocol(format!("'{}' resolves to nothing", self.host)))?;
        let stream = TcpStream::connect_timeout(&addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(stream)
    }

    /// One buffered request/response; 4xx/5xx bodies become
    /// [`HubError::Server`]. Each attempt runs in its own `hub.rpc` span
    /// whose trace context crosses the wire as the `mh-trace` header, so
    /// the server's `hub.request` span joins the client's trace.
    fn attempt(&self, method: &str, target: &str, body: &[u8]) -> Result<Vec<u8>, HubError> {
        let mut sp = rpc_span(target);
        sp.add_bytes_out(body.len() as u64);
        let mut stream = self.connect()?;
        let ctx = mh_obs::current_context();
        write_request(&mut stream, method, target, &self.host, ctx, body)?;
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader)?;
        let body = read_body(&mut reader, &head)?;
        sp.add_bytes_in(body.len() as u64);
        check_status(&head, &body)?;
        Ok(body)
    }

    /// Retry wrapper: transient errors back off and retry, everything
    /// else surfaces immediately.
    fn with_retry<T>(&self, mut f: impl FnMut() -> Result<T, HubError>) -> Result<T, HubError> {
        let mut attempt = 0u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt + 1 < self.retries => {
                    self.sleep_backoff(attempt);
                    attempt += 1;
                }
                Err(e) if e.is_transient() => {
                    return Err(HubError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: e.to_string(),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn sleep_backoff(&self, attempt: u32) {
        let base = self.backoff.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(10));
        std::thread::sleep(Duration::from_millis(exp + jitter(base.max(1))));
    }

    fn request(&self, method: &str, target: &str, body: &[u8]) -> Result<Vec<u8>, HubError> {
        self.with_retry(|| self.attempt(method, target, body))
    }

    /// `GET /repos`.
    pub fn repositories(&self) -> Result<Vec<String>, HubError> {
        let body = self.request("GET", "/repos", b"")?;
        Ok(text(&body)?.lines().map(str::to_string).collect())
    }

    /// `GET /search?q=`.
    pub fn search(&self, pattern: &str) -> Result<Vec<SearchHit>, HubError> {
        let target = format!("/search?q={}", pct_encode(pattern));
        let body = self.request("GET", &target, b"")?;
        parse_hits(&text(&body)?)
    }

    /// `GET /manifest/<name>` — the committed-content manifest of a
    /// published repository.
    pub fn manifest(&self, name: &str) -> Result<Vec<ManifestEntry>, HubError> {
        validate_repo_name(name).map_err(HubError::Dlv)?;
        let body = self.request("GET", &format!("/manifest/{name}"), b"")?;
        Ok(parse_manifest(&text(&body)?)?)
    }

    /// `GET /stats` — the server's per-endpoint counters.
    pub fn stats(&self) -> Result<Vec<StatLine>, HubError> {
        let body = self.request("GET", "/stats", b"")?;
        Ok(parse_stats(&text(&body)?))
    }

    /// `GET /metrics` — the server's Prometheus text-format exposition
    /// (hub request counters plus process-wide PAS/compression metrics).
    pub fn metrics_text(&self) -> Result<String, HubError> {
        let body = self.request("GET", "/metrics", b"")?;
        text(&body)
    }

    /// `GET /debug/flightrec` — the server's flight-recorder dump: the
    /// most recent span records and warn/error log events as JSONL,
    /// captured even when tracing is off.
    pub fn flightrec_text(&self) -> Result<String, HubError> {
        let body = self.request("GET", "/debug/flightrec", b"")?;
        text(&body)
    }

    /// Incremental publish: negotiate which objects the hub is missing
    /// under `name`, then upload exactly those plus the manifest in one
    /// atomic commit. Retries restart from negotiation, so a hub state
    /// change between attempts is handled.
    pub fn publish_repo(&self, repo: &Repository, name: &str) -> Result<(), HubError> {
        validate_repo_name(name).map_err(HubError::Dlv)?;
        let manifest = committed_manifest(repo).map_err(HubError::Dlv)?;
        let manifest_body = encode_manifest(&manifest);
        self.with_retry(|| {
            let wants_raw = self.attempt(
                "POST",
                &format!("/publish/{name}?phase=negotiate"),
                manifest_body.as_bytes(),
            )?;
            let wants: BTreeSet<String> = text(&wants_raw)?.lines().map(str::to_string).collect();
            let mut body = Vec::new();
            body.extend_from_slice(format!("{}\n", manifest_body.len()).as_bytes());
            body.extend_from_slice(manifest_body.as_bytes());
            let mut transfer = Sha256::new();
            let mut sent = BTreeSet::new();
            for entry in &manifest {
                if wants.contains(&entry.hash) && sent.insert(entry.hash.clone()) {
                    let data = std::fs::read(repo.root().join(&entry.path))
                        .map_err(|e| HubError::Dlv(DlvError::Io(e)))?;
                    write_object(&mut body, &entry.hash, &data, &mut transfer)
                        .map_err(HubError::from)?;
                }
            }
            write_object_stream_end(&mut body, transfer).map_err(HubError::from)?;
            self.attempt("POST", &format!("/publish/{name}?phase=commit"), &body)?;
            Ok(())
        })
    }

    /// Pull `name` into `dest` (which must not exist) through
    /// [`pull_into`]: fetch the manifest, fill the object cache, and let
    /// the shared pull assemble, verify (`mh_dlv::fsck`) and rename the
    /// repository.
    pub fn pull_repo(&self, name: &str, dest: &Path) -> Result<Repository, HubError> {
        // Without a persistent cache, objects land in a hidden sibling of
        // `dest`, removed once the pull is done. Naming it after `dest`
        // needs no unique suffix: only one pull can create `dest`, and
        // every object in the cache was verified against its hash.
        let cache_dir = self.cache.clone().unwrap_or_else(|| {
            let dest_name = dest.file_name().unwrap_or_default().to_string_lossy();
            dest.with_file_name(format!(".pullcache-{dest_name}"))
        });
        let pulled = pull_into(dest, || {
            let manifest = self.manifest(name)?;
            std::fs::create_dir_all(&cache_dir).map_err(HubError::Io)?;
            self.fill_cache(name, &manifest, &cache_dir)?;
            Ok(manifest
                .into_iter()
                .map(|e| (cache_dir.join(e.hash), e.path))
                .collect())
        });
        if self.cache.is_none() {
            let _ = std::fs::remove_dir_all(&cache_dir);
        }
        pulled
    }

    /// Object-granular resumable fetch: every verified object persists in
    /// the cache immediately, each round re-negotiates from the cache
    /// contents, and progress resets the retry budget.
    fn fill_cache(
        &self,
        name: &str,
        manifest: &[ManifestEntry],
        cache_dir: &Path,
    ) -> Result<(), HubError> {
        let needed: BTreeSet<&str> = manifest.iter().map(|e| e.hash.as_str()).collect();
        let mut attempt = 0u32;
        loop {
            let haves: BTreeSet<&str> = needed
                .iter()
                .copied()
                .filter(|h| cache_dir.join(h).is_file())
                .collect();
            if haves.len() == needed.len() {
                return Ok(());
            }
            let mut received = 0usize;
            match self.fetch_objects(name, &haves, cache_dir, &mut received) {
                Ok(()) => {}
                Err(e) if e.is_transient() => {
                    if received > 0 {
                        attempt = 0; // progress: reset the budget
                    } else if attempt + 1 >= self.retries {
                        return Err(HubError::RetriesExhausted {
                            attempts: attempt + 1,
                            last: e.to_string(),
                        });
                    } else {
                        attempt += 1;
                    }
                    self.sleep_backoff(attempt.min(4));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One `/objects` round: send the cache's hashes as "have", stream
    /// the server's missing objects into the cache (tmp + rename, so a
    /// torn write never poisons the cache). `received` counts verified
    /// objects delivered this round even when the stream later breaks.
    fn fetch_objects(
        &self,
        name: &str,
        haves: &BTreeSet<&str>,
        cache_dir: &Path,
        received: &mut usize,
    ) -> Result<(), HubError> {
        let mut sp = rpc_span("/objects");
        let mut stream = self.connect()?;
        let haves_body: String = haves.iter().map(|h| format!("{h}\n")).collect();
        sp.add_bytes_out(haves_body.len() as u64);
        write_request(
            &mut stream,
            "POST",
            &format!("/objects/{name}"),
            &self.host,
            mh_obs::current_context(),
            haves_body.as_bytes(),
        )?;
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader)?;
        if head.status >= 400 {
            let body = read_body(&mut reader, &head)?;
            check_status(&head, &body)?;
        }
        sp.add_bytes_in(head.content_length);
        read_object_stream(&mut reader, |hash, payload| {
            let to = cache_dir.join(hash);
            if !to.is_file() {
                let tmp = cache_dir.join(format!(".{hash}.tmp{}", std::process::id()));
                std::fs::write(&tmp, payload).map_err(HubError::Io)?;
                std::fs::rename(&tmp, &to).map_err(HubError::Io)?;
            }
            *received += 1;
            Ok(())
        })?;
        Ok(())
    }
}

/// Open the `hub.rpc` span for one request attempt. The thread's trace
/// id is minted first (when anything records spans) so the rpc span
/// itself carries it; while the span is open, `mh_obs::current_context()`
/// is exactly the context to send in the `mh-trace` header — the trace id
/// plus the rpc span as the server's remote parent.
fn rpc_span(target: &str) -> mh_obs::Span {
    if mh_obs::enabled() || mh_obs::flightrec::armed() {
        mh_obs::begin_trace();
    }
    let mut sp = mh_obs::span("hub.rpc");
    sp.field("target", target);
    sp
}

impl HubBackend for RemoteHub {
    fn publish(&self, repo: &Repository, name: &str) -> Result<(), DlvError> {
        self.publish_repo(repo, name).map_err(HubError::into_dlv)
    }

    fn repositories(&self) -> Result<Vec<String>, DlvError> {
        RemoteHub::repositories(self).map_err(HubError::into_dlv)
    }

    fn search(&self, pattern: &str) -> Result<Vec<SearchHit>, DlvError> {
        RemoteHub::search(self, pattern).map_err(HubError::into_dlv)
    }

    fn pull(&self, name: &str, dest: &Path) -> Result<Repository, DlvError> {
        self.pull_repo(name, dest).map_err(HubError::into_dlv)
    }
}

fn check_status(head: &ResponseHead, body: &[u8]) -> Result<(), HubError> {
    if head.status >= 400 {
        return Err(parse_error(head.status, &String::from_utf8_lossy(body)));
    }
    Ok(())
}

fn text(body: &[u8]) -> Result<String, HubError> {
    String::from_utf8(body.to_vec())
        .map_err(|_| HubError::Protocol("non-utf8 response body".to_string()))
}

/// Small xorshift-based jitter in `[0, limit)` — no RNG dependency.
fn jitter(limit: u64) -> u64 {
    static STATE: AtomicU64 = AtomicU64::new(0);
    let mut s = STATE.load(Ordering::Relaxed);
    if s == 0 {
        s = u64::from(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0x9e37),
        ) | 1;
    }
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    STATE.store(s, Ordering::Relaxed);
    if limit == 0 {
        0
    } else {
        s % limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing() {
        let h = RemoteHub::open("http://127.0.0.1:8080").unwrap();
        assert_eq!(h.host, "127.0.0.1:8080");
        let h = RemoteHub::open("http://127.0.0.1:8080/").unwrap();
        assert_eq!(h.host, "127.0.0.1:8080");
        assert!(RemoteHub::open("ftp://x:1").is_err());
        assert!(RemoteHub::open("http://noport").is_err());
        assert!(crate::is_remote_spec("http://h:1"));
        assert!(!crate::is_remote_spec("/var/hub"));
    }

    #[test]
    fn jitter_is_bounded() {
        for _ in 0..100 {
            assert!(jitter(50) < 50);
        }
        assert_eq!(jitter(0), 0);
    }
}
