//! `hubd` — the hosted hub server, one blocking thread per connection.
//!
//! One thread blocks in `accept` and hands every admitted socket to a
//! thread of its own, which serves exactly one request:
//!
//! ```text
//!   accept ──▶ read head ──▶ reserve body ──▶ read body ──▶ handler slot ──▶ route ──▶ write ──▶ close
//!     │                          │
//!     └─ over --max-conns: 503   └─ over the body budget: 503
//! ```
//!
//! Admission is counted under one lock ([`Admission`]): open
//! connections, their peak, the `--max-conns` cap and the aggregate
//! [`BodyBudget`]. Backpressure answers `503` + `Retry-After` in two
//! places: at accept once `--max-conns` connections are open (counted
//! in `hub_connections_rejected_total`), and after the head when a
//! declared request body would overrun the budget (counted in
//! `hub_body_rejected_total`). CPU-bound request handling (manifest
//! diffing, hash verification, publish assembly) is capped at `--jobs`
//! requests at once; a complete request waits for a free handler slot.
//!
//! Two timeout axes defend every connection: an **idle timeout** (no
//! read/write progress) and a **state deadline** (maximum wall time
//! reading one request, or waiting for a handler slot, which a
//! byte-at-a-time slowloris cannot reset by trickling traffic). Every
//! socket read is bounded by `min(idle timeout, time left before the
//! deadline)`, every socket write by the idle timeout. `/manifest`
//! serves the manifest each publication stores; `/objects` payloads
//! within the per-response `RESPONSE_LOAD_BUDGET` are read and verified
//! into memory, the rest stream from disk in [`FILE_CHUNK`] pieces, so
//! per-connection staged memory stays bounded no matter how large the
//! repo.
//!
//! [`HubServer::stop`] wakes the accept thread with a self-connect,
//! shuts down every open socket (which fails its thread's blocked read
//! or write at once) and joins every connection thread.
//!
//! ## Endpoints
//!
//! | method & path                  | body in            | body out |
//! |--------------------------------|--------------------|----------|
//! | `GET /repos`                   | —                  | repo names, one per line |
//! | `GET /search?q=<pct-pattern>`  | —                  | search hits (see `protocol::encode_hits`) |
//! | `GET /manifest/<name>`         | —                  | committed-content manifest |
//! | `POST /objects/<name>`         | "have" hashes      | object stream of missing objects |
//! | `POST /publish/<name>?phase=negotiate` | manifest   | "want" hashes, one per line |
//! | `POST /publish/<name>?phase=commit`    | manifest + object stream | `ok` |
//! | `GET /stats`                   | —                  | per-endpoint counters |
//! | `GET /metrics`                 | —                  | Prometheus text format (hub + process metrics) |
//!
//! Repository names are validated against path traversal before any
//! filesystem access; publishes go through `mh_dlv::Hub::commit` (atomic
//! replace-by-rename, shared with the directory hub), which checks and
//! stores the publication's manifest.

use crate::handlers;
use crate::http::{parse_request_head, response_head_bytes, Request, MAX_BODY_BYTES};
use crate::protocol::encode_error;
use crate::stats::{Endpoint, Stats};
use crate::HubError;
use mh_dlv::Hub;
use mh_par::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use mh_par::sync::thread::JoinHandle;
use mh_par::sync::{self, Condvar, Mutex};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning; [`HubServer::start`] uses the defaults, the CLI and
/// tests override through [`HubServer::start_with`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Handler slots: requests routed at once (default: the ambient
    /// `mh_par` thread count).
    pub jobs: Option<usize>,
    /// Maximum simultaneously open connections; beyond this, accepts are
    /// answered `503` + `Retry-After`.
    pub max_conns: usize,
    /// Reap a connection making no read/write progress for this long.
    pub idle_timeout: Duration,
    /// Reap a connection stuck in one state this long regardless of
    /// trickled progress (the anti-slowloris axis).
    pub state_deadline: Duration,
    /// Aggregate budget for declared request-body bytes buffered in
    /// userspace across all connections. A request whose declared body
    /// would overrun it is answered `503` + `Retry-After`; when nothing
    /// is in flight one body is always admitted regardless of size (so
    /// a single max-size publish can always make progress). Without
    /// this, `--max-conns` connections each declaring the per-request
    /// body cap could drive `max_conns × MAX_BODY_BYTES` of allocation.
    pub body_budget_bytes: u64,
    /// Handling time (ms) above which a request gets a slow-request
    /// warn line naming its trace id (0 disables).
    pub slow_ms: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            jobs: None,
            max_conns: 1024,
            idle_timeout: Duration::from_secs(10),
            state_deadline: Duration::from_secs(30),
            body_budget_bytes: 256 << 20,
            slow_ms: 1_000,
        }
    }
}

/// `Retry-After` seconds advertised on backpressure 503s.
const RETRY_AFTER_SECS: u32 = 1;

/// Per-read chunk size while receiving a request.
const READ_CHUNK: usize = 16 << 10;

/// Aggregate declared request-body bytes admitted for userspace
/// buffering across all open connections. Reserved when a request head
/// parses, released when its connection closes — the body `Vec` lives
/// until the request is handled, and connections carry one request
/// each.
#[derive(Debug)]
struct BodyBudget {
    cap: u64,
    in_use: u64,
}

impl BodyBudget {
    fn new(cap: u64) -> Self {
        Self { cap, in_use: 0 }
    }

    /// Admit `want` declared body bytes, or refuse. When nothing is in
    /// flight one body is always admitted (even past the cap): a single
    /// max-size request must be able to make progress, and the resulting
    /// bound is `max(cap, MAX_BODY_BYTES)` rather than unbounded.
    fn try_reserve(&mut self, want: u64) -> bool {
        if want == 0 {
            return true;
        }
        if self.in_use > 0 && self.in_use.saturating_add(want) > self.cap {
            return false;
        }
        self.in_use = self.in_use.saturating_add(want);
        true
    }

    fn release(&mut self, reserved: u64) {
        self.in_use = self.in_use.saturating_sub(reserved);
    }
}

/// Everything admission decides on, under one lock: the open
/// connections (checked against `--max-conns`) and the request-body
/// budget. Each open connection keeps its socket, so `stop` can unblock
/// the thread serving it, and that thread's handle, so `stop` can join
/// it.
#[derive(Debug)]
struct Admission {
    conns: BTreeMap<u64, Held>,
    next_id: u64,
    body: BodyBudget,
}

#[derive(Debug)]
struct Held {
    socket: Arc<TcpStream>,
    thread: Option<JoinHandle<()>>,
}

/// Fault-injection knobs for tests: while `drop_object_responses > 0`,
/// each `/objects` response is truncated mid-object and the connection
/// dropped (decremented per faulted response). Exercises client
/// retry/backoff and pull resumption.
#[derive(Debug, Default)]
pub struct Faults {
    pub drop_object_responses: AtomicU32,
}

impl Faults {
    pub(crate) fn take_object_drop(&self) -> bool {
        self.drop_object_responses
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// State shared by the accept thread and every connection thread.
#[derive(Debug)]
struct Shared {
    hub: Hub,
    config: Config,
    stats: Arc<Stats>,
    faults: Arc<Faults>,
    stop: AtomicBool,
    admission: Mutex<Admission>,
    /// Handler slots in use; at most `jobs`.
    busy: Mutex<usize>,
    slot_freed: Condvar,
    jobs: usize,
}

impl Shared {
    /// Count a new connection in, or refuse it at the `--max-conns` cap.
    fn admit(&self, socket: Arc<TcpStream>) -> Option<u64> {
        let mut adm = self.admission.lock();
        if adm.conns.len() >= self.config.max_conns {
            return None;
        }
        let id = adm.next_id;
        adm.next_id = id.wrapping_add(1);
        adm.conns.insert(
            id,
            Held {
                socket,
                thread: None,
            },
        );
        let open = adm.conns.len() as i64;
        self.stats.conn_open().set(open);
        if open > self.stats.conn_peak().get() {
            self.stats.conn_peak().set(open);
        }
        Some(id)
    }

    /// Record the thread serving connection `id`. A thread that already
    /// finished has removed its entry; its handle is simply dropped.
    fn attach(&self, id: u64, thread: JoinHandle<()>) {
        if let Some(held) = self.admission.lock().conns.get_mut(&id) {
            held.thread = Some(thread);
        }
    }

    fn reserve_body(&self, want: u64) -> bool {
        self.admission.lock().body.try_reserve(want)
    }

    /// Count connection `id` out and give back its body reservation.
    fn release(&self, id: u64, body_reserved: u64) {
        let mut adm = self.admission.lock();
        let gone = adm.conns.remove(&id);
        adm.body.release(body_reserved);
        self.stats.conn_open().set(adm.conns.len() as i64);
        drop(adm);
        drop(gone);
    }

    /// Wait for one of the `jobs` handler slots until `deadline`; `None`
    /// when the deadline passes or the server stops first.
    fn handler_slot(&self, deadline: Option<Instant>) -> Option<Slot<'_>> {
        let mut busy = self.busy.lock();
        while *busy >= self.jobs {
            let left = time_left(deadline, Duration::MAX);
            if left.is_zero() || self.stop.load(Ordering::SeqCst) {
                return None;
            }
            busy = self.slot_freed.wait_timeout(busy, left);
        }
        *busy = busy.saturating_add(1);
        Some(Slot(self))
    }
}

/// A held handler slot, freed on drop.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut busy = self.0.busy.lock();
        *busy = busy.saturating_sub(1);
        drop(busy);
        self.0.slot_freed.notify_one();
    }
}

/// An admitted connection's hold on [`Admission`]; dropping it (on
/// unwind too) counts the connection out and frees its body
/// reservation.
struct Ticket<'a> {
    shared: &'a Shared,
    id: u64,
    body_reserved: u64,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.shared.release(self.id, self.body_reserved);
    }
}

/// A running hub server; dropping it (or calling [`HubServer::stop`])
/// stops accepting, unblocks and joins every connection thread.
#[derive(Debug)]
pub struct HubServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl HubServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) serving the
    /// hub rooted at `root`, with `jobs` handler slots (default: the
    /// ambient `mh_par` thread count) and default limits.
    pub fn start(root: &Path, addr: &str, jobs: Option<usize>) -> Result<Self, HubError> {
        Self::start_with(
            root,
            addr,
            Config {
                jobs,
                ..Config::default()
            },
        )
    }

    /// [`HubServer::start`] with full server tuning.
    pub fn start_with(root: &Path, addr: &str, config: Config) -> Result<Self, HubError> {
        // Pre-register the process-wide series so `/metrics` exposes the
        // PAS / compression / worker-pool metrics at zero before any
        // request touches those code paths.
        mh_compress::register_metrics();
        mh_pas::register_metrics();
        mh_par::register_metrics();
        // The flight recorder is always on while a hub serves: recent
        // spans and warn/error events stay available at
        // `GET /debug/flightrec` even with span tracing off.
        mh_obs::flightrec::enable();
        // Hub::open creates the root directory and validates access.
        let hub = Hub::open(root).map_err(HubError::Dlv)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(Stats::new());
        let shared = Arc::new(Shared {
            hub,
            stats,
            faults: Arc::new(Faults::default()),
            stop: AtomicBool::new(false),
            admission: Mutex::new(Admission {
                conns: BTreeMap::new(),
                next_id: 0,
                body: BodyBudget::new(config.body_budget_bytes),
            }),
            busy: Mutex::new(0),
            slot_freed: Condvar::new(),
            jobs: config
                .jobs
                .unwrap_or_else(mh_par::current_threads)
                .clamp(1, 64),
            config,
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            Some(sync::thread::spawn(move || accept_loop(&listener, &shared)))
        };
        Ok(Self {
            shared,
            local_addr,
            accept_thread,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The `http://host:port` URL clients should use.
    pub fn url(&self) -> String {
        format!("http://{}", self.local_addr)
    }

    pub fn root(&self) -> &Path {
        self.shared.hub.root()
    }

    pub fn stats(&self) -> Arc<Stats> {
        Arc::clone(&self.shared.stats)
    }

    pub fn faults(&self) -> Arc<Faults> {
        Arc::clone(&self.shared.faults)
    }

    /// Graceful shutdown: stop accepting, unblock and join every
    /// connection thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Serve until the process is killed (the `modelhub hubd` CLI path).
    pub fn run(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    fn shutdown(&mut self) {
        let Some(accept) = self.accept_thread.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept; the thread sees `stop` and drops this
        // connection unserved.
        let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), Duration::from_secs(1));
        let _ = accept.join();
        // A shut-down socket fails its thread's read or write at once; a
        // thread waiting for a handler slot sees `stop` when notified.
        let threads: Vec<JoinHandle<()>> = {
            let mut adm = self.shared.admission.lock();
            adm.conns
                .values_mut()
                .filter_map(|held| {
                    let _ = held.socket.shutdown(Shutdown::Both);
                    held.thread.take()
                })
                .collect()
        };
        {
            let _busy = self.shared.busy.lock();
            self.shared.slot_freed.notify_all();
        }
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for HubServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where a self-connect reaches the listener: its own address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// `after` from now, or `None` (no deadline) if that overflows.
fn deadline_after(after: Duration) -> Option<Instant> {
    sync::now().checked_add(after)
}

/// Time left before `deadline`, capped at `cap`.
fn time_left(deadline: Option<Instant>, cap: Duration) -> Duration {
    deadline.map_or(cap, |d| d.saturating_duration_since(sync::now()).min(cap))
}

/// Chunk size for lazily-streamed file segments (and for the streaming
/// hash-verify pass that stages them).
pub(crate) const FILE_CHUNK: usize = 64 << 10;

/// A payload streamed from disk in bounded chunks as the response is
/// written: the staged segment costs one scratch buffer (≤
/// [`FILE_CHUNK`]), not the whole object — so a never-reading client
/// holds kilobytes, not the multi-GiB object it requested. The open
/// handle pins the inode, so a raced republish (replace-by-rename)
/// cannot swap the verified bytes out from under the stream.
#[derive(Debug)]
pub(crate) struct FileSeg {
    file: std::fs::File,
    /// Total payload length (what the object header declared).
    len: u64,
    /// Bytes not yet read out of the file.
    remaining: u64,
    /// Scratch chunk awaiting socket writes.
    buf: Vec<u8>,
}

impl FileSeg {
    pub(crate) fn new(file: std::fs::File, len: u64) -> Self {
        Self {
            file,
            len,
            remaining: len,
            buf: Vec::new(),
        }
    }

    /// Refill the scratch buffer with the next chunk. Errors (including
    /// premature EOF: the file shrank under us) are unrecoverable — the
    /// declared Content-Length can no longer be honored and the caller
    /// must drop the connection.
    // mh-audit: no_panic_zone
    fn refill(&mut self) -> Result<(), ()> {
        let want = usize::try_from(self.remaining.min(FILE_CHUNK as u64)).unwrap_or(FILE_CHUNK);
        self.buf.resize(want, 0);
        loop {
            match self.file.read(&mut self.buf) {
                Ok(0) => return Err(()), // premature EOF
                Ok(n) => {
                    self.buf.truncate(n);
                    self.remaining = self.remaining.saturating_sub(n as u64);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
    }
}

/// One write-buffer segment: owned bytes (heads, bodies, framing lines,
/// loaded objects) or a lazily chunk-streamed file.
#[derive(Debug)]
pub(crate) enum Seg {
    Owned(Vec<u8>),
    File(FileSeg),
}

impl Seg {
    /// In-memory bytes of this segment right now (a `File` segment
    /// exposes only its current scratch chunk).
    fn as_slice(&self) -> &[u8] {
        match self {
            Self::Owned(v) => v,
            Self::File(f) => &f.buf,
        }
    }

    /// Total bytes this segment contributes to the response body.
    fn len(&self) -> u64 {
        match self {
            Self::Owned(v) => v.len() as u64,
            Self::File(f) => f.len,
        }
    }
}

/// A fully-staged response: HTTP head + body segments. `truncated`
/// marks fault-injected partial streams (declared length not delivered)
/// so stats record the outcome as an error even on status 200.
#[derive(Debug)]
pub(crate) struct Response {
    status: u16,
    segs: Vec<Seg>,
    head_len: u64,
    truncated: bool,
}

impl Response {
    pub(crate) fn new(status: u16, declared_len: u64, body: Vec<Seg>, truncated: bool) -> Self {
        let head = response_head_bytes(status, declared_len, None);
        let head_len = head.len() as u64;
        let mut segs = Vec::with_capacity(body.len() + 1);
        segs.push(Seg::Owned(head));
        segs.extend(body);
        Self {
            status,
            segs,
            head_len,
            truncated,
        }
    }

    pub(crate) fn full(status: u16, body: Vec<u8>) -> Self {
        let len = body.len() as u64;
        Self::new(status, len, vec![Seg::Owned(body)], false)
    }

    pub(crate) fn error(status: u16, code: &str, message: &str) -> Self {
        Self::full(status, encode_error(code, message).into_bytes())
    }

    /// Backpressure answer: 503 with `Retry-After`.
    fn saturated(message: &str) -> Self {
        let body = encode_error("saturated", message).into_bytes();
        let head = response_head_bytes(503, body.len() as u64, Some(RETRY_AFTER_SECS));
        let head_len = head.len() as u64;
        Self {
            status: 503,
            segs: vec![Seg::Owned(head), Seg::Owned(body)],
            head_len,
            truncated: false,
        }
    }
}

/// The accept thread: give each admitted connection a thread of its
/// own, answer the rest `503` at the `--max-conns` cap. Returns once
/// `stop` is raised; the self-connect that wakes it goes unserved.
// mh-audit: no_panic_zone
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            continue; // transient accept failure
        };
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        let Some(id) = shared.admit(Arc::clone(&stream)) else {
            // The tiny 503 fits a fresh socket's send buffer, and the
            // write timeout bounds even that.
            shared.stats.conn_rejected().inc();
            let resp = Response::saturated("connection limit reached");
            respond(shared, &stream, Endpoint::Other, 0, resp);
            continue;
        };
        let conn_shared = Arc::clone(shared);
        let thread = sync::thread::spawn(move || serve(&conn_shared, &stream, id));
        shared.attach(id, thread);
    }
}

/// A connection thread: read one request, route it in a handler slot,
/// write the response, close (`Connection: close` — one request per
/// connection). Records the connection's stats exactly once.
// mh-audit: no_panic_zone
fn serve(shared: &Shared, stream: &TcpStream, id: u64) {
    let mut ticket = Ticket {
        shared,
        id,
        body_reserved: 0,
    };
    let (ep, bytes_in, resp) = match receive(shared, stream, &mut ticket) {
        Ok(req) => {
            let ep = classify(&req.path);
            (ep, req.body.len() as u64, handle(shared, &req, ep))
        }
        Err(resp) => (Endpoint::Other, 0, resp),
    };
    match resp {
        Some(resp) => respond(shared, stream, ep, bytes_in, resp),
        None => shared.stats.record(ep, bytes_in, 0, true),
    }
}

/// Write `resp` under the idle timeout and record the connection's
/// stats.
fn respond(shared: &Shared, stream: &TcpStream, ep: Endpoint, bytes_in: u64, mut resp: Response) {
    let idle = shared.config.idle_timeout;
    let (written, sent) = match stream.set_write_timeout(Some(idle)) {
        Ok(()) => write_response(stream, &mut resp, idle),
        Err(_) => (0, false),
    };
    let error = !sent || resp.status >= 400 || resp.truncated;
    let body_out = written.saturating_sub(resp.head_len);
    shared.stats.record(ep, bytes_in, body_out, error);
}

/// Read one request: the head, then — once its declared length is
/// admitted against the body budget — the body. Every read is bounded
/// by the idle timeout and by what is left of the state deadline.
/// `Err(Some(_))` answers with an error response; `Err(None)` closes as
/// an error (timeout or transport failure).
// mh-audit: no_panic_zone
fn receive(
    shared: &Shared,
    stream: &TcpStream,
    ticket: &mut Ticket<'_>,
) -> Result<Request, Option<Response>> {
    let deadline = deadline_after(shared.config.state_deadline);
    let idle = shared.config.idle_timeout;
    let malformed = || Some(Response::error(400, "bad-request", "malformed request"));
    let mut buf = Vec::new();
    let head = loop {
        match parse_request_head(&buf) {
            Ok(Some(head)) => break head,
            Ok(None) => {}
            Err(e) => return Err(Some(protocol_error_response(&e))),
        }
        match read_some(stream, &mut buf, time_left(deadline, idle)) {
            Ok(0) => return Err(malformed()), // hung up before a complete head
            Ok(_) => {}
            Err(()) => return Err(None),
        }
    };
    if head.content_length > MAX_BODY_BYTES {
        let msg = format!("request body too large ({} bytes)", head.content_length);
        return Err(Some(Response::error(400, "bad-request", &msg)));
    }
    // Refusal is backpressure (retryable), not a protocol error.
    if !shared.reserve_body(head.content_length) {
        shared.stats.body_rejected().inc();
        return Err(Some(Response::saturated("request-body budget exhausted")));
    }
    ticket.body_reserved = head.content_length;
    // EOF with the request complete is the half-close idiom (send,
    // shut down the write side, await the response); bytes past the
    // declared body are ignored.
    let end = head.head_len.saturating_add(head.content_length as usize);
    while buf.len() < end {
        match read_some(stream, &mut buf, time_left(deadline, idle)) {
            Ok(0) => return Err(malformed()),
            Ok(_) => {}
            Err(()) => return Err(None),
        }
    }
    let body = buf
        .get(head.head_len..end)
        .map(<[u8]>::to_vec)
        .unwrap_or_default();
    Ok(Request {
        method: head.method,
        path: head.path,
        query: head.query,
        trace: head.trace,
        body,
    })
}

/// One blocking read of up to [`READ_CHUNK`] bytes onto `buf`, giving
/// up after `timeout`; `Ok(0)` is EOF.
// mh-audit: no_panic_zone
fn read_some(stream: &TcpStream, buf: &mut Vec<u8>, timeout: Duration) -> Result<usize, ()> {
    if timeout.is_zero() || stream.set_read_timeout(Some(timeout)).is_err() {
        return Err(());
    }
    let mut chunk = [0u8; READ_CHUNK];
    let mut sock = stream;
    loop {
        match sock.read(&mut chunk) {
            Ok(n) => {
                buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                return Ok(n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Route a complete request once a handler slot frees, waiting at most
/// one state deadline for it; `None` if the deadline passes (or the
/// server stops) first.
fn handle(shared: &Shared, req: &Request, ep: Endpoint) -> Option<Response> {
    let _slot = shared.handler_slot(deadline_after(shared.config.state_deadline))?;
    let resp = process(shared, req, ep);
    // Make the request's trace durable before answering: the JSONL sink
    // buffers, and a served hub is usually stopped by signal, which
    // never reaches a flush.
    if mh_obs::enabled() {
        mh_obs::flush();
    }
    Some(resp)
}

/// Write progress is counted in units of this many bytes, and the idle
/// timeout may not pass between two of them. A peer that has stopped
/// reading cannot hold its connection by letting the kernel open its
/// receive window a few bytes at a time.
const PROGRESS_BYTES: u64 = 256 << 10;

/// Write a staged response with blocking writes, each bounded by the
/// socket's write timeout. Returns the bytes written (head included)
/// and whether the whole response went out. `File` segments refill
/// their scratch chunk from disk as it drains, so write memory stays
/// one [`FILE_CHUNK`] however large the payload; a file that ends
/// before its declared length fails the response.
// mh-audit: no_panic_zone
fn write_response(mut out: impl Write, resp: &mut Response, idle: Duration) -> (u64, bool) {
    let mut pace = Pace {
        written: 0,
        mark: 0,
        since: sync::now(),
        idle,
    };
    for seg in &mut resp.segs {
        let sent = match seg {
            Seg::File(fs) => loop {
                if fs.remaining == 0 {
                    break Ok(());
                }
                if let Err(()) = fs.refill().and_then(|()| pace.send(&mut out, &fs.buf)) {
                    break Err(());
                }
            },
            seg => pace.send(&mut out, seg.as_slice()),
        };
        if sent.is_err() {
            return (pace.written, false);
        }
    }
    (pace.written, true)
}

/// Bytes written so far, and at which count and when the idle clock
/// last restarted.
struct Pace {
    written: u64,
    mark: u64,
    since: Instant,
    idle: Duration,
}

impl Pace {
    /// Write all of `bytes`; fails once the idle timeout passes without
    /// [`PROGRESS_BYTES`] going out.
    fn send(&mut self, out: &mut impl Write, mut bytes: &[u8]) -> Result<(), ()> {
        while !bytes.is_empty() {
            match out.write(bytes) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.written = self.written.saturating_add(n as u64);
                    bytes = bytes.get(n..).unwrap_or_default();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
            let now = sync::now();
            if self.written.saturating_sub(self.mark) >= PROGRESS_BYTES {
                self.mark = self.written;
                self.since = now;
            } else if now.saturating_duration_since(self.since) >= self.idle {
                return Err(());
            }
        }
        Ok(())
    }
}

/// Map a request-parse error to its response: TooLarge → 422,
/// everything else → 400.
pub(crate) fn protocol_error_response(e: &HubError) -> Response {
    let (status, code) = match e {
        HubError::TooLarge(_) => (422, "too-large"),
        _ => (400, "bad-request"),
    };
    Response::error(status, code, &e.to_string())
}

fn classify(path: &str) -> Endpoint {
    if path == "/repos" {
        Endpoint::Repos
    } else if path == "/stats" {
        Endpoint::Stats
    } else if path == "/metrics" {
        Endpoint::Metrics
    } else if path == "/search" {
        Endpoint::Search
    } else if path == "/debug/flightrec" {
        Endpoint::Flightrec
    } else if path.starts_with("/manifest/") {
        Endpoint::Manifest
    } else if path.starts_with("/objects/") {
        Endpoint::Objects
    } else if path.starts_with("/publish/") {
        Endpoint::Publish
    } else {
        Endpoint::Other
    }
}

/// Request handling: route, stage the response. Everything reachable
/// from here handles attacker-controlled bytes, so the whole router is
/// a no-panic zone — a request must never kill its thread.
///
/// The client's trace context (parsed from the `mh-trace` header) is
/// re-established on the connection thread, so the `hub.request` span —
/// and every span routing opens beneath it — carries the client's
/// 128-bit trace id and parents under the client's rpc span.
// mh-audit: no_panic_zone
fn process(shared: &Shared, req: &Request, ep: Endpoint) -> Response {
    mh_obs::with_context(req.trace, || {
        let mut sp = mh_obs::span("hub.request");
        if sp.is_recording() {
            sp.field("endpoint", ep.name());
            sp.field("method", &req.method);
            sp.add_bytes_in(req.body.len() as u64);
        }
        let start = sync::now();
        let resp = handlers::route(&shared.hub, req, &shared.stats, &shared.faults);
        let dur_ms = start.elapsed().as_secs_f64() * 1_000.0;
        shared.stats.record_duration(ep, dur_ms);
        let error = resp.status >= 400 || resp.truncated;
        if error {
            // Lands in the flight recorder (and stderr when warn is
            // enabled) with the trace id, so a failing request's recent
            // history survives in the server log.
            mh_obs::warn!(
                "hub: request error endpoint={} status={} truncated={} trace={:032x}",
                ep.name(),
                resp.status,
                resp.truncated,
                req.trace.trace,
            );
        }
        let slow_ms = shared.config.slow_ms;
        if slow_ms > 0 && dur_ms >= slow_ms as f64 {
            mh_obs::warn!(
                "hub: slow request endpoint={} dur_ms={:.1} trace={:032x}",
                ep.name(),
                dur_ms,
                req.trace.trace,
            );
        }
        if sp.is_recording() {
            let body_len: u64 = resp
                .segs
                .iter()
                .map(Seg::len)
                .sum::<u64>()
                .saturating_sub(resp.head_len);
            sp.add_bytes_out(body_len);
            sp.field("error", error);
        }
        resp
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_staging_separates_head_from_body() {
        let r = Response::full(200, b"hello".to_vec());
        assert_eq!(r.segs.len(), 2);
        let head = r.segs.first().map(|s| s.as_slice().to_vec()).unwrap();
        assert_eq!(head.len() as u64, r.head_len);
        assert!(String::from_utf8_lossy(&head).contains("Content-Length: 5"));
        assert!(!r.truncated);
    }

    #[test]
    fn saturated_response_advertises_retry_after() {
        let r = Response::saturated("full");
        assert_eq!(r.status, 503);
        let head = r.segs.first().map(|s| s.as_slice().to_vec()).unwrap();
        assert!(String::from_utf8_lossy(&head).contains("Retry-After: 1"));
    }

    #[test]
    fn file_segments_stream_lazily_in_bounded_chunks() {
        let dir = std::env::temp_dir().join(format!("mh-fileseg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Payload spans several FILE_CHUNKs so refill runs repeatedly.
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let path = dir.join("payload.bin");
        std::fs::write(&path, &payload).expect("write payload");
        let file = std::fs::File::open(&path).expect("open payload");
        let len = payload.len() as u64;
        let mut resp = Response::new(200, len, vec![Seg::File(FileSeg::new(file, len))], false);
        let head_len = resp.head_len as usize;

        let mut got = Vec::new();
        let (written, sent) = write_response(&mut got, &mut resp, Duration::from_secs(10));
        assert!(sent);
        assert_eq!(written, got.len() as u64);
        // The staged segment holds one scratch chunk, not the payload.
        for seg in &resp.segs {
            if let Seg::File(fs) = seg {
                assert!(fs.buf.len() <= FILE_CHUNK);
                assert_eq!(fs.remaining, 0, "file fully streamed");
            }
        }
        assert_eq!(got.len(), head_len + payload.len());
        assert_eq!(got.get(head_len..), Some(&payload[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_segment_closes_with_error() {
        let dir = std::env::temp_dir().join(format!("mh-filesegerr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("short.bin");
        std::fs::write(&path, vec![7u8; 100]).expect("write payload");
        let file = std::fs::File::open(&path).expect("open payload");
        // Declare more bytes than the file holds: the stream cannot honor
        // its Content-Length and must close as an error.
        let mut resp = Response::new(200, 500, vec![Seg::File(FileSeg::new(file, 500))], false);
        let mut got = Vec::new();
        let (written, sent) = write_response(&mut got, &mut resp, Duration::from_secs(10));
        assert!(!sent, "premature EOF must surface as an error close");
        assert_eq!(written, resp.head_len + 100, "what the file held went out");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn body_bytes_written_excludes_head() {
        let mut resp = Response::full(200, vec![7u8; 100]);
        let mut got = Vec::new();
        let (written, sent) = write_response(&mut got, &mut resp, Duration::from_secs(10));
        assert!(sent);
        assert_eq!(written, resp.head_len + 100);
        assert_eq!(written.saturating_sub(resp.head_len), 100);
    }

    #[test]
    fn wake_addr_maps_unspecified_to_loopback() {
        let any: SocketAddr = "0.0.0.0:7797".parse().unwrap();
        assert_eq!(wake_addr(any), "127.0.0.1:7797".parse().unwrap());
        let any6: SocketAddr = "[::]:7797".parse().unwrap();
        assert_eq!(wake_addr(any6), "[::1]:7797".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:80".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }
}
