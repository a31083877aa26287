//! `hubd` — the hosted hub server, built on a nonblocking reactor.
//!
//! One reactor thread owns every socket: a nonblocking listener, a wake
//! socket, and up to `--max-conns` client connections, multiplexed
//! through [`crate::reactor::Poller`] (epoll on Linux, portable
//! fallback elsewhere). Each connection is a small state machine:
//!
//! ```text
//!   accept ──▶ Reading ──▶ Dispatched ──▶ Writing ──▶ close
//!                │  (request complete:      ▲  │
//!                │   job → mh_par pool)     │  └─ partial writes resume
//!                │                          │     on EPOLLOUT
//!                └─ parse error ────────────┘  (completion queue + wake
//!                   (error response)            socket re-enter reactor)
//! ```
//!
//! CPU-bound request handling (manifest diffing, hash verification,
//! publish assembly) runs on the fixed `mh_par` worker pool; finished
//! responses come back through an `mh_par::CompletionQueue` whose waker
//! writes one byte to the wake socket, so the reactor never misses a
//! completion while parked in the poller (the handoff discipline is
//! model-checked in `mh_par::completion`).
//!
//! Two timeout axes defend every connection slot: an **idle timeout**
//! (no read/write progress) and a **per-state deadline** (maximum wall
//! time in one state, which a byte-at-a-time slowloris cannot reset by
//! trickling traffic). Backpressure answers `503` + `Retry-After` in
//! two places: at accept once `--max-conns` connections are open
//! (counted in `hub_connections_rejected_total`), and at head-parse
//! when a declared request body would overrun the reactor-wide
//! [`BodyBudget`] (counted in `hub_body_rejected_total`). A full worker
//! queue is *not* a rejection: complete requests park FIFO in
//! `ConnState::Queued` and retry as completions free slots. Hot objects
//! and manifest responses serve from the byte-budgeted
//! [`crate::cache::ObjectCache`] as zero-copy `Arc` segments on the
//! write buffer; payloads past the per-response
//! [`RESPONSE_LOAD_BUDGET`] (or too large for the cache to ever admit)
//! stream lazily from disk in bounded chunks, so per-connection staged
//! memory stays bounded no matter how large the repo.
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
//! replace-by-rename, shared with the directory hub) and invalidate the
//! repo's cached manifest.

use crate::cache::ObjectCache;
use crate::handlers;
use crate::http::{parse_request_head, response_head_bytes, Request, RequestHead, MAX_BODY_BYTES};
use crate::protocol::encode_error;
use crate::reactor::{fd_of_listener, fd_of_stream, Event, Interest, Poller};
use crate::stats::{Endpoint, Stats};
use crate::HubError;
use mh_dlv::Hub;
use mh_par::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use mh_par::sync::thread::JoinHandle;
use mh_par::{sync, BoundedQueue, CompletionQueue, TryPushError};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reactor tuning; [`HubServer::start`] uses the defaults, the CLI and
/// tests override through [`HubServer::start_with`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker pool width (default: the ambient `mh_par` thread count).
    pub jobs: Option<usize>,
    /// Maximum simultaneously open connections; beyond this, accepts are
    /// answered `503` + `Retry-After`.
    pub max_conns: usize,
    /// Byte budget for the hot-object/manifest cache (0 disables it).
    pub cache_bytes: usize,
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
    /// Worker-side handling time (ms) above which a request gets a
    /// slow-request warn line naming its trace id (0 disables).
    pub slow_ms: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            jobs: None,
            max_conns: 1024,
            cache_bytes: 64 << 20,
            idle_timeout: Duration::from_secs(10),
            state_deadline: Duration::from_secs(30),
            body_budget_bytes: 256 << 20,
            slow_ms: 1_000,
        }
    }
}

/// `Retry-After` seconds advertised on backpressure 503s.
const RETRY_AFTER_SECS: u32 = 1;

/// Poller tokens 0 and 1 are reserved; connections start at 2.
const WAKE_TOKEN: usize = 0;
const LISTENER_TOKEN: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// Per-read chunk size in the Reading state.
const READ_CHUNK: usize = 16 << 10;

/// Most bytes one connection may pull off its socket in a single read
/// pass. Bounds how far a fast sender can grow its buffer before the
/// head is parsed (and its declared body admitted against the
/// [`BodyBudget`]), and keeps one firehose connection from hogging the
/// reactor. Level-triggered readiness re-delivers the remainder on the
/// next tick.
const MAX_READ_PASS_BYTES: usize = 256 << 10;

/// Aggregate declared request-body bytes admitted for userspace
/// buffering across all live connections (reactor-thread state, no
/// atomics needed). Reserved when a request head parses, released when
/// its connection closes — the body `Vec` lives until the response is
/// done, and connections carry one request each.
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

/// A running hub server; dropping it (or calling [`HubServer::stop`])
/// shuts down the reactor, drains the worker pool, and joins every
/// thread.
#[derive(Debug)]
pub struct HubServer {
    hub: Arc<Hub>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Waker,
    jobs: Arc<BoundedQueue<Job>>,
    stats: Arc<Stats>,
    faults: Arc<Faults>,
    reactor_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

/// One byte to the reactor's wake socket. Nonblocking: a full socket
/// buffer means a wakeup is already pending, so `WouldBlock` is success.
#[derive(Debug)]
struct Waker {
    tx: TcpStream,
}

impl Waker {
    fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        Ok(Self {
            tx: self.tx.try_clone()?,
        })
    }
}

/// Loopback socketpair for the wake channel: connect to an ephemeral
/// listener and accept our own connection back (verified by peer
/// address, so a port-scanner racing the accept cannot hijack it).
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    let ours = tx.local_addr()?;
    for _ in 0..16 {
        let (rx, peer) = listener.accept()?;
        if peer == ours {
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let _ = tx.set_nodelay(true);
            return Ok((tx, rx));
        }
    }
    Err(std::io::Error::other("wake socketpair: peer never matched"))
}

impl HubServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) serving the
    /// hub rooted at `root`, with `jobs` workers (default: the ambient
    /// `mh_par` thread count) and default reactor limits.
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

    /// [`HubServer::start`] with full reactor tuning.
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
        let hub = Arc::new(Hub::open(root).map_err(HubError::Dlv)?);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers = config
            .jobs
            .unwrap_or_else(mh_par::current_threads)
            .clamp(1, 64);
        let jobs = Arc::new(BoundedQueue::<Job>::new(workers * 4));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Stats::new());
        let faults = Arc::new(Faults::default());
        let cache = Arc::new(ObjectCache::new(config.cache_bytes, stats.cache_metrics()));

        let (wake_tx, wake_rx) = wake_pair()?;
        let wake = Waker { tx: wake_tx };
        let completion_waker = wake.try_clone()?;
        let completions: Arc<CompletionQueue<Completion>> =
            Arc::new(CompletionQueue::new(move || completion_waker.wake()));

        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let jobs = Arc::clone(&jobs);
            let completions = Arc::clone(&completions);
            let stats = Arc::clone(&stats);
            let faults = Arc::clone(&faults);
            let cache = Arc::clone(&cache);
            let hub = Arc::clone(&hub);
            let slow_ms = config.slow_ms;
            worker_handles.push(sync::thread::spawn(move || {
                while let Some(job) = jobs.pop() {
                    let resp = process(&hub, &job, &stats, &faults, &cache, slow_ms);
                    // Make the request's trace durable before answering:
                    // the JSONL sink buffers, and a served hub is usually
                    // stopped by signal, which never reaches a flush.
                    if mh_obs::enabled() {
                        mh_obs::flush();
                    }
                    completions.push(Completion {
                        token: job.token,
                        resp,
                    });
                }
            }));
        }

        let reactor_handle = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let jobs = Arc::clone(&jobs);
            let config = config.clone();
            Some(sync::thread::spawn(move || {
                let mut reactor =
                    match Reactor::new(listener, wake_rx, stop, stats, jobs, completions, config) {
                        Ok(r) => r,
                        Err(_) => return,
                    };
                reactor.run();
            }))
        };

        Ok(Self {
            hub,
            local_addr,
            stop,
            wake,
            jobs,
            stats,
            faults,
            reactor_handle,
            worker_handles,
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
        self.hub.root()
    }

    pub fn stats(&self) -> Arc<Stats> {
        Arc::clone(&self.stats)
    }

    pub fn faults(&self) -> Arc<Faults> {
        Arc::clone(&self.faults)
    }

    /// Graceful shutdown: stop the reactor, drain workers, join threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Serve until the process is killed (the `modelhub hubd` CLI path).
    pub fn run(mut self) {
        if let Some(h) = self.reactor_handle.take() {
            let _ = h.join();
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(h) = self.reactor_handle.take() {
            let _ = h.join();
        }
        self.jobs.close_and_discard();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HubServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A parsed request handed to the worker pool.
#[derive(Debug)]
struct Job {
    token: usize,
    req: Request,
    ep: Endpoint,
}

/// A finished response on its way back to the reactor.
#[derive(Debug)]
struct Completion {
    token: usize,
    resp: Response,
}

/// Chunk size for lazily-streamed file segments (and for the streaming
/// hash-verify pass that stages them).
pub(crate) const FILE_CHUNK: usize = 64 << 10;

/// A payload streamed from disk in bounded chunks on write readiness:
/// the staged segment costs one scratch buffer (≤ [`FILE_CHUNK`]), not
/// the whole object — so a never-reading client holds kilobytes, not
/// the multi-GiB object it requested. The open handle pins the inode,
/// so a raced republish (replace-by-rename) cannot swap the verified
/// bytes out from under the stream. Chunk reads are blocking disk I/O
/// on the reactor thread, bounded at [`FILE_CHUNK`] per pass — the
/// standard tradeoff for a sendfile-less event loop.
#[derive(Debug)]
pub(crate) struct FileSeg {
    file: std::fs::File,
    /// Total payload length (what the object header declared).
    len: u64,
    /// Bytes not yet read out of the file.
    remaining: u64,
    /// Scratch chunk awaiting socket writes; the write cursor into it is
    /// the connection's `seg_pos`.
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
            // mh-audit: allow(R002, bounded FILE_CHUNK read of a local segment file — the documented serve-from-reactor tradeoff, see DESIGN.md)
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

/// One write-buffer segment: owned bytes (heads, error bodies, framing
/// lines), a zero-copy reference into the object cache, or a lazily
/// chunk-streamed file.
#[derive(Debug)]
pub(crate) enum Seg {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
    File(FileSeg),
}

impl Seg {
    /// In-memory bytes of this segment right now (a `File` segment
    /// exposes only its current scratch chunk).
    fn as_slice(&self) -> &[u8] {
        match self {
            Self::Owned(v) => v,
            Self::Shared(v) => v,
            Self::File(f) => &f.buf,
        }
    }

    /// Total bytes this segment contributes to the response body.
    fn len(&self) -> u64 {
        match self {
            Self::Owned(v) => v.len() as u64,
            Self::Shared(v) => v.len() as u64,
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

/// Per-connection state. `Reading` accumulates the head+body buffer;
/// `Queued` parks a complete request while the worker queue is full
/// (retried FIFO as completions free slots); `Dispatched` parks the
/// socket (interest `None`) while the worker pool holds the request;
/// `Writing` drains the segment list across partial writes.
#[derive(Debug)]
enum ConnState {
    Reading {
        buf: Vec<u8>,
        head: Option<RequestHead>,
        eof: bool,
    },
    Queued {
        job: Job,
    },
    Dispatched,
    Writing {
        resp: Response,
        seg_idx: usize,
        seg_pos: usize,
        written: u64,
    },
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    state: ConnState,
    interest: Interest,
    ep: Endpoint,
    bytes_in: u64,
    /// Declared body bytes this connection holds against the reactor's
    /// [`BodyBudget`]; released at close.
    body_reserved: u64,
    last_activity: Instant,
    state_entered: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream,
            state: ConnState::Reading {
                buf: Vec::new(),
                head: None,
                eof: false,
            },
            interest: Interest::Read,
            ep: Endpoint::Other,
            bytes_in: 0,
            body_reserved: 0,
            last_activity: now,
            state_entered: now,
        }
    }

    /// Body bytes that actually reached the socket so far.
    fn body_bytes_written(&self) -> u64 {
        match &self.state {
            ConnState::Writing { resp, written, .. } => written.saturating_sub(resp.head_len),
            _ => 0,
        }
    }
}

/// What to do with a connection after an I/O pass.
enum Disposition {
    Keep,
    /// Close and record stats; `error` marks failed/partial outcomes.
    Close {
        error: bool,
    },
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    wake_rx: TcpStream,
    stop: Arc<AtomicBool>,
    stats: Arc<Stats>,
    jobs: Arc<BoundedQueue<Job>>,
    completions: Arc<CompletionQueue<Completion>>,
    config: Config,
    conns: BTreeMap<usize, Conn>,
    /// Tokens whose requests are parked in `ConnState::Queued`, FIFO.
    queued: VecDeque<usize>,
    body_budget: BodyBudget,
    next_token: usize,
    events: Vec<Event>,
}

impl Reactor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        listener: TcpListener,
        wake_rx: TcpStream,
        stop: Arc<AtomicBool>,
        stats: Arc<Stats>,
        jobs: Arc<BoundedQueue<Job>>,
        completions: Arc<CompletionQueue<Completion>>,
        config: Config,
    ) -> std::io::Result<Self> {
        let mut poller = Poller::new()?;
        poller.register(fd_of_stream(&wake_rx), WAKE_TOKEN, Interest::Read)?;
        poller.register(fd_of_listener(&listener), LISTENER_TOKEN, Interest::Read)?;
        let body_budget = BodyBudget::new(config.body_budget_bytes);
        Ok(Self {
            poller,
            listener,
            wake_rx,
            stop,
            stats,
            jobs,
            completions,
            config,
            conns: BTreeMap::new(),
            queued: VecDeque::new(),
            body_budget,
            next_token: FIRST_CONN_TOKEN,
            events: Vec::new(),
        })
    }

    /// Poll tick: short enough that timeout reaping stays responsive
    /// even against sub-second test deadlines.
    fn tick(&self) -> Duration {
        let finest = self.config.idle_timeout.min(self.config.state_deadline);
        (finest / 4).clamp(Duration::from_millis(5), Duration::from_millis(200))
    }

    /// The event loop. Everything reachable from here handles
    /// attacker-controlled bytes, so the whole dispatch path is a
    /// no-panic zone — a connection must never be able to kill the
    /// reactor. It is also a nonblocking zone: one parked reactor
    /// stalls every connection, so no transitively-blocking call may
    /// be reachable (the poller's own bounded wait is the single
    /// waived exception).
    // mh-audit: no_panic_zone
    // mh-audit: nonblocking_zone
    fn run(&mut self) {
        loop {
            let tick = self.tick();
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller.wait(&mut events, tick);
            if self.stop.load(Ordering::SeqCst) {
                self.events = events;
                break;
            }
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => self.drain_wake(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, *ev),
                }
            }
            self.events = events;
            self.deliver_completions();
            self.drain_queued();
            self.reap_expired();
        }
        // Shutdown: every open connection is abandoned; account them as
        // errored so stats never silently lose a connection.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token, true);
        }
    }

    fn drain_wake(&mut self) {
        let mut scratch = [0u8; 256];
        loop {
            // mh-audit: allow(R002, wake pipe is set nonblocking at construction — a drained pipe returns WouldBlock instead of parking)
            match (&self.wake_rx).read(&mut scratch) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            // mh-audit: allow(R002, listener is set nonblocking — an empty backlog returns WouldBlock instead of parking)
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock or transient accept failure
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let now = sync::now();
            let token = self.next_token;
            self.next_token = self.next_token.wrapping_add(1).max(FIRST_CONN_TOKEN);
            let mut conn = Conn::new(stream, now);
            if self.conns.len() >= self.config.max_conns {
                // Saturated: answer 503 + Retry-After instead of queueing
                // the connection. The tiny response still goes through
                // the normal Writing machinery so a slow reject cannot
                // block the reactor either.
                self.stats.conn_rejected().inc();
                set_writing(
                    &mut conn,
                    Response::saturated("connection limit reached"),
                    now,
                );
            }
            let interest = conn.interest;
            if self
                .poller
                .register(fd_of_stream(&conn.stream), token, interest)
                .is_err()
            {
                continue;
            }
            self.conns.insert(token, conn);
            let open = self.conns.len() as i64;
            self.stats.conn_open().set(open);
            if open > self.stats.conn_peak().get() {
                self.stats.conn_peak().set(open);
            }
            // Drive freshly-accepted rejects immediately; their sockets
            // are almost always writable right now.
            if let Some(c) = self.conns.get(&token) {
                if matches!(c.state, ConnState::Writing { .. }) {
                    self.conn_ready(
                        token,
                        Event {
                            token,
                            readable: false,
                            writable: true,
                        },
                    );
                }
            }
        }
    }

    /// Advance one connection's state machine for a readiness event.
    fn conn_ready(&mut self, token: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let reading = matches!(conn.state, ConnState::Reading { .. });
        let writing = matches!(conn.state, ConnState::Writing { .. });
        let disposition = if reading && ev.readable {
            read_some(conn, &mut self.body_budget, &self.stats)
        } else if writing && ev.writable {
            write_some(conn)
        } else {
            Disposition::Keep
        };
        match disposition {
            Disposition::Keep => {
                self.after_progress(token);
            }
            Disposition::Close { error } => self.close_conn(token, error),
        }
    }

    /// Post-I/O transitions: dispatch completed requests, update poller
    /// interest to match the state.
    fn after_progress(&mut self, token: usize) {
        // A complete request leaves Reading: hand it to the pool, or
        // park it FIFO when the pool's queue is momentarily full — the
        // connection count is already bounded by `max_conns`, so the
        // parked set is too.
        let dispatch = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            take_ready_request(conn)
        };
        if let Some(req) = dispatch {
            let ep = classify(&req.path);
            let now = sync::now();
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.ep = ep;
            conn.bytes_in = req.body.len() as u64;
            conn.interest = Interest::None;
            conn.state_entered = now;
            conn.last_activity = now;
            match self.jobs.try_push(Job { token, req, ep }) {
                Ok(()) => {
                    conn.state = ConnState::Dispatched;
                }
                Err(TryPushError::Full(job)) => {
                    conn.state = ConnState::Queued { job };
                    self.queued.push_back(token);
                }
                Err(TryPushError::Closed(_)) => {
                    self.close_conn(token, true);
                    return;
                }
            }
        }
        self.sync_interest(token);
    }

    /// Retry parked dispatches in arrival order. Runs every loop pass:
    /// worker completions (and pops) free queue slots between passes.
    fn drain_queued(&mut self) {
        while let Some(&token) = self.queued.front() {
            let Some(conn) = self.conns.get_mut(&token) else {
                // Reaped while parked; drop the stale token.
                self.queued.pop_front();
                continue;
            };
            if !matches!(conn.state, ConnState::Queued { .. }) {
                self.queued.pop_front();
                continue;
            }
            let state = std::mem::replace(&mut conn.state, ConnState::Dispatched);
            let ConnState::Queued { job } = state else {
                continue; // unreachable: matched Queued above
            };
            match self.jobs.try_push(job) {
                Ok(()) => {
                    conn.state_entered = sync::now();
                    self.queued.pop_front();
                }
                Err(TryPushError::Full(job)) => {
                    // Still no room; put it back and stop — FIFO order.
                    conn.state = ConnState::Queued { job };
                    break;
                }
                Err(TryPushError::Closed(_)) => {
                    self.queued.pop_front();
                    self.close_conn(token, true);
                }
            }
        }
    }

    /// Reconcile poller interest with the connection's current state.
    fn sync_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = match &conn.state {
            ConnState::Reading { .. } => Interest::Read,
            ConnState::Queued { .. } | ConnState::Dispatched => Interest::None,
            ConnState::Writing { .. } => Interest::Write,
        };
        if conn.interest != want {
            let fd = fd_of_stream(&conn.stream);
            if self.poller.modify(fd, token, want).is_ok() {
                conn.interest = want;
            }
        }
    }

    /// Move finished worker responses onto their connections' write
    /// buffers and try an immediate flush (the common case: the whole
    /// response fits in the socket buffer in one pass).
    fn deliver_completions(&mut self) {
        for Completion { token, resp } in self.completions.drain() {
            let now = sync::now();
            match self.conns.get_mut(&token) {
                Some(conn) if matches!(conn.state, ConnState::Dispatched) => {
                    set_writing(conn, resp, now);
                }
                // Connection already reaped (timeout) or recycled: the
                // response has nowhere to go.
                _ => continue,
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                match write_some(conn) {
                    Disposition::Keep => self.sync_interest(token),
                    Disposition::Close { error } => self.close_conn(token, error),
                }
            }
        }
    }

    /// Enforce both timeout axes. A stalled connection is reaped without
    /// touching any other connection's progress.
    fn reap_expired(&mut self) {
        let now = sync::now();
        let idle = self.config.idle_timeout;
        let deadline = self.config.state_deadline;
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let idle_for = now.saturating_duration_since(c.last_activity);
                let in_state = now.saturating_duration_since(c.state_entered);
                match c.state {
                    // The pool decides how long request handling takes;
                    // only the overall state deadline applies while a
                    // request is queued or dispatched.
                    ConnState::Queued { .. } | ConnState::Dispatched => in_state > deadline,
                    _ => idle_for > idle || in_state > deadline,
                }
            })
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            self.close_conn(token, true);
        }
    }

    /// Record the connection's stats exactly once and drop it.
    fn close_conn(&mut self, token: usize, error: bool) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.body_budget.release(conn.body_reserved);
        let _ = self.poller.deregister(fd_of_stream(&conn.stream), token);
        self.stats.conn_open().set(self.conns.len() as i64);
        let status_error = match &conn.state {
            ConnState::Writing { resp, .. } => resp.status >= 400 || resp.truncated,
            _ => false,
        };
        self.stats.record(
            conn.ep,
            conn.bytes_in,
            conn.body_bytes_written(),
            error || status_error,
        );
    }
}

/// Enter the Writing state with a staged response.
fn set_writing(conn: &mut Conn, resp: Response, now: Instant) {
    conn.state = ConnState::Writing {
        resp,
        seg_idx: 0,
        seg_pos: 0,
        written: 0,
    };
    // Poller interest is reconciled by the caller via sync_interest.
    conn.state_entered = now;
    conn.last_activity = now;
}

/// Nonblocking read pass in the Reading state. Returns Close on fatal
/// parse errors only after staging the error response (so the close
/// goes through Writing); returns Close directly on transport failure.
/// At most [`MAX_READ_PASS_BYTES`] are buffered per pass, so the parse
/// (and the [`BodyBudget`] admission decision) runs before a fast
/// sender can grow the buffer unboundedly.
// mh-audit: no_panic_zone
fn read_some(conn: &mut Conn, budget: &mut BodyBudget, stats: &Stats) -> Disposition {
    let mut progressed = false;
    let mut transport_dead = false;
    {
        let ConnState::Reading { buf, head, eof } = &mut conn.state else {
            return Disposition::Keep;
        };
        let mut chunk = [0u8; READ_CHUNK];
        let mut pass_bytes = 0usize;
        loop {
            // Stop reading once the staged request is complete; anything
            // extra is ignored (one request per connection).
            if let Some(h) = head.as_ref() {
                let expect = h.head_len.saturating_add(h.content_length as usize);
                if buf.len() >= expect {
                    break;
                }
            }
            if pass_bytes >= MAX_READ_PASS_BYTES {
                break; // level-triggered readiness re-delivers the rest
            }
            // mh-audit: allow(R002, connection sockets are set nonblocking on accept — reads return WouldBlock instead of parking)
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // EOF with a complete request is the half-close idiom
                    // (send, shutdown write, await the response); an
                    // incomplete request at EOF is answered 400 below.
                    *eof = true;
                    break;
                }
                Ok(n) => {
                    buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                    pass_bytes = pass_bytes.saturating_add(n);
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    transport_dead = true;
                    break;
                }
            }
        }
    }
    if transport_dead {
        return Disposition::Close { error: true };
    }
    let now = sync::now();
    if progressed {
        conn.last_activity = now;
    }

    // Parse as far as the buffer allows.
    let ConnState::Reading { buf, head, eof } = &mut conn.state else {
        return Disposition::Keep;
    };
    if head.is_none() {
        match parse_request_head(buf) {
            Ok(Some(h)) => {
                if h.content_length > MAX_BODY_BYTES {
                    set_writing(
                        conn,
                        Response::error(
                            400,
                            "bad-request",
                            &format!("request body too large ({} bytes)", h.content_length),
                        ),
                        now,
                    );
                    return Disposition::Keep;
                }
                // Admit the declared body against the reactor-wide
                // budget before buffering it; refusal is backpressure
                // (retryable), not a protocol error.
                if !budget.try_reserve(h.content_length) {
                    stats.body_rejected().inc();
                    set_writing(
                        conn,
                        Response::saturated("request-body budget exhausted"),
                        now,
                    );
                    return Disposition::Keep;
                }
                conn.body_reserved = h.content_length;
                *head = Some(h);
            }
            Ok(None) => {
                if *eof {
                    // Peer hung up before completing a request head.
                    set_writing(
                        conn,
                        Response::error(400, "bad-request", "malformed request"),
                        now,
                    );
                    return Disposition::Keep;
                }
            }
            Err(e) => {
                let resp = protocol_error_response(&e);
                set_writing(conn, resp, now);
                return Disposition::Keep;
            }
        }
    }
    if let Some(h) = head.as_ref() {
        let expect = h.head_len.saturating_add(h.content_length as usize);
        if buf.len() < expect && *eof {
            set_writing(
                conn,
                Response::error(400, "bad-request", "malformed request"),
                now,
            );
        }
    }
    Disposition::Keep
}

/// If the Reading buffer holds a complete request, extract it.
fn take_ready_request(conn: &mut Conn) -> Option<Request> {
    let ConnState::Reading { buf, head, .. } = &mut conn.state else {
        return None;
    };
    let h = head.as_ref()?;
    let expect = h.head_len.saturating_add(h.content_length as usize);
    if buf.len() < expect {
        return None;
    }
    let body = buf
        .get(h.head_len..expect)
        .map(<[u8]>::to_vec)
        .unwrap_or_default();
    let h = head.take()?;
    buf.clear();
    Some(Request {
        method: h.method,
        path: h.path,
        query: h.query,
        trace: h.trace,
        body,
    })
}

/// Nonblocking write pass in the Writing state: drain segments until
/// done, blocked, or broken. `File` segments refill their bounded
/// scratch chunk from disk as the socket drains it, so per-connection
/// write memory stays O([`FILE_CHUNK`]) regardless of payload size.
// mh-audit: no_panic_zone
fn write_some(conn: &mut Conn) -> Disposition {
    let mut progressed = false;
    let done = {
        let ConnState::Writing {
            resp,
            seg_idx,
            seg_pos,
            written,
        } = &mut conn.state
        else {
            return Disposition::Keep;
        };
        loop {
            let Some(seg) = resp.segs.get_mut(*seg_idx) else {
                break true; // every segment fully written
            };
            if let Seg::File(fs) = seg {
                // Scratch drained with file bytes left: pull the next
                // chunk and restart the write cursor on it.
                if *seg_pos >= fs.buf.len() && fs.remaining > 0 {
                    if fs.refill().is_err() {
                        return Disposition::Close { error: true };
                    }
                    *seg_pos = 0;
                }
            }
            let rest = seg.as_slice().get(*seg_pos..).unwrap_or_default();
            if rest.is_empty() {
                *seg_idx = seg_idx.saturating_add(1);
                *seg_pos = 0;
                continue;
            }
            // mh-audit: allow(R002, connection sockets are set nonblocking on accept — writes return WouldBlock instead of parking)
            match (&conn.stream).write(rest) {
                Ok(0) => return Disposition::Close { error: true },
                Ok(n) => {
                    *seg_pos = seg_pos.saturating_add(n);
                    *written = written.saturating_add(n as u64);
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Disposition::Close { error: true },
            }
        }
    };
    if progressed {
        conn.last_activity = sync::now();
    }
    if done {
        // Connection: close — one request per connection.
        Disposition::Close { error: false }
    } else {
        Disposition::Keep
    }
}

/// Map a request-parse error to its response, preserving the blocking
/// server's status mapping (TooLarge → 422, everything else → 400).
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

/// Worker-side request handling: route, stage the response. Everything
/// reachable from here handles attacker-controlled bytes, so the whole
/// router is a no-panic zone — a request must never kill a worker.
///
/// The client's trace context (parsed from the `mh-trace` header) is
/// re-established on the worker thread, so the `hub.request` span — and
/// every span routing opens beneath it — carries the client's 128-bit
/// trace id and parents under the client's rpc span.
// mh-audit: no_panic_zone
fn process(
    hub: &Hub,
    job: &Job,
    stats: &Stats,
    faults: &Faults,
    cache: &ObjectCache,
    slow_ms: u64,
) -> Response {
    let req = &job.req;
    mh_obs::with_context(req.trace, || {
        let mut sp = mh_obs::span("hub.request");
        if sp.is_recording() {
            sp.field("endpoint", job.ep.name());
            sp.field("method", &req.method);
            sp.add_bytes_in(req.body.len() as u64);
        }
        let start = sync::now();
        let resp = handlers::route(hub, req, stats, faults, cache);
        let dur_ms = start.elapsed().as_secs_f64() * 1_000.0;
        stats.record_duration(job.ep, dur_ms);
        let error = resp.status >= 400 || resp.truncated;
        if error {
            // Lands in the flight recorder (and stderr when warn is
            // enabled) with the trace id, so a failing request's recent
            // history survives in the server log.
            mh_obs::warn!(
                "hub: request error endpoint={} status={} truncated={} trace={:032x}",
                job.ep.name(),
                resp.status,
                resp.truncated,
                req.trace.trace,
            );
        }
        if slow_ms > 0 && dur_ms >= slow_ms as f64 {
            mh_obs::warn!(
                "hub: slow request endpoint={} dur_ms={:.1} trace={:032x}",
                job.ep.name(),
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
        let resp = Response::new(200, len, vec![Seg::File(FileSeg::new(file, len))], false);
        let head_len = resp.head_len as usize;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        let reader = sync::thread::spawn(move || {
            let mut got = Vec::new();
            let mut c = client;
            c.read_to_end(&mut got).expect("drain stream");
            got
        });
        let mut conn = Conn::new(server_side, sync::now());
        set_writing(&mut conn, resp, sync::now());
        loop {
            match write_some(&mut conn) {
                Disposition::Close { error } => {
                    assert!(!error);
                    break;
                }
                Disposition::Keep => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        // The staged segment holds one scratch chunk, not the payload.
        if let ConnState::Writing { resp, .. } = &conn.state {
            for seg in &resp.segs {
                if let Seg::File(fs) = seg {
                    assert!(fs.buf.len() <= FILE_CHUNK);
                    assert_eq!(fs.remaining, 0, "file fully streamed");
                }
            }
        }
        drop(conn); // EOF for the reader
        let got = reader.join().expect("reader thread");
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
        let resp = Response::new(200, 500, vec![Seg::File(FileSeg::new(file, 500))], false);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(server_side, sync::now());
        set_writing(&mut conn, resp, sync::now());
        loop {
            match write_some(&mut conn) {
                Disposition::Close { error } => {
                    assert!(error, "premature EOF must surface as an error close");
                    break;
                }
                Disposition::Keep => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn body_bytes_written_excludes_head() {
        let resp = Response::full(200, vec![7u8; 100]);
        let head_len = resp.head_len;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(server_side, sync::now());
        set_writing(&mut conn, resp, sync::now());
        // A small response fits the socket buffer in one pass.
        loop {
            match write_some(&mut conn) {
                Disposition::Close { error } => {
                    assert!(!error);
                    break;
                }
                Disposition::Keep => continue,
            }
        }
        // write_some consumed the state on Close... the conn retains it.
        let ConnState::Writing { written, .. } = &conn.state else {
            panic!("still Writing");
        };
        assert_eq!(*written, head_len + 100);
        assert_eq!(conn.body_bytes_written(), 100);
    }
}
