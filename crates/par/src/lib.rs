//! # mh-par
//!
//! The workspace's work-scheduling layer: a scoped worker pool fed from a
//! bounded work queue, built on the workspace sync facade ([`sync`]). PAS
//! archival, segment retrieval, progressive evaluation, solver candidate
//! scoring, and `fsck --deep` all fan out through its two maps:
//! [`parallel_map`] (one task per item) and [`parallel_map_batched`]
//! (byte-budgeted chunks with worker-local scratch).
//!
//! Design rules, in priority order:
//!
//! 1. **Determinism.** Results are always assembled in input order, so a
//!    parallel run is bit-identical to the serial one. With one thread no
//!    worker is spawned at all — the closure runs inline, making the serial
//!    path *literally* the sequential code.
//! 2. **No deadlocks on failure.** A panicking worker poisons the queue:
//!    pending work is discarded, the producer unblocks, every worker
//!    drains, and the panic surfaces as [`PoolError::WorkerPanic`] instead
//!    of hanging the scope.
//! 3. **Bounded memory.** The queue holds at most a small multiple of the
//!    thread count, so a fast producer cannot buffer the whole input.
//!
//! Thread-count resolution (first match wins): the process-wide override
//! set by [`set_threads`] (the CLI `--jobs` flag), the `MH_THREADS`
//! environment variable, and finally
//! [`std::thread::available_parallelism`].
//!
//! All shared-state primitives come from [`sync`] — std-backed by
//! default, instrumented for the deterministic model checker under the
//! `model` feature (`cargo test -p mh-par --features model` runs the
//! exhaustive interleaving suites in `model_tests`).

pub mod sync;

/// The model checker itself, re-exported so downstream crates can write
/// model-checked tests (`mh_par::model::Builder`) without depending on
/// `mh-model` directly.
pub use mh_model as model;

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use sync::atomic::{AtomicUsize, Ordering};
use sync::{Condvar, Mutex};

/// Which sync backend this build compiled against: `"std"` (real
/// primitives) or `"model"` (checker-instrumented primitives with a
/// graceful runtime fallback). Surfaced by `modelhub fsck --version`.
pub fn backend() -> &'static str {
    sync::BACKEND
}

/// Pre-register the pool's metric series in the global mh-obs registry so
/// they appear (at zero) in `/metrics` before any parallel work runs.
pub fn register_metrics() {
    let _ = mh_obs::counter!("par_tasks_total");
    let _ = mh_obs::counter!("par_worker_panics_total");
    let _ = mh_obs::gauge!("par_queue_depth");
    let _ = mh_obs::histogram!("par_task_wait_us", mh_obs::DURATION_US_BUCKETS);
    let _ = mh_obs::histogram!("par_task_run_us", mh_obs::DURATION_US_BUCKETS);
    let _ = mh_obs::counter!("par_batched_items_total");
    let _ = mh_obs::counter!("par_batched_chunks_total");
}

/// Errors surfaced by the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker panicked; the payload's message is preserved. Remaining
    /// queued work was discarded, all threads joined.
    WorkerPanic(String),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Process-wide thread-count override (0 = unset). Set by `--jobs`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Install (Some) or clear (None) the process-wide thread override. Takes
/// precedence over `MH_THREADS`.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(
        n.unwrap_or(0).max(usize::from(n.is_some())),
        Ordering::SeqCst,
    );
}

/// The effective worker count: [`set_threads`] override, then `MH_THREADS`,
/// then the machine's available parallelism. Always at least 1.
pub fn current_threads() -> usize {
    let ov = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if ov > 0 {
        return ov;
    }
    if let Ok(v) = std::env::var("MH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A blocking bounded MPMC queue: `push` blocks while full, `pop` blocks
/// while empty. Closing wakes everyone; `close_and_discard` additionally
/// drops pending items so a stalled producer can never deadlock against
/// dead consumers.
///
/// The mutex/condvar pairing is one coherent facade implementation
/// (previously a `parking_lot` mutex was paired with a `std` condvar,
/// which only type-checked because the vendored stub re-exported std's
/// guard type). Wake-up discipline: each state transition notifies the
/// one condvar it can satisfy (`not_empty` after push, `not_full` after
/// pop — `notify_one` each, since one transition unblocks at most one
/// waiter), and closing notifies **all** waiters on both sides.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Block until there is room, then enqueue. Returns the item back if
    /// the queue was closed before it could be accepted.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut guard = self.state.lock();
        loop {
            if guard.closed {
                return Err(item);
            }
            if guard.items.len() < self.capacity {
                guard.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            guard = self.not_full.wait(guard);
        }
    }

    /// Block until an item is available or the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut guard = self.state.lock();
        loop {
            if let Some(item) = guard.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if guard.closed {
                return None;
            }
            guard = self.not_empty.wait(guard);
        }
    }

    /// Close the queue: no further pushes are accepted; consumers drain
    /// what remains and then observe `None`.
    pub fn close(&self) {
        let mut guard = self.state.lock();
        guard.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drop(guard);
    }

    /// Close AND discard pending items — the failure path: consumers stop
    /// immediately, a blocked producer wakes and sees the closure.
    pub fn close_and_discard(&self) {
        let mut guard = self.state.lock();
        guard.closed = true;
        guard.items.clear();
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drop(guard);
    }

    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-task payload budget of [`parallel_map_batched`]. Each queue task
/// carries at least this many payload bytes (except possibly the final
/// remainder chunk), so the per-task costs — one bounded-queue push/pop
/// with its mutex/condvar traffic, one wait-histogram timestamp, one
/// catch_unwind frame — are amortized over a quarter megabyte of real
/// work instead of being paid per matrix plane.
const BATCH_BYTES: usize = 256 * 1024;

/// Map `f` over `items` on the worker pool at the ambient width
/// ([`current_threads`]), one queue task per item, preserving input order
/// in the output.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_core(
        current_threads(),
        1,
        items,
        |_| 1,
        || (),
        |(), item| f(item),
    )
}

/// [`parallel_map`] with worker-local state and byte-budgeted batching:
/// contiguous runs of items are coalesced into chunks of at least 256 KiB
/// of payload (per `weight`), and each chunk is one queue task. `init`
/// runs once per worker (once in total on the serial path) to build
/// reusable scratch state — e.g. compression buffers — so per-item
/// allocation is amortized away. A payload that fits in one chunk runs
/// inline on the caller's thread.
pub fn parallel_map_batched<T, S, R, W, FI, F>(
    items: &[T],
    weight: W,
    init: FI,
    f: F,
) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    W: Fn(&T) -> usize,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    map_core(current_threads(), BATCH_BYTES, items, weight, init, f)
}

/// Greedy contiguous chunking by byte weight: accumulate items left to
/// right, closing a chunk as soon as it carries `budget` bytes. The
/// boundaries depend only on the items and the budget — never on the
/// thread count — and chunks partition `0..items.len()` in order.
fn chunk_by_bytes<T, W: Fn(&T) -> usize>(
    items: &[T],
    weight: &W,
    budget: usize,
) -> Vec<std::ops::Range<usize>> {
    let budget = budget.max(1);
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, item) in items.iter().enumerate() {
        acc = acc.saturating_add(weight(item));
        if acc >= budget {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < items.len() {
        out.push(start..items.len());
    }
    out
}

/// The one pool loop behind both maps, at an explicit width and batch
/// budget. Items are cut into contiguous chunks of at least `budget`
/// bytes (per `weight`); each chunk is one task, mapped left to right with
/// the worker's local scratch, and chunk outputs are stitched back in
/// chunk order — so the output is in input order and bit-identical to the
/// serial path at any width.
///
/// With `threads <= 1` or at most one chunk everything runs inline on the
/// caller's thread in input order: the deterministic serial fallback.
/// Otherwise up to `threads` workers pull chunk indices from a bounded
/// queue (capacity `4 × threads`); a panicking worker discards pending
/// work and is reported as [`PoolError::WorkerPanic`] after all threads
/// joined.
fn map_core<T, S, R, W, FI, F>(
    threads: usize,
    budget: usize,
    items: &[T],
    weight: W,
    init: FI,
    f: F,
) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    W: Fn(&T) -> usize,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let chunks = chunk_by_bytes(items, &weight, budget);
    let threads = threads.max(1).min(chunks.len().max(1));
    if threads == 1 {
        let mut scratch = init();
        return Ok(items.iter().map(|item| f(&mut scratch, item)).collect());
    }
    mh_obs::counter!("par_batched_items_total").add(items.len() as u64);
    mh_obs::counter!("par_batched_chunks_total").add(chunks.len() as u64);

    let queue: BoundedQueue<(usize, std::time::Instant)> = BoundedQueue::new(threads * 4);
    let panic_slot: Mutex<Option<String>> = Mutex::new(None);

    // Metric handles resolved once per call (and cached per call site);
    // the submitting thread's trace context (trace id + open span) is
    // re-established on the workers, keeping traces connected across the
    // pool and across processes.
    let parent_ctx = mh_obs::current_context();
    let tasks = mh_obs::counter!("par_tasks_total");
    let panics = mh_obs::counter!("par_worker_panics_total");
    let depth = mh_obs::gauge!("par_queue_depth");
    let wait_hist = mh_obs::histogram!("par_task_wait_us", mh_obs::DURATION_US_BUCKETS);
    let run_hist = mh_obs::histogram!("par_task_run_us", mh_obs::DURATION_US_BUCKETS);

    let worker_outputs: Result<Vec<(usize, Vec<R>)>, PoolError> = sync::thread::scope(|s| {
        let queue = &queue;
        let panic_slot = &panic_slot;
        let chunks = &chunks;
        let f = &f;
        let init = &init;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    // `init` may itself panic; treat it like a task panic.
                    let mut scratch = match catch_unwind(AssertUnwindSafe(init)) {
                        Ok(sc) => Some(sc),
                        Err(p) => {
                            panics.inc();
                            *panic_slot.lock() = Some(panic_message(p));
                            queue.close_and_discard();
                            None
                        }
                    };
                    while let Some((c, enqueued)) = queue.pop() {
                        depth.sub(1);
                        let Some(scratch) = scratch.as_mut() else {
                            continue;
                        };
                        let Some(chunk) = chunks.get(c).and_then(|r| items.get(r.clone())) else {
                            continue;
                        };
                        tasks.inc();
                        wait_hist.observe(enqueued.elapsed().as_micros() as f64);
                        let run_start = sync::now();
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            mh_obs::with_context(parent_ctx, || {
                                chunk.iter().map(|item| f(scratch, item)).collect()
                            })
                        }));
                        match out {
                            Ok(r) => {
                                run_hist.observe(run_start.elapsed().as_micros() as f64);
                                local.push((c, r));
                            }
                            Err(p) => {
                                panics.inc();
                                let mut slot = panic_slot.lock();
                                if slot.is_none() {
                                    *slot = Some(panic_message(p));
                                }
                                drop(slot);
                                queue.close_and_discard();
                            }
                        }
                    }
                    local
                })
            })
            .collect();

        // Produce chunk indices; a closed (poisoned) queue stops us early.
        // The enqueue timestamp feeds the task-wait histogram.
        for c in 0..chunks.len() {
            if queue.push((c, sync::now())).is_err() {
                break;
            }
            depth.add(1);
        }
        queue.close();

        let mut outputs = Vec::with_capacity(chunks.len());
        for h in handles {
            match h.join() {
                Ok(local) => outputs.extend(local),
                // A panic that escaped catch_unwind (e.g. in the local
                // Vec) still surfaces as an error, never a deadlock.
                Err(p) => {
                    panics.inc();
                    let mut slot = panic_slot.lock();
                    if slot.is_none() {
                        *slot = Some(panic_message(p));
                    }
                }
            }
        }
        if let Some(msg) = panic_slot.lock().take() {
            return Err(PoolError::WorkerPanic(msg));
        }
        Ok(outputs)
    });

    // The failure path discards queued items wholesale, so the running
    // add/sub bookkeeping can be left nonzero; the queue is gone either way.
    depth.set(0);

    let mut slots: Vec<Option<Vec<R>>> = (0..chunks.len()).map(|_| None).collect();
    for (c, r) in worker_outputs? {
        if let Some(slot) = slots.get_mut(c) {
            *slot = Some(r);
        }
    }
    // Every chunk was produced and no worker failed, so every slot is full.
    let chunk_outputs = slots
        .into_iter()
        .collect::<Option<Vec<Vec<R>>>>()
        .ok_or_else(|| PoolError::WorkerPanic("result slot left unfilled".into()))?;
    Ok(chunk_outputs.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use sync::atomic::AtomicBool;

    /// Serialises the tests that run the pool with more than one worker.
    /// Its metrics are process-global, and a model-checked execution
    /// diverges on replay if another test's workers update the same
    /// histogram while it runs.
    pub(super) fn pool_lock() -> sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let _pool = pool_lock();
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = map_core(threads, 1, &items, |_| 1, || (), |(), &x| x * 3 + 1).unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let got = map_core(8, 1, &Vec::<u32>::new(), |_| 1, || (), |(), &x| x).unwrap();
        assert!(got.is_empty());
        let got = map_core(8, 1, &[41], |_| 1, || (), |(), &x| x + 1).unwrap();
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn worker_local_state_is_reused() {
        let _pool = pool_lock();
        // Count inits: must be <= threads, not per-item.
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let got = map_core(
            4,
            1,
            &items,
            |_| 1,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<u8>::with_capacity(64)
            },
            |buf, &x| {
                buf.clear();
                buf.extend_from_slice(&x.to_le_bytes());
                buf.len()
            },
        )
        .unwrap();
        assert!(got.iter().all(|&l| l == 8));
        assert!(inits.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    fn panic_in_worker_surfaces_as_error_not_deadlock() {
        let _pool = pool_lock();
        // More items than queue capacity so the producer would block
        // forever if the poisoned queue did not discard pending work.
        let items: Vec<usize> = (0..10_000).collect();
        let err = map_core(
            2,
            1,
            &items,
            |_| 1,
            || (),
            |(), &x| {
                if x == 3 {
                    panic!("injected failure at {x}");
                }
                x
            },
        )
        .unwrap_err();
        let PoolError::WorkerPanic(msg) = err;
        assert!(msg.contains("injected failure"), "got: {msg}");
    }

    #[test]
    fn panic_in_init_surfaces_as_error() {
        let _pool = pool_lock();
        let items: Vec<usize> = (0..1000).collect();
        let err = map_core(
            3,
            1,
            &items,
            |_| 1,
            || -> usize { panic!("init exploded") },
            |_, &x| x,
        )
        .unwrap_err();
        let PoolError::WorkerPanic(msg) = err;
        assert!(msg.contains("init exploded"), "got: {msg}");
    }

    #[test]
    fn serial_fallback_runs_inline() {
        // With one thread the closure must run on the calling thread.
        let caller = std::thread::current().id();
        let same = map_core(
            1,
            1,
            &[0u8; 4],
            |_| 1,
            || (),
            |(), _| std::thread::current().id() == caller,
        )
        .unwrap();
        assert!(same.iter().all(|&b| b));
    }

    #[test]
    fn bounded_queue_blocks_and_drains() {
        let q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        let full = AtomicBool::new(false);
        sync::thread::scope(|s| {
            let q = &q;
            let full = &full;
            let h = s.spawn(move || {
                q.push(3).unwrap(); // blocks until a pop
                full.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(!full.load(Ordering::SeqCst), "push must block while full");
            assert_eq!(q.pop(), Some(1));
            h.join().unwrap();
        });
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        q.close();
        assert_eq!(q.pop(), None);
        assert!(q.push(9).is_err(), "closed queue rejects pushes");
    }

    #[test]
    fn condvar_wait_timeout_returns_without_a_notify() {
        let busy = sync::Mutex::new(1usize);
        let freed = sync::Condvar::new();
        let t0 = sync::now();
        let mut guard = busy.lock();
        // Nobody notifies: the wait must end on its own, and the caller's
        // condition loop must still see the guarded state.
        while t0.elapsed() < Duration::from_millis(20) {
            guard = freed.wait_timeout(guard, Duration::from_millis(5));
        }
        assert_eq!(*guard, 1);
    }

    #[test]
    fn close_and_discard_unblocks_producer() {
        let q = BoundedQueue::new(1);
        q.push(0).unwrap();
        sync::thread::scope(|s| {
            let q = &q;
            let h = s.spawn(move || q.push(1)); // blocked: queue full
            std::thread::sleep(Duration::from_millis(20));
            q.close_and_discard();
            assert!(h.join().unwrap().is_err(), "producer must wake with Err");
        });
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wakeup_semantics_one_notify_per_transition() {
        // Pin the queue's wake-up discipline on the facade primitives:
        // each push's notify_one wakes a distinct parked consumer (two
        // pushes satisfy two waiters — no lost wakeup), each pop's
        // notify_one wakes a distinct parked producer, and close wakes
        // *all* remaining waiters at once.
        let q = BoundedQueue::new(4);
        sync::thread::scope(|s| {
            let c1 = s.spawn(|| q.pop());
            let c2 = s.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(20));
            q.push(1).unwrap();
            q.push(2).unwrap();
            let mut got = vec![c1.join().unwrap(), c2.join().unwrap()];
            got.sort();
            assert_eq!(got, vec![Some(1), Some(2)]);
            let c3 = s.spawn(|| q.pop());
            let c4 = s.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(c3.join().unwrap(), None, "close wakes every consumer");
            assert_eq!(c4.join().unwrap(), None, "close wakes every consumer");
        });

        let q = BoundedQueue::new(1);
        q.push(10).unwrap();
        sync::thread::scope(|s| {
            let p1 = s.spawn(|| q.push(11));
            let p2 = s.spawn(|| q.push(12));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop(), Some(10));
            let a = q.pop().unwrap(); // wakes the second producer
            assert!(p1.join().unwrap().is_ok(), "pop must wake producer 1");
            assert!(p2.join().unwrap().is_ok(), "pop must wake producer 2");
            let b = q.pop().unwrap();
            let mut got = vec![a, b];
            got.sort();
            assert_eq!(got, vec![11, 12]);
        });
    }

    #[test]
    fn chunks_close_exactly_at_the_byte_budget() {
        // Four 128-byte items against a 256-byte budget: two chunks of
        // two; the boundary lands exactly where the budget fills.
        let items = [128usize; 4];
        let got = chunk_by_bytes(&items, &|&w| w, 256);
        assert_eq!(got, vec![0..2, 2..4]);
        // Off-by-one above the budget: the third item starts a new chunk.
        let items = [129usize, 128, 128];
        let got = chunk_by_bytes(&items, &|&w| w, 256);
        assert_eq!(got, vec![0..2, 2..3]);
    }

    #[test]
    fn oversized_and_zero_weight_items_chunk_sanely() {
        // An item larger than the whole budget closes its chunk at once.
        let items = [1usize, 600, 1, 700, 1];
        let got = chunk_by_bytes(&items, &|&w| w, 256);
        assert_eq!(got, vec![0..2, 2..4, 4..5]);
        // All-zero weights never fill the budget: one remainder chunk.
        let items = [0usize; 9];
        let got = chunk_by_bytes(&items, &|&w| w, 256);
        assert_eq!(got, vec![0..9]);
        // Empty input produces no chunks.
        assert!(chunk_by_bytes(&Vec::<usize>::new(), &|&w| w, 256).is_empty());
    }

    #[test]
    fn chunks_partition_the_input_in_order() {
        let items: Vec<usize> = (0..97).map(|i| (i * 37) % 90).collect();
        for budget in [1, 7, 64, 1000, usize::MAX] {
            let chunks = chunk_by_bytes(&items, &|&w| w, budget);
            let mut next = 0usize;
            for c in &chunks {
                assert_eq!(c.start, next, "budget={budget}");
                assert!(c.end > c.start, "budget={budget}");
                next = c.end;
            }
            assert_eq!(next, items.len(), "budget={budget}");
        }
    }

    #[test]
    fn batched_map_matches_serial_across_widths_and_budgets() {
        let _pool = pool_lock();
        // Payloads straddling the byte budget, single-item batches
        // (budget 1), and one giant chunk (budget MAX) must all produce
        // the exact serial output at every thread count.
        let items: Vec<u64> = (0..311).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 7 + 5).collect();
        for budget in [1usize, 8, 64, 1 << 20, usize::MAX] {
            for threads in [1, 2, 3, 8] {
                let got =
                    map_core(threads, budget, &items, |_| 16, || (), |(), &x| x * 7 + 5).unwrap();
                assert_eq!(got, expect, "threads={threads} budget={budget}");
            }
        }
    }

    #[test]
    fn batched_map_reuses_worker_scratch_and_reports_panics() {
        let _pool = pool_lock();
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..200).collect();
        let got = map_core(
            4,
            4, // 1-byte items, 4-byte budget: 50 chunks
            &items,
            |_| 1,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |acc, &x| {
                *acc += 1;
                x + 1
            },
        )
        .unwrap();
        assert_eq!(got, (1..=200).collect::<Vec<_>>());
        assert!(inits.load(Ordering::SeqCst) <= 4);

        let err = map_core(
            2,
            1,
            &items,
            |_| 1,
            || (),
            |(), &x| {
                if x == 7 {
                    panic!("batched task failed at {x}");
                }
                x
            },
        )
        .unwrap_err();
        let PoolError::WorkerPanic(msg) = err;
        assert!(msg.contains("batched task failed"), "got: {msg}");
    }

    #[test]
    fn single_chunk_batched_map_runs_inline() {
        // A payload under the budget collapses to the serial path: the
        // closure runs on the calling thread, no pool is spun up.
        let caller = std::thread::current().id();
        let same = map_core(
            8,
            usize::MAX,
            &[0u8; 16],
            |_| 1,
            || (),
            |(), _| std::thread::current().id() == caller,
        )
        .unwrap();
        assert!(same.iter().all(|&b| b));
    }

    #[test]
    fn thread_resolution_precedence() {
        // The override beats the environment.
        set_threads(Some(3));
        assert_eq!(current_threads(), 3);
        set_threads(None);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn backend_matches_feature() {
        if cfg!(feature = "model") {
            assert_eq!(backend(), "model");
        } else {
            assert_eq!(backend(), "std");
        }
    }
}

/// Exhaustive interleaving suites, run under the deterministic model
/// checker: `cargo test -p mh-par --features model`. Each test body is
/// executed once per schedule; `Stats::complete` asserts the (preemption-
/// bounded) schedule space was exhausted, not sampled.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn model_bounded_queue_2p2c_exhaustive() {
        // 2 producers / 2 consumers over a capacity-1 queue: producers
        // must block on the full queue and be woken by pops; every
        // consumer gets exactly one item. Preemption bound 2, exhaustive.
        // The bound-2 schedule space measures 174,566 interleavings
        // (~35s in release); the cap is headroom, not a truncation —
        // `stats.complete` below asserts nothing was cut off.
        let stats = mh_model::Builder::new()
            .preemption_bound(2)
            .max_iterations(400_000)
            .try_check(|| {
                let q = Arc::new(BoundedQueue::new(1));
                let mut producers = Vec::new();
                for v in 0..2u32 {
                    let q2 = Arc::clone(&q);
                    producers.push(sync::thread::spawn(move || {
                        q2.push(v).expect("queue is never closed");
                    }));
                }
                let mut consumers = Vec::new();
                for _ in 0..2 {
                    let q2 = Arc::clone(&q);
                    consumers.push(sync::thread::spawn(move || q2.pop()));
                }
                for h in producers {
                    h.join().expect("producer");
                }
                let mut got: Vec<u32> = consumers
                    .into_iter()
                    .map(|h| h.join().expect("consumer").expect("one item each"))
                    .collect();
                got.sort();
                assert_eq!(got, vec![0, 1], "every pushed item is popped once");
            })
            .expect("no deadlock or race in push/pop");
        assert!(stats.complete, "exploration must be exhaustive: {stats:?}");
        assert!(
            stats.iterations > 10,
            "nontrivial schedule space: {stats:?}"
        );
    }

    #[test]
    fn model_queue_close_vs_pop() {
        // close() racing pop(): the consumer either drains the item or
        // observes the closure — it never hangs.
        let stats = mh_model::Builder::new()
            .preemption_bound(2)
            .try_check(|| {
                let q = Arc::new(BoundedQueue::new(2));
                let q2 = Arc::clone(&q);
                let consumer = sync::thread::spawn(move || q2.pop());
                let q3 = Arc::clone(&q);
                let producer = sync::thread::spawn(move || {
                    let _ = q3.push(7);
                    q3.close();
                });
                producer.join().expect("producer");
                let got = consumer.join().expect("consumer never hangs");
                assert!(got == Some(7) || got.is_none());
            })
            .expect("close vs pop never deadlocks");
        assert!(stats.complete, "{stats:?}");
    }

    #[test]
    fn model_close_and_discard_unblocks_producer() {
        // The poison path: a producer blocked on a full queue must be
        // woken with Err by close_and_discard in every schedule.
        let stats = mh_model::Builder::new()
            .preemption_bound(2)
            .try_check(|| {
                let q = Arc::new(BoundedQueue::new(1));
                q.push(0).expect("open");
                let q2 = Arc::clone(&q);
                let producer = sync::thread::spawn(move || q2.push(1));
                let q3 = Arc::clone(&q);
                let killer = sync::thread::spawn(move || q3.close_and_discard());
                killer.join().expect("killer");
                let res = producer.join().expect("producer woke up");
                if let Ok(()) = res {
                    // Legal: the push landed before the discard.
                }
                assert_eq!(q.pop(), None, "discarded queue is empty");
            })
            .expect("blocked producer is always woken");
        assert!(stats.complete, "{stats:?}");
    }

    #[test]
    fn model_worker_panic_never_deadlocks() {
        let _pool = super::tests::pool_lock();
        // The real worker-panic path through parallel_map: a panicking
        // task poisons the queue; the pool must surface WorkerPanic —
        // never hang — in every explored schedule.
        let stats = mh_model::Builder::new()
            .preemption_bound(1)
            .try_check(|| {
                let items: Vec<usize> = (0..3).collect();
                let err = map_core(
                    2,
                    1,
                    &items,
                    |_| 1,
                    || (),
                    |(), &x| {
                        if x == 0 {
                            panic!("injected worker failure");
                        }
                        x
                    },
                )
                .expect_err("the injected panic must surface");
                let PoolError::WorkerPanic(msg) = err;
                assert!(msg.contains("injected worker failure"), "{msg}");
            })
            .expect("worker panic never deadlocks");
        assert!(stats.iterations > 1, "{stats:?}");
    }

    #[test]
    fn model_parallel_map_result_correct_under_interleaving() {
        let _pool = super::tests::pool_lock();
        let stats = mh_model::Builder::new()
            .preemption_bound(1)
            .try_check(|| {
                let items: Vec<u32> = (0..3).collect();
                let got =
                    map_core(2, 1, &items, |_| 1, || (), |(), &x| x * 2).expect("no worker fails");
                assert_eq!(got, vec![0, 2, 4], "order preserved in every schedule");
            })
            .expect("no race in result assembly");
        assert!(stats.iterations >= 1, "{stats:?}");
    }

    #[test]
    fn model_set_threads_vs_reader_race() {
        // set_threads racing current_threads(): the reader sees either
        // the old or the new value, never garbage, and the override wins
        // once both threads join.
        let stats = mh_model::Builder::new()
            .preemption_bound(2)
            .try_check(|| {
                let setter = sync::thread::spawn(|| set_threads(Some(2)));
                let reader = sync::thread::spawn(current_threads);
                let seen = reader.join().expect("reader");
                assert!(seen >= 1, "thread count is always sane, got {seen}");
                setter.join().expect("setter");
                assert_eq!(current_threads(), 2, "override visible after join");
                set_threads(None);
            })
            .expect("no race in the override");
        assert!(stats.complete, "{stats:?}");
    }

    // ---- seeded racy fixture + replay-trace regression --------------

    /// A deliberately broken use of the queue: each pusher checks
    /// `len()` and then pushes, without holding the lock across the
    /// check — the classic TOCTOU that `BoundedQueue::push` itself
    /// avoids by deciding under the lock. When both pushers pass the
    /// stale check, `push` (which does enforce capacity) blocks the
    /// loser on a full queue nobody ever drains — the race manifests as
    /// a lost-progress hang, which the checker reports as an `M001`
    /// deadlock with a replayable schedule. Used as the checker's
    /// negative self-check (CI asserts this is caught) and as the
    /// replay-trace regression fixture.
    fn racy_overfill_fixture() {
        let q = Arc::new(BoundedQueue::new(1));
        let mut handles = Vec::new();
        for v in 0..2u32 {
            let q2 = Arc::clone(&q);
            handles.push(sync::thread::spawn(move || {
                // BUG (seeded): check-then-act without atomicity.
                if q2.len() < 1 {
                    q2.push(v).expect("fixture queue stays open");
                }
            }));
        }
        for h in handles {
            h.join().expect("pusher");
        }
    }

    #[test]
    fn model_racy_fixture_is_caught() {
        let failure = mh_model::Builder::new()
            .preemption_bound(2)
            .try_check(racy_overfill_fixture)
            .expect_err("the seeded TOCTOU race must be found");
        assert_eq!(failure.kind, mh_model::FailureKind::Deadlock, "{failure}");
        assert_eq!(failure.kind.code(), "M001", "{failure}");
        assert!(
            !failure.schedule.is_empty(),
            "failing schedule must be replayable: {failure}"
        );
        assert!(
            failure.to_string().contains("MH_MODEL_REPLAY="),
            "{failure}"
        );
    }

    #[test]
    fn model_racy_fixture_replays_from_trace() {
        // The replay-trace regression: re-running the reported decision
        // string reproduces the failure in exactly one execution.
        let failure = mh_model::Builder::new()
            .preemption_bound(2)
            .try_check(racy_overfill_fixture)
            .expect_err("race found");
        let replayed = mh_model::Builder::new()
            .try_replay(&failure.schedule, racy_overfill_fixture)
            .expect_err("replay must reproduce the failure");
        assert_eq!(replayed.kind, failure.kind);
        assert_eq!(replayed.schedule, failure.schedule);
        assert_eq!(replayed.iteration, 1, "reproduced on the first run");
    }

    #[test]
    fn model_lock_order_inversion_is_flagged() {
        // The injected A/B–B/A acceptance fixture, at the facade level.
        let failure = mh_model::Builder::new()
            .try_check(|| {
                let a = Arc::new(sync::Mutex::new(()));
                let b = Arc::new(sync::Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                sync::thread::spawn(move || {
                    let _g1 = a2.lock();
                    let _g2 = b2.lock();
                })
                .join()
                .expect("first order");
                sync::thread::spawn(move || {
                    let _g1 = b.lock();
                    let _g2 = a.lock();
                })
                .join()
                .expect("second order");
            })
            .expect_err("inversion must be flagged");
        assert_eq!(
            failure.kind,
            mh_model::FailureKind::LockOrderCycle,
            "{failure}"
        );
    }
}
