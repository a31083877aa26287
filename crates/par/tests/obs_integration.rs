//! Observability integration with the worker pool: counters incremented
//! from many workers lose no updates, worker spans re-parent under the
//! submitting span across threads, and the pool's own series are recorded.

use mh_par::{parallel_map, set_threads, PoolError};

/// Serialises the tests in this file that drive the pool: every pool run
/// feeds the process-global `par_tasks_total` / `par_task_*_us` series, so
/// the exact-delta assertions in `pool_metrics_are_recorded` only hold
/// while no other test is submitting work. The lock also guards the
/// process-global pool width that `map_at` sets.
fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`parallel_map`] at `threads` workers; call with [`pool_lock`] held.
fn map_at<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, PoolError> {
    set_threads(Some(threads));
    let out = parallel_map(items, f);
    set_threads(None);
    out
}

/// Hammer one global counter from pool workers across thread counts; the
/// final value must equal the exact number of increments (no lost updates).
#[test]
fn concurrent_counter_increments_from_workers_lose_nothing() {
    let _pool = pool_lock();
    let c = mh_obs::counter!("par_it_concurrency_total");
    let items: Vec<usize> = (0..4000).collect();
    let before = c.get();
    for threads in [2, 4, 8] {
        map_at(threads, &items, |_| {
            c.inc();
        })
        .expect("map succeeds");
    }
    assert_eq!(c.get() - before, 3 * items.len() as u64);
}

/// Spans opened inside pool workers attach under the span that submitted
/// the work, even though they run on different threads.
#[test]
fn span_nesting_crosses_pool_threads() {
    let _pool = pool_lock();
    let _g = mh_obs::test_trace_lock();
    mh_obs::enable_capture();
    let items: Vec<usize> = (0..64).collect();
    // Threads that have started a task. Item 0's task holds its worker
    // until a task starts on some other worker (bounded, so a broken pool
    // fails the assertion below instead of hanging), so the work runs on
    // more than one thread by construction, not by scheduling luck: the
    // other 63 items can only be taken by the other workers.
    let started = std::sync::Mutex::new(std::collections::HashSet::new());
    let another_started = std::sync::Condvar::new();
    {
        let _submit = mh_obs::span("parit.submit");
        map_at(4, &items, |&i| {
            let _task = mh_obs::span("parit.task");
            let mut seen = started.lock().unwrap();
            seen.insert(std::thread::current().id());
            another_started.notify_all();
            if i == 0 {
                let _ = another_started
                    .wait_timeout_while(seen, std::time::Duration::from_secs(30), |s| s.len() < 2)
                    .unwrap();
            }
        })
        .expect("map succeeds");
    }
    let records = mh_obs::drain_capture();
    mh_obs::disable();

    let submit = records
        .iter()
        .find(|r| r.name == "parit.submit")
        .expect("submit span recorded");
    let tasks: Vec<_> = records.iter().filter(|r| r.name == "parit.task").collect();
    assert_eq!(tasks.len(), items.len());
    assert!(
        tasks.iter().all(|t| t.parent == submit.id),
        "every worker span must parent under the submitting span"
    );
    // The work genuinely ran on multiple threads.
    let threads: std::collections::HashSet<u64> = tasks.iter().map(|t| t.thread).collect();
    assert!(threads.len() > 1, "expected >1 worker thread");
    // And the profile tree nests the tasks under the submit span.
    let tree = mh_obs::build_profile(&records);
    let root = tree
        .iter()
        .find(|n| n.name == "parit.submit")
        .expect("submit is a root");
    let task_node = root
        .children
        .iter()
        .find(|n| n.name == "parit.task")
        .expect("tasks nested under submit");
    assert_eq!(task_node.count, items.len() as u64);
}

/// The pool records its task counter and wait/run histograms, and counts
/// worker panics.
#[test]
fn pool_metrics_are_recorded() {
    let _pool = pool_lock();
    mh_par::register_metrics();
    let tasks = mh_obs::counter!("par_tasks_total");
    let run_hist = mh_obs::histogram!("par_task_run_us", mh_obs::DURATION_US_BUCKETS);
    let wait_hist = mh_obs::histogram!("par_task_wait_us", mh_obs::DURATION_US_BUCKETS);
    let panics = mh_obs::counter!("par_worker_panics_total");

    let (t0, r0, w0) = (tasks.get(), run_hist.count(), wait_hist.count());
    let items: Vec<usize> = (0..100).collect();
    map_at(3, &items, |&x| x * 2).expect("map succeeds");
    assert_eq!(tasks.get() - t0, 100);
    assert_eq!(run_hist.count() - r0, 100);
    assert_eq!(wait_hist.count() - w0, 100);

    let p0 = panics.get();
    let err = map_at(2, &items, |&x| {
        if x == 5 {
            panic!("boom");
        }
        x
    });
    assert!(err.is_err());
    assert!(panics.get() > p0, "panic counter must advance");
}
