//! # mh-model — deterministic concurrency model checking
//!
//! A loom-style model checker for the workspace's parallel core. Test
//! bodies written against the instrumented primitives in [`sync`] are run
//! many times under a cooperative scheduler that controls every
//! synchronization decision, systematically enumerating thread
//! interleavings (depth-first branch replay with a bounded-preemption
//! budget and sleep-set pruning) and reporting the first failing schedule
//! as a replayable trace.
//!
//! ```no_run
//! use mh_model::sync::{Mutex, Condvar};
//! use mh_model::sync::thread;
//! use std::sync::Arc;
//!
//! mh_model::check(|| {
//!     let m = Arc::new(Mutex::new(0u32));
//!     let m2 = Arc::clone(&m);
//!     let h = thread::spawn(move || *m2.lock() += 1);
//!     *m.lock() += 1;
//!     h.join().unwrap();
//!     assert_eq!(*m.lock(), 2);
//! });
//! ```
//!
//! On failure, [`check`] panics with a report like:
//!
//! ```text
//! mh-model [M001] deadlock: every live thread is blocked (iteration 4)
//!   t0 blocked: lock(m1) (held by t1)
//!   t1 blocked: lock(m0) (held by t0)
//!   trace (6 of 6 ops): ...
//!   schedule: [1,0]
//!   replay with: MH_MODEL_REPLAY=1,0
//! ```
//!
//! Setting `MH_MODEL_REPLAY=<schedule>` makes [`check`] run exactly that
//! schedule once instead of exploring — the failing interleaving is
//! deterministic and debuggable. Finding codes: `M001` deadlock (covers
//! lost wakeups), `M002` double lock, `M003` lock-order cycle, `M004`
//! livelock (step budget), `M005` panic/assertion failure.
//!
//! The crate is dependency-free and sits at the bottom of the workspace
//! graph: `mh_par::sync` re-exports [`sync`] as the workspace facade
//! under the `model` feature.

mod lockorder;
mod rt;
pub mod sync;

pub use rt::{Failure, FailureKind, Stats};

/// Exploration configuration. The defaults (preemption bound 2, 100k
/// executions, 20k steps per execution) explore the schedule spaces of
/// the workspace's real tests exhaustively; `Stats::complete` reports
/// whether the (bounded) tree was in fact exhausted.
#[derive(Debug, Clone)]
pub struct Builder {
    preemption_bound: Option<usize>,
    max_iterations: usize,
    max_steps: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            preemption_bound: Some(2),
            max_iterations: 100_000,
            max_steps: 20_000,
        }
    }
}

impl Builder {
    pub fn new() -> Self {
        Builder::default()
    }

    /// Maximum forced preemptions per schedule (context switches away
    /// from a still-runnable thread). Most real concurrency bugs need
    /// very few; raising this grows the search space combinatorially.
    pub fn preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = Some(bound);
        self
    }

    /// Remove the preemption bound (full DFS modulo sleep sets).
    pub fn unbounded(mut self) -> Self {
        self.preemption_bound = None;
        self
    }

    /// Cap the number of executions (schedules) explored.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n.max(1);
        self
    }

    /// Cap the number of synchronization operations per execution;
    /// exceeding it is reported as a livelock (`M004`) — this is what
    /// turns a lost-wakeup *hang* into a finite failure.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n.max(1);
        self
    }

    fn config(&self) -> rt::Config {
        rt::Config {
            preemption_bound: self.preemption_bound,
            max_iterations: self.max_iterations,
            max_steps: self.max_steps,
        }
    }

    /// Explore `f`'s schedules; return statistics or the first failure.
    /// Honors `MH_MODEL_REPLAY` (a decision string from a previous
    /// failure report): when set, runs exactly that schedule once.
    pub fn try_check<F>(&self, f: F) -> Result<Stats, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        if let Ok(plan) = std::env::var("MH_MODEL_REPLAY") {
            return self.try_replay(&plan, f);
        }
        rt::explore(&self.config(), std::sync::Arc::new(f))
    }

    /// Like [`Builder::try_check`], but panic with the full replayable
    /// report on failure.
    pub fn check<F>(&self, f: F) -> Stats
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.try_check(f) {
            Ok(stats) => stats,
            Err(failure) => panic!("{failure}"),
        }
    }

    /// Run exactly one execution following `schedule` (a decision string
    /// like `"1,0,2"`; decisions beyond it fall back to the default
    /// run-to-completion policy).
    pub fn try_replay<F>(&self, schedule: &str, f: F) -> Result<Stats, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let plan = match rt::parse_schedule(schedule) {
            Ok(p) => p,
            Err(msg) => panic!("MH_MODEL_REPLAY: {msg}"),
        };
        rt::replay(&self.config(), plan, std::sync::Arc::new(f))
    }

    /// Like [`Builder::try_replay`], but panic with the report on failure.
    pub fn replay<F>(&self, schedule: &str, f: F) -> Stats
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.try_replay(schedule, f) {
            Ok(stats) => stats,
            Err(failure) => panic!("{failure}"),
        }
    }
}

/// Model-check `f` with default settings, panicking on the first failing
/// schedule. See [`Builder`] for knobs and [`Builder::try_check`] for a
/// non-panicking variant.
pub fn check<F>(f: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f)
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::sync::{thread, Condvar, Mutex, RwLock};
    use super::*;
    use std::sync::Arc;

    #[test]
    fn correct_counter_explores_completely() {
        let stats = Builder::new()
            .try_check(|| {
                let n = Arc::new(Mutex::new(0u32));
                let mut handles = Vec::new();
                for _ in 0..2 {
                    let n2 = Arc::clone(&n);
                    handles.push(thread::spawn(move || {
                        *n2.lock() += 1;
                    }));
                }
                for h in handles {
                    h.join().expect("worker");
                }
                assert_eq!(*n.lock(), 2);
            })
            .expect("no failure in a correct program");
        assert!(
            stats.complete,
            "schedule tree should be exhausted: {stats:?}"
        );
        assert!(stats.iterations > 1, "must explore >1 schedule: {stats:?}");
    }

    #[test]
    fn racy_nonatomic_increment_is_caught() {
        // Classic lost update: load, then store load+1. Needs one
        // preemption between the two to fail.
        let failure = Builder::new()
            .try_check(|| {
                let n = Arc::new(AtomicUsize::new(0));
                let mut handles = Vec::new();
                for _ in 0..2 {
                    let n2 = Arc::clone(&n);
                    handles.push(thread::spawn(move || {
                        let v = n2.load(Ordering::SeqCst);
                        n2.store(v + 1, Ordering::SeqCst);
                    }));
                }
                for h in handles {
                    h.join().expect("worker");
                }
                assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
            })
            .expect_err("the race must be found");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.kind.code(), "M005");
        assert!(failure.message.contains("lost update"), "{failure}");
        assert!(!failure.schedule.is_empty(), "{failure}");
    }

    #[test]
    fn failing_schedule_replays_deterministically() {
        fn body() {
            let n = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let n2 = Arc::clone(&n);
                handles.push(thread::spawn(move || {
                    let v = n2.load(Ordering::SeqCst);
                    n2.store(v + 1, Ordering::SeqCst);
                }));
            }
            for h in handles {
                h.join().expect("worker");
            }
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        }
        let failure = Builder::new().try_check(body).expect_err("race found");
        // Replaying the reported decision string reproduces the failure
        // in a single execution.
        let replayed = Builder::new()
            .try_replay(&failure.schedule, body)
            .expect_err("replay reproduces");
        assert_eq!(replayed.kind, failure.kind);
        assert_eq!(replayed.schedule, failure.schedule);
        assert_eq!(replayed.iteration, 1);
        // And the failure report tells the user how to do exactly that.
        let report = failure.to_string();
        assert!(report.contains("MH_MODEL_REPLAY="), "{report}");
        assert!(report.contains("[M005]"), "{report}");
    }

    #[test]
    fn ab_ba_deadlock_is_caught() {
        let failure = Builder::new()
            .try_check(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let h = thread::spawn(move || {
                    let _g1 = b2.lock();
                    let _g2 = a2.lock();
                });
                {
                    let _g1 = a.lock();
                    let _g2 = b.lock();
                }
                let _ = h.join();
            })
            .expect_err("AB/BA must fail");
        // Depending on which schedule is reached first this surfaces as a
        // lock-order cycle (one thread ran to completion, graph closed)
        // or a true deadlock (both stuck halfway).
        assert!(
            matches!(
                failure.kind,
                FailureKind::Deadlock | FailureKind::LockOrderCycle
            ),
            "{failure}"
        );
    }

    #[test]
    fn sequential_ab_ba_flags_lock_order_cycle() {
        // The threads never overlap (join between them), so no schedule
        // deadlocks — only the lock-order graph can see the hazard.
        let failure = Builder::new()
            .try_check(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let _g1 = a2.lock();
                    let _g2 = b2.lock();
                })
                .join()
                .expect("first");
                thread::spawn(move || {
                    let _g1 = b.lock();
                    let _g2 = a.lock();
                })
                .join()
                .expect("second");
            })
            .expect_err("cycle must be flagged");
        assert_eq!(failure.kind, FailureKind::LockOrderCycle, "{failure}");
        assert_eq!(failure.kind.code(), "M003");
        assert!(failure.message.contains("lock-order cycle"), "{failure}");
        assert_eq!(failure.iteration, 1, "found on the first execution");
    }

    #[test]
    fn double_lock_is_caught() {
        let failure = Builder::new()
            .try_check(|| {
                let m = Arc::new(Mutex::new(0u32));
                let _g1 = m.lock();
                let _g2 = m.lock();
            })
            .expect_err("double lock must fail");
        assert_eq!(failure.kind, FailureKind::DoubleLock, "{failure}");
        assert_eq!(failure.kind.code(), "M002");
    }

    #[test]
    fn lost_wakeup_is_caught_as_deadlock() {
        // Buggy pattern: check the flag *outside* the lock, then wait.
        // Schedule: waiter sees flag==false; signaler sets it and
        // notifies (nobody waiting yet); waiter then waits forever.
        let failure = Builder::new()
            .try_check(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let pair = Arc::new((Mutex::new(()), Condvar::new()));
                let (flag2, pair2) = (Arc::clone(&flag), Arc::clone(&pair));
                let waiter = thread::spawn(move || {
                    if !flag2.load(Ordering::SeqCst) {
                        let g = pair2.0.lock();
                        let _g = pair2.1.wait(g);
                    }
                });
                flag.store(true, Ordering::SeqCst);
                pair.1.notify_one();
                let _ = waiter.join();
            })
            .expect_err("lost wakeup must be found");
        assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
        assert_eq!(failure.kind.code(), "M001");
        assert!(failure.trace.contains("blocked"), "{failure}");
    }

    #[test]
    fn correct_condvar_handoff_has_no_deadlock() {
        let stats = Builder::new()
            .try_check(|| {
                let pair = Arc::new((Mutex::new(false), Condvar::new()));
                let pair2 = Arc::clone(&pair);
                let waiter = thread::spawn(move || {
                    let mut g = pair2.0.lock();
                    while !*g {
                        g = pair2.1.wait(g);
                    }
                });
                {
                    let mut g = pair.0.lock();
                    *g = true;
                }
                pair.1.notify_one();
                waiter.join().expect("waiter");
            })
            .expect("correct handoff never deadlocks");
        assert!(stats.complete, "{stats:?}");
    }

    #[test]
    fn livelock_spin_hits_step_budget() {
        let failure = Builder::new()
            .max_steps(200)
            .try_check(|| {
                let flag = Arc::new(AtomicBool::new(false));
                // Nobody ever sets the flag: an unbounded spin.
                let flag2 = Arc::clone(&flag);
                let h = thread::spawn(move || {
                    while !flag2.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                });
                let _ = h.join();
            })
            .expect_err("spin must hit the budget");
        assert_eq!(failure.kind, FailureKind::Livelock, "{failure}");
        assert_eq!(failure.kind.code(), "M004");
    }

    #[test]
    fn scoped_threads_and_rwlock_work_under_the_model() {
        let stats = Builder::new()
            .try_check(|| {
                let l = RwLock::new(1u32);
                let total = AtomicUsize::new(0);
                thread::scope(|s| {
                    let h1 = s.spawn(|| {
                        total.fetch_add(*l.read() as usize, Ordering::SeqCst);
                    });
                    let h2 = s.spawn(|| {
                        *l.write() += 1;
                    });
                    h1.join().expect("reader");
                    h2.join().expect("writer");
                });
                let seen = total.load(Ordering::SeqCst);
                assert!(seen == 1 || seen == 2, "reader saw {seen}");
                assert_eq!(*l.read(), 2);
            })
            .expect("no failure");
        assert!(stats.complete, "{stats:?}");
    }

    #[test]
    fn escaped_worker_panic_is_reported_not_hung() {
        // A panic that escapes a spawned closure fails the whole model
        // run (M005) instead of deadlocking the owner's join.
        let failure = Builder::new()
            .try_check(|| {
                let m = Arc::new(Mutex::new(0u32));
                thread::scope(|s| {
                    let m2 = Arc::clone(&m);
                    let h = s.spawn(move || {
                        let _g = m2.lock();
                        panic!("worker exploded");
                    });
                    let _ = h.join();
                });
            })
            .expect_err("the escaped panic is the failure");
        assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
        assert!(failure.message.contains("worker exploded"), "{failure}");
        assert!(!failure.trace.is_empty(), "{failure}");
    }

    #[test]
    fn caught_worker_panic_keeps_executing() {
        // The parallel_map pattern: the worker catches its own panic
        // (releasing locks during the unwind) and reports it as data.
        // The model run completes — no failure, locks stay consistent.
        let stats = Builder::new()
            .try_check(|| {
                let m = Arc::new(Mutex::new(0u32));
                let ok = thread::scope(|s| {
                    let m2 = Arc::clone(&m);
                    let h = s.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let _g = m2.lock();
                            panic!("caught inside the worker");
                        }))
                        .is_err()
                    });
                    h.join().expect("worker itself completed")
                });
                assert!(ok, "the panic was observed as data");
                // The lock was released during the worker's unwind.
                *m.lock() += 1;
                assert_eq!(*m.lock(), 1);
            })
            .expect("a caught panic is not a model failure");
        assert!(stats.complete, "{stats:?}");
    }

    #[test]
    fn primitives_work_outside_a_model_run() {
        // The graceful-fallback path: same types, no checker.
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        let l = RwLock::new(1u32);
        assert_eq!(*l.read(), 1);
        *l.write() = 2;
        assert_eq!(*l.read(), 2);
        let n = Arc::new(AtomicUsize::new(0));
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (n2, pair2) = (Arc::clone(&n), Arc::clone(&pair));
        let h = thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
            let mut g = pair2.0.lock();
            *g = true;
            drop(g);
            pair2.1.notify_one();
            7u32
        });
        {
            let mut g = pair.0.lock();
            while !*g {
                g = pair.1.wait(g);
            }
        }
        assert_eq!(h.join().expect("thread"), 7);
        assert_eq!(n.load(Ordering::SeqCst), 1);
        let sum: u32 = thread::scope(|s| {
            let a = s.spawn(|| 1u32);
            let b = s.spawn(|| 2u32);
            a.join().expect("a") + b.join().expect("b")
        });
        assert_eq!(sum, 3);
    }

    #[test]
    fn notify_one_wake_order_is_explored() {
        // Two waiters, one token: with notify_one the checker must
        // explore both wake orders; whichever waiter wins, the other is
        // woken by the winner's chained notify. Completing without
        // deadlock across all schedules is the assertion.
        let stats = Builder::new()
            .try_check(|| {
                let state = Arc::new((Mutex::new(2u32), Condvar::new()));
                let mut handles = Vec::new();
                for _ in 0..2 {
                    let st = Arc::clone(&state);
                    handles.push(thread::spawn(move || {
                        let mut g = st.0.lock();
                        while *g == 0 {
                            g = st.1.wait(g);
                        }
                        *g -= 1;
                        drop(g);
                        st.1.notify_one();
                    }));
                }
                for h in handles {
                    h.join().expect("waiter");
                }
                assert_eq!(*state.0.lock(), 0);
            })
            .expect("no deadlock in any wake order");
        assert!(stats.iterations >= 1, "{stats:?}");
    }
}
