//! Instrumented synchronization primitives.
//!
//! These types present the same API as the workspace sync facade
//! (`mh_par::sync`) but report every operation to the model-checking
//! runtime ([`crate::rt`]) as a scheduling point. Outside a model
//! execution they **gracefully fall back** to real (spin-based)
//! primitives, so a `--features model` build remains fully functional:
//! global statics (metric registries, thread-count overrides) and
//! ordinary tests keep working, and only code running under
//! [`crate::check`] pays the instrumentation.
//!
//! Model-mode lock operations additionally mirror the raw spin flag:
//! logical exclusivity is enforced by the scheduler, but a model
//! execution can share a global object (e.g. the process-wide metric
//! registry) with concurrently running *non-model* test threads, and the
//! mirrored flag keeps the two worlds mutually exclusive. (The model
//! thread holds the scheduler turn while it spins, and fallback holders
//! make real progress on other cores, so this cannot stall the model.)

use crate::rt::{self, Op, OpKind};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool as RawBool, AtomicU64 as RawU64, AtomicUsize as RawUsize};

pub use std::sync::atomic::Ordering;

/// The current wall-clock instant. Lives on the facade so application
/// code never names `Instant::now()` directly (the sync-facade lint
/// forbids it outside the facade and mh-obs); the model checker itself
/// never consults wall time for scheduling decisions.
pub fn now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Which backend this crate's primitives report. The facade surfaces
/// this through `modelhub fsck --version`.
pub const BACKEND: &str = "model";

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock. Model executions schedule around it; outside
/// a model run it is a spin lock.
pub struct Mutex<T: ?Sized> {
    raw: RawBool,
    data: UnsafeCell<T>,
}

// SAFETY: same bounds as std::sync::Mutex — exclusive access to the inner
// value is enforced by the raw flag (fallback) and the scheduler (model).
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            raw: RawBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        self as *const _ as *const () as usize
    }

    fn raw_acquire(&self) {
        while self
            .raw
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
    }

    /// Acquire the lock, blocking (or, under the model, scheduling) until
    /// it is available. No poisoning: panics simply release the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = rt::in_model();
        if model {
            rt::lock(self.addr());
        }
        self.raw_acquire();
        MutexGuard {
            m: self,
            model,
            _not_send: PhantomData,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        // SAFETY: &mut self means no guards are alive.
        unsafe { &mut *self.data.get() }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mutex { .. }")
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    m: &'a Mutex<T>,
    model: bool,
    /// Guards must stay on the locking thread (like std's).
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.m.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively.
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            rt::unlock(self.m.addr());
        }
        self.m.raw.store(false, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable paired with [`Mutex`]. The fallback
/// implementation is an epoch counter: `wait` releases the mutex and
/// spins until any notification bumps the epoch (so a fallback
/// `notify_one` may wake several waiters — a permitted spurious wakeup;
/// condition loops re-check as usual). Under the model, waits and the
/// choice of which waiter `notify_one` wakes are explicit scheduling
/// decisions.
pub struct Condvar {
    epoch: RawU64,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            epoch: RawU64::new(0),
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Atomically release the guard's mutex and wait for a notification,
    /// then reacquire before returning. May wake spuriously.
    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let m = guard.m;
        if guard.model {
            // The logical release happens inside cv_wait; do not run the
            // guard's Drop (that would record a spurious unlock).
            std::mem::forget(guard);
            m.raw.store(false, Ordering::Release);
            rt::cv_wait(self.addr(), m.addr());
            m.raw_acquire();
            MutexGuard {
                m,
                model: true,
                _not_send: PhantomData,
            }
        } else {
            let before = self.epoch.load(Ordering::SeqCst);
            drop(guard);
            while self.epoch.load(Ordering::SeqCst) == before {
                std::thread::yield_now();
            }
            m.lock()
        }
    }

    /// [`Condvar::wait`] that also returns once `timeout` has passed.
    /// Under the model a timed wait may time out at any point, so it is
    /// a release-and-reacquire: a spurious wakeup the caller's condition
    /// loop absorbs.
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> MutexGuard<'a, T> {
        let m = guard.m;
        if guard.model {
            drop(guard);
            return m.lock();
        }
        let before = self.epoch.load(Ordering::SeqCst);
        let start = now();
        drop(guard);
        while self.epoch.load(Ordering::SeqCst) == before && start.elapsed() < timeout {
            std::thread::yield_now();
        }
        m.lock()
    }

    pub fn notify_one(&self) {
        if rt::in_model() {
            rt::notify(self.addr(), false);
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    pub fn notify_all(&self) {
        if rt::in_model() {
            rt::notify(self.addr(), true);
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

const WRITER: usize = usize::MAX;

/// A reader-writer lock (parking_lot-style API: `read`/`write` return
/// guards directly, no poisoning).
pub struct RwLock<T: ?Sized> {
    /// 0 = free, usize::MAX = write-locked, n = n readers (fallback).
    raw: RawUsize,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            raw: RawUsize::new(0),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        self as *const _ as *const () as usize
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let model = rt::in_model();
        if model {
            rt::rd_lock(self.addr());
        }
        loop {
            let s = self.raw.load(Ordering::Relaxed);
            if s != WRITER
                && self
                    .raw
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            std::thread::yield_now();
        }
        RwLockReadGuard {
            l: self,
            model,
            _not_send: PhantomData,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let model = rt::in_model();
        if model {
            rt::lock(self.addr());
        }
        while self
            .raw
            .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
        RwLockWriteGuard {
            l: self,
            model,
            _not_send: PhantomData,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        // SAFETY: &mut self means no guards are alive.
        unsafe { &mut *self.data.get() }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    l: &'a RwLock<T>,
    model: bool,
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds a read lock.
        unsafe { &*self.l.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            rt::rd_unlock(self.l.addr());
        }
        self.l.raw.fetch_sub(1, Ordering::Release);
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    l: &'a RwLock<T>,
    model: bool,
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the write lock.
        unsafe { &*self.l.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the write lock exclusively.
        unsafe { &mut *self.l.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            rt::unlock(self.l.addr());
        }
        self.l.raw.store(0, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics live in `sync::atomic`, mirroring
/// `std::sync::atomic`. Data operations execute on real std atomics (so
/// fallback and model threads may share them safely); under the model,
/// every access is additionally a scheduling point.
pub mod atomic {
    use super::*;

    pub use std::sync::atomic::Ordering;

    macro_rules! atomic_common {
        ($name:ident, $std:ty, $prim:ty) => {
            pub struct $name {
                inner: $std,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    $name {
                        inner: <$std>::new(v),
                    }
                }

                fn point(&self, kind: OpKind) {
                    rt::point(Op::new(kind, self as *const _ as usize));
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicLoad);
                    self.inner.load(order)
                }

                pub fn store(&self, v: $prim, order: Ordering) {
                    self.point(OpKind::AtomicStore);
                    self.inner.store(v, order)
                }

                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicRmw);
                    self.inner.swap(v, order)
                }

                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.point(OpKind::AtomicRmw);
                    self.inner.compare_exchange(current, new, success, failure)
                }

                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.point(OpKind::AtomicRmw);
                    self.inner
                        .compare_exchange_weak(current, new, success, failure)
                }

                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: F,
                ) -> Result<$prim, $prim>
                where
                    F: FnMut($prim) -> Option<$prim>,
                {
                    self.point(OpKind::AtomicRmw);
                    self.inner.fetch_update(set_order, fetch_order, f)
                }

                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }

                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    $name::new(<$prim>::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // Debug printing must not perturb the schedule: read
                    // the raw value without a scheduling point.
                    write!(f, "{:?}", self.inner)
                }
            }
        };
    }

    macro_rules! atomic_int_ops {
        ($name:ident, $prim:ty) => {
            impl $name {
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicRmw);
                    self.inner.fetch_add(v, order)
                }

                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicRmw);
                    self.inner.fetch_sub(v, order)
                }

                pub fn fetch_and(&self, v: $prim, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicRmw);
                    self.inner.fetch_and(v, order)
                }

                pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicRmw);
                    self.inner.fetch_or(v, order)
                }

                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicRmw);
                    self.inner.fetch_max(v, order)
                }

                pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                    self.point(OpKind::AtomicRmw);
                    self.inner.fetch_min(v, order)
                }
            }
        };
    }

    atomic_common!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    atomic_common!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    atomic_common!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    atomic_common!(AtomicI64, std::sync::atomic::AtomicI64, i64);
    atomic_common!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    atomic_int_ops!(AtomicUsize, usize);
    atomic_int_ops!(AtomicU64, u64);
    atomic_int_ops!(AtomicU32, u32);
    atomic_int_ops!(AtomicI64, i64);

    impl AtomicBool {
        pub fn fetch_and(&self, v: bool, order: Ordering) -> bool {
            self.point(OpKind::AtomicRmw);
            self.inner.fetch_and(v, order)
        }

        pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
            self.point(OpKind::AtomicRmw);
            self.inner.fetch_or(v, order)
        }
    }
}

pub use atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize};

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Thread spawn/join/scope with the `std::thread` API shape. Inside a
/// model execution, spawned threads join the execution as model threads
/// (spawn and join are scheduling points); outside, real OS threads are
/// used.
pub mod thread {
    use super::*;
    use crate::rt::ThreadDone;
    use std::cell::RefCell;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool as RawFlag;
    use std::sync::{Arc, Mutex as StdMutex};

    pub use std::thread::Result;

    #[derive(Clone, Copy)]
    enum Target {
        Model(usize),
        Real,
    }

    struct Raw {
        done: Arc<ThreadDone>,
        target: Target,
    }

    fn spawn_erased(main: Box<dyn FnOnce() + Send + 'static>) -> Raw {
        if rt::in_model() {
            let (tid, done) = rt::model_spawn(main);
            Raw {
                done,
                target: Target::Model(tid),
            }
        } else {
            let done = ThreadDone::new();
            let done2 = Arc::clone(&done);
            std::thread::Builder::new()
                .spawn(move || {
                    if let Err(p) = catch_unwind(AssertUnwindSafe(main)) {
                        *done2
                            .panic_payload
                            .lock()
                            .unwrap_or_else(|e| e.into_inner()) = Some(p);
                    }
                    done2.set();
                })
                .expect("spawning a thread");
            Raw {
                done,
                target: Target::Real,
            }
        }
    }

    impl Raw {
        /// Wait for the thread to finish: through the scheduler when this
        /// is a model thread inside a live execution (op_point returns
        /// early under abort), then always on the completion flag.
        fn join_blocking(&self) {
            if let Target::Model(tid) = self.target {
                if rt::in_model() {
                    rt::model_join(tid);
                }
            }
            self.done.wait();
        }

        fn take_result<T>(&self, slot: &StdMutex<Option<T>>) -> Result<T> {
            if let Some(p) = self
                .done
                .panic_payload
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
            {
                return Err(p);
            }
            match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(v) => Ok(v),
                // Only reachable when the model runtime tore the thread
                // down mid-run (the execution already failed).
                None => Err(Box::new("thread aborted by model teardown")),
            }
        }
    }

    pub struct JoinHandle<T> {
        raw: Raw,
        slot: Arc<StdMutex<Option<T>>>,
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JoinHandle").finish_non_exhaustive()
        }
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> Result<T> {
            self.raw.join_blocking();
            self.raw.take_result(&self.slot)
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let slot2 = Arc::clone(&slot);
        let raw = spawn_erased(Box::new(move || {
            let v = f();
            *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
        }));
        JoinHandle { raw, slot }
    }

    /// A scheduling point with no effect (fallback: a real yield).
    pub fn yield_now() {
        if rt::in_model() {
            rt::point(Op::new(OpKind::Yield, 0));
        } else {
            std::thread::yield_now();
        }
    }

    /// Scoped threads (the `std::thread::scope` API shape). Unlike std's,
    /// `spawn` needs `&'scope self` *and* the scope object is not `Sync`
    /// — children cannot themselves spawn onto the scope.
    /// Per-child state the scope must join on exit: completion signal,
    /// scheduler target, and the child's joined flag.
    type ScopedChild = (Arc<ThreadDone>, Target, Arc<RawFlag>);

    pub struct Scope<'scope, 'env: 'scope> {
        handles: RefCell<Vec<ScopedChild>>,
        phantom: PhantomData<&'scope mut &'env ()>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        raw: Raw,
        slot: Arc<StdMutex<Option<T>>>,
        joined: Arc<RawFlag>,
        phantom: PhantomData<&'scope ()>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T> {
            self.joined.store(true, Ordering::SeqCst);
            self.raw.join_blocking();
            self.raw.take_result(&self.slot)
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
            let slot2 = Arc::clone(&slot);
            let closure: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                let v = f();
                *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
            });
            // SAFETY: the closure (and everything it borrows, which lives
            // at least 'env) is joined before `scope` returns — both on
            // the normal path and during unwinding — so extending the
            // lifetime to 'static never outlives the borrowed data.
            let closure: Box<dyn FnOnce() + Send + 'static> =
                unsafe { std::mem::transmute(closure) };
            let raw = spawn_erased(closure);
            let joined = Arc::new(RawFlag::new(false));
            self.handles.borrow_mut().push((
                Arc::clone(&raw.done),
                raw.target,
                Arc::clone(&joined),
            ));
            ScopedJoinHandle {
                raw,
                slot,
                joined,
                phantom: PhantomData,
            }
        }
    }

    /// Run `f` with a scope allowing non-`'static` spawns; all children
    /// are joined (explicitly or implicitly) before this returns.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let sc = Scope {
            handles: RefCell::new(Vec::new()),
            phantom: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&sc)));
        let handles = std::mem::take(&mut *sc.handles.borrow_mut());
        for (done, target, joined) in handles {
            if joined.load(Ordering::SeqCst) {
                continue;
            }
            if let Target::Model(tid) = target {
                if rt::in_model() {
                    rt::model_join(tid);
                }
            }
            done.wait();
        }
        match result {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }
}
