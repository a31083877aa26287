//! The workspace sync facade.
//!
//! Every crate in the workspace reaches shared-state primitives — `Mutex`,
//! `Condvar`, `RwLock`, atomics, thread spawn/join/scope, and the wall
//! clock — through this module (`mh_par::sync`; enforced by the
//! `tools/lint-scan` source lint). Two backends:
//!
//! * **default**: `std::sync` with poisoning swallowed (a panicking
//!   holder releases the lock; condition loops re-check state anyway).
//!   The lock types are thin wrappers whose methods return std's own
//!   guards. Lock ordering is checked statically by `mh-audit` (R003)
//!   and, under the model backend, per execution (M003).
//! * **`model` feature**: re-exports [`mh_model::sync`] — instrumented
//!   primitives whose every operation is a scheduling point for the
//!   deterministic model checker (`mh_model::check`), and which fall
//!   back to real primitives outside a checker run so the build stays
//!   fully functional.
//!
//! [`now`] lives here so application code never names `Instant::now()`
//! directly: timestamps come from the facade, where the model build can
//! keep them out of scheduling decisions.

#[cfg(feature = "model")]
pub use mh_model::sync::*;

#[cfg(not(feature = "model"))]
mod std_backend {
    use std::sync::PoisonError;

    pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

    /// Which backend the facade compiled to (surfaced by
    /// `modelhub fsck --version`).
    pub const BACKEND: &str = "std";

    /// The current wall-clock instant (the facade's only time source).
    pub fn now() -> std::time::Instant {
        std::time::Instant::now()
    }

    /// `std::sync::Mutex` without poisoning: `lock` returns std's guard.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> Mutex<T> {
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// `std::sync::Condvar` without poisoning, paired with [`Mutex`].
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        pub fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        /// Atomically release the guard's mutex and wait; reacquire
        /// before returning. May wake spuriously.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
        }

        /// [`Condvar::wait`] that also returns once `timeout` has
        /// passed; the caller re-checks its condition and the clock.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: std::time::Duration,
        ) -> MutexGuard<'a, T> {
            self.0
                .wait_timeout(guard, timeout)
                .map_or_else(|e| e.into_inner().0, |(guard, _)| guard)
        }

        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// `std::sync::RwLock` without poisoning (parking_lot-style API:
    /// `read`/`write` return std's guards directly).
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

    impl<T> RwLock<T> {
        pub fn new(value: T) -> Self {
            RwLock(std::sync::RwLock::new(value))
        }

        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> RwLock<T> {
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(PoisonError::into_inner)
        }

        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(PoisonError::into_inner)
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Atomics are std's own — real atomics need no wrapping outside the
    /// model backend.
    pub mod atomic {
        pub use std::sync::atomic::{
            AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }

    pub use atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    /// Thread spawn/join/scope (std's own; the model backend substitutes
    /// scheduler-aware equivalents with the same API shape).
    pub mod thread {
        pub use std::thread::{
            scope, spawn, yield_now, JoinHandle, Result, Scope, ScopedJoinHandle,
        };
    }
}

#[cfg(not(feature = "model"))]
pub use std_backend::*;
