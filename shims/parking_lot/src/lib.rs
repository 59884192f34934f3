//! Minimal stand-in for the subset of `parking_lot` this workspace uses,
//! implemented over `std::sync`. Vendored in-repo so the build has no
//! registry dependencies.
//!
//! Semantic differences from the real crate that matter here:
//!
//! * Poisoning is swallowed: a panic while holding a lock does not poison
//!   it for other threads (parking_lot has no poisoning either, so this
//!   matches the API contract callers rely on).
//! * [`fiber`] and [`baton`] are not part of parking_lot at all: two
//!   carriers of one API that run closures as fibers of which exactly one
//!   runs at a time — stackful fibers on the calling thread (x86_64 Linux),
//!   or OS threads passing a baton (everywhere). A fiber waits by
//!   [`fiber::park`] until some fiber [`fiber::unpark`]s it.
//!
//! There is no `Condvar`: no code outside the shim waits on one. PEs wait
//! through their carrier (the baton carrier uses `std`'s internally).

#![deny(unsafe_code)]

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[allow(unsafe_code)]
pub mod fiber;
/// No context switch on this target: the fiber carrier is the baton one.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub mod fiber {
    pub use crate::baton::{current, is_fiber, park, run, unpark, yield_now, RunStats};

    /// This target has no context switch; [`run`] is the baton carrier's.
    pub const SUPPORTED: bool = false;

    /// A no-op: the allocator policy is set on glibc x86_64 Linux only.
    pub fn keep_freed_memory() {}
}
pub mod baton;

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Mutual exclusion primitive mirroring `parking_lot::Mutex`.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking. Unlike `std`, never returns a poison
    /// error — parking_lot locks do not poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.guard(self.lock_inner())
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn guard<'a>(&'a self, inner: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard { inner }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(self.guard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(self.guard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 1, "no poisoning, like parking_lot");
    }
}
