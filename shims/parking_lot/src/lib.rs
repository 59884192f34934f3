//! Minimal stand-in for the subset of `parking_lot` this workspace uses,
//! implemented over `std::sync`. Vendored in-repo so the build has no
//! registry dependencies.
//!
//! Semantic differences from the real crate that matter here:
//!
//! * Poisoning is swallowed: a panic while holding a lock does not poison
//!   it for other threads (parking_lot has no poisoning either, so this
//!   matches the API contract callers rely on).
//! * `Condvar::wait_for` takes `&mut MutexGuard` like parking_lot; the
//!   guard briefly round-trips through the inner std guard.
//! * `Condvar::notify_*` return without a syscall when nobody sleeps on the
//!   condvar, like parking_lot (`std::sync::Condvar` always issues the
//!   `futex` wake), and `wait_for` reports a timeout only if nobody notified
//!   the condvar meanwhile (`std` reports one whenever the time ran out).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

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
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: Some(guard) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(MutexGuard { inner: Some(p.into_inner()) })
            }
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

/// Guard returned by [`Mutex::lock`]. Holds the std guard in an `Option`
/// so [`Condvar`] methods can temporarily take it out to wait.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside a condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside a condvar wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Result of a timed condvar wait, mirroring
/// `parking_lot::WaitTimeoutResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable mirroring `parking_lot::Condvar`.
///
/// `sleepers` counts the threads inside `wait`/`wait_for`. It is raised
/// while the caller still holds the mutex and lowered once the mutex is held
/// again, so a notifier that changed the awaited state under that mutex
/// either ran before the waiter's predicate check (the waiter sees the
/// state and does not sleep) or sees the waiter counted. A notify that reads
/// zero had nobody to wake and skips the syscall. (`SeqCst` throughout: the
/// count also orders against notifiers that do not take the mutex, which
/// keep the guarantee they had — a notify racing a wait may be lost, one
/// that follows it is not.)
///
/// `notifies` counts the notifies that found a sleeper. A `wait_for` whose
/// time ran out reports `timed_out()` only if the count did not move while
/// it was inside: a thread that was notified after its time was up but
/// before it ran again was notified, not timed out (parking_lot decides the
/// same way, by who removed the thread from the queue).
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    sleepers: AtomicUsize,
    notifies: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            sleepers: AtomicUsize::new(0),
            notifies: AtomicUsize::new(0),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present before wait");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present before wait");
        let notifies = self.notifies.load(Ordering::SeqCst);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        let unnotified = self.notifies.load(Ordering::SeqCst) == notifies;
        WaitTimeoutResult { timed_out: result.timed_out() && unnotified }
    }

    /// Wake one sleeper; `false` (and no syscall) when there is none.
    pub fn notify_one(&self) -> bool {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return false;
        }
        self.notifies.fetch_add(1, Ordering::SeqCst);
        self.inner.notify_one();
        true
    }

    /// Wake every sleeper and return how many there were; `0` (and no
    /// syscall) when there is none.
    pub fn notify_all(&self) -> usize {
        let sleepers = self.sleepers.load(Ordering::SeqCst);
        if sleepers != 0 {
            self.notifies.fetch_add(1, Ordering::SeqCst);
            self.inner.notify_all();
        }
        sleepers
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
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
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
        assert!(!*g, "guard reacquired and usable after the wait");
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                cv.wait_for(&mut done, Duration::from_millis(50));
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn sleeper_count_returns_to_zero_after_timed_out_and_notified_waits() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let (m, cv) = &*pair;
            let mut g = m.lock();
            assert!(cv.wait_for(&mut g, Duration::from_millis(2)).timed_out());
            assert_eq!(cv.sleepers.load(Ordering::SeqCst), 0, "after a timed-out wait");
        }
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                assert!(!cv.wait_for(&mut done, Duration::from_secs(10)).timed_out());
            }
        });
        let (m, cv) = &*pair;
        // The count is raised under the mutex: once we hold the mutex and
        // read 1, the waiter is inside its wait and the notify must reach it.
        loop {
            let mut g = m.lock();
            if cv.sleepers.load(Ordering::SeqCst) == 1 {
                *g = true;
                assert_eq!(cv.notify_all(), 1);
                break;
            }
            drop(g);
            thread::yield_now();
        }
        t.join().unwrap();
        assert_eq!(cv.sleepers.load(Ordering::SeqCst), 0, "after a notified wait");
    }

    #[test]
    fn a_notify_that_beats_the_timed_out_waiter_to_the_mutex_is_not_a_timeout() {
        // The waiter's 5 ms run out while the notifier holds the mutex (it
        // took it once the waiter was counted, and keeps it for ten times the
        // timeout); the notify is sent before the waiter can run again.
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (m, cv) = &*pair2;
            cv.wait_for(&mut m.lock(), Duration::from_millis(5)).timed_out()
        });
        let (m, cv) = &*pair;
        loop {
            let g = m.lock();
            if cv.sleepers.load(Ordering::SeqCst) == 1 {
                thread::sleep(Duration::from_millis(50));
                assert!(cv.notify_one());
                break;
            }
            drop(g);
            thread::yield_now();
        }
        assert!(!waiter.join().unwrap(), "notified while inside the wait");
    }

    #[test]
    fn notify_without_a_sleeper_reports_nobody_woken() {
        let cv = Condvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    #[test]
    fn ping_pong_under_the_mutex_never_loses_a_wake() {
        // Each side changes the turn under the mutex and then notifies; the
        // other side registered as a sleeper under that same mutex, so the
        // no-sleeper fast path can never skip a wake somebody needs. A lost
        // wake would surface as the 10 s timeout.
        const ROUNDS: u64 = 10_000;
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let play = |pair: Arc<(Mutex<u64>, Condvar)>, parity: u64| {
            let (m, cv) = &*pair;
            let mut turn = m.lock();
            while *turn < ROUNDS {
                if *turn % 2 == parity {
                    *turn += 1;
                    cv.notify_one();
                } else {
                    let r = cv.wait_for(&mut turn, Duration::from_secs(10));
                    assert!(!r.timed_out(), "wake lost at turn {}", *turn);
                }
            }
        };
        let other = Arc::clone(&pair);
        let t = thread::spawn(move || play(other, 1));
        play(pair, 0);
        t.join().unwrap();
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
