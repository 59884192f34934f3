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
//! * [`fiber`] is not part of parking_lot at all: it runs closures as
//!   stackful fibers on the calling thread, and a [`Condvar`] wait made from
//!   one parks the fiber (a stack switch) instead of the thread (a `futex`).
//!   The waiting protocols built on this crate run unchanged on either.

#![deny(unsafe_code)]

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[allow(unsafe_code)]
pub mod fiber;
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
#[path = "fiber_unsupported.rs"]
pub mod fiber;

use fiber::{Waiter, Wake};
use std::collections::VecDeque;
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
        self.guard(self.lock_inner())
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn guard<'a>(&'a self, inner: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard { mutex: self, inner: Some(inner), expired: false }
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

/// Guard returned by [`Mutex::lock`]. Holds the std guard in an `Option`
/// so [`Condvar`] methods can temporarily take it out to wait, and knows its
/// mutex so a fiber's wait — which unlocks by dropping the std guard — can
/// lock again.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// The last wait this guard went through was a fiber's and expired. A
    /// waiter that waits again with such a guard has not left its wait loop
    /// since, which is how [`fiber`] tells a stalled job from a slow one.
    expired: bool,
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
/// `sleepers` counts the callers inside `wait`/`wait_for`: threads in its
/// low half, fibers (see [`fiber`]) in its high half. It is raised
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
///
/// A waiting fiber queues itself in `parked` and switches to its scheduler;
/// a notify moves queued fibers to their ready queue, oldest first, and a
/// fiber's `wait_for` is told by the scheduler whether it was notified or
/// expired. Fibers can share a condvar only with fibers of the same job:
/// a thread beside them, or a fiber of another job, panics with a message.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    sleepers: AtomicUsize,
    notifies: AtomicUsize,
    parked: std::sync::Mutex<VecDeque<Waiter>>,
}

/// One sleeping fiber in [`Condvar::sleepers`]; threads count in units of 1.
const FIBER: usize = 1 << (usize::BITS / 2);
/// The half of [`Condvar::sleepers`] that counts threads.
const THREADS: usize = FIBER - 1;

const MIXED: &str = "a Condvar is shared between fibers and a thread; fibers can only share a \
                     Condvar with fibers of the same job";

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            sleepers: AtomicUsize::new(0),
            notifies: AtomicUsize::new(0),
            parked: std::sync::Mutex::new(VecDeque::new()),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(me) = fiber::current() {
            self.wait_parked(guard, me, None);
            return;
        }
        let inner = guard.inner.take().expect("guard present before wait");
        self.count_thread();
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
        if let Some(me) = fiber::current() {
            let wake = self.wait_parked(guard, me, Some(timeout));
            return WaitTimeoutResult { timed_out: wake == Wake::Expired };
        }
        let inner = guard.inner.take().expect("guard present before wait");
        let notifies = self.notifies.load(Ordering::SeqCst);
        self.count_thread();
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        let unnotified = self.notifies.load(Ordering::SeqCst) == notifies;
        WaitTimeoutResult { timed_out: result.timed_out() && unnotified }
    }

    /// Count the calling thread as a sleeper (the caller holds the mutex).
    fn count_thread(&self) {
        if self.sleepers.fetch_add(1, Ordering::SeqCst) >= FIBER {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            panic!("{MIXED}");
        }
    }

    fn parked(&self) -> std::sync::MutexGuard<'_, VecDeque<Waiter>> {
        match self.parked.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// `wait`/`wait_for` of a fiber: queue it, unlock, and give the carrier
    /// to its scheduler until a notify or an expiry makes it runnable.
    fn wait_parked<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        me: fiber::Parker<'_>,
        timeout: Option<Duration>,
    ) -> Wake {
        let waiter = me.waiter();
        let before = self.sleepers.fetch_add(FIBER, Ordering::SeqCst);
        {
            let mut parked = self.parked();
            let alone =
                before & THREADS == 0 && parked.front().is_none_or(|w| w.same_carrier(&waiter));
            if !alone {
                drop(parked);
                self.sleepers.fetch_sub(FIBER, Ordering::SeqCst);
                panic!("{MIXED}");
            }
            parked.push_back(waiter);
        }
        drop(guard.inner.take().expect("guard present before wait"));
        let wake = me.park(timeout, !guard.expired);
        if wake == Wake::Expired {
            // A notify would have taken the entry out; an expiry leaves it.
            self.parked().retain(|w| *w != waiter);
        }
        guard.inner = Some(guard.mutex.lock_inner());
        guard.expired = wake == Wake::Expired;
        self.sleepers.fetch_sub(FIBER, Ordering::SeqCst);
        wake
    }

    /// Wake one sleeper; `false` (and no syscall) when there is none.
    #[inline]
    pub fn notify_one(&self) -> bool {
        match self.sleepers.load(Ordering::SeqCst) {
            0 => false,
            sleepers => self.wake(sleepers, 1) != 0,
        }
    }

    /// Wake every sleeper and return how many there were; `0` (and no
    /// syscall) when there is none.
    #[inline]
    pub fn notify_all(&self) -> usize {
        match self.sleepers.load(Ordering::SeqCst) {
            0 => 0,
            sleepers => self.wake(sleepers, usize::MAX),
        }
    }

    /// Wake up to `max` (one or all) of the `sleepers != 0` counted; returns
    /// how many that was.
    fn wake(&self, sleepers: usize, max: usize) -> usize {
        self.notifies.fetch_add(1, Ordering::SeqCst);
        if sleepers >= FIBER {
            // Fibers already made runnable stay counted until they run, so
            // the queue, not the count, says who is left to wake.
            let mut parked = self.parked();
            let Some(first) = parked.front() else { return 0 };
            // Panics, before a queue is touched, if the caller is not the
            // fibers' carrier.
            let carrier = fiber::carrier_of(first);
            let woken = parked.len().min(max);
            parked.drain(..woken).for_each(|w| carrier.unpark(w));
            woken
        } else if max == 1 {
            self.inner.notify_one();
            1
        } else {
            self.inner.notify_all();
            sleepers
        }
    }

    #[cfg(test)]
    fn thread_sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst) & THREADS
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
