//! Rendezvous primitives that combine *real* thread synchronization with
//! *virtual* clock agreement.
//!
//! A machine barrier does two jobs at once: it blocks the participating PEs
//! (threads or fibers: every wait here is a `parking_lot` shim `Condvar`
//! wait, which parks either) until all have arrived (real synchronization, so programs are
//! actually correct), and it advances every participant's virtual clock to
//! `max(arrival clocks) + cost`, where the cost is supplied by the caller
//! (the communication layer knows what a dissemination barrier costs on its
//! conduit).
//!
//! All waits are poison-aware: if any PE thread panics, the launcher poisons
//! the machine and every blocked wait panics out instead of hanging.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Backstop period for every waiter but the NIC arbiter's designated
/// minimum: barrier and `wait_until` waiters, and non-minimum keys in the
/// arbiter's parking lot. All of them are notified under the mutex their
/// wait holds — the parked keys by name, when they become the minimum — so
/// no wake can be lost; the timeout only bounds the damage of a protocol
/// hole and lets poison be noticed, and can be lazy without adding latency
/// to any handoff. (For PE fibers a timeout is an order of expiry, not a
/// duration: see `parking_lot::fiber`.) At thousands of parked PEs this is
/// what keeps the wall-clock poll storm (waiters/tick) sublinear in
/// simulation size.
pub(crate) const WAIT_TICK_IDLE: Duration = Duration::from_millis(200);

/// Backstop period for the *designated minimum* waiter in the NIC arbiter.
/// Its wakes, too, are all sent under the parking lot's mutex (see
/// `ArbiterState` for who sends them), so a healthy run never takes this
/// timeout either; it is short because the minimum stalls the whole grant
/// chain, so a hole would cost 1 ms per step instead of 200. Exactly one
/// thread waits at this rate, so the short tick adds no storm.
pub(crate) const WAIT_TICK_MIN: Duration = Duration::from_millis(1);

/// Shared poison flag: set when any PE panics.
#[derive(Debug, Default)]
pub struct Poison {
    flag: AtomicBool,
}

impl Poison {
    pub fn poison(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_poisoned(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Panic (propagating simulation shutdown) if poisoned.
    pub fn check(&self) {
        if self.is_poisoned() {
            panic!("simulation poisoned: another PE panicked");
        }
    }
}

#[derive(Debug)]
struct BarrierInner {
    count: usize,
    generation: u64,
    max_clock: u64,
    /// `max_clock` of the round that most recently completed.
    result: u64,
    /// Arrivals needed to complete a round. Starts at the group size and
    /// shrinks when a member permanently departs (PE failure).
    expected: usize,
}

/// A reusable clock-combining barrier for a fixed group size.
///
/// Members can permanently [`ClockBarrier::leave`] the group (scheduled PE
/// failures do); the remaining members then complete rounds among themselves
/// instead of hanging.
#[derive(Debug)]
pub struct ClockBarrier {
    inner: Mutex<BarrierInner>,
    cv: Condvar,
    n: usize,
}

impl ClockBarrier {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier group must be non-empty");
        ClockBarrier {
            inner: Mutex::new(BarrierInner {
                count: 0,
                generation: 0,
                max_clock: 0,
                result: 0,
                expected: n,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    /// Number of participants at construction (departures not subtracted).
    pub fn group_size(&self) -> usize {
        self.n
    }

    /// Complete the current round: publish the combined clock and wake the
    /// waiters. Caller holds the lock and has checked `count == expected`.
    fn finish_round(&self, inner: &mut BarrierInner) -> u64 {
        let result = inner.max_clock;
        inner.result = result;
        inner.count = 0;
        inner.max_clock = 0;
        inner.generation = inner.generation.wrapping_add(1);
        self.cv.notify_all();
        result
    }

    /// Arrive with the caller's current virtual clock; returns the maximum
    /// clock across the group for this round.
    pub fn arrive(&self, my_clock: u64, poison: &Poison) -> u64 {
        self.arrive_with(my_clock, poison, || {})
    }

    /// Like [`Self::arrive`], but the arrival that completes the round runs
    /// `on_release` *while still holding the barrier lock, before waking the
    /// waiters*. The NIC arbiter uses this to clear every participant's
    /// quiescent flag atomically with the release: if each waiter cleared its
    /// own flag after waking, a still-unscheduled waiter would look quiescent
    /// to the arbiter while logically already released, and an out-of-order
    /// reservation could be granted. (Rounds completed by [`Self::leave`]
    /// skip the hook — PE failure already forfeits strict ordering.)
    pub fn arrive_with(&self, my_clock: u64, poison: &Poison, on_release: impl FnOnce()) -> u64 {
        let mut inner = self.inner.lock();
        inner.max_clock = inner.max_clock.max(my_clock);
        inner.count += 1;
        debug_assert!(inner.count <= inner.expected, "more arrivals than live members");
        if inner.count == inner.expected {
            on_release();
            self.finish_round(&mut inner)
        } else {
            let gen = inner.generation;
            while inner.generation == gen {
                poison.check();
                self.cv.wait_for(&mut inner, WAIT_TICK_IDLE);
            }
            inner.result
        }
    }

    /// Permanently remove one member (a failed PE) from the group. If the
    /// remaining members have all already arrived, the pending round
    /// completes immediately instead of waiting for the dead member.
    pub fn leave(&self) {
        let mut inner = self.inner.lock();
        assert!(inner.expected > 0, "leave() on an empty barrier group");
        inner.expected -= 1;
        if inner.count > 0 && inner.count == inner.expected {
            self.finish_round(&mut inner);
        }
    }

    /// Wake all waiters so they observe poison. Called by the launcher on
    /// failure.
    pub fn interrupt(&self) {
        self.cv.notify_all();
    }

    /// The round in progress, if somebody waits in it: `(round, arrived,
    /// expected)`. For the stall report.
    pub(crate) fn pending(&self) -> Option<(u64, usize, usize)> {
        let inner = self.inner.lock();
        (inner.count > 0).then_some((inner.generation, inner.count, inner.expected))
    }
}

/// Per-PE notification cell used by `wait_until`-style operations: remote
/// writers notify after touching a PE's heap; waiters re-check their
/// predicate, under the lock, on every notify (or timeout tick).
#[derive(Debug, Default)]
pub struct NotifyCell {
    lock: Mutex<()>,
    cv: Condvar,
}

impl NotifyCell {
    /// Signal that the associated PE's memory may have changed.
    pub fn notify(&self) {
        self.notify_applying(|| ());
    }

    /// Run `f` (a write that this cell's waiters observe through their
    /// predicates) under the cell's lock, then wake the waiters.
    ///
    /// With [`Self::wait_until`] on the waiting side, this makes the
    /// write and its visibility one critical section: a waiter can only see
    /// the write's effects *after* everything `f` did — including, for the
    /// NIC arbiter, clearing the waiter's quiescent flag — and conversely a
    /// waiter that declared itself asleep before `f` ran is woken. Without
    /// this pairing a deterministic machine has a wake-latency hole: the
    /// write lands, the waiter is still flagged quiescent, and an arbiter
    /// grant check in that window orders reservations differently than a run
    /// where the waiter woke first.
    pub fn notify_applying<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.lock.lock();
        let out = f();
        self.cv.notify_all();
        out
    }

    /// Block until `pred()` is true, with hooks run under the cell's
    /// lock: `on_sleep` immediately before every sleep (assert quiescence)
    /// and `on_exit` before returning (withdraw it). Predicates are only
    /// checked under the lock, so a [`Self::notify_applying`] writer's
    /// effects — the write, its stamp, its sanitizer record, its hook — are
    /// observed all or none.
    pub fn wait_until(
        &self,
        poison: &Poison,
        mut pred: impl FnMut() -> bool,
        mut on_sleep: impl FnMut(),
        on_exit: impl FnOnce(),
    ) {
        let mut g = self.lock.lock();
        loop {
            if pred() {
                on_exit();
                return;
            }
            if poison.is_poisoned() {
                on_exit();
                drop(g);
                poison.check();
                unreachable!("poison.check() panics when poisoned");
            }
            on_sleep();
            self.cv.wait_for(&mut g, WAIT_TICK_IDLE);
        }
    }

    /// Wake all waiters (used on poison).
    pub fn interrupt(&self) {
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn barrier_returns_max_clock() {
        let b = Arc::new(ClockBarrier::new(4));
        let poison = Arc::new(Poison::default());
        let mut handles = Vec::new();
        for (i, clock) in [10u64, 500, 30, 40].iter().enumerate() {
            let b = b.clone();
            let p = poison.clone();
            let clock = *clock;
            handles.push(std::thread::spawn(move || {
                // Stagger arrivals a little.
                std::thread::sleep(Duration::from_millis(5 * i as u64));
                b.arrive(clock, &p)
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 500);
        }
    }

    #[test]
    fn barrier_rounds_are_independent() {
        let b = Arc::new(ClockBarrier::new(2));
        let poison = Arc::new(Poison::default());
        let b2 = b.clone();
        let p2 = poison.clone();
        let t = std::thread::spawn(move || {
            let r1 = b2.arrive(100, &p2);
            let r2 = b2.arrive(r1 + 1, &p2);
            (r1, r2)
        });
        let r1 = b.arrive(50, &poison);
        let r2 = b.arrive(700, &poison);
        assert_eq!(r1, 100);
        assert_eq!(r2, 700);
        assert_eq!(t.join().unwrap(), (100, 700));
    }

    #[test]
    fn poisoned_barrier_does_not_hang() {
        let b = Arc::new(ClockBarrier::new(2));
        let poison = Arc::new(Poison::default());
        let b2 = b.clone();
        let p2 = poison.clone();
        let t = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b2.arrive(0, &p2);
            }));
            r.is_err()
        });
        std::thread::sleep(Duration::from_millis(30));
        poison.poison();
        b.interrupt();
        assert!(t.join().unwrap(), "waiter should have panicked out of the barrier");
    }

    #[test]
    fn leave_completes_a_pending_round() {
        // Two of three arrive, then the third departs instead of arriving:
        // the waiters must complete the round among themselves.
        let b = Arc::new(ClockBarrier::new(3));
        let poison = Arc::new(Poison::default());
        let mut handles = Vec::new();
        for clock in [100u64, 250] {
            let b = b.clone();
            let p = poison.clone();
            handles.push(std::thread::spawn(move || b.arrive(clock, &p)));
        }
        std::thread::sleep(Duration::from_millis(20));
        b.leave();
        for h in handles {
            assert_eq!(h.join().unwrap(), 250);
        }
        // Subsequent rounds need only the two remaining members.
        let b2 = b.clone();
        let p2 = poison.clone();
        let t = std::thread::spawn(move || b2.arrive(7, &p2));
        assert_eq!(b.arrive(9, &poison), 9);
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn leave_before_any_arrival_shrinks_future_rounds() {
        let b = ClockBarrier::new(2);
        let poison = Poison::default();
        b.leave();
        // A solo arrival now completes instantly.
        assert_eq!(b.arrive(42, &poison), 42);
    }

    #[test]
    fn notify_cell_wakes_waiter() {
        let cell = Arc::new(NotifyCell::default());
        let flag = Arc::new(AtomicU64::new(0));
        let poison = Arc::new(Poison::default());
        let (c2, f2, p2) = (cell.clone(), flag.clone(), poison.clone());
        let t = std::thread::spawn(move || {
            c2.wait_until(&p2, || f2.load(Ordering::Acquire) == 7, || (), || ());
        });
        std::thread::sleep(Duration::from_millis(10));
        flag.store(7, Ordering::Release);
        cell.notify();
        t.join().unwrap();
    }

    #[test]
    fn a_waiter_sees_all_or_none_of_an_applying_write() {
        // The writer publishes a value and, 20 ms later in the same section,
        // its record (what the sanitizer's edge reads). A waiter arriving in
        // between must not get past the value alone.
        let cell = Arc::new(NotifyCell::default());
        let (value, record) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (c2, v2, r2) = (cell.clone(), value.clone(), record.clone());
        let writer = std::thread::spawn(move || {
            c2.notify_applying(|| {
                v2.store(1, Ordering::Release);
                std::thread::sleep(Duration::from_millis(20));
                r2.store(1, Ordering::Release);
            })
        });
        while value.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        cell.wait_until(&Poison::default(), || value.load(Ordering::Acquire) == 1, || (), || ());
        assert_eq!(record.load(Ordering::Acquire), 1, "the value was seen before its record");
        writer.join().unwrap();
    }

    #[test]
    fn wait_until_with_true_predicate_returns_immediately() {
        let cell = NotifyCell::default();
        let poison = Poison::default();
        cell.wait_until(&poison, || true, || (), || ());
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn wait_until_panics_when_poisoned() {
        let cell = NotifyCell::default();
        let poison = Poison::default();
        poison.poison();
        cell.wait_until(&poison, || false, || (), || ());
    }
}
