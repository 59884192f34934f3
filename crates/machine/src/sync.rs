//! Rendezvous primitives that combine *real* synchronization of the PE
//! fibers with *virtual* clock agreement.
//!
//! A machine barrier does two jobs at once: it blocks the participating PEs
//! until all have arrived (real synchronization, so programs are actually
//! correct), and it advances every participant's virtual clock to
//! `max(arrival clocks) + cost`, where the cost is supplied by the caller
//! (the communication layer knows what a dissemination barrier costs on its
//! conduit).
//!
//! A blocked PE parks its fiber (`parking_lot::fiber::park`), and whoever
//! changes what it waits for unparks it; there are no timeouts. So a wait
//! must be made from a fiber of a launched job, and a wake that is owed and
//! never sent leaves the job with nothing to run: a stall, which the
//! launcher reports as an error.
//!
//! All waits are poison-aware: if any PE panics, the launcher poisons the
//! machine and unparks every PE, and every blocked wait panics out instead
//! of hanging.

use parking_lot::{fiber, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// The fiber a blocking wait parks: the caller's.
fn me(what: &str) -> usize {
    fiber::current().unwrap_or_else(|| panic!("{what} blocks a PE fiber of a launched job"))
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
    /// The fibers parked in the current round.
    waiters: Vec<usize>,
}

/// A reusable clock-combining barrier for a fixed group size.
///
/// Members can permanently [`ClockBarrier::leave`] the group (scheduled PE
/// failures do); the remaining members then complete rounds among themselves
/// instead of hanging.
#[derive(Debug)]
pub struct ClockBarrier {
    inner: Mutex<BarrierInner>,
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
                waiters: Vec::new(),
            }),
            n,
        }
    }

    /// Number of participants at construction (departures not subtracted).
    pub fn group_size(&self) -> usize {
        self.n
    }

    /// Complete the current round: publish the combined clock and unpark
    /// the waiters. Caller holds the lock and has checked `count == expected`.
    fn finish_round(inner: &mut BarrierInner) -> u64 {
        let result = inner.max_clock;
        inner.result = result;
        inner.count = 0;
        inner.max_clock = 0;
        inner.generation = inner.generation.wrapping_add(1);
        for waiter in inner.waiters.drain(..) {
            fiber::unpark(waiter);
        }
        result
    }

    /// Arrive with the caller's current virtual clock; returns the maximum
    /// clock across the group for this round.
    pub fn arrive(&self, my_clock: u64, poison: &Poison) -> u64 {
        self.arrive_with(my_clock, poison, || {})
    }

    /// Like [`Self::arrive`], but the arrival that completes the round runs
    /// `on_release` *before unparking the waiters*. The NIC arbiter uses this
    /// to give every participant its horizon back with the release: a
    /// released waiter that has not run yet must not look quiescent to the
    /// arbiter, or an out-of-order reservation could be granted. (Rounds
    /// completed by [`Self::leave`] skip the hook — PE failure already
    /// forfeits strict ordering.)
    pub fn arrive_with(&self, my_clock: u64, poison: &Poison, on_release: impl FnOnce()) -> u64 {
        let mut inner = self.inner.lock();
        inner.max_clock = inner.max_clock.max(my_clock);
        inner.count += 1;
        debug_assert!(inner.count <= inner.expected, "more arrivals than live members");
        if inner.count == inner.expected {
            on_release();
            return Self::finish_round(&mut inner);
        }
        let (gen, me) = (inner.generation, me("a barrier"));
        inner.waiters.push(me);
        loop {
            if inner.generation != gen {
                return inner.result;
            }
            if poison.is_poisoned() {
                inner.waiters.retain(|&w| w != me);
                drop(inner);
                poison.check();
                unreachable!("poison.check() panics when poisoned");
            }
            drop(inner);
            fiber::park();
            inner = self.inner.lock();
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
            Self::finish_round(&mut inner);
        }
    }

    /// The round in progress, if somebody waits in it: `(round, arrived,
    /// expected)`. For the stall report.
    pub(crate) fn pending(&self) -> Option<(u64, usize, usize)> {
        let inner = self.inner.lock();
        (inner.count > 0).then_some((inner.generation, inner.count, inner.expected))
    }
}

/// Per-PE notification cell used by `wait_until`-style operations: remote
/// writers notify after touching a PE's heap; the waiter re-checks its
/// predicate, under the lock, on every notify.
#[derive(Debug, Default)]
pub struct NotifyCell {
    lock: Mutex<()>,
    /// The fiber parked in [`Self::wait_until`], plus one; 0 when none.
    /// Read and written under `lock` only, so `Relaxed`.
    sleeper: AtomicUsize,
}

impl NotifyCell {
    /// Signal that the associated PE's memory may have changed.
    pub fn notify(&self) {
        self.notify_applying(|| ());
    }

    /// Run `f` (a write that this cell's waiter observes through its
    /// predicate) under the cell's lock, then unpark the waiter if it is
    /// asleep here.
    ///
    /// With [`Self::wait_until`] on the waiting side, this makes the
    /// write and its visibility one critical section: a waiter can only see
    /// the write's effects *after* everything `f` did — including, for the
    /// NIC arbiter, giving the waiter its horizon back — so an arbiter grant
    /// can never see "write landed, waiter still quiescent". Writers that
    /// are not fibers (a machine driven by hand from several threads) are
    /// serialized by the same lock.
    pub fn notify_applying<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.lock.lock();
        let out = f();
        if let sleeper @ 1.. = self.sleeper.load(Ordering::Relaxed) {
            fiber::unpark(sleeper - 1);
        }
        out
    }

    /// Block until `pred()` is true, with hooks run under the cell's
    /// lock: `on_sleep` immediately before every park (assert quiescence)
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
            self.sleeper.store(me("wait_until") + 1, Ordering::Relaxed);
            drop(g);
            fiber::park();
            g = self.lock.lock();
            self.sleeper.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    /// `body(0..n)` as fibers of one carrier; their results.
    fn on_fibers<T: Send>(
        n: usize,
        body: impl Fn(usize) -> T + Sync,
    ) -> Vec<std::thread::Result<T>> {
        fiber::run(n, 64 << 10, body, || false).0
    }

    fn yields(k: usize) {
        (0..k).for_each(|_| fiber::yield_now());
    }

    #[test]
    fn barrier_returns_max_clock() {
        let (b, poison) = (ClockBarrier::new(4), Poison::default());
        let out = on_fibers(4, |i| {
            // Stagger arrivals a little.
            yields(5 * i);
            b.arrive([10u64, 500, 30, 40][i], &poison)
        });
        for r in out {
            assert_eq!(r.unwrap(), 500);
        }
    }

    #[test]
    fn barrier_rounds_are_independent() {
        let (b, poison) = (ClockBarrier::new(2), Poison::default());
        let out = on_fibers(2, |i| {
            let r1 = b.arrive([50, 100][i], &poison);
            let r2 = b.arrive([700, r1 + 1][i], &poison);
            (r1, r2)
        });
        for r in out {
            assert_eq!(r.unwrap(), (100, 700));
        }
    }

    #[test]
    fn poisoned_barrier_does_not_hang() {
        let (b, poison) = (ClockBarrier::new(2), Poison::default());
        let mut out = on_fibers(2, |i| {
            if i == 0 {
                b.arrive(0, &poison);
            } else {
                yields(3);
                poison.poison();
                assert!(fiber::unpark(0), "the waiter is parked in the barrier");
            }
        });
        assert!(out.pop().unwrap().is_ok());
        assert!(out.pop().unwrap().is_err(), "waiter should have panicked out of the barrier");
    }

    #[test]
    fn leave_completes_a_pending_round() {
        // Two of three arrive, then the third departs instead of arriving:
        // the waiters must complete the round among themselves.
        let (b, poison) = (ClockBarrier::new(3), Poison::default());
        let out = on_fibers(3, |i| {
            if i == 2 {
                yields(3);
                b.leave();
                return (0, 0);
            }
            let first = b.arrive([100, 250][i], &poison);
            // Subsequent rounds need only the two remaining members.
            (first, b.arrive([7, 9][i], &poison))
        });
        let out: Vec<_> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(out, vec![(250, 9), (250, 9), (0, 0)]);
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
        let (cell, flag, poison) = (NotifyCell::default(), AtomicU64::new(0), Poison::default());
        let out = on_fibers(2, |i| {
            if i == 0 {
                cell.wait_until(&poison, || flag.load(Ordering::Acquire) == 7, || (), || ());
            } else {
                yields(3);
                flag.store(7, Ordering::Release);
                cell.notify();
            }
        });
        assert!(out.into_iter().all(|r| r.is_ok()));
    }

    #[test]
    fn a_waiter_sees_all_or_none_of_an_applying_write() {
        // The writer publishes a value and, 20 ms later in the same section,
        // its record (what the sanitizer's edge reads). A waiter arriving in
        // between must not get past the value alone. (Two OS threads: on one
        // carrier nothing runs inside another PE's section at all.)
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
