//! Bounded worker-pool scheduler: multiplex many PEs onto few runnable
//! slots, admitting in virtual-time order.
//!
//! Every PE has a thread or a fiber of its own (see `crate::launch`), but
//! with a worker limit `W` at most `W` of them are *runnable* at any
//! instant. Every other PE is either blocked in a rendezvous
//! (barrier, `wait_on`, a parked NIC-arbiter request) — where it holds no
//! slot — or parked in the ready queue waiting for one.
//!
//! The ready queue generalizes [`crate::machine::Machine::nic_turn`]'s
//! `(start, pe)` parking discipline: it is ordered by `(virtual clock, pe)`
//! and only the *minimum* ready key is admitted when a slot frees, so the
//! scheduler always runs the minimum-virtual-time ready task. Admission
//! order cannot change any simulation outcome — virtual-time results depend
//! only on program logic and on NIC reservation order, which the arbiter
//! fixes by `(start, pe)` independent of real scheduling — it just keeps
//! execution close to the virtual-time frontier, which minimizes the time
//! arbiter grants spend waiting on lagging clocks.
//!
//! Yield points (where a slot is released and later re-acquired at the
//! PE's post-wake clock): `wait_on`, barrier arrival, a parked NIC-arbiter
//! turn, and PE start/finish. Pure compute stretches between communication
//! points run without preemption — the model is cooperative, and every
//! virtual-time-advancing *blocking* point yields.
//!
//! Slot accounting is panic-safe: `holds[pe]` records slot ownership, and
//! release is idempotent, so a poison panic unwinding out of a blocking
//! region (slot already released) does not double-free the slot when the
//! launcher runs its finish hook.

use crate::machine::PeId;
use crate::sync::{Poison, WAIT_TICK_IDLE, WAIT_TICK_MIN};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

#[derive(Debug)]
struct SchedInner {
    /// Slots currently held by runnable PE threads, `<= workers`.
    running: usize,
    /// Ready PEs waiting for a slot, ordered by `(virtual clock, pe)`.
    /// A PE's clock is frozen while it waits, so keys are stable.
    waiting: BTreeSet<(u64, PeId)>,
}

/// Worker-pool state (built only when a worker limit below the PE count was
/// resolved; legacy one-thread-per-PE machines carry `None` and pay nothing).
#[derive(Debug)]
pub(crate) struct SchedState {
    workers: usize,
    inner: Mutex<SchedInner>,
    /// Per-PE condvars, all guarded by the `inner` mutex. Admission only
    /// ever goes to the *minimum* ready key, so every wake targets exactly
    /// the PE that can act on it — a shared condvar would stampede all
    /// ready waiters through the mutex on every admission (O(n²) futex
    /// traffic across a run; the same thundering herd the NIC arbiter's
    /// parking lot had).
    cvs: Vec<Condvar>,
    /// `holds[pe]`: does `pe`'s thread currently own a slot? Only touched
    /// from `pe`'s own thread; makes release idempotent under unwinding.
    holds: Vec<AtomicBool>,
}

impl SchedState {
    pub(crate) fn new(workers: usize, n_pes: usize) -> SchedState {
        debug_assert!(workers > 0 && workers < n_pes);
        SchedState {
            workers,
            inner: Mutex::new(SchedInner { running: 0, waiting: BTreeSet::new() }),
            cvs: (0..n_pes).map(|_| Condvar::new()).collect(),
            holds: (0..n_pes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Wake the minimum ready key if a slot is free for it. Call with the
    /// `inner` mutex held — notification under the waiter's own mutex
    /// cannot be lost, which is what lets non-minimum waiters poll lazily.
    fn wake_min(&self, inner: &SchedInner) {
        if inner.running < self.workers {
            if let Some(&(_, pe)) = inner.waiting.iter().next() {
                self.cvs[pe].notify_all();
            }
        }
    }

    /// Block until `pe` (ready at virtual time `clock`) is admitted: a slot
    /// is free and `(clock, pe)` is the minimum ready key. Poison admits
    /// immediately so the thread can run to its propagation panic instead of
    /// hanging the join.
    pub(crate) fn acquire(&self, pe: PeId, clock: u64, poison: &Poison) {
        debug_assert!(!self.holds[pe].load(Ordering::Relaxed), "PE already holds a slot");
        let key = (clock, pe);
        let mut inner = self.inner.lock();
        let inserted = inner.waiting.insert(key);
        debug_assert!(inserted, "a PE waits on at most one ready key at a time");
        loop {
            if poison.is_poisoned() {
                inner.waiting.remove(&key);
                inner.running += 1;
                break;
            }
            let min = *inner.waiting.iter().next().expect("own key is waiting");
            if inner.running < self.workers && min == key {
                inner.waiting.remove(&key);
                inner.running += 1;
                break;
            }
            // Both ticks are backstops: every wake is sent under this mutex,
            // by name, to the key that became admissible. The minimum's is
            // short because it stalls every admission behind it.
            let tick = if min == key { WAIT_TICK_MIN } else { WAIT_TICK_IDLE };
            self.cvs[pe].wait_for(&mut inner, tick);
        }
        // The next-smallest ready key may be admissible too (workers > 1).
        self.wake_min(&inner);
        drop(inner);
        self.holds[pe].store(true, Ordering::Relaxed);
    }

    /// Give up `pe`'s slot (entering a blocking region, or finishing the
    /// program closure). Idempotent: a second release — e.g. the launcher's
    /// finish hook after a panic unwound out of a slotless blocking region —
    /// is a no-op.
    pub(crate) fn release(&self, pe: PeId) {
        if !self.holds[pe].swap(false, Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        debug_assert!(inner.running > 0, "release without a held slot");
        inner.running -= 1;
        self.wake_min(&inner);
    }

    /// Wake all ready-queue waiters so they observe poison.
    pub(crate) fn interrupt(&self) {
        for cv in &self.cvs {
            cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admits_minimum_key_first() {
        let s = SchedState::new(1, 3);
        let poison = Poison::default();
        // PE 2 is ready at t=10, PE 1 at t=50: with the single slot taken,
        // releasing it must admit PE 2 before PE 1.
        s.acquire(0, 0, &poison);
        let s = Arc::new(s);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (pe, clock) in [(2, 10u64), (1, 50)] {
            let (s, order) = (s.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let poison = Poison::default();
                s.acquire(pe, clock, &poison);
                order.lock().push(pe);
                std::thread::sleep(std::time::Duration::from_millis(10));
                s.release(pe);
            }));
            // Let the lower-clock waiter park first.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        s.release(0);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 1]);
    }

    #[test]
    fn release_is_idempotent() {
        let s = SchedState::new(2, 4);
        let poison = Poison::default();
        s.acquire(0, 0, &poison);
        s.release(0);
        s.release(0); // must not underflow
        s.acquire(1, 0, &poison);
        s.acquire(2, 0, &poison);
        assert_eq!(s.inner.lock().running, 2);
    }

    #[test]
    fn poison_admits_immediately() {
        let s = SchedState::new(1, 2);
        let poison = Poison::default();
        s.acquire(0, 0, &poison);
        poison.poison();
        // Slot is taken, but poison must not leave PE 1 parked forever.
        s.acquire(1, 0, &poison);
        assert!(s.holds[1].load(Ordering::Relaxed));
    }
}
