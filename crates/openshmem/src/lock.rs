//! OpenSHMEM distributed locks (`shmem_set_lock` / `shmem_test_lock` /
//! `shmem_clear_lock`).
//!
//! Per the specification, a lock is a symmetric 8-byte word treated as a
//! **single, logically global entity**: acquiring it excludes every other PE,
//! everywhere. There is no way to lock "the copy on PE j" — which is exactly
//! why the paper (§IV-D) rejects these locks as an implementation vehicle
//! for CAF's per-image locks and adapts the MCS algorithm instead (see the
//! `caf` crate).
//!
//! The implementation here is the classic test-and-set on the word's home
//! PE (PE 0 of the world) with bounded exponential backoff, which is what
//! several production SHMEM libraries ship.

use crate::data::SymPtr;
use crate::shmem::Shmem;

/// Home PE of every global lock word.
const LOCK_HOME: usize = 0;

/// Backoff bounds (virtual nanoseconds).
const BACKOFF_MIN_NS: f64 = 400.0;
const BACKOFF_MAX_NS: f64 = 64_000.0;

impl<'m> Shmem<'m> {
    /// `shmem_set_lock`: acquire the global lock, spinning with exponential
    /// backoff on the home PE's word.
    pub fn set_lock(&self, lock: SymPtr<u64>) {
        let me = self.my_pe() as u64 + 1;
        let mut backoff = BACKOFF_MIN_NS;
        let start = self.ctx().pe().now();
        loop {
            let prev = self.cswap(lock, 0u64, me, LOCK_HOME);
            if prev == 0 {
                self.charge_spin_wait(start, LOCK_HOME, BACKOFF_MIN_NS, BACKOFF_MAX_NS);
                return;
            }
            // Back off in virtual time, and let the holder run (on whichever
            // engine carries this PE).
            self.ctx().pe().advance(backoff);
            backoff = (backoff * 2.0).min(BACKOFF_MAX_NS);
            self.ctx().pe().yield_now();
        }
    }

    /// Account for a spin-wait on a word homed on `home` that began at
    /// `start` and ended, with the winning compare-and-swap, at the current
    /// virtual time. `min_ns`/`max_ns` bound the spinner's exponential
    /// backoff.
    ///
    /// A waiter retries when it is scheduled, not once per backoff: one PE
    /// runs at a time, and a blocked spinner may find the word free on its
    /// first retry even though, in virtual time, it waited out several
    /// holders via the causality lift. So the wait is measured on the
    /// virtual clock and charged uniformly: the expected half-backoff
    /// discretization delay, plus the polling messages the wait implies on
    /// the home PE's NIC — the remote-spinning cost MCS locks avoid (§IV-D).
    /// The wait is what the clock moved beyond one uncontended fetching
    /// `amo`; a wait no longer than that `amo` charges nothing.
    pub fn charge_spin_wait(&self, start: u64, home: usize, min_ns: f64, max_ns: f64) {
        let base = self.ctx().cost_model().amo_estimate_ns(self.my_pe(), home) as f64;
        let waited = (self.ctx().pe().now() - start) as f64 - base;
        if waited <= base {
            return; // essentially uncontended
        }
        // Exponential backoff settles near min(waited/4, max); polls are
        // spaced a round trip plus a backoff apart.
        let steady = (waited / 4.0).clamp(min_ns, max_ns);
        self.ctx().pe().advance(steady * 0.5);
        let polls = (waited / (steady + base)).ceil().min(128.0) as u64;
        self.ctx().charge_poll_traffic(home, polls);
    }

    /// `shmem_test_lock`: try once; `true` means acquired.
    pub fn test_lock(&self, lock: SymPtr<u64>) -> bool {
        let me = self.my_pe() as u64 + 1;
        self.cswap(lock, 0u64, me, LOCK_HOME) == 0
    }

    /// `shmem_clear_lock`: release. Panics if the caller does not hold the
    /// lock (a usage error the C API leaves undefined).
    pub fn clear_lock(&self, lock: SymPtr<u64>) {
        let me = self.my_pe() as u64 + 1;
        let prev = self.cswap(lock, me, 0u64, LOCK_HOME);
        assert_eq!(
            prev,
            me,
            "shmem_clear_lock by PE {} which does not hold the lock (holder word: {prev})",
            self.my_pe()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shmem::ShmemConfig;
    use pgas_conduit::ConduitProfile;
    use pgas_machine::{generic_smp, run, run_with_result, Platform};

    fn mk(pe: pgas_machine::machine::Pe<'_>) -> Shmem<'_> {
        Shmem::new(pe, ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp)))
    }

    #[test]
    fn lock_provides_mutual_exclusion() {
        let iters = 50;
        let out = run(generic_smp(6).with_heap_bytes(1 << 16), |pe| {
            let shmem = mk(pe);
            let lock = shmem.shmalloc::<u64>(1).unwrap();
            let counter = shmem.shmalloc::<i64>(1).unwrap();
            shmem.barrier_all();
            for _ in 0..iters {
                shmem.set_lock(lock);
                // Unprotected read-modify-write: only safe under the lock.
                let v = shmem.g(counter, 0);
                shmem.p(counter, v + 1, 0);
                shmem.quiet();
                shmem.clear_lock(lock);
            }
            shmem.barrier_all();
            shmem.g(counter, 0)
        });
        for r in out.results {
            assert_eq!(r, 6 * iters);
        }
    }

    #[test]
    fn test_lock_fails_while_held() {
        let out = run(generic_smp(2).with_heap_bytes(1 << 16), |pe| {
            let shmem = mk(pe);
            let lock = shmem.shmalloc::<u64>(1).unwrap();
            let flag = shmem.shmalloc::<u64>(1).unwrap();
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                shmem.set_lock(lock);
                shmem.atomic_set(flag, 1, 1); // tell PE 1 the lock is held
                shmem.wait_until(flag, crate::shmem::Cmp::Eq, 2);
                shmem.clear_lock(lock);
                true
            } else {
                shmem.wait_until(flag, crate::shmem::Cmp::Eq, 1);
                let got = shmem.test_lock(lock);
                shmem.atomic_set(flag, 2, 0);
                got
            }
        });
        assert!(!out.results[1], "test_lock must fail while PE 0 holds it");
    }

    #[test]
    fn test_lock_acquires_when_free() {
        let out = run(generic_smp(1).with_heap_bytes(1 << 16), |pe| {
            let shmem = mk(pe);
            let lock = shmem.shmalloc::<u64>(1).unwrap();
            let first = shmem.test_lock(lock);
            let second = shmem.test_lock(lock);
            shmem.clear_lock(lock);
            let third = shmem.test_lock(lock);
            shmem.clear_lock(lock);
            (first, second, third)
        });
        assert_eq!(out.results[0], (true, false, true));
    }

    #[test]
    fn an_uncontended_set_lock_costs_one_fetching_amo() {
        // Nobody else wants the lock, so the acquire is one compare-and-swap
        // and its wait charge adds nothing: within a node and between nodes,
        // over native and AM-emulated atomics.
        use pgas_machine::{titan, FaultPlan};
        for profile in
            [ConduitProfile::cray_shmem(Platform::Titan), ConduitProfile::gasnet(Platform::Titan)]
        {
            for (nodes, cores) in [(1, 2), (2, 1)] {
                let cfg =
                    titan(nodes, cores).with_heap_bytes(1 << 16).with_faults(FaultPlan::none());
                let out = run(cfg, move |pe| {
                    let shmem = Shmem::new(pe, ShmemConfig::new(profile));
                    let lock = shmem.shmalloc::<u64>(1).unwrap();
                    shmem.barrier_all();
                    let mut cost = (0, 0);
                    if shmem.my_pe() == 1 {
                        let t0 = shmem.ctx().pe().now();
                        shmem.set_lock(lock);
                        let elapsed = shmem.ctx().pe().now() - t0;
                        cost = (elapsed, shmem.ctx().cost_model().amo_estimate_ns(1, LOCK_HOME));
                        shmem.clear_lock(lock);
                    }
                    shmem.barrier_all();
                    cost
                });
                let (elapsed, amo) = out.results[1];
                assert_eq!(elapsed, amo, "{} on {nodes}x{cores}", profile.label());
            }
        }
    }

    #[test]
    fn clear_by_non_holder_panics() {
        let err = run_with_result(generic_smp(2).with_heap_bytes(1 << 16), |pe| {
            let shmem = mk(pe);
            let lock = shmem.shmalloc::<u64>(1).unwrap();
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                shmem.set_lock(lock);
            }
            shmem.barrier_all();
            if shmem.my_pe() == 1 {
                shmem.clear_lock(lock); // not the holder
            }
            shmem.barrier_all();
        })
        .unwrap_err();
        assert!(err.message.contains("does not hold the lock"));
    }
}
