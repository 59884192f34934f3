//! CAF events (`event_type` / `event post` / `event wait` / `event_query`)
//! — one of the "additional features, not presently in the Fortran standard
//! ... available in the CAF implementation in OpenUH" the paper mentions
//! (standardized later in Fortran 2018).
//!
//! An event variable is a symmetric counter word; `post` is a remote atomic
//! increment, `wait` spins locally (via `shmem_wait_until`) and then
//! consumes the requested count.

use crate::failure::CafStat;
use crate::image::{Image, ImageId};
use openshmem::data::SymPtr;
use openshmem::shmem::Cmp;
use std::sync::atomic::Ordering;

/// An event coarray variable (`type(event_type) :: ev[*]`).
#[derive(Debug, Clone, Copy)]
pub struct EventVar {
    count: SymPtr<u64>,
    /// Already-consumed posts (local bookkeeping word, stored symmetrically
    /// right after the counter so the pair stays one allocation).
    consumed: SymPtr<u64>,
}

impl<'m> Image<'m> {
    /// Declare an event coarray variable. Collective.
    pub fn event_var(&self) -> EventVar {
        let words =
            self.shmem().shmalloc::<u64>(2).expect("symmetric heap exhausted for event var");
        self.shmem().write_local(words, &[0, 0]);
        self.sync_all();
        EventVar { count: words.slice(0, 1), consumed: words.slice(1, 1) }
    }

    /// `event post(ev[image])`: increment the remote counter. Completes
    /// prior writes first (the Fortran semantics make `post` a release
    /// operation).
    pub fn event_post(&self, ev: &EventVar, image: ImageId) {
        self.shmem().quiet();
        self.shmem().inc(ev.count, self.pe_of(image));
        self.shmem().quiet();
    }

    /// `event wait(ev [, until_count])` on this image's own event variable:
    /// block until `until_count` un-consumed posts are available, then
    /// consume them.
    pub fn event_wait(&self, ev: &EventVar, until_count: u64) {
        assert!(until_count > 0, "event wait needs a positive count");
        let consumed = self.shmem().read_local_one(ev.consumed);
        let target = consumed + until_count;
        self.shmem().wait_until(ev.count, Cmp::Ge, target);
        self.shmem().write_local(ev.consumed, &[target]);
    }

    /// `event wait(ev, until_count, stat=s)`: failure-aware wait on this
    /// image's event variable. `poster` (1-based) is the image expected to
    /// supply the missing posts; if it dies before enough arrive, the wait
    /// abandons and reports STAT_FAILED_IMAGE instead of hanging. Posts
    /// that did arrive stay un-consumed.
    pub fn event_wait_stat(
        &self,
        ev: &EventVar,
        until_count: u64,
        poster: ImageId,
    ) -> Result<(), CafStat> {
        assert!(until_count > 0, "event wait needs a positive count");
        let m = self.machine();
        if !m.faults_active() {
            self.event_wait(ev, until_count);
            return Ok(());
        }
        self.check_alive()?;
        let me0 = self.this_image() - 1;
        let pe = self.pe_of(poster);
        let consumed = self.shmem().read_local_one(ev.consumed);
        let target = consumed + until_count;
        let word = m.heap(me0).atomic64(ev.count.offset());
        m.wait_on(me0, || word.load(Ordering::Acquire) >= target || m.pe_failed(pe));
        if word.load(Ordering::Acquire) < target {
            return Err(CafStat::FailedImage { image: poster });
        }
        // Charge the wait and take the sync edge through the ordinary path.
        self.shmem().wait_until(ev.count, Cmp::Ge, target);
        self.shmem().write_local(ev.consumed, &[target]);
        Ok(())
    }

    /// `call event_query(ev, count)`: un-consumed posts on this image's
    /// event variable.
    pub fn event_query(&self, ev: &EventVar) -> u64 {
        let posted = self.shmem().read_local_one(ev.count);
        posted - self.shmem().read_local_one(ev.consumed)
    }
}

#[cfg(test)]
mod tests {

    use crate::config::{Backend, CafConfig};
    use crate::runtime::run_caf;
    use pgas_machine::{generic_smp, Platform};

    fn cfg() -> CafConfig {
        CafConfig::new(Backend::Shmem, Platform::GenericSmp)
    }

    fn mcfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 17)
    }

    #[test]
    fn producer_consumer_handoff() {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let ev = img.event_var();
            let c = img.coarray::<i64>(&[1]).unwrap();
            if img.this_image() == 1 {
                c.put_to(img, 2, &[99]);
                img.event_post(&ev, 2); // post implies completion of the put
                0
            } else {
                img.event_wait(&ev, 1);
                c.read_local(img)[0]
            }
        });
        assert_eq!(out.results[1], 99);
    }

    #[test]
    fn wait_for_multiple_posts() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            let ev = img.event_var();
            if img.this_image() == 1 {
                img.event_wait(&ev, 3); // one post from each other image
                img.event_query(&ev)
            } else {
                img.event_post(&ev, 1);
                0
            }
        });
        assert_eq!(out.results[0], 0, "all three posts consumed");
    }

    #[test]
    fn query_counts_unconsumed() {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let ev = img.event_var();
            img.sync_all();
            if img.this_image() == 2 {
                for _ in 0..5 {
                    img.event_post(&ev, 1);
                }
            }
            img.sync_all();
            if img.this_image() == 1 {
                let before = img.event_query(&ev);
                img.event_wait(&ev, 2);
                let after = img.event_query(&ev);
                (before, after)
            } else {
                (0, 0)
            }
        });
        assert_eq!(out.results[0], (5, 3));
    }

    #[test]
    fn repeated_rounds_accumulate_correctly() {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let ev = img.event_var();
            for _ in 0..10 {
                if img.this_image() == 2 {
                    img.event_post(&ev, 1);
                } else {
                    img.event_wait(&ev, 1);
                }
            }
            if img.this_image() == 1 {
                img.event_query(&ev)
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 0);
    }
}
