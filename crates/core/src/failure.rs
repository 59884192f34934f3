//! Fortran 2018 failed-image semantics over the machine's fault layer.
//!
//! A [`pgas_machine::FaultPlan`] can schedule PE deaths at virtual-time
//! instants; the machine marks a PE dead the first time its clock crosses
//! the deadline and detaches it from every barrier. This module gives CAF
//! programs the standard's view of that state:
//!
//! * `failed_images()` / `image_failed()` — the F2018 inquiry functions;
//! * `sync_all_stat` / `sync_images_stat` — image control with `stat=`,
//!   returning [`CafStat::FailedImage`] (STAT_FAILED_IMAGE) instead of
//!   hanging on a dead partner;
//! * `co_sum_stat` / `co_reduce_stat` / `co_broadcast_stat` — collectives
//!   that complete among the survivors (the plain `co_*` entry points also
//!   switch to the survivor path once any image has failed);
//! * stat-bearing co-indexed access lives on [`crate::coarray::Coarray`]
//!   (`put_to_stat` etc.), built on the conduit's fallible operations.
//!
//! **Execution model — cooperative death.** Image failure is a virtual-time
//! event: the *simulated* PE is dead, but the OS thread driving it keeps
//! running. A well-formed resilient program checks for failure at its image
//! control points (`sync_all_stat`, `image_failed(this_image())`, ...) and
//! returns early, exactly as a Fortran program polls `stat=`. Code that
//! ignores the stat keeps executing — the simulator does not tear threads
//! down mid-statement — but its communication targets observe
//! STAT_FAILED_IMAGE and its barrier arrivals are no-ops.
//!
//! **Determinism.** With a fixed plan and seed the failure instants, the
//! survivor sets, and every retry/backoff delay are functions of the
//! virtual clocks alone, so outcomes are reproducible bit-for-bit. The one
//! discipline required of test programs: enter post-failure collectives
//! only after an image-control statement has observed the failure, so all
//! survivors agree on the survivor set.

use crate::image::{Image, ImageId};
use openshmem::data::Scalar;
use openshmem::shmem::Cmp;
use pgas_conduit::ConduitError;
use std::sync::atomic::Ordering;

/// Fortran `stat=` conditions involving failed images (ISO_FORTRAN_ENV's
/// STAT_FAILED_IMAGE) and unrecoverable communication faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CafStat {
    /// STAT_FAILED_IMAGE: the named image (1-based) has failed.
    FailedImage { image: ImageId },
    /// Communication with `image` kept hitting transient faults until the
    /// retry budget ran out, without the image being marked failed — a
    /// sick-but-not-dead link.
    CommFailure { image: ImageId, attempts: u32 },
}

impl CafStat {
    /// The image the condition is about (1-based).
    pub fn image(&self) -> ImageId {
        match *self {
            CafStat::FailedImage { image } => image,
            CafStat::CommFailure { image, .. } => image,
        }
    }
}

impl std::fmt::Display for CafStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CafStat::FailedImage { image } => {
                write!(f, "STAT_FAILED_IMAGE: image {image} has failed")
            }
            CafStat::CommFailure { image, attempts } => {
                write!(
                    f,
                    "communication with image {image} still failing after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for CafStat {}

impl From<ConduitError> for CafStat {
    fn from(e: ConduitError) -> CafStat {
        match e {
            ConduitError::TargetFailed { target, .. } => CafStat::FailedImage { image: target + 1 },
            ConduitError::RetriesExhausted { target, attempts, .. } => {
                CafStat::CommFailure { image: target + 1, attempts }
            }
            // End-to-end checksum verification failed on every attempt: the
            // link is delivering garbage, which Fortran has no finer stat
            // for than "communication with that image keeps failing".
            ConduitError::PayloadCorrupt { target, attempts, .. } => {
                CafStat::CommFailure { image: target + 1, attempts }
            }
        }
    }
}

impl<'m> Image<'m> {
    // ---- inquiry -------------------------------------------------------------

    /// `failed_images()`: every image marked dead so far, ascending, 1-based.
    pub fn failed_images(&self) -> Vec<ImageId> {
        self.machine().failed_pes().iter().map(|&pe| pe + 1).collect()
    }

    /// `image_status(image) == STAT_FAILED_IMAGE`: has `image` (1-based)
    /// failed?
    pub fn image_failed(&self, image: ImageId) -> bool {
        self.machine().pe_failed(self.pe_of(image))
    }

    /// Has *this* image failed? Resilient kernels poll this (or any `stat=`
    /// result) at image-control points and return early — the cooperative
    /// half of the failure model.
    pub fn this_image_failed(&self) -> bool {
        self.machine().pe_failed(self.this_image() - 1)
    }

    /// Deterministic liveness probe: has `image`'s *scheduled* failure
    /// deadline passed by this image's own virtual clock? Unlike
    /// [`Self::image_failed`] — which reads a flag another OS thread flips
    /// and therefore races real time — this is a pure function of the fault
    /// plan and the caller's clock, the same predicate the conduit's
    /// dead-target gates use. Resilient kernels that branch on it make
    /// bit-identical decisions on any host schedule.
    pub fn image_dead_by_now(&self, image: ImageId) -> bool {
        self.machine().pe_dead_at(self.pe_of(image), self.shmem().ctx().pe().now())
    }

    /// STAT_FAILED_IMAGE for the lowest-numbered failed image, if any.
    pub(crate) fn first_failed_stat(&self) -> Option<CafStat> {
        self.machine().failed_pes().first().map(|&pe| CafStat::FailedImage { image: pe + 1 })
    }

    /// STAT_FAILED_IMAGE naming this image if it has failed: the entry
    /// check of the stat-bearing image controls and collectives.
    pub(crate) fn check_alive(&self) -> Result<(), CafStat> {
        if self.this_image_failed() {
            return Err(CafStat::FailedImage { image: self.this_image() });
        }
        Ok(())
    }

    // ---- image control with stat= -------------------------------------------

    /// `sync all (stat=s)`: the barrier completes among the surviving
    /// images (the machine detaches dead PEs from the global barrier), then
    /// reports STAT_FAILED_IMAGE if any image has failed.
    pub fn sync_all_stat(&self) -> Result<(), CafStat> {
        self.check_alive()?;
        self.sync_all();
        self.first_failed_stat().map_or(Ok(()), Err)
    }

    /// `sync images(list, stat=s)`: pairwise synchronization that skips
    /// partners already dead and abandons the wait for a partner that dies
    /// before arriving, reporting STAT_FAILED_IMAGE for the first such
    /// image. Live handshakes in `list` still complete normally.
    pub fn sync_images_stat(&self, images: &[ImageId]) -> Result<(), CafStat> {
        let m = self.machine();
        if !m.faults_active() {
            self.sync_images(images);
            return Ok(());
        }
        self.check_alive()?;
        let me0 = self.this_image() - 1;
        let mut stat: Option<CafStat> = None;
        self.shmem().quiet();
        for &img in images {
            let pe = self.pe_of(img);
            if m.pe_failed(pe) {
                stat.get_or_insert(CafStat::FailedImage { image: img });
                continue;
            }
            if let Err(e) = self.shmem().try_add(self.sync_counters.at(me0), 1u64, pe) {
                stat.get_or_insert(e.into());
            }
        }
        self.shmem().quiet();
        let mut expected = self.sync_expected.borrow_mut();
        for &img in images {
            let pe = self.pe_of(img);
            let slot = self.sync_counters.at(pe);
            let target = expected[pe] + 1;
            // Block on arrival-or-death; the machine wakes all waiters when
            // a PE is marked dead, so the predicate re-evaluates promptly.
            let word = m.heap(me0).atomic64(slot.offset());
            m.wait_on(me0, || word.load(Ordering::Acquire) >= target || m.pe_failed(pe));
            if word.load(Ordering::Acquire) >= target {
                expected[pe] = target;
                // Re-issue through the ordinary path: charges the wait in
                // virtual time and gives the sanitizer its sync edge.
                self.shmem().wait_until(slot, Cmp::Ge, target);
            } else {
                // The partner died before arriving; this round's handshake
                // is abandoned (`expected` stays put — the image stays dead).
                stat.get_or_insert(CafStat::FailedImage { image: img });
            }
        }
        drop(expected);
        stat.map_or(Ok(()), Err)
    }

    // ---- collectives among survivors ----------------------------------------

    /// `co_reduce` with `stat=`: fault-free jobs take the ordinary
    /// reduction tree; once any image has failed, the survivors run the
    /// linear fallback and the call reports STAT_FAILED_IMAGE even though
    /// the reduction over the survivors' contributions completed.
    pub fn co_reduce_stat<T: Scalar>(
        &self,
        data: &mut [T],
        result_image: Option<ImageId>,
        op: impl Fn(T, T) -> T + Copy,
    ) -> Result<(), CafStat> {
        if !self.machine().any_pe_failed() {
            self.co_reduce(data, result_image, op);
            return Ok(());
        }
        self.co_reduce_survivors(data, result_image, op)
    }

    /// `co_sum` with `stat=`.
    pub fn co_sum_stat<T: Scalar + std::ops::Add<Output = T>>(
        &self,
        data: &mut [T],
        result_image: Option<ImageId>,
    ) -> Result<(), CafStat> {
        self.co_reduce_stat(data, result_image, |a, b| a + b)
    }

    /// `co_broadcast` with `stat=`.
    pub fn co_broadcast_stat<T: Scalar>(
        &self,
        data: &mut [T],
        source_image: ImageId,
    ) -> Result<(), CafStat> {
        if !self.machine().any_pe_failed() {
            self.co_broadcast(data, source_image);
            return Ok(());
        }
        self.co_broadcast_survivors(data, source_image)
    }

    /// Linear survivor-set reduction. The tree algorithms beneath the plain
    /// collectives assume every rank of an [`openshmem::ActiveSet`]
    /// participates, and active sets are strided triples that cannot name an
    /// arbitrary survivor subset — so after a failure the images gather on
    /// the lowest surviving PE through fresh symmetric scratch, with
    /// `sync all` separating the phases (dead images have left the global
    /// barrier, so the survivors rendezvous among themselves).
    pub(crate) fn co_reduce_survivors<T: Scalar>(
        &self,
        data: &mut [T],
        result_image: Option<ImageId>,
        op: impl Fn(T, T) -> T + Copy,
    ) -> Result<(), CafStat> {
        self.check_alive()?;
        let m = self.machine();
        let survivors: Vec<usize> = (0..self.num_images()).filter(|&p| !m.pe_failed(p)).collect();
        let wants = |pe| self.wants_result(pe, result_image);
        let stat = self.linear_reduce(&survivors, data, op, wants, |s| self.sync_all_keeping(s));
        stat.or_else(|| self.first_failed_stat()).map_or(Ok(()), Err)
    }

    /// Linear survivor-set broadcast; see [`Self::co_reduce_survivors`].
    pub(crate) fn co_broadcast_survivors<T: Scalar>(
        &self,
        data: &mut [T],
        source_image: ImageId,
    ) -> Result<(), CafStat> {
        self.check_alive()?;
        let m = self.machine();
        let root = self.pe_of(source_image);
        if m.pe_failed(root) {
            // The source died: nothing can be replicated. Every survivor
            // observes the same dead source (entry discipline) and returns
            // without touching the scratch phases.
            return Err(CafStat::FailedImage { image: source_image });
        }
        let survivors: Vec<usize> = (0..self.num_images()).filter(|&p| !m.pe_failed(p)).collect();
        let stat = self.linear_broadcast(&survivors, root, data, |s| self.sync_all_keeping(s));
        stat.or_else(|| self.first_failed_stat()).map_or(Ok(()), Err)
    }

    /// `sync all`, passing the stat gathered so far through untouched.
    fn sync_all_keeping(&self, stat: Option<CafStat>) -> Option<CafStat> {
        self.sync_all();
        stat
    }

    /// The one linear reduction over `live` (ascending 0-based PEs, this
    /// image among them): every member puts its contribution into its slot
    /// of fresh symmetric scratch on the lowest member, which combines them
    /// in `live` order and puts the result back to each member `wants`
    /// names. `barrier` separates the four phases; it takes the first stat
    /// so far (a failed put's, or an earlier barrier's) and returns the new
    /// one. Returns that first stat.
    pub(crate) fn linear_reduce<T: Scalar>(
        &self,
        live: &[usize],
        data: &mut [T],
        op: impl Fn(T, T) -> T,
        wants: impl Fn(usize) -> bool,
        mut barrier: impl FnMut(Option<CafStat>) -> Option<CafStat>,
    ) -> Option<CafStat> {
        let shmem = self.shmem();
        let me0 = self.this_image() - 1;
        let len = data.len();
        let root = live[0];
        let mut stat: Option<CafStat> = None;
        // One contribution slot per image (global indexing keeps the layout
        // independent of the survivor set); slot 0 doubles as the result
        // slot, since the root contributes straight from `data`.
        let slots = shmem
            .shmalloc::<T>((self.num_images() * len).max(1))
            .expect("survivor collective: scratch allocation");
        stat = barrier(stat);
        if len > 0 && me0 != root {
            if let Err(e) = shmem.try_put(slots.slice(me0 * len, len), data, root) {
                stat.get_or_insert(e.into());
            }
            shmem.quiet();
        }
        stat = barrier(stat); // contributions landed
        if me0 == root && len > 0 {
            let mut acc = data.to_vec();
            let mut part = data.to_vec();
            for &p in &live[1..] {
                shmem.read_local(slots.slice(p * len, len), &mut part);
                for (a, &b) in acc.iter_mut().zip(part.iter()) {
                    *a = op(*a, b);
                }
            }
            for &p in live[1..].iter().filter(|&&p| wants(p)) {
                if let Err(e) = shmem.try_put(slots.slice(0, len), &acc, p) {
                    stat.get_or_insert(e.into());
                }
            }
            shmem.quiet();
            if wants(root) {
                data.copy_from_slice(&acc);
            }
        }
        stat = barrier(stat); // result delivered
        if len > 0 && me0 != root && wants(me0) {
            shmem.read_local(slots.slice(0, len), data);
        }
        stat = barrier(stat); // no image recycles the scratch before all have read
        shmem.shfree(slots).expect("survivor collective: scratch free");
        stat
    }

    /// The one linear broadcast over `live`, the mirror of
    /// [`Self::linear_reduce`]: `root` (a member) puts `data` into fresh
    /// scratch on every other member, three `barrier` phases apart.
    pub(crate) fn linear_broadcast<T: Scalar>(
        &self,
        live: &[usize],
        root: usize,
        data: &mut [T],
        mut barrier: impl FnMut(Option<CafStat>) -> Option<CafStat>,
    ) -> Option<CafStat> {
        let shmem = self.shmem();
        let me0 = self.this_image() - 1;
        let len = data.len();
        let mut stat: Option<CafStat> = None;
        let slots =
            shmem.shmalloc::<T>(len.max(1)).expect("survivor collective: scratch allocation");
        stat = barrier(stat);
        if len > 0 && me0 == root {
            for &p in live.iter().filter(|&&p| p != root) {
                if let Err(e) = shmem.try_put(slots, data, p) {
                    stat.get_or_insert(e.into());
                }
            }
            shmem.quiet();
        }
        stat = barrier(stat); // payload delivered
        if len > 0 && me0 != root {
            shmem.read_local(slots, data);
        }
        stat = barrier(stat); // no image recycles the scratch before all have read
        shmem.shfree(slots).expect("survivor collective: scratch free");
        stat
    }

    #[inline]
    fn wants_result(&self, pe: usize, result_image: Option<ImageId>) -> bool {
        match result_image {
            None => true,
            Some(r) => self.pe_of(r) == pe,
        }
    }
}
