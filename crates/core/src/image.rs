//! The image execution context — CAF's equivalent of a PE, with the
//! runtime state the paper's translation needs (non-symmetric buffer space,
//! sync-images counters, the held-locks table).

use crate::config::CafConfig;
use crate::failure::CafStat;
use openshmem::alloc::{AllocError, SymAlloc};
use openshmem::data::{Scalar, SymPtr};
use openshmem::shmem::{Cmp, Shmem, ShmemConfig};
use openshmem::AmHandlerId;
use pgas_machine::machine::{Machine, Pe};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// 1-based image index, as in Fortran.
pub type ImageId = usize;

/// Handle to a block of this image's non-symmetric, remotely accessible
/// buffer space (offsets are relative to the buffer, ready for
/// [`crate::remote_ptr::RemotePtr`] packing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonSymHandle {
    pub offset: usize,
    pub len: usize,
}

/// One CAF image: wraps the OpenSHMEM context plus the translation state of
/// §IV of the paper.
pub struct Image<'m> {
    shmem: Shmem<'m>,
    cfg: CafConfig,
    /// Symmetric buffer out of which non-symmetric remotely-accessible data
    /// is managed (paper §IV-A): "we shmalloc a buffer of equal size on all
    /// PEs at the beginning of the program, and explicitly manage
    /// non-symmetric ... data allocations out of this buffer."
    nonsym_base: SymPtr<u8>,
    nonsym_alloc: RefCell<SymAlloc>,
    /// Per-source-image arrival counters for `sync images` (also used by
    /// the failure-aware waits in `crate::failure`).
    pub(crate) sync_counters: SymPtr<u64>,
    pub(crate) sync_expected: RefCell<Vec<u64>>,
    /// Locks currently held (or being acquired) by this image:
    /// (lock variable offset, allocation generation, target image 0-based)
    /// → qnode offset. The hash-table lookup of §IV-D. The generation
    /// component keeps a stale entry from aliasing a *different* lock
    /// variable whose tail word was later allocated at the same symmetric
    /// offset (shmem_free + shmalloc reuse).
    pub(crate) lock_table: RefCell<HashMap<(usize, u64, usize), usize>>,
    /// Allocation generations handed out to lock variables; see
    /// `lock_table`.
    pub(crate) lock_gen: std::cell::Cell<u64>,
    /// Current occupant of each lock-variable tail offset this image has
    /// created: tail offset → (generation, symmetric block base). The
    /// teardown audit compares held `lock_table` entries against this to
    /// catch lock variables deallocated (or recycled) while still held —
    /// the stale-lock hazard.
    pub(crate) lock_offsets: RefCell<HashMap<usize, (u64, usize)>>,
    /// The hidden lock variable backing `critical` sections (a 2-word
    /// [tail, holder] block, like every lock variable).
    critical_lock: SymPtr<u64>,
    /// The MCS protocol's remote-word-set active message (chain link,
    /// handoff, holder publication), registered symmetrically at
    /// construction; used when the conduit aggregates small ops.
    qnode_set_am: AmHandlerId,
}

impl<'m> Image<'m> {
    /// Initialize the runtime on this PE. Collective: every PE constructs
    /// with an identical `cfg`.
    pub fn new(pe: Pe<'m>, cfg: CafConfig) -> Image<'m> {
        let profile = cfg.backend.profile(cfg.platform);
        let shmem = Shmem::new(pe, ShmemConfig::new(profile).with_options(cfg.ctx_options()));
        let n = shmem.n_pes();
        let nonsym_base = shmem
            .shmalloc::<u8>(cfg.nonsym_bytes)
            .expect("symmetric heap too small for the non-symmetric buffer space");
        let sync_counters =
            shmem.shmalloc::<u64>(n).expect("symmetric heap too small for sync-images counters");
        let critical_lock =
            shmem.shmalloc::<u64>(2).expect("symmetric heap too small for the critical lock");
        let qnode_set_am = shmem.register_am(Rc::new(crate::locks::QnodeSetAm));
        Image {
            nonsym_alloc: RefCell::new(SymAlloc::new(cfg.nonsym_bytes)),
            nonsym_base,
            sync_counters,
            sync_expected: RefCell::new(vec![0; n]),
            lock_table: RefCell::new(HashMap::new()),
            lock_gen: std::cell::Cell::new(0),
            lock_offsets: RefCell::new(HashMap::new()),
            critical_lock,
            qnode_set_am,
            shmem,
            cfg,
        }
    }

    /// The MCS remote-word-set active-message handler id (see
    /// [`crate::locks::QnodeSetAm`]).
    #[inline]
    pub(crate) fn qnode_set_am(&self) -> AmHandlerId {
        self.qnode_set_am
    }

    /// `this_image()`: 1-based, as in Fortran.
    #[inline]
    pub fn this_image(&self) -> ImageId {
        self.shmem.my_pe() + 1
    }

    /// `num_images()`.
    #[inline]
    pub fn num_images(&self) -> usize {
        self.shmem.n_pes()
    }

    /// The OpenSHMEM layer beneath this image.
    #[inline]
    pub fn shmem(&self) -> &Shmem<'m> {
        &self.shmem
    }

    /// The machine the job runs on.
    #[inline]
    pub fn machine(&self) -> &'m Machine {
        self.shmem.machine()
    }

    /// Runtime configuration.
    #[inline]
    pub fn config(&self) -> &CafConfig {
        &self.cfg
    }

    /// Convert a 1-based image index to a PE index, with bounds checking.
    /// Public so applications can address lower layers (e.g. active
    /// messages through [`Shmem`]) in image terms.
    #[inline]
    pub fn pe_of(&self, image: ImageId) -> usize {
        assert!(
            (1..=self.num_images()).contains(&image),
            "image {image} out of range 1..={}",
            self.num_images()
        );
        image - 1
    }

    /// Issue the post-statement `shmem_quiet` the translation requires
    /// (§IV-B), unless disabled for failure-injection tests.
    #[inline]
    pub(crate) fn statement_quiet(&self) {
        if self.cfg.insert_quiet {
            self.shmem.quiet();
        }
    }

    /// [`Self::statement_quiet`] for the stat-bearing accessors: with
    /// small-op coalescing a put *stages* successfully and its target may
    /// die before the flush, so the failure can only surface at the
    /// statement's completing quiet — as a `stat=`, not a panic.
    #[inline]
    pub(crate) fn try_statement_quiet(&self) -> Result<(), CafStat> {
        if self.cfg.insert_quiet {
            self.shmem.try_quiet()?;
        }
        Ok(())
    }

    // ---- image control ------------------------------------------------------

    /// `sync all`: global barrier with memory completion.
    pub fn sync_all(&self) {
        self.shmem.barrier_all();
    }

    /// `sync images(list)`: pairwise synchronization with each image in
    /// `list` (1-based). Each party counts the other's arrivals; the
    /// counters are symmetric words updated with remote atomics.
    pub fn sync_images(&self, images: &[ImageId]) {
        let me0 = self.this_image() - 1;
        // CAF requires prior remote writes to be visible first.
        self.shmem.quiet();
        for &img in images {
            let pe = self.pe_of(img);
            self.shmem.inc(self.sync_counters.at(me0), pe);
        }
        self.shmem.quiet();
        let mut expected = self.sync_expected.borrow_mut();
        for &img in images {
            let pe = self.pe_of(img);
            expected[pe] += 1;
            self.shmem.wait_until(self.sync_counters.at(pe), Cmp::Ge, expected[pe]);
        }
    }

    /// `sync images(*)`: synchronize with every image.
    pub fn sync_images_all(&self) {
        let all: Vec<ImageId> = (1..=self.num_images()).collect();
        self.sync_images(&all);
    }

    /// `sync memory`: complete all outstanding remote accesses by this image
    /// without any rendezvous (the memory-fence-only image control
    /// statement). Maps to `shmem_quiet`.
    pub fn sync_memory(&self) {
        self.shmem.quiet();
    }

    // ---- non-symmetric buffer space ------------------------------------------

    /// Allocate remotely accessible, non-symmetric storage (derived-type
    /// components, lock qnodes). Purely local: different images may hold
    /// different allocation patterns.
    pub fn alloc_nonsym(&self, bytes: usize) -> Result<NonSymHandle, AllocError> {
        let offset = self.nonsym_alloc.borrow_mut().alloc(bytes)?;
        Ok(NonSymHandle { offset, len: bytes })
    }

    /// Release non-symmetric storage.
    pub fn free_nonsym(&self, h: NonSymHandle) -> Result<(), AllocError> {
        self.nonsym_alloc.borrow_mut().free(h.offset)
    }

    /// Absolute symmetric-heap byte offset of a non-symmetric handle (valid
    /// on any image — the buffer is symmetric even though its contents are
    /// managed locally).
    #[inline]
    pub fn nonsym_abs(&self, offset: usize) -> usize {
        self.nonsym_base.offset() + offset
    }

    /// Bytes of non-symmetric buffer currently allocated on this image.
    pub fn nonsym_in_use(&self) -> usize {
        self.nonsym_alloc.borrow().in_use()
    }

    // ---- collectives (Table II: co_op -> shmem_op_to_all) --------------------

    fn with_scratch<T: Scalar, R>(&self, n: usize, f: impl FnOnce(SymPtr<T>, SymPtr<T>) -> R) -> R {
        let src = self.shmem.shmalloc::<T>(n).expect("co_* scratch allocation failed");
        let dst = self.shmem.shmalloc::<T>(n).expect("co_* scratch allocation failed");
        let r = f(src, dst);
        // No image may recycle these offsets until every image has read its
        // result out of them.
        self.sync_all();
        self.shmem.shfree(dst).expect("scratch free");
        self.shmem.shfree(src).expect("scratch free");
        r
    }

    /// `co_reduce`: combine `data` element-wise across all images with `op`.
    /// With `result_image = Some(r)`, only image `r` receives the result
    /// (others' buffers are left untouched), matching Fortran semantics.
    pub fn co_reduce<T: Scalar>(
        &self,
        data: &mut [T],
        result_image: Option<ImageId>,
        op: impl Fn(T, T) -> T + Copy,
    ) {
        if self.machine().any_pe_failed() {
            // The reduction tree would wait forever on dead ranks; run the
            // survivor fallback instead (stat discarded — use
            // `co_reduce_stat` to observe it).
            let _ = self.co_reduce_survivors(data, result_image, op);
            return;
        }
        let n = data.len();
        self.with_scratch::<T, ()>(n, |src, dst| {
            self.shmem.write_local(src, data);
            let world = self.shmem.world();
            self.shmem.reduce_to_all(dst, src, n, &world, op);
            let deliver = match result_image {
                Some(r) => self.pe_of(r) == self.this_image() - 1,
                None => true,
            };
            if deliver {
                self.shmem.read_local(dst, data);
            }
        });
    }

    /// `co_sum`.
    pub fn co_sum<T: Scalar + std::ops::Add<Output = T>>(
        &self,
        data: &mut [T],
        result_image: Option<ImageId>,
    ) {
        self.co_reduce(data, result_image, |a, b| a + b);
    }

    /// `co_max`.
    pub fn co_max<T: Scalar + PartialOrd>(&self, data: &mut [T], result_image: Option<ImageId>) {
        self.co_reduce(data, result_image, |a, b| if b > a { b } else { a });
    }

    /// `co_min`.
    pub fn co_min<T: Scalar + PartialOrd>(&self, data: &mut [T], result_image: Option<ImageId>) {
        self.co_reduce(data, result_image, |a, b| if b < a { b } else { a });
    }

    /// `co_broadcast`: replicate `data` from `source_image` to all images.
    pub fn co_broadcast<T: Scalar>(&self, data: &mut [T], source_image: ImageId) {
        if self.machine().any_pe_failed() {
            let _ = self.co_broadcast_survivors(data, source_image);
            return;
        }
        let n = data.len();
        let root_pe = self.pe_of(source_image);
        self.with_scratch::<T, ()>(n, |src, dst| {
            if self.this_image() == source_image {
                self.shmem.write_local(src, data);
            }
            let world = self.shmem.world();
            self.shmem.broadcast(dst, src, n, root_pe, &world);
            if self.this_image() != source_image {
                self.shmem.read_local(dst, data);
            }
        });
    }

    // ---- critical sections ---------------------------------------------------

    /// `critical ... end critical`: run `f` with global mutual exclusion.
    /// Implemented as a CAF lock on image 1, per the translation.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        let lock = crate::locks::CafLock::from_raw(self.critical_lock);
        self.lock(&lock, 1);
        let r = f();
        self.unlock(&lock, 1);
        r
    }
}

impl Drop for Image<'_> {
    /// Image teardown: surface locks still held (a `lock` without a matching
    /// `unlock` — each leaks a qnode in the non-symmetric buffer, previously
    /// visible only as a residual `nonsym_in_use` count). Always counted in
    /// the machine stats; reported on stderr in debug builds, and never on
    /// panicking threads (tests that assert on deadlock or hazard panics
    /// legitimately unwind while holding locks).
    fn drop(&mut self) {
        let table = self.lock_table.borrow();
        if table.is_empty() {
            return;
        }
        let machine = self.shmem.machine();
        let stats = machine.stats();
        pgas_machine::stats::Stats::add(&stats.lock_leaks, table.len() as u64);
        if machine.metrics().enabled() {
            machine.metrics().count(self.this_image() - 1, "lock_leak", None, table.len() as u64);
        }
        if machine.san_on() && !std::thread::panicking() {
            // Stale-lock audit: a held entry whose lock variable was
            // deallocated — or recycled by a later `lock_var` at the same
            // offset — can no longer be released safely; the unlock this
            // image owes would target memory belonging to nobody (or to a
            // *different* lock). The generation in `lock_offsets` tracks
            // the current occupant of each tail offset this image created.
            let offsets = self.lock_offsets.borrow();
            let me = self.this_image() - 1;
            for &(tail, generation, home) in table.keys() {
                let stale = match offsets.get(&tail) {
                    Some(&(current_gen, block)) => {
                        current_gen != generation || !self.shmem.symmetric_block_live(block)
                    }
                    // No record: a lock this image did not create (e.g. the
                    // hidden critical lock, never freed) — not auditable.
                    None => false,
                };
                if stale {
                    machine.san_report(pgas_machine::sanitizer::HazardReport {
                        kind: pgas_machine::sanitizer::HazardKind::StaleLock,
                        op: "teardown audit",
                        accessor: me,
                        target: home,
                        conflict_pe: home,
                        offset: tail,
                        len: 8,
                        t_conflict: machine.clock(me),
                        t_known: machine.clock(me),
                    });
                }
            }
        }
        if cfg!(debug_assertions) && !std::thread::panicking() {
            let mut lines: Vec<String> = table
                .iter()
                .map(|(&(tail, generation, home), &qnode)| {
                    format!(
                        "  lock tail offset {tail} (gen {generation}) on image {} -> qnode offset {qnode}",
                        home + 1
                    )
                })
                .collect();
            lines.sort();
            eprintln!(
                "image {}: {} lock(s) still held at teardown ({} qnode bytes leaked):\n{}",
                self.this_image(),
                table.len(),
                table.len() * crate::locks::QNODE_BYTES,
                lines.join("\n")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
    use crate::runtime::run_caf;
    use pgas_machine::{generic_smp, Platform};

    fn cfg() -> CafConfig {
        CafConfig::new(Backend::Shmem, Platform::GenericSmp)
    }

    fn mcfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 18)
    }

    #[test]
    fn image_identity_is_one_based() {
        let out = run_caf(mcfg(4), cfg(), |img| (img.this_image(), img.num_images()));
        assert_eq!(out.results, vec![(1, 4), (2, 4), (3, 4), (4, 4)]);
    }

    #[test]
    fn sync_images_pairwise() {
        // Image 1 writes, signals image 2; image 2 reads after sync.
        let out = run_caf(mcfg(2), cfg(), |img| {
            let c = img.coarray::<i64>(&[1]).unwrap();
            img.sync_all();
            if img.this_image() == 1 {
                c.put_to(img, 2, &[42]);
                img.sync_images(&[2]);
                0
            } else {
                img.sync_images(&[1]);
                c.read_local(img)[0]
            }
        });
        assert_eq!(out.results[1], 42);
    }

    #[test]
    fn sync_images_repeated_rounds() {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let c = img.coarray::<i64>(&[1]).unwrap();
            img.sync_all();
            let partner = if img.this_image() == 1 { 2 } else { 1 };
            let mut seen = Vec::new();
            for round in 0..5i64 {
                if img.this_image() == 1 {
                    c.put_to(img, 2, &[round * 10]);
                }
                img.sync_images(&[partner]);
                if img.this_image() == 2 {
                    seen.push(c.read_local(img)[0]);
                }
                img.sync_images(&[partner]);
            }
            seen
        });
        assert_eq!(out.results[1], vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn sync_images_all_synchronises_every_image() {
        // Every image writes its id into its own slot on every image; after
        // `sync images(*)` each image sees every slot filled.
        let out = run_caf(mcfg(4), cfg(), |img| {
            let c = img.coarray::<i64>(&[4]).unwrap();
            img.sync_all();
            let me = img.this_image();
            for other in 1..=img.num_images() {
                c.put_elem(img, other, &[me - 1], me as i64);
            }
            img.sync_images_all();
            c.read_local(img)
        });
        for r in out.results {
            assert_eq!(r, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn sync_memory_completes_an_outstanding_put() {
        // Image 1's 64 KiB put to the other node returns before it lands;
        // `sync memory` waits for it, so the first one takes longer than a
        // second one with nothing left to complete. Image 2 then reads the
        // data after `sync all`.
        let out = run_caf(
            pgas_machine::titan(2, 1).with_heap_bytes(1 << 20),
            CafConfig::new(Backend::Shmem, Platform::Titan),
            |img| {
                let c = img.coarray::<i64>(&[8192]).unwrap();
                img.sync_all();
                let mut fences = (0, 0);
                if img.this_image() == 1 {
                    // The OpenSHMEM put alone, without the statement's quiet.
                    img.shmem().put(c.ptr(), &vec![7; 8192], img.pe_of(2));
                    let clock = || img.shmem().ctx().pe().now();
                    let t0 = clock();
                    img.sync_memory();
                    let t1 = clock();
                    img.sync_memory();
                    fences = (t1 - t0, clock() - t1);
                }
                img.sync_all();
                (fences, c.read_local(img).iter().all(|&v| v == 7))
            },
        );
        let ((outstanding, idle), _) = out.results[0];
        assert!(outstanding > idle, "sync memory waited {outstanding} ns, idle fence {idle} ns");
        assert!(out.results[1].1, "image 2 reads the put after sync all");
    }

    #[test]
    fn co_sum_all_images() {
        let out = run_caf(mcfg(5), cfg(), |img| {
            let mut v = [img.this_image() as i64, 1];
            img.co_sum(&mut v, None);
            v
        });
        for r in out.results {
            assert_eq!(r, [15, 5]);
        }
    }

    #[test]
    fn co_sum_result_image_only() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            let mut v = [img.this_image() as i64];
            img.co_sum(&mut v, Some(3));
            v[0]
        });
        assert_eq!(out.results, vec![1, 2, 10, 4]);
    }

    #[test]
    fn co_max_min_broadcast() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            let me = img.this_image() as f64;
            let mut mx = [me];
            let mut mn = [me];
            let mut bc = [me * 100.0];
            img.co_max(&mut mx, None);
            img.co_min(&mut mn, None);
            img.co_broadcast(&mut bc, 2);
            (mx[0], mn[0], bc[0])
        });
        for r in out.results {
            assert_eq!(r, (4.0, 1.0, 200.0));
        }
    }

    #[test]
    fn co_reduce_custom_op() {
        let out = run_caf(mcfg(3), cfg(), |img| {
            let mut v = [img.this_image() as i64 + 1]; // 2, 3, 4
            img.co_reduce(&mut v, None, |a, b| a * b);
            v[0]
        });
        for r in out.results {
            assert_eq!(r, 24);
        }
    }

    #[test]
    fn nonsym_allocations_are_local_and_independent() {
        let out = run_caf(mcfg(3), cfg(), |img| {
            // Different images allocate different patterns — legal for
            // non-symmetric data.
            let mut handles = Vec::new();
            for _ in 0..img.this_image() {
                handles.push(img.alloc_nonsym(128).unwrap());
            }
            let used = img.nonsym_in_use();
            for h in handles {
                img.free_nonsym(h).unwrap();
            }
            (used, img.nonsym_in_use())
        });
        assert_eq!(out.results, vec![(128, 0), (256, 0), (384, 0)]);
    }

    #[test]
    fn critical_section_excludes() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            let c = img.coarray::<i64>(&[1]).unwrap();
            img.sync_all();
            for _ in 0..10 {
                img.critical(|| {
                    let v = c.get_elem(img, 1, &[0]);
                    c.put_elem(img, 1, &[0], v + 1);
                });
            }
            img.sync_all();
            c.get_elem(img, 1, &[0])
        });
        for r in out.results {
            assert_eq!(r, 40);
        }
    }

    #[test]
    fn held_lock_at_teardown_is_counted_as_leak() {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let lock = img.lock_var();
            img.sync_all();
            if img.this_image() == 1 {
                img.lock(&lock, 2); // never unlocked
            }
            img.sync_all();
        });
        assert_eq!(out.stats.lock_leaks, 1, "exactly image 1's held lock leaks");
    }

    #[test]
    fn balanced_lock_use_leaks_nothing() {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let lock = img.lock_var();
            img.sync_all();
            img.lock(&lock, 1);
            img.unlock(&lock, 1);
            img.sync_all();
        });
        assert_eq!(out.stats.lock_leaks, 0);
    }

    #[test]
    fn image_index_bounds_checked() {
        let err = crate::runtime::run_caf_result(mcfg(2), cfg(), |img| {
            let c = img.coarray::<i64>(&[1]).unwrap();
            img.sync_all();
            c.put_to(img, 3, &[1]); // image 3 does not exist
        })
        .unwrap_err();
        assert!(err.message.contains("out of range"));
    }
}
