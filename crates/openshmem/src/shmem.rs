//! The per-PE OpenSHMEM context: symmetric allocation, RMA, atomics,
//! point-to-point synchronization, and memory ordering.

use crate::active_set::ActiveSet;
use crate::alloc::{AllocError, SymAlloc};
use crate::data::{decode, encode, zero, Scalar, SymPtr};
use pgas_conduit::ctx::AmoOp;
use pgas_conduit::{AmHandler, AmHandlerId, ConduitError, ConduitProfile, Ctx, CtxOptions};
use pgas_machine::machine::{Machine, Pe, PeId};
use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::rc::Rc;

/// Flag words reserved for collective protocols (enough for jobs up to
/// 2^20 PEs with separate broadcast/reduce/ancillary regions).
pub(crate) const PSYNC_WORDS: usize = 64;
pub(crate) const BCAST_FLAG_BASE: usize = 0;
pub(crate) const REDUCE_FLAG_BASE: usize = 21;
pub(crate) const COLLECT_FLAG_BASE: usize = 42;

/// Bytes of the stack chunk `read_local`/`write_local` convert through.
/// Kept small: PEs run on fiber stacks, and a 1 KiB chunk touched one more
/// stack page per PE (+0.28 MB peak RSS on a 32-image job).
const LOCAL_CHUNK: usize = 512;

/// Configuration of a SHMEM context.
#[derive(Debug, Clone, Copy)]
pub struct ShmemConfig {
    pub profile: ConduitProfile,
    pub options: CtxOptions,
    /// Symmetric scratch for reduction partials (`pWrk`), bytes.
    pub pwrk_bytes: usize,
}

impl ShmemConfig {
    pub fn new(profile: ConduitProfile) -> Self {
        ShmemConfig { profile, options: CtxOptions::default(), pwrk_bytes: 16 * 1024 }
    }

    pub fn with_options(mut self, options: CtxOptions) -> Self {
        self.options = options;
        self
    }

    pub fn with_pwrk_bytes(mut self, bytes: usize) -> Self {
        self.pwrk_bytes = bytes;
        self
    }
}

/// Comparison operators for `wait_until` (`SHMEM_CMP_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Gt,
    Ge,
    Lt,
    Le,
}

impl Cmp {
    pub fn eval<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
        }
    }
}

/// An 8-byte scalar usable with remote atomics.
pub trait AtomicWord: Scalar + PartialOrd {
    fn to_word(self) -> u64;
    fn from_word(w: u64) -> Self;
}

impl AtomicWord for u64 {
    #[inline]
    fn to_word(self) -> u64 {
        self
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        w
    }
}

impl AtomicWord for i64 {
    #[inline]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_word(w: u64) -> Self {
        w as i64
    }
}

/// The per-PE OpenSHMEM library handle.
///
/// One per PE thread; created inside the SPMD closure:
///
/// ```
/// use openshmem::{Shmem, ShmemConfig};
/// use pgas_conduit::ConduitProfile;
/// use pgas_machine::{generic_smp, run, Platform};
///
/// let out = run(generic_smp(4), |pe| {
///     let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp)));
///     let x = shmem.shmalloc::<i64>(1).unwrap();
///     shmem.p(x, (shmem.my_pe() + 1) as i64, (shmem.my_pe() + 1) % shmem.n_pes());
///     shmem.barrier_all();
///     shmem.g(x, shmem.my_pe())
/// });
/// assert_eq!(out.results, vec![4, 1, 2, 3]);
/// ```
pub struct Shmem<'m> {
    ctx: Ctx<'m>,
    alloc: RefCell<SymAlloc>,
    psync: SymPtr<u64>,
    pwrk: SymPtr<u8>,
    /// Next team id to hand out (0 is the world team); see `crate::team`.
    /// Team creation follows the symmetric discipline of `shmalloc`: every
    /// PE performs the same creations in the same order, so the ids agree
    /// machine-wide without communication.
    pub(crate) next_team: Cell<u32>,
    /// Reusable staging for payloads whose type is not bytes (see
    /// [`Self::with_scratch`]). Empty until the first such transfer.
    scratch: Cell<Vec<u8>>,
}

impl<'m> Shmem<'m> {
    /// Initialize the library on this PE (`start_pes`). Collective in the
    /// sense that every PE must construct with identical configuration.
    pub fn new(pe: Pe<'m>, cfg: ShmemConfig) -> Shmem<'m> {
        let heap_bytes = pe.machine().config().heap_bytes;
        let mut alloc = SymAlloc::new(heap_bytes);
        let psync_off =
            alloc.alloc(PSYNC_WORDS * 8).expect("symmetric heap too small for collective flags");
        let pwrk_bytes = cfg.pwrk_bytes.min(heap_bytes / 4).max(256);
        let pwrk_off = alloc.alloc(pwrk_bytes).expect("symmetric heap too small for pWrk scratch");
        Shmem {
            ctx: Ctx::new(pe, cfg.profile, cfg.options),
            alloc: RefCell::new(alloc),
            psync: SymPtr::new(psync_off, PSYNC_WORDS),
            pwrk: SymPtr::new(pwrk_off, pwrk_bytes),
            next_team: Cell::new(1),
            scratch: Cell::new(Vec::new()),
        }
    }

    /// This PE's index (`my_pe` / `_my_pe`).
    #[inline]
    pub fn my_pe(&self) -> PeId {
        self.ctx.pe().id()
    }

    /// Total PEs (`num_pes`).
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.ctx.pe().n()
    }

    /// The underlying machine.
    #[inline]
    pub fn machine(&self) -> &'m Machine {
        self.ctx.machine()
    }

    /// The underlying conduit context.
    #[inline]
    pub fn ctx(&self) -> &Ctx<'m> {
        &self.ctx
    }

    /// The conduit profile in use.
    #[inline]
    pub fn profile(&self) -> &ConduitProfile {
        self.ctx.profile()
    }

    /// The active set containing every PE.
    pub fn world(&self) -> ActiveSet {
        ActiveSet::world(self.n_pes())
    }

    pub(crate) fn psync(&self) -> SymPtr<u64> {
        self.psync
    }

    pub(crate) fn pwrk(&self) -> SymPtr<u8> {
        self.pwrk
    }

    // ---- symmetric allocation -------------------------------------------

    /// Allocate `count` elements of `T` symmetrically (`shmalloc`). All PEs
    /// must call in the same order with the same arguments.
    pub fn shmalloc<T: Scalar>(&self, count: usize) -> Result<SymPtr<T>, AllocError> {
        let off = self.alloc.borrow_mut().alloc(count * T::BYTES)?;
        Ok(SymPtr::new(off, count))
    }

    /// Release a symmetric allocation (`shfree`). Must be called
    /// symmetrically, with a handle returned by `shmalloc` (not a sub-slice).
    pub fn shfree<T: Scalar>(&self, ptr: SymPtr<T>) -> Result<(), AllocError> {
        self.alloc.borrow_mut().free(ptr.offset())
    }

    /// Bytes currently allocated on the symmetric heap.
    pub fn symmetric_in_use(&self) -> usize {
        self.alloc.borrow().in_use()
    }

    /// Is there a live symmetric allocation starting at byte `offset`?
    /// Used by teardown audits (e.g. CAF's stale-lock check) to tell whether
    /// an object a long-lived handle points at has since been `shfree`d.
    pub fn symmetric_block_live(&self, offset: usize) -> bool {
        self.alloc.borrow().block_len(offset).is_some()
    }

    /// Verify (collectively) that `ptr` refers to the same offset on every
    /// PE. Debugging aid for the symmetric-allocation discipline.
    pub fn debug_assert_symmetric<T: Scalar>(&self, ptr: SymPtr<T>) {
        let slot = self.psync.at(COLLECT_FLAG_BASE + 2);
        // Everyone writes their offset+1 into PE 0's slot; a mismatch on any
        // PE trips the check on PE 0.
        let mine = (ptr.offset() + 1) as u64;
        if self.my_pe() == 0 {
            self.write_local_u64(slot.offset(), mine);
        } else {
            let prev = self.amo(0, slot, AmoOp::Swap(mine));
            assert!(
                prev == 0 || prev == mine,
                "allocation is not symmetric: PE {} has offset {}, another PE had {}",
                self.my_pe(),
                mine - 1,
                prev - 1,
            );
        }
        self.barrier_all();
        if self.my_pe() == 0 {
            let seen = self.read_local_u64(slot.offset());
            assert!(
                seen == mine,
                "allocation is not symmetric: PE 0 has offset {}, another PE had {}",
                mine - 1,
                seen - 1
            );
            self.write_local_u64(slot.offset(), 0);
        }
        self.barrier_all();
    }

    // ---- payload bytes ------------------------------------------------------

    /// Run `f` on `len` bytes of this PE's reusable scratch. The buffer is
    /// taken out of its cell for the call, so a nested use (code run from
    /// inside `f`) finds it empty and grows its own instead of panicking. It
    /// grows on demand and is never zeroed again: every caller overwrites
    /// the bytes it hands on.
    pub(crate) fn with_scratch<R>(&self, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut buf = self.scratch.take();
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let r = f(&mut buf[..len]);
        self.scratch.set(buf);
        r
    }

    /// Run `f` on the native-endian bytes of `n` elements of `src` taken at
    /// stride `sst`: `src` itself for a unit-stride `u8` payload, else one
    /// conversion into the scratch.
    fn staged<T: Scalar, R>(
        &self,
        src: &[T],
        sst: usize,
        n: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        match T::as_ne_bytes(src) {
            Some(bytes) if sst == 1 => f(&bytes[..n]),
            _ => self.with_scratch(n * T::BYTES, |buf| {
                encode(src, sst, buf);
                f(buf)
            }),
        }
    }

    /// Let `f` fill the native-endian bytes of `n` elements of `out` at
    /// stride `tst`: `out` itself for a unit-stride `u8` read, else the
    /// scratch, decoded into `out` only when `f` succeeds.
    fn unstaged<T: Scalar, E>(
        &self,
        out: &mut [T],
        tst: usize,
        n: usize,
        f: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        if tst == 1 {
            if let Some(bytes) = T::as_ne_bytes_mut(out) {
                return f(&mut bytes[..n]);
            }
        }
        self.with_scratch(n * T::BYTES, |buf| {
            f(buf)?;
            decode(buf, out, tst);
            Ok(())
        })
    }

    /// [`Self::unstaged`] for a read that cannot fail.
    fn fill<T: Scalar>(&self, out: &mut [T], tst: usize, n: usize, f: impl FnOnce(&mut [u8])) {
        let filled: Result<(), Infallible> = self.unstaged(out, tst, n, |bytes| {
            f(bytes);
            Ok(())
        });
        let Ok(()) = filled;
    }

    /// Run `f` on `src` as native-endian bytes: `src` itself when `T` is
    /// `u8`, else one conversion into this PE's reusable scratch. For
    /// runtimes that hand a typed payload to a byte-level conduit call,
    /// like CAF's AM-packed sections.
    pub fn with_ne_bytes<T: Scalar, R>(&self, src: &[T], f: impl FnOnce(&[u8]) -> R) -> R {
        self.staged(src, 1, src.len(), f)
    }

    /// Let `f` fill `out`'s native-endian bytes: `out` itself when `T` is
    /// `u8`, else this PE's scratch, decoded into `out` only when `f`
    /// returns `Ok` (on `Err`, `out` is untouched). The mirror of
    /// [`Self::with_ne_bytes`].
    pub fn fill_ne_bytes<T: Scalar, E>(
        &self,
        out: &mut [T],
        f: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = out.len();
        self.unstaged(out, 1, n, f)
    }

    // ---- contiguous RMA ---------------------------------------------------

    /// Write `src` into `dest`'s copy of `dst` (`shmem_put`).
    pub fn put<T: Scalar>(&self, dst: SymPtr<T>, src: &[T], dest_pe: PeId) {
        assert!(src.len() <= dst.count(), "put of {} elements into {}", src.len(), dst.count());
        self.with_ne_bytes(src, |bytes| self.ctx.put(dest_pe, dst.offset(), bytes));
    }

    /// Read `out.len()` elements of `src` from `src_pe` (`shmem_get`).
    pub fn get<T: Scalar>(&self, src: SymPtr<T>, out: &mut [T], src_pe: PeId) {
        assert!(out.len() <= src.count(), "get of {} elements from {}", out.len(), src.count());
        self.fill(out, 1, out.len(), |bytes| self.ctx.get(src_pe, src.offset(), bytes));
    }

    /// Fallible [`Self::put`]: under an active fault plan, retry exhaustion
    /// or a failed target surfaces as a [`ConduitError`] instead of a panic.
    /// Higher layers (CAF's stat-bearing co-indexed assignments) build their
    /// `STAT_FAILED_IMAGE` semantics on these.
    pub fn try_put<T: Scalar>(
        &self,
        dst: SymPtr<T>,
        src: &[T],
        dest_pe: PeId,
    ) -> Result<(), ConduitError> {
        assert!(src.len() <= dst.count(), "put of {} elements into {}", src.len(), dst.count());
        self.with_ne_bytes(src, |bytes| self.ctx.try_put(dest_pe, dst.offset(), bytes))
    }

    /// Fallible [`Self::get`]; on `Err`, `out` is untouched.
    pub fn try_get<T: Scalar>(
        &self,
        src: SymPtr<T>,
        out: &mut [T],
        src_pe: PeId,
    ) -> Result<(), ConduitError> {
        assert!(out.len() <= src.count(), "get of {} elements from {}", out.len(), src.count());
        self.fill_ne_bytes(out, |bytes| self.ctx.try_get(src_pe, src.offset(), bytes))
    }

    /// Non-blocking put (`shmem_put_nbi`): returns after issue; completion
    /// (local and remote) requires [`Self::quiet`].
    pub fn put_nbi<T: Scalar>(&self, dst: SymPtr<T>, src: &[T], dest_pe: PeId) {
        assert!(src.len() <= dst.count(), "put_nbi of {} elements into {}", src.len(), dst.count());
        self.with_ne_bytes(src, |bytes| self.ctx.put_nbi(dest_pe, dst.offset(), bytes));
    }

    /// Non-blocking get (`shmem_get_nbi`): `out` is only guaranteed valid
    /// after [`Self::quiet`].
    pub fn get_nbi<T: Scalar>(&self, src: SymPtr<T>, out: &mut [T], src_pe: PeId) {
        assert!(out.len() <= src.count(), "get_nbi of {} elements from {}", out.len(), src.count());
        self.fill(out, 1, out.len(), |bytes| self.ctx.get_nbi(src_pe, src.offset(), bytes));
    }

    /// Single-element put (`shmem_p`).
    pub fn p<T: Scalar>(&self, dst: SymPtr<T>, value: T, dest_pe: PeId) {
        self.put(dst, &[value], dest_pe);
    }

    /// Single-element get (`shmem_g`).
    pub fn g<T: Scalar>(&self, src: SymPtr<T>, src_pe: PeId) -> T {
        let mut out = [zero::<T>()];
        self.get(src, &mut out, src_pe);
        out[0]
    }

    // ---- 1-D strided RMA ---------------------------------------------------

    /// `shmem_iput`: write `nelems` elements taken from `src` at stride
    /// `sst` (in elements) to `dest_pe`'s `dst` at stride `tst`.
    ///
    /// `src` must hold at least the `(nelems - 1) * sst + 1` elements the
    /// strided read spans (asserted); a slice of exactly that length is
    /// enough, and elements beyond it are never looked at. Only the `nelems`
    /// selected elements are serialised, so the host cost is linear in
    /// `nelems` whatever the stride.
    pub fn iput<T: Scalar>(
        &self,
        dst: SymPtr<T>,
        tst: usize,
        src: &[T],
        sst: usize,
        nelems: usize,
        dest_pe: PeId,
    ) {
        if nelems == 0 {
            return;
        }
        assert!(
            (nelems - 1) * tst < dst.count(),
            "iput overruns destination: {} elements at stride {tst} into {}",
            nelems,
            dst.count()
        );
        assert!(sst > 0, "iput source stride must be positive");
        assert!(
            src.len() > (nelems - 1) * sst,
            "iput source too short: {nelems} elements at stride {sst} need {}, have {}",
            (nelems - 1) * sst + 1,
            src.len()
        );
        // The wire carries the selected elements packed; the conduit sees a
        // unit source stride.
        self.staged(src, sst, nelems, |bytes| {
            self.ctx.iput(dest_pe, dst.offset(), tst, bytes, T::BYTES, 1, nelems)
        });
    }

    /// `shmem_iget`: gather `nelems` elements of `src_pe`'s `src` at stride
    /// `sst` into `out` at stride `tst`.
    ///
    /// `out` must hold at least the `(nelems - 1) * tst + 1` elements the
    /// strided write spans (asserted); a slice of exactly that length is
    /// enough. Elements of `out` between the selected ones keep their
    /// values, and only the `nelems` selected ones pass through bytes.
    pub fn iget<T: Scalar>(
        &self,
        src: SymPtr<T>,
        sst: usize,
        out: &mut [T],
        tst: usize,
        nelems: usize,
        src_pe: PeId,
    ) {
        if nelems == 0 {
            return;
        }
        assert!((nelems - 1) * sst < src.count(), "iget overruns source");
        assert!(tst > 0, "iget destination stride must be positive");
        assert!(
            out.len() > (nelems - 1) * tst,
            "iget destination too short: {nelems} elements at stride {tst} need {}, have {}",
            (nelems - 1) * tst + 1,
            out.len()
        );
        self.fill(out, tst, nelems, |bytes| {
            self.ctx.iget(src_pe, src.offset(), sst, bytes, T::BYTES, 1, nelems)
        });
    }

    // ---- local heap access (this PE's own symmetric memory) ---------------

    /// Read this PE's own copy of `src` without a communication call
    /// (legal in OpenSHMEM: local symmetric objects are ordinary memory).
    ///
    /// A `u8` read lands in `out` directly; any other type is decoded
    /// through a fixed stack chunk, so a large read holds no heap buffer.
    pub fn read_local<T: Scalar>(&self, src: SymPtr<T>, out: &mut [T]) {
        let me = self.my_pe();
        let len = out.len() * T::BYTES;
        let heap = self.machine().heap(me);
        match T::as_ne_bytes_mut(out) {
            Some(bytes) => heap.read_bytes(src.offset(), bytes),
            None => {
                let mut chunk = [0u8; LOCAL_CHUNK];
                let per = LOCAL_CHUNK / T::BYTES;
                for (k, part) in out.chunks_mut(per).enumerate() {
                    let bytes = &mut chunk[..part.len() * T::BYTES];
                    heap.read_bytes(src.offset() + k * per * T::BYTES, bytes);
                    decode(bytes, part, 1);
                }
            }
        }
        let stamp = heap.max_stamp(src.offset(), len);
        self.machine().san_check_read(me, src.offset(), len, me, "local read");
        self.machine().lift_clock(me, stamp);
    }

    /// Write this PE's own copy of `dst` directly, through the same stack
    /// chunk as [`Self::read_local`].
    pub fn write_local<T: Scalar>(&self, dst: SymPtr<T>, src: &[T]) {
        assert!(src.len() <= dst.count());
        let me = self.my_pe();
        let heap = self.machine().heap(me);
        match T::as_ne_bytes(src) {
            Some(bytes) => heap.write_bytes(dst.offset(), bytes),
            None => {
                let mut chunk = [0u8; LOCAL_CHUNK];
                let per = LOCAL_CHUNK / T::BYTES;
                for (k, part) in src.chunks(per).enumerate() {
                    let bytes = &mut chunk[..part.len() * T::BYTES];
                    encode(part, 1, bytes);
                    heap.write_bytes(dst.offset() + k * per * T::BYTES, bytes);
                }
            }
        }
        let now = self.machine().clock(me);
        self.machine().san_record_write(
            me,
            dst.offset(),
            src.len() * T::BYTES,
            me,
            now,
            false,
            "local write",
        );
    }

    /// Sanitizer-checked raw-byte read of this PE's own heap: picks up the
    /// bytes, runs the race check, and lifts the clock past the region's
    /// shadow stamps. The collectives' payload/partial pickups route through
    /// here so a mis-synchronized collective trips the sanitizer exactly
    /// like any other local read.
    pub(crate) fn read_local_bytes(&self, off: usize, out: &mut [u8], op: &'static str) {
        let me = self.my_pe();
        let heap = self.machine().heap(me);
        heap.read_bytes(off, out);
        let stamp = heap.max_stamp(off, out.len());
        self.machine().san_check_read(me, off, out.len(), me, op);
        self.machine().lift_clock(me, stamp);
    }

    /// Convenience: read one local element.
    pub fn read_local_one<T: Scalar>(&self, src: SymPtr<T>) -> T {
        let mut out = [zero::<T>()];
        self.read_local(src, &mut out);
        out[0]
    }

    pub(crate) fn read_local_u64(&self, off: usize) -> u64 {
        use std::sync::atomic::Ordering;
        self.machine().heap(self.my_pe()).atomic64(off).load(Ordering::Acquire)
    }

    pub(crate) fn write_local_u64(&self, off: usize, v: u64) {
        use std::sync::atomic::Ordering;
        self.machine().heap(self.my_pe()).atomic64(off).store(v, Ordering::Release);
    }

    // ---- shmem_ptr ------------------------------------------------------------

    /// `shmem_ptr`: direct load/store access to `pe`'s copy of a symmetric
    /// object, available only when `pe` shares this PE's node (on real
    /// hardware: the same shared-memory segment). Returns `None` for remote
    /// PEs, like the C API returning a null pointer.
    ///
    /// Reads and writes through the view charge only intra-node memory
    /// costs — the fast path §VII of the paper proposes.
    pub fn local_view<T: Scalar>(&self, ptr: SymPtr<T>, pe: PeId) -> Option<LocalView<'m, T>> {
        if !self.machine().same_node(self.my_pe(), pe) {
            return None;
        }
        let access_ns = self.ctx().cost_model().direct_access_ns();
        Some(LocalView { machine: self.machine(), me: self.my_pe(), pe, ptr, access_ns })
    }

    // ---- atomics ------------------------------------------------------------

    /// Raw AMO access used by higher layers (CAF locks).
    pub fn amo<T: AtomicWord>(&self, dest_pe: PeId, ptr: SymPtr<T>, op: AmoOp) -> T {
        T::from_word(self.ctx.amo(dest_pe, ptr.offset(), op))
    }

    /// Fallible [`Self::amo`]: surfaces injected-fault conditions as a
    /// [`ConduitError`] instead of panicking (see [`Self::try_put`]).
    pub fn try_amo<T: AtomicWord>(
        &self,
        dest_pe: PeId,
        ptr: SymPtr<T>,
        op: AmoOp,
    ) -> Result<T, ConduitError> {
        self.ctx.try_amo(dest_pe, ptr.offset(), op).map(T::from_word)
    }

    /// Fallible `shmem_add` (used by CAF's stat-bearing `sync images`).
    pub fn try_add<T: AtomicWord>(
        &self,
        ptr: SymPtr<T>,
        value: T,
        dest_pe: PeId,
    ) -> Result<(), ConduitError> {
        self.try_amo(dest_pe, ptr, AmoOp::Add(value.to_word())).map(|_: T| ())
    }

    /// `shmem_swap`: atomically replace, returning the old value.
    pub fn swap<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::Swap(value.to_word()))
    }

    /// `shmem_cswap`: conditional swap; returns the old value.
    pub fn cswap<T: AtomicWord>(&self, ptr: SymPtr<T>, cond: T, value: T, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::CompareSwap { cond: cond.to_word(), value: value.to_word() })
    }

    /// `shmem_fadd`: fetch-and-add.
    pub fn fadd<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::FetchAdd(value.to_word()))
    }

    /// `shmem_add`: non-fetching add.
    pub fn add<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) {
        self.amo(dest_pe, ptr, AmoOp::Add(value.to_word()));
    }

    /// `shmem_finc` / `shmem_inc`.
    pub fn finc<T: AtomicWord>(&self, ptr: SymPtr<T>, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::FetchAdd(1))
    }

    pub fn inc<T: AtomicWord>(&self, ptr: SymPtr<T>, dest_pe: PeId) {
        self.amo(dest_pe, ptr, AmoOp::Add(1));
    }

    /// `shmem_fetch`: atomic read.
    pub fn atomic_fetch<T: AtomicWord>(&self, ptr: SymPtr<T>, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::Fetch)
    }

    /// `shmem_set`: atomic write.
    pub fn atomic_set<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) {
        self.amo(dest_pe, ptr, AmoOp::Set(value.to_word()));
    }

    /// `shmem_and` (non-fetching) — paper Table II's atomic AND.
    pub fn atomic_and<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) {
        self.amo(dest_pe, ptr, AmoOp::And(value.to_word()));
    }

    /// `shmem_or`.
    pub fn atomic_or<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) {
        self.amo(dest_pe, ptr, AmoOp::Or(value.to_word()));
    }

    /// `shmem_xor`.
    pub fn atomic_xor<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) {
        self.amo(dest_pe, ptr, AmoOp::Xor(value.to_word()));
    }

    /// Fetching bitwise variants.
    pub fn fetch_and<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::FetchAnd(value.to_word()))
    }

    pub fn fetch_or<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::FetchOr(value.to_word()))
    }

    pub fn fetch_xor<T: AtomicWord>(&self, ptr: SymPtr<T>, value: T, dest_pe: PeId) -> T {
        self.amo(dest_pe, ptr, AmoOp::FetchXor(value.to_word()))
    }

    // ---- active messages ----------------------------------------------------

    /// Register an active-message handler. SPMD-symmetric: every PE must
    /// register the same handlers in the same order (like symmetric
    /// allocation), so the returned id names the same logic everywhere.
    pub fn register_am(&self, handler: Rc<dyn AmHandler>) -> AmHandlerId {
        self.ctx.register_am(handler)
    }

    /// One-way active message: run `handler` at `dest_pe` with `arg`,
    /// discarding any reply. One request wire transfer plus target-side
    /// compute — no get–compute–put round trip. Completes remotely at
    /// [`Self::quiet`].
    pub fn am_send(&self, dest_pe: PeId, handler: AmHandlerId, arg: &[u8]) {
        self.ctx.am_send(dest_pe, handler, arg);
    }

    /// Fallible [`Self::am_send`] (see [`Self::try_put`]).
    pub fn try_am_send(
        &self,
        dest_pe: PeId,
        handler: AmHandlerId,
        arg: &[u8],
    ) -> Result<(), ConduitError> {
        self.ctx.try_am_send(dest_pe, handler, arg)
    }

    /// Round-trip active message: like [`Self::am_send`] but blocks for the
    /// handler's reply.
    pub fn am_call(&self, dest_pe: PeId, handler: AmHandlerId, arg: &[u8]) -> Vec<u8> {
        self.ctx.am_call(dest_pe, handler, arg)
    }

    /// Fallible [`Self::am_call`].
    pub fn try_am_call(
        &self,
        dest_pe: PeId,
        handler: AmHandlerId,
        arg: &[u8],
    ) -> Result<Vec<u8>, ConduitError> {
        self.ctx.try_am_call(dest_pe, handler, arg)
    }

    // ---- point-to-point synchronization -------------------------------------

    /// `shmem_wait_until` on this PE's own copy of `ptr` (an 8-byte word):
    /// block until `current <cmp> value`, returning the satisfying value.
    pub fn wait_until<T: AtomicWord>(&self, ptr: SymPtr<T>, cmp: Cmp, value: T) -> T {
        let w = self.ctx.wait_until(ptr.offset(), |w| cmp.eval(T::from_word(w), value));
        T::from_word(w)
    }

    // ---- ordering -------------------------------------------------------------

    /// `shmem_quiet`: wait for remote completion of all outstanding puts.
    /// Fallible [`Self::quiet`]: surfaces errors deferred by coalesced
    /// staged ops whose target died before the flush (see
    /// [`pgas_conduit::Ctx::try_quiet`]).
    pub fn try_quiet(&self) -> Result<(), ConduitError> {
        self.ctx.try_quiet()
    }

    pub fn quiet(&self) {
        self.ctx.quiet();
    }

    /// `shmem_fence`: order puts per destination.
    pub fn fence(&self) {
        self.ctx.fence();
    }

    /// `shmem_barrier_all`.
    pub fn barrier_all(&self) {
        self.ctx.barrier_all();
    }

    /// `shmem_barrier` over an active set.
    pub fn barrier(&self, set: &ActiveSet) {
        debug_assert!(set.contains(self.my_pe()), "barrier on a set excluding the caller");
        self.ctx.barrier_group(&set.members());
    }
}

/// Direct load/store window into a same-node PE's symmetric object
/// (the result of [`Shmem::local_view`], i.e. `shmem_ptr`).
pub struct LocalView<'m, T: Scalar> {
    machine: &'m Machine,
    me: PeId,
    pe: PeId,
    ptr: SymPtr<T>,
    /// Virtual time of one element load or store.
    access_ns: f64,
}

impl<'m, T: Scalar> LocalView<'m, T> {
    /// Element count of the viewed object.
    pub fn len(&self) -> usize {
        self.ptr.count()
    }

    /// True when the viewed object has no elements.
    pub fn is_empty(&self) -> bool {
        self.ptr.count() == 0
    }

    /// Load element `i` (a direct memory access: ~one cache transaction of
    /// virtual time).
    pub fn read(&self, i: usize) -> T {
        assert!(i < self.ptr.count(), "index {i} out of bounds");
        let off = self.ptr.offset() + i * T::BYTES;
        let mut word = [0u8; 8];
        let buf = &mut word[..T::BYTES];
        let heap = self.machine.heap(self.pe);
        heap.read_bytes(off, buf);
        let stamp = heap.max_stamp(off, T::BYTES);
        self.machine.san_check_read(self.pe, off, T::BYTES, self.me, "shmem_ptr read");
        self.machine.lift_clock(self.me, stamp);
        self.machine.advance(self.me, self.access_ns);
        T::load(buf)
    }

    /// Store element `i` directly.
    pub fn write(&self, i: usize, v: T) {
        assert!(i < self.ptr.count(), "index {i} out of bounds");
        let off = self.ptr.offset() + i * T::BYTES;
        let mut word = [0u8; 8];
        let buf = &mut word[..T::BYTES];
        v.store(buf);
        let t = self.machine.advance(self.me, self.access_ns);
        // Same critical section AMOs publish through: write + stamp + wake
        // atomically, so a `wait_on` watching this word wakes
        // deterministically under the NIC arbiter.
        self.machine.apply_and_notify(self.pe, || {
            self.machine.heap(self.pe).write_bytes(off, buf);
            self.machine.heap(self.pe).stamp_range(off, T::BYTES, t);
            self.machine.san_record_write(
                self.pe,
                off,
                T::BYTES,
                self.me,
                t,
                false,
                "shmem_ptr write",
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_machine::{generic_smp, run, run_with_result, stampede, Platform};

    fn cfg() -> pgas_machine::MachineConfig {
        generic_smp(4).with_heap_bytes(1 << 17)
    }

    fn mk(pe: Pe<'_>) -> Shmem<'_> {
        Shmem::new(pe, ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp)))
    }

    #[test]
    fn figure1_example_program() {
        // The paper's Figure 1: coarray_y(2) = coarray_x(3)[4];
        // coarray_x(1)[4] = coarray_y(2), expressed in SHMEM form.
        let out = run(cfg(), |pe| {
            let shmem = mk(pe);
            let x = shmem.shmalloc::<i32>(4).unwrap();
            let y = shmem.shmalloc::<i32>(4).unwrap();
            let me = shmem.my_pe() as i32 + 1; // 1-based like CAF images
            shmem.write_local(x, &[me; 4]);
            shmem.write_local(y, &[0; 4]);
            shmem.barrier_all();
            // y(2) = x(3)[4]  -- image 4 is PE 3.
            let v = shmem.g(x.at(2), 3);
            shmem.write_local(y.at(1), &[v]);
            // x(1)[4] = y(2)
            shmem.p(x.at(0), shmem.read_local_one(y.at(1)), 3);
            shmem.quiet();
            shmem.barrier_all();
            (shmem.read_local_one(y.at(1)), shmem.g(x.at(0), 3))
        });
        for (y2, x1_on_4) in out.results {
            assert_eq!(y2, 4, "everyone read image 4's x(3)");
            assert_eq!(x1_on_4, 4);
        }
    }

    #[test]
    fn put_get_slices() {
        let out = run(cfg(), |pe| {
            let shmem = mk(pe);
            let buf = shmem.shmalloc::<f64>(8).unwrap();
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                let data: Vec<f64> = (0..8).map(|i| i as f64 * 1.5).collect();
                for pe_id in 0..shmem.n_pes() {
                    shmem.put(buf, &data, pe_id);
                }
                shmem.quiet();
            }
            shmem.barrier_all();
            let mut out_buf = [0.0f64; 8];
            shmem.get(buf, &mut out_buf, shmem.my_pe());
            out_buf
        });
        for r in out.results {
            assert_eq!(r, [0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5]);
        }
    }

    #[test]
    fn shmalloc_is_symmetric_across_pes() {
        run(cfg(), |pe| {
            let shmem = mk(pe);
            let a = shmem.shmalloc::<u64>(16).unwrap();
            let b = shmem.shmalloc::<u8>(100).unwrap();
            shmem.debug_assert_symmetric(a);
            shmem.debug_assert_symmetric(b);
            shmem.shfree(a).unwrap();
            let c = shmem.shmalloc::<u64>(4).unwrap();
            shmem.debug_assert_symmetric(c);
        });
    }

    #[test]
    fn typed_iput_iget() {
        let out = run(cfg(), |pe| {
            let shmem = mk(pe);
            let arr = shmem.shmalloc::<i32>(16).unwrap();
            shmem.write_local(arr, &[0; 16]);
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                // Every 3rd source element to every 2nd target slot on PE 1.
                let src: Vec<i32> = (0..12).collect();
                shmem.iput(arr, 2, &src, 3, 4, 1);
                shmem.quiet();
            }
            shmem.barrier_all();
            let mut got = [0i32; 4];
            shmem.iget(arr, 2, &mut got, 1, 4, 1);
            got
        });
        for r in out.results {
            assert_eq!(r, [0, 3, 6, 9]);
        }
    }

    #[test]
    fn iput_iget_take_slices_of_exactly_the_strided_span() {
        // 4 elements at local stride 3 span (4-1)*3+1 = 10 elements: a slice
        // of exactly that is enough, and the untouched elements in between
        // survive an iget.
        let out = run(cfg(), |pe| {
            let shmem = mk(pe);
            let arr = shmem.shmalloc::<i32>(16).unwrap();
            shmem.write_local(arr, &[0; 16]);
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                let src: Vec<i32> = (100..110).collect();
                shmem.iput(arr, 2, &src, 3, 4, 1);
                shmem.quiet();
            }
            shmem.barrier_all();
            let mut got = [-1i32; 10];
            shmem.iget(arr, 2, &mut got, 3, 4, 1);
            got
        });
        for r in out.results {
            assert_eq!(r, [100, -1, -1, 103, -1, -1, 106, -1, -1, 109]);
        }
    }

    #[test]
    fn iput_iget_reject_slices_one_element_short() {
        let short_put = run_with_result(cfg(), |pe| {
            let shmem = mk(pe);
            let arr = shmem.shmalloc::<i32>(16).unwrap();
            shmem.iput(arr, 2, &[0i32; 9], 3, 4, 1);
        });
        assert!(short_put.unwrap_err().message.contains("iput source too short"));
        let short_get = run_with_result(cfg(), |pe| {
            let shmem = mk(pe);
            let arr = shmem.shmalloc::<i32>(16).unwrap();
            shmem.iget(arr, 2, &mut [0i32; 9], 3, 4, 1);
        });
        assert!(short_get.unwrap_err().message.contains("iget destination too short"));
    }

    #[test]
    fn atomics_signed_values() {
        let out = run(cfg(), |pe| {
            let shmem = mk(pe);
            let x = shmem.shmalloc::<i64>(1).unwrap();
            shmem.write_local(x, &[0]);
            shmem.barrier_all();
            // Everyone adds a negative number to PE 0's word.
            shmem.fadd(x, -5i64, 0);
            shmem.barrier_all();
            shmem.atomic_fetch(x, 0)
        });
        for r in out.results {
            assert_eq!(r, -20);
        }
    }

    #[test]
    fn wait_until_cmp_variants() {
        for (cmp, target, write) in [
            (Cmp::Eq, 7i64, 7i64),
            (Cmp::Ne, 0, 3),
            (Cmp::Gt, 5, 6),
            (Cmp::Ge, 5, 5),
            (Cmp::Lt, 0, -2),
            (Cmp::Le, -1, -1),
        ] {
            let out = run(generic_smp(2).with_heap_bytes(1 << 16), |pe| {
                let shmem = mk(pe);
                let flag = shmem.shmalloc::<i64>(1).unwrap();
                shmem.write_local(flag, &[0]);
                shmem.barrier_all();
                if shmem.my_pe() == 0 {
                    shmem.wait_until(flag, cmp, target)
                } else {
                    shmem.atomic_set(flag, write, 0);
                    write
                }
            });
            assert_eq!(out.results[0], write, "{cmp:?}");
        }
    }

    #[test]
    fn strict_mode_catches_missing_quiet_between_put_and_get() {
        let err = run_with_result(stampede(2, 1).with_heap_bytes(1 << 16), |pe| {
            let shmem = Shmem::new(
                pe,
                ShmemConfig::new(ConduitProfile::mvapich_shmem())
                    .with_options(CtxOptions { strict_ordering: true, ..Default::default() }),
            );
            let x = shmem.shmalloc::<i64>(1).unwrap();
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                shmem.p(x, 1, 1);
                let _ = shmem.g(x, 1); // missing quiet
            }
            shmem.barrier_all();
        })
        .unwrap_err();
        assert!(err.message.contains("ordering hazard"));
    }

    #[test]
    fn put_nbi_returns_at_issue_and_completes_at_quiet() {
        // The *direct* nbi contract: 8 in-flight wire transfers absorbed by
        // quiet. Pin coalescing off — staged, the 8 same-range puts
        // write-combine into a single flush and the 20x issue/complete
        // split this test encodes no longer applies.
        let out = pgas_machine::with_forced_aggregation(false, || {
            run(stampede(2, 1).with_heap_bytes(1 << 18), |pe| {
                let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()));
                let buf = shmem.shmalloc::<u8>(1 << 15).unwrap();
                let data = vec![0xCDu8; 1 << 15];
                shmem.barrier_all();
                if shmem.my_pe() == 0 {
                    let t0 = pe.now();
                    for _ in 0..8 {
                        shmem.put_nbi(buf, &data, 1);
                    }
                    let issued = pe.now() - t0;
                    shmem.quiet();
                    let completed = pe.now() - t0;
                    (issued, completed)
                } else {
                    (0, 0)
                }
            })
        });
        let (issued, completed) = out.results[0];
        assert!(issued < 2_000, "8 nbi issues should cost ~8 issue overheads, got {issued}");
        assert!(
            completed > 20 * issued,
            "quiet must absorb the transfer time: issued {issued}, completed {completed}"
        );
    }

    #[test]
    fn get_nbi_data_valid_after_quiet() {
        let out = run(stampede(2, 1).with_heap_bytes(1 << 16), |pe| {
            let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()));
            let buf = shmem.shmalloc::<i64>(4).unwrap();
            shmem.write_local(buf, &[10, 20, 30, 40]);
            shmem.barrier_all();
            let mut got = [0i64; 4];
            let peer = 1 - shmem.my_pe();
            let t0 = pe.now();
            shmem.get_nbi(buf, &mut got, peer);
            let issued = pe.now() - t0;
            shmem.quiet();
            let completed = pe.now() - t0;
            shmem.barrier_all();
            (got, issued, completed)
        });
        for (got, issued, completed) in out.results {
            assert_eq!(got, [10, 20, 30, 40]);
            assert!(completed > issued, "quiet pays the round trip");
        }
    }

    #[test]
    fn nbi_operations_still_feed_the_hazard_detector() {
        let out = run(stampede(2, 1).with_heap_bytes(1 << 16), |pe| {
            let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()));
            let buf = shmem.shmalloc::<i64>(1).unwrap();
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                shmem.put_nbi(buf, &[7], 1);
                let mut out_v = [0i64];
                shmem.get_nbi(buf, &mut out_v, 1); // no quiet in between
            }
            shmem.barrier_all();
        });
        assert_eq!(out.stats.hazards, 1);
    }

    #[test]
    fn local_view_works_within_a_node_only() {
        let out = run(stampede(2, 2).with_heap_bytes(1 << 16), |pe| {
            let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()));
            let x = shmem.shmalloc::<i64>(4).unwrap();
            shmem.write_local(x, &[10, 20, 30, 40]);
            shmem.barrier_all();
            let same_node_peer = shmem.my_pe() ^ 1;
            let cross_node_peer = (shmem.my_pe() + 2) % 4;
            let view = shmem.local_view(x, same_node_peer);
            let remote_view_is_none = shmem.local_view(x, cross_node_peer).is_none();
            let v = view.as_ref().map(|w| w.read(2));
            if let Some(w) = &view {
                w.write(3, shmem.my_pe() as i64 + 100);
            }
            shmem.barrier_all();
            (v, remote_view_is_none, shmem.read_local_one(x.at(3)))
        });
        for (pe, (v, remote_none, slot3)) in out.results.iter().enumerate() {
            assert_eq!(*v, Some(30), "PE {pe} reads its neighbour directly");
            assert!(remote_none, "cross-node shmem_ptr must be null");
            assert_eq!(*slot3 as usize, (pe ^ 1) + 100, "neighbour wrote my slot 3");
        }
    }

    #[test]
    fn local_view_is_cheaper_than_message_path() {
        let out = run(generic_smp(2).with_heap_bytes(1 << 16), |pe| {
            let shmem = mk(pe);
            let x = shmem.shmalloc::<i64>(1).unwrap();
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                let t0 = pe.now();
                for _ in 0..100 {
                    let _ = shmem.g(x, 1);
                }
                let msg = pe.now() - t0;
                let view = shmem.local_view(x, 1).unwrap();
                let t1 = pe.now();
                for _ in 0..100 {
                    let _ = view.read(0);
                }
                let direct = pe.now() - t1;
                (msg, direct)
            } else {
                (0, 0)
            }
        });
        let (msg, direct) = out.results[0];
        assert!(direct * 5 < msg, "direct {direct} vs message {msg}");
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        run(generic_smp(1).with_heap_bytes(4096), |pe| {
            let shmem = Shmem::new(
                pe,
                ShmemConfig::new(ConduitProfile::mvapich_shmem()).with_pwrk_bytes(256),
            );
            assert!(shmem.shmalloc::<u64>(10_000).is_err());
            assert!(shmem.shmalloc::<u64>(8).is_ok());
        });
    }

    #[test]
    fn local_read_write_do_not_communicate() {
        let out = run(cfg(), |pe| {
            let shmem = mk(pe);
            let x = shmem.shmalloc::<u32>(4).unwrap();
            shmem.write_local(x, &[9, 8, 7, 6]);
            let mut buf = [0u32; 4];
            shmem.read_local(x, &mut buf);
            buf
        });
        assert_eq!(out.stats.rma_ops(), 0);
        for r in out.results {
            assert_eq!(r, [9, 8, 7, 6]);
        }
    }
}
