//! The per-PE communication context: issue one-sided operations with real
//! data movement and virtual-time accounting.
//!
//! Every operation is described by an [`OpDesc`] and executed by
//! [`Ctx::submit`] — the single fallible choke point where the sanitizer,
//! metrics, flow tracing, fault-retry, coalescing, and active-message
//! paths hook. The named public methods (`put`, `try_put`, `put_nbi`,
//! `iput`, `amo`, `am_send`, ...) are thin shims over `submit`. Every put
//! runs one body and every get another; the transfer's `Layout` (run,
//! strided or regions) picks its price, landing, pending range and label.

use crate::am::{AmHandler, AmHandlerId, AmTarget};
use crate::coalesce::{
    CoalescePolicy, Coalescer, CoalescingConfig, NodeBuf, StagedOp, StagedPayload,
};
use crate::cost::{CostModel, FlowDetail, AM_HEADER_BYTES};
use crate::integrity::Crc32;
use crate::layout::Layout;
use crate::op::{Completion, OpDesc, OpKind, OpReceipt};
use crate::pending::{Hazard, HazardKind, PendingSet};
use crate::profile::ConduitProfile;
use pgas_machine::knobs::Source;
use pgas_machine::machine::{Machine, Pe, PeId};
use pgas_machine::sanitizer::{HazardKind as SanKind, HazardReport};
use pgas_machine::stats::{FaultEvent, Stats};
use pgas_machine::trace::{Span, SpanKind};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::Ordering;

/// Histogram name for an op kind's end-to-end latency (metrics registry
/// keys are `&'static str`, so the mapping is a static table).
fn latency_metric(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Put => "put_ns",
        SpanKind::Get => "get_ns",
        SpanKind::Amo => "amo_ns",
        SpanKind::Quiet => "quiet_ns",
        SpanKind::Barrier => "barrier_ns",
        SpanKind::WaitUntil => "wait_until_ns",
        SpanKind::Compute => "compute_ns",
        SpanKind::Collective => "collective_ns",
        SpanKind::Retry => "retry_ns",
        SpanKind::Fault => "fault_ns",
    }
}

/// Behavioural switches of a context.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxOptions {
    /// Panic on ordering hazards instead of only counting them. Used by
    /// tests that prove the CAF runtime inserts the required `quiet`s.
    pub strict_ordering: bool,
    /// Convert same-node transfers into direct load/store copies
    /// (`shmem_ptr`), bypassing the message path. §VII future work.
    pub shmem_ptr_fastpath: bool,
    /// Whether this context coalesces small puts and non-fetching AMOs
    /// into per-destination-node staging buffers (see
    /// [`crate::coalesce`]). `Auto` (the default) defers to the machine's
    /// aggregation default, so existing call sites keep their exact
    /// pre-coalescing behaviour unless the environment opts in.
    pub coalesce: CoalescePolicy,
}

/// Remote atomic operations on an 8-byte symmetric word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoOp {
    /// Atomically replace, returning the old value (`shmem_swap`).
    Swap(u64),
    /// Replace with `value` iff the current value equals `cond`, returning
    /// the old value (`shmem_cswap`).
    CompareSwap { cond: u64, value: u64 },
    /// Add and return the old value (`shmem_fadd`).
    FetchAdd(u64),
    /// Add without fetching (`shmem_add`).
    Add(u64),
    /// Atomic read (`shmem_fetch`).
    Fetch,
    /// Atomic write (`shmem_set`).
    Set(u64),
    /// Bitwise AND without fetching (`shmem_and`).
    And(u64),
    /// Bitwise OR without fetching (`shmem_or`).
    Or(u64),
    /// Bitwise XOR without fetching (`shmem_xor`).
    Xor(u64),
    /// Bitwise AND, returning the old value.
    FetchAnd(u64),
    /// Bitwise OR, returning the old value.
    FetchOr(u64),
    /// Bitwise XOR, returning the old value.
    FetchXor(u64),
}

impl AmoOp {
    /// Does the caller block for the result?
    pub fn is_fetching(self) -> bool {
        matches!(
            self,
            AmoOp::Swap(_)
                | AmoOp::CompareSwap { .. }
                | AmoOp::FetchAdd(_)
                | AmoOp::Fetch
                | AmoOp::FetchAnd(_)
                | AmoOp::FetchOr(_)
                | AmoOp::FetchXor(_)
        )
    }
}

/// Why a fallible one-sided operation could not be delivered.
///
/// Only produced when the machine runs under a [fault
/// plan](pgas_machine::FaultPlan); on a fault-free machine every operation
/// succeeds and the infallible entry points never panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConduitError {
    /// The target PE was marked dead (scheduled PE failure). Layers above
    /// map this onto Fortran 2018 `STAT_FAILED_IMAGE`.
    TargetFailed { op: &'static str, target: PeId },
    /// The operation kept hitting transient faults and ran out of retry
    /// attempts (see [`pgas_machine::RetryPolicy`]).
    RetriesExhausted { op: &'static str, target: PeId, attempts: u32 },
    /// Every delivery attempt arrived with a payload whose end-to-end CRC32
    /// failed verification (injected `FaultKind::Corrupt` under
    /// `PGAS_CHECKSUM`). Without checksums the same draws surface as
    /// [`ConduitError::RetriesExhausted`] — the typed variant is exactly
    /// what end-to-end verification buys.
    PayloadCorrupt { op: &'static str, target: PeId, attempts: u32 },
}

impl std::fmt::Display for ConduitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConduitError::TargetFailed { op, target } => {
                write!(f, "{op} to PE {target} failed: target PE is dead")
            }
            ConduitError::RetriesExhausted { op, target, attempts } => {
                write!(f, "{op} to PE {target} gave up after {attempts} attempts")
            }
            ConduitError::PayloadCorrupt { op, target, attempts } => {
                write!(
                    f,
                    "{op} to PE {target} failed CRC32 verification on all {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for ConduitError {}

/// A strided layout that does not loop ([`Ctx::loops_strided`]) runs on a
/// profile with a native strided descriptor.
const NATIVE: &str = "a strided transfer reaches the wire only on a native-strided profile";

/// The single conversion the infallible entry points use: a fault that a
/// fallible caller would handle becomes a hard panic here.
fn unwrap_infallible<T>(r: Result<T, ConduitError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            panic!("{e}; use the fallible conduit/CAF interfaces to handle injected faults")
        }
    }
}

/// Per-PE one-sided communication engine. Not `Sync`: each PE owns exactly
/// one, used only from the fiber (or, on the baton carrier, the thread) that
/// runs the PE — plus any sibling contexts it creates, see
/// [`Ctx::create_ctx`].
pub struct Ctx<'m> {
    pe: Pe<'m>,
    cost: CostModel<'m>,
    pending: RefCell<PendingSet>,
    opts: CtxOptions,
    hazards: Cell<u64>,
    /// `Some` iff this context coalesces (resolved once at construction
    /// from the thread override, the options, and the machine default).
    coalescer: Option<RefCell<Coalescer>>,
    /// SPMD-symmetric active-message handler table (see [`crate::am`]).
    /// Shared across sibling contexts so a handler registered on the
    /// primary context is callable from any `shmem_ctx_create`d one.
    am_handlers: Rc<RefCell<Vec<Rc<dyn AmHandler>>>>,
    /// This context's NIC channel id (0 = the primary/default context).
    /// Carried into every arbiter turn so tied turns from *different
    /// contexts of the same PE* stay distinguishable and deterministic.
    ctx_id: u32,
    /// Next sibling id, shared across all contexts of this PE.
    next_ctx: Rc<Cell<u32>>,
    /// Team scope ops, syncs and hazards are attributed to (0 = world); set
    /// by `change team`.
    team_scope: Cell<u32>,
    /// Errors detected after their op already returned a staged receipt —
    /// a coalesced put whose target died before the flush lands here and
    /// surfaces at the next [`Ctx::try_quiet`].
    deferred: RefCell<Vec<ConduitError>>,
    /// End-to-end payload checksums (resolved once from the machine).
    checksums: bool,
}

impl<'m> Ctx<'m> {
    pub fn new(pe: Pe<'m>, profile: ConduitProfile, opts: CtxOptions) -> Self {
        Self::build(pe, profile, opts, 0, Rc::new(Cell::new(1)), Rc::new(RefCell::new(Vec::new())))
    }

    fn build(
        pe: Pe<'m>,
        profile: ConduitProfile,
        opts: CtxOptions,
        ctx_id: u32,
        next_ctx: Rc<Cell<u32>>,
        am_handlers: Rc<RefCell<Vec<Rc<dyn AmHandler>>>>,
    ) -> Self {
        let m = pe.machine();
        // Resolution precedence mirrors the tracing/metrics switches: a
        // `with_forced_aggregation` thread override beats the explicit
        // per-context policy, which beats the machine/environment default.
        let agg = &m.knobs().aggregation;
        let forced = (agg.source == Source::Forced).then_some(agg.value);
        let cfg = match (forced, opts.coalesce) {
            (Some(false), _) => None,
            (Some(true), CoalescePolicy::On(c)) => Some(c),
            (Some(true), _) => Some(CoalescingConfig::default()),
            (None, CoalescePolicy::Off) => None,
            (None, CoalescePolicy::On(c)) => Some(c),
            (None, CoalescePolicy::Auto) => agg.value.then(CoalescingConfig::default),
        };
        Ctx {
            pe,
            cost: CostModel::new(pe.machine(), profile),
            pending: RefCell::new(PendingSet::default()),
            opts,
            hazards: Cell::new(0),
            coalescer: cfg.map(|c| RefCell::new(Coalescer::new(c))),
            am_handlers,
            ctx_id,
            next_ctx,
            team_scope: Cell::new(0),
            deferred: RefCell::new(Vec::new()),
            checksums: m.knobs().checksums.value,
        }
    }

    /// `shmem_ctx_create`: a sibling context on this PE with its own NIC
    /// channel. The sibling keeps its own completion state (pending set,
    /// coalescing buffers), so its `quiet`/`fence` scope only the ops
    /// issued *on it* — the OpenSHMEM contexts contract — while sharing
    /// the PE's AM handler table and clock. Its arbiter turns park under
    /// its own channel id, keeping tied turns from different channels of
    /// one PE deterministic.
    pub fn create_ctx(&self) -> Ctx<'m> {
        let id = self.next_ctx.get();
        self.next_ctx.set(id + 1);
        let ctx = Self::build(
            self.pe,
            *self.cost.profile(),
            self.opts,
            id,
            Rc::clone(&self.next_ctx),
            Rc::clone(&self.am_handlers),
        );
        ctx.team_scope.set(self.team_scope.get());
        ctx
    }

    /// This context's NIC channel id (0 = primary).
    #[inline]
    pub fn ctx_id(&self) -> u32 {
        self.ctx_id
    }

    /// Team ops on this context are attributed to (0 = world).
    #[inline]
    pub fn team_scope(&self) -> u32 {
        self.team_scope.get()
    }

    /// Scope subsequent ops to `team` for attribution (`change team`);
    /// returns the previous scope so callers can restore it (`end team`).
    pub fn set_team_scope(&self, team: u32) -> u32 {
        self.team_scope.replace(team)
    }

    /// Errors deferred from staged (coalesced) ops whose target died
    /// before the flush; drained by [`Ctx::try_quiet`].
    pub fn deferred_errors(&self) -> usize {
        self.deferred.borrow().len()
    }

    #[inline]
    pub fn pe(&self) -> Pe<'m> {
        self.pe
    }

    #[inline]
    pub fn machine(&self) -> &'m Machine {
        self.pe.machine()
    }

    #[inline]
    pub fn profile(&self) -> &ConduitProfile {
        self.cost.profile()
    }

    #[inline]
    pub fn cost_model(&self) -> &CostModel<'m> {
        &self.cost
    }

    #[inline]
    pub fn options(&self) -> CtxOptions {
        self.opts
    }

    /// Is small-op coalescing active on this context? (Layers above use
    /// this to pick aggregation-friendly algorithms, e.g. the DHT's
    /// active-message update path.)
    #[inline]
    pub fn coalescing(&self) -> bool {
        self.coalescer.is_some()
    }

    /// Hazards detected on this PE so far.
    pub fn hazard_count(&self) -> u64 {
        self.hazards.get()
    }

    fn flag_hazard(&self, h: Hazard) {
        self.hazards.set(self.hazards.get() + 1);
        let m = self.machine();
        Stats::bump(&m.stats().hazards);
        if m.metrics().enabled() {
            m.metrics().count(self.pe.id(), "hazard", Some(m.node_of(h.dst)), 1);
            let team = self.team_scope.get();
            if team != 0 {
                m.metrics().count(self.pe.id(), "team_hazard", Some(team as usize), 1);
            }
        }
        if m.san_on() {
            // Mirror the hazard into the sanitizer's structured report sink,
            // classified: a partial overlap can tear, a full overlap is
            // stale-but-whole (quiet missing).
            let op = match h.kind {
                HazardKind::ReadAfterUnquietedWrite => "get",
                HazardKind::WriteAfterUnquietedWrite => "put",
                HazardKind::AmoOverUnquietedWrite => "amo",
            };
            m.san_report(HazardReport {
                kind: if h.torn { SanKind::TornTransfer } else { SanKind::MissingQuiet },
                op,
                accessor: self.pe.id(),
                target: h.dst,
                conflict_pe: self.pe.id(),
                offset: h.offset,
                len: h.len,
                t_conflict: h.pending_complete,
                t_known: self.pe.now(),
            });
        }
        if self.opts.strict_ordering {
            panic!("{h} issued by PE {}", self.pe.id());
        }
    }

    /// Record a completed operation into the tracer (as a span carrying the
    /// flow breakdown) and the metrics registry (counter + latency/queue
    /// histograms keyed by peer node). Both sinks are branch-only no-ops
    /// when their subsystem is disabled.
    fn record_op(
        &self,
        kind: SpanKind,
        begin: u64,
        peer: Option<PeId>,
        bytes: usize,
        detail: FlowDetail,
    ) {
        let m = self.machine();
        let end = self.pe.now();
        let team = self.team_scope.get();
        let tracer = m.tracer();
        if tracer.enabled() {
            let mut s = Span::op(self.pe.id(), kind, begin, end, peer, bytes);
            s.queue_ns = detail.queue_ns;
            s.service_ns = detail.service_ns;
            s.remote_begin = detail.remote_begin;
            s.remote_end = detail.remote_end;
            s.team = team;
            tracer.record(s);
        }
        let metrics = m.metrics();
        if metrics.enabled() {
            // One shard lock for the op's up-to-five series. The per-team
            // breakdown rides in `team_op`'s second dimension (team id
            // instead of peer node) and is absent entirely when no team
            // scope is active, so team-free runs keep their exact metric
            // snapshots.
            metrics.record_op(
                self.pe.id(),
                peer.map(|p| m.node_of(p)),
                kind.label(),
                bytes as u64,
                latency_metric(kind),
                end.saturating_sub(begin),
                detail.queue_ns,
                team,
            );
        }
    }

    /// [`Self::record_op`] without a flow breakdown (synchronization and
    /// local ops).
    #[inline]
    fn trace(&self, kind: SpanKind, begin: u64, peer: Option<PeId>, bytes: usize) {
        self.record_op(kind, begin, peer, bytes, FlowDetail::default());
    }

    /// Can `dst` be reached with direct loads/stores under the current
    /// options?
    #[inline]
    fn fastpath(&self, dst: PeId) -> bool {
        self.opts.shmem_ptr_fastpath && self.machine().same_node(self.pe.id(), dst)
    }

    /// Does a strided transfer to `dst` run as one submitted put or get per
    /// element? On a software-loop profile, or to a fastpath peer, it does:
    /// that loop is the model the paper measures (§V-B2), and each element
    /// coalesces like any other small op.
    fn loops_strided(&self, dst: PeId) -> bool {
        !self.profile().has_native_strided() || self.fastpath(dst)
    }

    // ---- fault injection -------------------------------------------------

    /// Admission gate every message-path operation passes before touching
    /// memory or NICs. On a fault-free machine this is one branch.
    ///
    /// Under a fault plan it rolls the issuing PE's deterministic stream
    /// once per message attempt: a clean draw admits the operation, a
    /// drop/corrupt draw charges the loss-detection timeout plus exponential
    /// backoff to the issuer's *virtual* clock and tries again. The data
    /// movement below the gate happens once, for the attempt that finally
    /// gets through — retries of lost messages cost time, not duplicated
    /// state. Attempts are capped by the plan's [`RetryPolicy`]; exhaustion
    /// and dead targets surface as [`ConduitError`] instead of hanging.
    ///
    /// Staged (coalesced) ops pass the gate at *stage* time, like nbi ops
    /// detect their faults at issue time: the flush itself is then
    /// fault-free, so `quiet` stays infallible and errors surface at the
    /// operation that caused them.
    ///
    /// With end-to-end checksums enabled, a `Corrupt` draw on a `payload` is
    /// *verified*: the receiver-side CRC32 of a deterministically mangled
    /// copy of the bytes `payload` lands is checked against the sender-side
    /// `digest` (hashed here if the caller has none), the
    /// mismatch is counted as `payload_corrupt`, and exhaustion surfaces as
    /// the typed [`ConduitError::PayloadCorrupt`]. The draw sequence, backoff
    /// charges and clock movement are bit-identical with checksums off —
    /// detection changes *what the failure is called*, never what it costs.
    ///
    /// [`RetryPolicy`]: pgas_machine::RetryPolicy
    fn fault_gate(
        &self,
        op: &'static str,
        target: PeId,
        payload: Option<(Layout<'_>, &[u8])>,
        mut digest: Option<u32>,
    ) -> Result<(), ConduitError> {
        let m = self.machine();
        if !m.faults_active() {
            return Ok(());
        }
        if m.pe_failed(target) {
            return Err(ConduitError::TargetFailed { op, target });
        }
        let max = m.fault_plan().map_or(u32::MAX, |p| p.retry.max_attempts);
        let me = self.pe.id();
        let stats = m.stats();
        for attempt in 1..=max {
            let Some(kind) = m.fault_draw(me) else {
                return Ok(());
            };
            Stats::bump(&stats.faults_injected);
            // A corruption draw on a checksummed payload is *detected* by
            // verification rather than assumed from link-level feedback:
            // mangle a copy the way the wire would and catch the CRC
            // mismatch. Charges nothing — CRC time is below the simulator's
            // resolution — and draws nothing, so digests don't move.
            let mut verified_corrupt = false;
            let mut label = kind.label();
            if kind == pgas_machine::FaultKind::Corrupt && self.checksums {
                if let Some((layout, src)) = payload.filter(|(layout, _)| layout.bytes() > 0) {
                    let mut wire: Vec<u8> = layout
                        .pieces()
                        .flat_map(|(_, len, at)| &src[at..at + len])
                        .copied()
                        .collect();
                    // Hashed at most once per transfer, however many
                    // attempts it takes.
                    let expect = *digest.get_or_insert_with(|| crate::integrity::crc32(&wire));
                    let flip = (attempt as usize - 1) % wire.len();
                    wire[flip] ^= 0xFF;
                    if crate::integrity::crc32(&wire) != expect {
                        Stats::bump(&stats.payload_corrupt);
                        verified_corrupt = true;
                        label = "payload-corrupt";
                    }
                }
            }
            let begin = self.pe.now();
            let delay = m.fault_backoff_ns(me, attempt);
            stats.record_fault(FaultEvent {
                pe: me,
                op,
                target,
                kind: label,
                attempt,
                delay_ns: delay,
                at_ns: begin,
            });
            // The sender pays the detection timeout whether it retries or
            // gives up — a lost message is only known lost after the wait.
            self.pe.advance(delay as f64);
            self.trace(SpanKind::Retry, begin, Some(target), 0);
            if attempt == max {
                Stats::bump(&stats.retries_exhausted);
                stats.record_fault(FaultEvent {
                    pe: me,
                    op,
                    target,
                    kind: "exhausted",
                    attempt,
                    delay_ns: 0,
                    at_ns: self.pe.now(),
                });
                return Err(if verified_corrupt {
                    ConduitError::PayloadCorrupt { op, target, attempts: max }
                } else {
                    ConduitError::RetriesExhausted { op, target, attempts: max }
                });
            }
            Stats::bump(&stats.retries);
            if m.pe_failed(target) {
                return Err(ConduitError::TargetFailed { op, target });
            }
        }
        Ok(())
    }

    // ---- landing and reading ---------------------------------------------

    /// The one landing path, run inside the caller's `apply_and_notify`
    /// section on `dst`: write `src` where `layout` says, stamp the touched
    /// words `t`, verify, and record one sanitizer write per piece (so a
    /// report names the element or region that raced).
    ///
    /// Verification is the receive-side half of end-to-end checksums: given
    /// the payload's `digest` ([`Self::payload_digest`], `None` with
    /// checksums off), the landed bytes are read back and their CRC32
    /// checked against it. It charges no virtual time. A mismatch would mean the
    /// *simulator* corrupted data in flight — injected corruption never
    /// reaches this point, the gate catches and retries it — so it is a
    /// hard failure, not a typed error.
    fn land(
        &self,
        dst: PeId,
        layout: Layout<'_>,
        src: &[u8],
        t: u64,
        op: &'static str,
        digest: Option<u32>,
    ) {
        let m = self.machine();
        let heap = m.heap(dst);
        layout.write(heap, src, t);
        if let Some(digest) = digest {
            let (mut back, mut buf) = (Crc32::new(), Vec::new());
            for (off, len, _) in layout.pieces() {
                buf.resize(len, 0);
                heap.read_bytes(off, &mut buf);
                back.update(&buf);
            }
            assert_eq!(
                back.finish(),
                digest,
                "end-to-end CRC32 mismatch applying {} bytes at PE {dst} offset {}",
                layout.bytes(),
                layout.span().0
            );
        }
        if m.san_on() {
            for (off, len, _) in layout.pieces() {
                m.san_record_write(dst, off, len, self.pe.id(), t, false, op);
            }
        }
    }

    /// CRC32 of the bytes `layout` lands from `src`, back to back — what
    /// the wire carries — or `None` with checksums off. It charges no
    /// virtual time, so enabling checksums moves no digest.
    fn payload_digest(&self, layout: Layout<'_>, src: &[u8]) -> Option<u32> {
        self.checksums.then(|| {
            let mut crc = Crc32::new();
            layout.pieces().for_each(|(_, len, at)| crc.update(&src[at..at + len]));
            crc.finish()
        })
    }

    /// The one read path: copy `layout`'s pieces of `dst`'s heap into
    /// `out`, check each against the sanitizer, and return the newest stamp
    /// they carry.
    fn fetch(&self, dst: PeId, layout: Layout<'_>, out: &mut [u8], op: &'static str) -> u64 {
        let m = self.machine();
        let stamp = layout.read(m.heap(dst), out);
        if m.san_on() {
            for (off, len, _) in layout.pieces() {
                m.san_check_read(dst, off, len, self.pe.id(), op);
            }
        }
        stamp
    }

    /// Apply `op` to the 8-byte word at `off` of `dst`'s heap, inside the
    /// caller's `apply_and_notify` section, and stamp it `t`. Returns the
    /// word's previous value and the stamp it carried. Shared by the direct
    /// AMO path and the coalesced-flush replay.
    fn land_amo(&self, dst: PeId, off: usize, op: AmoOp, t: u64) -> (u64, u64) {
        let m = self.machine();
        // A fetching atomic observes the last writer of the word — that is
        // the happens-before edge lock handoffs are built on. Taken here, in
        // the section that serializes the word's atomics: earlier, a release
        // that lands between the edge and the fetch would be observed but
        // not joined.
        if op.is_fetching() {
            m.san_sync_edge(self.pe.id(), dst, off);
        }
        let (heap, word) = (m.heap(dst), m.heap(dst).atomic64(off));
        let prior_stamp = heap.max_stamp(off, 8);
        let old = match op {
            AmoOp::Swap(v) | AmoOp::Set(v) => word.swap(v, Ordering::AcqRel),
            AmoOp::CompareSwap { cond, value } => word
                .compare_exchange(cond, value, Ordering::AcqRel, Ordering::Acquire)
                .unwrap_or_else(|prev| prev),
            AmoOp::FetchAdd(v) | AmoOp::Add(v) => word.fetch_add(v, Ordering::AcqRel),
            AmoOp::Fetch => word.load(Ordering::Acquire),
            AmoOp::And(v) | AmoOp::FetchAnd(v) => word.fetch_and(v, Ordering::AcqRel),
            AmoOp::Or(v) | AmoOp::FetchOr(v) => word.fetch_or(v, Ordering::AcqRel),
            AmoOp::Xor(v) | AmoOp::FetchXor(v) => word.fetch_xor(v, Ordering::AcqRel),
        };
        heap.stamp_range(off, 8, t);
        if !matches!(op, AmoOp::Fetch) {
            // Record before waking: a waiter released by this AMO derives
            // its happens-before edge from the sanitizer's view of this
            // write.
            m.san_record_write(dst, off, 8, self.pe.id(), t, true, "amo");
        }
        (old, prior_stamp)
    }

    // ---- the submit choke point ------------------------------------------

    /// Execute one descriptor: the single path every operation takes.
    ///
    /// Dispatch order: if coalescing is active, stage-eligible ops (small
    /// puts off the fastpath, non-fetching AMOs) are absorbed into their
    /// destination node's buffer and return a `staged` receipt; any other
    /// kind first flushes that node's buffer (program order per node, and
    /// read-your-writes, are preserved exactly) and then runs directly.
    /// An empty strided or regions transfer moves nothing and is no flush
    /// point: it returns an empty receipt before the dispatch.
    pub fn submit(&self, op: OpDesc<'_>) -> Result<OpReceipt, ConduitError> {
        let OpDesc { peer, completion, kind } = op;
        let empty = match &kind {
            OpKind::StridedPut { nelems, .. } | OpKind::StridedGet { nelems, .. } => *nelems == 0,
            OpKind::AmPutRegions { regions, .. } | OpKind::AmGetRegions { regions, .. } => {
                regions.is_empty()
            }
            _ => false,
        };
        if empty {
            return Ok(OpReceipt::default());
        }
        if let Some(c) = &self.coalescer {
            match &kind {
                OpKind::Put { dst_off, src }
                    if !self.fastpath(peer) && c.borrow().put_eligible(src.len()) =>
                {
                    return self.stage_put(peer, *dst_off, src);
                }
                OpKind::Amo { off, op } if !op.is_fetching() => {
                    return self.stage_amo(peer, *off, *op);
                }
                _ => self.flush_node(peer),
            }
        }
        let bytes = match kind {
            OpKind::Put { dst_off, src } => {
                self.do_put(peer, Layout::Run { off: dst_off, len: src.len() }, src, completion)
            }
            OpKind::Get { src_off, out } => {
                self.do_get(peer, Layout::Run { off: src_off, len: out.len() }, out, completion)
            }
            OpKind::Amo { off, op } => {
                let value = self.do_amo(peer, off, op)?;
                return Ok(OpReceipt { value, bytes: 8, staged: false });
            }
            OpKind::StridedPut { dst_off, dst_stride, src, elem, src_stride, nelems } => {
                let layout = Layout::strided(dst_off, dst_stride, elem, nelems, src_stride);
                self.do_put(peer, layout, src, completion)
            }
            OpKind::StridedGet { src_off, src_stride, out, elem, out_stride, nelems } => {
                let layout = Layout::strided(src_off, src_stride, elem, nelems, out_stride);
                self.do_get(peer, layout, out, completion)
            }
            OpKind::AmPutRegions { regions, payload } => {
                self.do_put(peer, Layout::Regions(regions), payload, completion)
            }
            OpKind::AmGetRegions { regions, out } => {
                self.do_get(peer, Layout::Regions(regions), out, completion)
            }
            OpKind::AmSend { handler, arg } => self.do_am(peer, handler, arg, None),
            OpKind::AmCall { handler, arg, reply } => self.do_am(peer, handler, arg, Some(reply)),
        }?;
        Ok(OpReceipt { bytes, ..Default::default() })
    }

    // ---- coalescing ------------------------------------------------------

    /// Stage a small put into its destination node's buffer.
    fn stage_put(&self, dst: PeId, dst_off: usize, src: &[u8]) -> Result<OpReceipt, ConduitError> {
        let m = self.machine();
        // Faults are drawn at stage time (see `fault_gate`).
        self.fault_gate(
            "put",
            dst,
            Some((Layout::Run { off: dst_off, len: src.len() }, src)),
            None,
        )?;
        let node = m.node_of(dst);
        let c = self.coalescer.as_ref().expect("stage_put called without a coalescer");
        // A same-range rewrite merges in place (write combining), growing
        // neither the op count nor the byte total — it skips the capacity
        // check and only an over-age buffer still flushes first.
        let will_merge = c.borrow().can_merge_put(node, dst, dst_off, src.len());
        let (new_ops, new_bytes) = if will_merge { (0, 0) } else { (1, src.len()) };
        if c.borrow().needs_flush_before(node, new_ops, new_bytes, self.pe.now()) {
            let buf = c.borrow_mut().take_node(node);
            if let Some(buf) = buf {
                self.flush_buf(buf);
            }
        }
        Stats::bump(&m.stats().puts);
        Stats::add(&m.stats().bytes_put, src.len() as u64);
        // Staged-vs-staged never hazards (the buffer applies FIFO); only
        // already-flushed in-flight transfers can conflict.
        if let Some(h) = self.pending.borrow().check_put(dst, dst_off, src.len()) {
            self.flag_hazard(h);
        }
        let merged = c.borrow_mut().try_merge_put(node, dst, dst_off, src);
        if !merged {
            c.borrow_mut().push(
                node,
                StagedOp { dst, off: dst_off, payload: StagedPayload::Put(src.to_vec()) },
                self.pe.now(),
            );
        }
        // Only the issue cost lands on the clock now; the wire transfer is
        // charged when the buffer flushes.
        self.pe.advance(self.cost.profile().put_issue_ns);
        Ok(OpReceipt { value: 0, bytes: src.len(), staged: true })
    }

    /// Stage a non-fetching AMO into its destination node's buffer. The
    /// receipt's `value` is 0 — OpenSHMEM gives non-fetching atomics no
    /// result, so nothing is lost.
    fn stage_amo(&self, dst: PeId, off: usize, op: AmoOp) -> Result<OpReceipt, ConduitError> {
        let m = self.machine();
        self.fault_gate("amo", dst, None, None)?;
        let node = m.node_of(dst);
        let c = self.coalescer.as_ref().expect("stage_amo called without a coalescer");
        if c.borrow().needs_flush_before(node, 1, 8, self.pe.now()) {
            let buf = c.borrow_mut().take_node(node);
            if let Some(buf) = buf {
                self.flush_buf(buf);
            }
        }
        Stats::bump(&m.stats().amos);
        if let Some(h) = self.pending.borrow().check_amo(dst, off) {
            self.flag_hazard(h);
        }
        c.borrow_mut().push(
            node,
            StagedOp { dst, off, payload: StagedPayload::Amo(op) },
            self.pe.now(),
        );
        self.pe.advance(self.cost.profile().put_issue_ns);
        Ok(OpReceipt { value: 0, bytes: 8, staged: true })
    }

    /// Flush the staged buffer (if any) for `peer`'s node. Called before
    /// every non-stageable op to that node.
    fn flush_node(&self, peer: PeId) {
        let Some(c) = &self.coalescer else { return };
        let node = self.machine().node_of(peer);
        let buf = c.borrow_mut().take_node(node);
        if let Some(buf) = buf {
            self.flush_buf(buf);
        }
    }

    /// Flush every staged buffer, ordered by `(first_enqueue_ns, node)` —
    /// the key the NIC arbiter parks on, so flush order is deterministic.
    /// Called by `quiet`, `fence`, barriers and `wait_until`.
    fn flush_staged(&self) {
        let Some(c) = &self.coalescer else { return };
        let all = c.borrow_mut().take_all();
        for (_node, buf) in all {
            self.flush_buf(buf);
        }
    }

    /// Send one staged buffer as a single wire transfer (payload plus one
    /// AM header per op) and apply its ops FIFO at the target under the
    /// NIC arbiter, exactly at the transfer's remote completion.
    ///
    /// Staged ops whose target PE died after they were staged never reach
    /// the wire: they are dropped from the batch here and surface as
    /// [`ConduitError::TargetFailed`] at the next [`Ctx::try_quiet`] —
    /// staging returned success, so the error has to ride the completion
    /// path, exactly like an nbi put's would. The liveness test is the
    /// *scheduled deadline* against this PE's clock, not the racy failure
    /// flag, so which ops die is a pure function of the plan and the
    /// issuing PE's virtual time.
    fn flush_buf(&self, buf: NodeBuf) {
        let m = self.machine();
        let me = self.pe.id();
        let mut buf = buf;
        if m.faults_active() {
            let now = self.pe.now();
            let mut deferred = self.deferred.borrow_mut();
            buf.ops.retain(|o| {
                if m.pe_dead_at(o.dst, now) {
                    let op = match &o.payload {
                        StagedPayload::Put(_) => "put",
                        StagedPayload::Amo(_) => "amo",
                    };
                    deferred.push(ConduitError::TargetFailed { op, target: o.dst });
                    false
                } else {
                    true
                }
            });
            if buf.ops.is_empty() {
                return; // the whole batch targeted dead PEs
            }
            buf.total_bytes = buf.ops.iter().map(|o| o.write_range().1).sum();
        }
        let nops = buf.ops.len();
        let wire_bytes = buf.total_bytes + AM_HEADER_BYTES * nops;
        let rep_dst = buf.ops[0].dst;
        // Deliveries to every PE in the buffer must stay ordered after
        // earlier in-flight transfers to them.
        let floor = {
            let p = self.pending.borrow();
            buf.ops.iter().map(|o| p.floor_for(o.dst)).max().unwrap_or(0)
        };
        let t_begin = self.pe.now();
        let (t, detail) = self.cost.am_packed_put(me, rep_dst, wire_bytes, nops, t_begin, floor);
        // Apply under the arbiter, keyed at the instant the batch lands:
        // tied flushes from different PEs (released by the same barrier)
        // apply in deterministic order, like tied AMOs.
        let (landed, mut pending) = (t.remote_complete, self.pending.borrow_mut());
        m.nic_turn_ctx(me, self.ctx_id, landed, || {
            for op in &buf.ops {
                m.apply_and_notify(op.dst, || match &op.payload {
                    StagedPayload::Put(data) => {
                        let layout = Layout::Run { off: op.off, len: data.len() };
                        let digest = self.payload_digest(layout, data);
                        self.land(op.dst, layout, data, landed, "put", digest);
                        pending.record_put(op.dst, op.off, data.len(), landed);
                    }
                    StagedPayload::Amo(a) => {
                        self.land_amo(op.dst, op.off, *a, landed);
                        pending.record_amo(op.dst, op.off, landed);
                    }
                });
            }
        });
        drop(pending);
        m.lift_clock(me, t.local_complete);
        // One span for the whole batch; the staged ops recorded none.
        self.record_op(SpanKind::Put, t_begin, Some(rep_dst), wire_bytes, detail);
    }

    // ---- operation bodies (shims below build OpDescs) --------------------

    /// The one put body. `layout` picks the wire shape and its price: a
    /// contiguous put, a NIC-native strided descriptor (`iput`) or one
    /// AM-packed message unpacked by a software handler at the target
    /// (`am put`, GASNet's VIS path). `Completion` picks what lands on the
    /// clock at the end: blocking lifts to local completion, nbi charges
    /// only the issue cost.
    ///
    /// A strided put may instead loop over its elements
    /// ([`Self::loops_strided`]). Only a contiguous put takes the fastpath
    /// and checks the pending set for hazards: the other layouts' pending
    /// ranges cover their gaps, and the pencils of one multi-dimensional
    /// statement interleave.
    fn do_put(
        &self,
        dst: PeId,
        layout: Layout<'_>,
        src: &[u8],
        completion: Completion,
    ) -> Result<usize, ConduitError> {
        if matches!(layout, Layout::Strided { .. }) && self.loops_strided(dst) {
            for (dst_off, len, at) in layout.pieces() {
                let kind = OpKind::Put { dst_off, src: &src[at..at + len] };
                self.submit(OpDesc { peer: dst, completion, kind })?;
            }
            return Ok(layout.bytes());
        }
        let m = self.machine();
        let (me, op, bytes) = (self.pe.id(), layout.label(true), layout.bytes());
        let fast = matches!(layout, Layout::Run { .. }) && self.fastpath(dst);
        // The landed bytes, hashed once for the gate and the landing.
        let digest = self.payload_digest(layout, src);
        if !fast {
            // Direct loads/stores cannot be dropped; only the message path
            // passes the gate.
            self.fault_gate(op, dst, Some((layout, src)), digest)?;
        }
        let t_begin = self.pe.now();
        Stats::bump(&m.stats().puts);
        Stats::add(&m.stats().bytes_put, bytes as u64);
        if fast {
            Stats::bump(&m.stats().local_fastpath);
            let t = self.cost.local_copy(bytes, t_begin);
            // One critical section for the bytes, their stamps, the
            // sanitizer record and the waiter wake-up, as for AMOs: a bare
            // `notify_pe` after an unguarded write would let the arbiter see
            // a released waiter as still quiescent.
            m.apply_and_notify(dst, || self.land(dst, layout, src, t, op, digest));
            m.lift_clock(me, t);
            self.trace(SpanKind::Put, t_begin, Some(dst), bytes);
            return Ok(bytes);
        }
        if let Layout::Run { off, len } = layout {
            if let Some(h) = self.pending.borrow().check_put(dst, off, len) {
                self.flag_hazard(h);
            }
        }
        let floor = self.pending.borrow().floor_for(dst);
        let (t, detail) = match layout {
            Layout::Run { len, .. } => self.cost.put(me, dst, len, t_begin, floor),
            Layout::Strided { elem, n, .. } => {
                self.cost.strided_put_native(me, dst, n, elem, t_begin, floor).expect(NATIVE)
            }
            Layout::Regions(r) => self.cost.am_packed_put(me, dst, bytes, r.len(), t_begin, floor),
        };
        // One critical section, as on the fastpath.
        m.apply_and_notify(dst, || self.land(dst, layout, src, t.remote_complete, op, digest));
        if completion == Completion::Nbi {
            // Only the issue cost lands on the clock; completion waits in
            // the pending set. (The NIC reservations above still model
            // contention.) An nbi op's injected faults were detected and
            // retried at issue time above — same total cost, deterministic.
            self.pe.advance(self.cost.profile().put_issue_ns);
        } else {
            m.lift_clock(me, t.local_complete);
        }
        let (off, span) = layout.span();
        self.pending.borrow_mut().record_put(dst, off, span, t.remote_complete);
        self.record_op(SpanKind::Put, t_begin, Some(dst), bytes, detail);
        Ok(bytes)
    }

    /// The one get body, the mirror of [`Self::do_put`]: blocking lifts
    /// past the data's stamp, nbi defers validity to `quiet` via the
    /// pending set. Only a contiguous get checks for hazards and records
    /// its flow breakdown.
    fn do_get(
        &self,
        dst: PeId,
        layout: Layout<'_>,
        out: &mut [u8],
        completion: Completion,
    ) -> Result<usize, ConduitError> {
        if matches!(layout, Layout::Strided { .. }) && self.loops_strided(dst) {
            for (src_off, len, at) in layout.pieces() {
                let kind = OpKind::Get { src_off, out: &mut out[at..at + len] };
                self.submit(OpDesc { peer: dst, completion, kind })?;
            }
            return Ok(layout.bytes());
        }
        let m = self.machine();
        let (me, op, bytes) = (self.pe.id(), layout.label(false), layout.bytes());
        let run = matches!(layout, Layout::Run { .. });
        let fast = run && self.fastpath(dst);
        if !fast {
            self.fault_gate(op, dst, None, None)?;
        }
        let t_begin = self.pe.now();
        Stats::bump(&m.stats().gets);
        Stats::add(&m.stats().bytes_get, bytes as u64);
        if fast {
            Stats::bump(&m.stats().local_fastpath);
            let t = self.cost.local_copy(bytes, t_begin);
            let stamp = self.fetch(dst, layout, out, op);
            m.lift_clock(me, t.max(stamp));
            self.trace(SpanKind::Get, t_begin, Some(dst), bytes);
            return Ok(bytes);
        }
        if let Layout::Run { off, len } = layout {
            if let Some(h) = self.pending.borrow().check_get(dst, off, len) {
                self.flag_hazard(h);
            }
        }
        let (done, detail) = match layout {
            Layout::Run { len, .. } => self.cost.get(me, dst, len, t_begin),
            Layout::Strided { elem, n, .. } => {
                self.cost.strided_get_native(me, dst, n, elem, t_begin).expect(NATIVE)
            }
            Layout::Regions(r) => self.cost.am_packed_get(me, dst, bytes, r.len(), t_begin),
        };
        let stamp = self.fetch(dst, layout, out, op);
        if completion == Completion::Nbi {
            self.pe.advance(self.cost.profile().get_issue_ns);
            self.pending.borrow_mut().record_nbi_get(done.max(stamp));
        } else {
            m.lift_clock(me, done.max(stamp));
        }
        let detail = if run { detail } else { FlowDetail::default() };
        self.record_op(SpanKind::Get, t_begin, Some(dst), bytes, detail);
        Ok(bytes)
    }

    /// Remote atomic on an 8-byte word; returns the previous value.
    fn do_amo(&self, dst: PeId, off: usize, op: AmoOp) -> Result<u64, ConduitError> {
        let m = self.machine();
        self.fault_gate("amo", dst, None, None)?;
        let t_begin = self.pe.now();
        Stats::bump(&m.stats().amos);
        if let Some(h) = self.pending.borrow().check_amo(dst, off) {
            self.flag_hazard(h);
        }
        let (t, detail) = self.cost.amo(self.pe.id(), dst, op.is_fetching(), self.pe.now());
        // Apply the atomic under the arbiter, keyed at the instant it takes
        // effect on the target word. Tied RMWs — think MCS tail swaps from
        // images released by the same barrier, which all compute the same
        // `remote_complete` — would otherwise apply in host-scheduling
        // order, and the fetched value (the queue position) is exactly what
        // a lock probe's digest hangs on. Intra-node AMOs reserve no NIC
        // lane, so this is their only arbiter turn. Causality: a fetched
        // value cannot be observed before the write that produced it
        // completed, hence the stamp read inside the same turn.
        // `apply_and_notify` makes the word update, its stamp, and the
        // waiter wake-up one critical section — a `wait_on` waiter can only
        // observe this AMO after its quiescence was withdrawn, keeping the
        // arbiter's view of the waiter conclusive.
        let (old, prior_stamp) =
            m.nic_turn_ctx(self.pe.id(), self.ctx_id, t.remote_complete, || {
                m.apply_and_notify(dst, || self.land_amo(dst, off, op, t.remote_complete))
            });
        if op.is_fetching() {
            m.lift_clock(self.pe.id(), t.local_complete.max(prior_stamp));
        } else {
            m.lift_clock(self.pe.id(), t.local_complete);
            self.pending.borrow_mut().record_amo(dst, off, t.remote_complete);
        }
        // No trailing notify: `apply_and_notify` above already woke waiters
        // in the same critical section as the word update.
        self.record_op(SpanKind::Amo, t_begin, Some(dst), 8, detail);
        Ok(old)
    }

    /// Active-message request: one wire transfer carries `arg` to `dst`,
    /// where the registered handler runs under the target's critical
    /// section (on this thread — see [`crate::am`] for why that is sound).
    /// With `reply_out`, blocks for the handler's reply (one more wire
    /// leg); without it, the handler's writes complete at `quiet` like a
    /// put's.
    fn do_am(
        &self,
        dst: PeId,
        handler: AmHandlerId,
        arg: &[u8],
        reply_out: Option<&mut Vec<u8>>,
    ) -> Result<usize, ConduitError> {
        let m = self.machine();
        let h = self
            .am_handlers
            .borrow()
            .get(handler.0)
            .cloned()
            .expect("active-message handler not registered on this context");
        self.fault_gate("am", dst, Some((Layout::Run { off: 0, len: arg.len() }, arg)), None)?;
        let t_begin = self.pe.now();
        Stats::bump(&m.stats().ams);
        let floor = self.pending.borrow().floor_for(dst);
        let (t, mut detail) =
            self.cost.am_request(self.pe.id(), dst, arg.len(), h.compute_ns(arg), t_begin, floor);
        // A target that dies before the handler would run can never execute
        // it, ack it, or reply — without a timeout an `am_call` would block
        // forever. The test is the scheduled deadline against the virtual
        // instant the handler *would* execute, a pure function of the plan
        // and this PE's clock, so detection is deterministic on any host
        // schedule. The sender pays the full retry chain of reply
        // timeouts before concluding the target is gone.
        if m.pe_dead_at(dst, t.executed) {
            return Err(self.am_reply_timeout(dst));
        }
        let mut target = AmTarget::new(m, dst);
        let mut reply = None;
        // Execute under the arbiter at the instant the handler's effects
        // land, inside the target's critical section: tied AMs apply in
        // deterministic order and waiters wake in the same atomic step —
        // the discipline remote atomics use.
        m.nic_turn_ctx(self.pe.id(), self.ctx_id, t.executed, || {
            m.apply_and_notify(dst, || {
                reply = h.execute(&mut target, arg);
                for &(off, len) in &target.writes {
                    m.heap(dst).stamp_range(off, len, t.executed);
                    m.san_record_write(dst, off, len, self.pe.id(), t.executed, true, "am");
                }
            });
        });
        // A handler write over this PE's own un-quieted *plain* put is the
        // same WAW hazard a direct put would be; pending atomics (AMOs and
        // other handlers' writes) may legally race it — the target's apply
        // section serializes them. (Checked after execution — only the
        // handler knows what it writes.)
        for &(off, len) in &target.writes {
            if let Some(haz) = self.pending.borrow().check_atomic_range(dst, off, len) {
                self.flag_hazard(haz);
            }
        }
        match reply_out {
            Some(out) => {
                // am_call: block for the reply; reading the target's state
                // through the handler is a happens-before edge, like a
                // fetching AMO's.
                let r = reply.unwrap_or_default();
                let (done, leg) = self.cost.am_reply(self.pe.id(), dst, r.len(), t.executed);
                detail.queue_ns += leg.queue_ns;
                detail.service_ns += leg.service_ns;
                for &(off, _len) in &target.reads {
                    m.san_sync_edge(self.pe.id(), dst, off);
                }
                m.lift_clock(self.pe.id(), done);
                *out = r;
            }
            None => {
                // am_send: fire-and-forget; the handler's writes become
                // *atomic* completion obligations — quiet still waits for
                // them, but later handlers/AMOs may legally overlap them.
                m.lift_clock(self.pe.id(), t.local_complete);
                let mut p = self.pending.borrow_mut();
                for &(off, len) in &target.writes {
                    p.record_am_write(dst, off, len, t.executed);
                }
            }
        }
        self.record_op(SpanKind::Amo, t_begin, Some(dst), AM_HEADER_BYTES + arg.len(), detail);
        Ok(arg.len())
    }

    /// Charge the retry chain of reply timeouts for an active message whose
    /// target died before execution, then surface the loss. Each attempt
    /// costs the same detection timeout + backoff a dropped message would;
    /// exhaustion is what finally lets the sender conclude `TargetFailed`
    /// instead of blocking forever on a reply that cannot come.
    fn am_reply_timeout(&self, dst: PeId) -> ConduitError {
        let m = self.machine();
        let me = self.pe.id();
        let stats = m.stats();
        let max = m.fault_plan().map_or(1, |p| p.retry.max_attempts);
        for attempt in 1..=max {
            let begin = self.pe.now();
            let delay = m.fault_backoff_ns(me, attempt);
            stats.record_fault(FaultEvent {
                pe: me,
                op: "am",
                target: dst,
                kind: "reply-timeout",
                attempt,
                delay_ns: delay,
                at_ns: begin,
            });
            self.pe.advance(delay as f64);
            self.trace(SpanKind::Retry, begin, Some(dst), 0);
            if attempt == max {
                Stats::bump(&stats.retries_exhausted);
            } else {
                Stats::bump(&stats.retries);
            }
        }
        ConduitError::TargetFailed { op: "am", target: dst }
    }

    // ---- active-message registration & entry points ----------------------

    /// Register an active-message handler. Registration must be
    /// SPMD-symmetric (every PE registers the same handlers in the same
    /// order), exactly like symmetric heap allocation — the returned id
    /// then names the same logic on every PE.
    pub fn register_am(&self, handler: Rc<dyn AmHandler>) -> AmHandlerId {
        let mut hs = self.am_handlers.borrow_mut();
        hs.push(handler);
        AmHandlerId(hs.len() - 1)
    }

    /// One-way active message: run `handler` at `dst` with `arg`; any reply
    /// is discarded. Completes remotely at `quiet`. Panics if a fault plan
    /// kills the delivery; use [`Self::try_am_send`] to handle that.
    pub fn am_send(&self, dst: PeId, handler: AmHandlerId, arg: &[u8]) {
        unwrap_infallible(self.submit(OpDesc::new(dst, OpKind::AmSend { handler, arg })));
    }

    /// Fallible [`Self::am_send`].
    pub fn try_am_send(
        &self,
        dst: PeId,
        handler: AmHandlerId,
        arg: &[u8],
    ) -> Result<(), ConduitError> {
        self.submit(OpDesc::new(dst, OpKind::AmSend { handler, arg })).map(|_| ())
    }

    /// Round-trip active message: run `handler` at `dst` and block for its
    /// reply. Panics if a fault plan kills the delivery; use
    /// [`Self::try_am_call`] to handle that.
    pub fn am_call(&self, dst: PeId, handler: AmHandlerId, arg: &[u8]) -> Vec<u8> {
        unwrap_infallible(self.try_am_call(dst, handler, arg))
    }

    /// Fallible [`Self::am_call`].
    pub fn try_am_call(
        &self,
        dst: PeId,
        handler: AmHandlerId,
        arg: &[u8],
    ) -> Result<Vec<u8>, ConduitError> {
        let mut reply = Vec::new();
        self.submit(OpDesc::new(dst, OpKind::AmCall { handler, arg, reply: &mut reply }))?;
        Ok(reply)
    }

    // ---- contiguous RMA --------------------------------------------------

    /// One-sided write of `src` into `dst`'s heap at `dst_off`
    /// (`shmem_putmem`). Returns after local completion. Panics if a fault
    /// plan kills the delivery; use [`Self::try_put`] to handle that.
    pub fn put(&self, dst: PeId, dst_off: usize, src: &[u8]) {
        unwrap_infallible(self.try_put(dst, dst_off, src));
    }

    /// Fallible [`Self::put`]: surfaces dead targets and retry exhaustion
    /// instead of panicking. `Ok` means the data landed (possibly after
    /// fault-injected retries charged to this PE's virtual clock) or was
    /// staged for a coalesced flush.
    pub fn try_put(&self, dst: PeId, dst_off: usize, src: &[u8]) -> Result<(), ConduitError> {
        self.submit(OpDesc::new(dst, OpKind::Put { dst_off, src })).map(|_| ())
    }

    /// One-sided read of `dst`'s heap at `src_off` into `out`
    /// (`shmem_getmem`). Blocking. Panics if a fault plan kills the
    /// delivery; use [`Self::try_get`] to handle that.
    pub fn get(&self, dst: PeId, src_off: usize, out: &mut [u8]) {
        unwrap_infallible(self.try_get(dst, src_off, out));
    }

    /// Fallible [`Self::get`]: surfaces dead targets and retry exhaustion
    /// instead of panicking. On `Err`, `out` is untouched.
    pub fn try_get(&self, dst: PeId, src_off: usize, out: &mut [u8]) -> Result<(), ConduitError> {
        self.submit(OpDesc::new(dst, OpKind::Get { src_off, out })).map(|_| ())
    }

    /// Non-blocking put (`shmem_putmem_nbi`): returns after issue; even
    /// *local* completion (source-buffer reuse) is only guaranteed after
    /// `quiet`. (We copy eagerly, so buffer reuse is physically safe here —
    /// the semantics difference shows up purely in the virtual clock.)
    pub fn put_nbi(&self, dst: PeId, dst_off: usize, src: &[u8]) {
        unwrap_infallible(self.submit(OpDesc::new(dst, OpKind::Put { dst_off, src }).nbi()));
    }

    /// Non-blocking get (`shmem_getmem_nbi`): the data in `out` is only
    /// guaranteed valid after `quiet`.
    pub fn get_nbi(&self, dst: PeId, src_off: usize, out: &mut [u8]) {
        unwrap_infallible(self.submit(OpDesc::new(dst, OpKind::Get { src_off, out }).nbi()));
    }

    // ---- 1-D strided RMA (`shmem_iput` / `shmem_iget`) -------------------

    /// Strided write (`shmem_iput`): element `i` of `src` — elements are
    /// `elem` bytes, read at a stride of `src_stride` *elements* — is written
    /// to `dst_off + i * dst_stride * elem` in `dst`'s heap.
    ///
    /// On NIC-native profiles (Cray SHMEM) this is one wire descriptor; on
    /// loop profiles (MVAPICH2-X SHMEM, GASNet, MPI-3) it degenerates to
    /// `nelems` contiguous puts — exactly the dichotomy §V of the paper
    /// measures.
    #[allow(clippy::too_many_arguments)] // mirrors the C shmem_iput signature
    pub fn iput(
        &self,
        dst: PeId,
        dst_off: usize,
        dst_stride: usize,
        src: &[u8],
        elem: usize,
        src_stride: usize,
        nelems: usize,
    ) {
        assert!(
            elem > 0 && dst_stride > 0 && src_stride > 0,
            "strides and element size must be positive"
        );
        assert!(
            nelems == 0 || src.len() >= ((nelems - 1) * src_stride + 1) * elem,
            "source slice too short for iput: need {} have {}",
            ((nelems - 1) * src_stride + 1) * elem,
            src.len()
        );
        unwrap_infallible(self.submit(OpDesc::new(
            dst,
            OpKind::StridedPut { dst_off, dst_stride, src, elem, src_stride, nelems },
        )));
    }

    /// Strided read (`shmem_iget`): the mirror of [`Self::iput`]. Element `i`
    /// is read from `src_off + i * src_stride * elem` of `dst`'s heap into
    /// `out[i * out_stride * elem ..]`.
    #[allow(clippy::too_many_arguments)] // mirrors the C shmem_iput signature
    pub fn iget(
        &self,
        dst: PeId,
        src_off: usize,
        src_stride: usize,
        out: &mut [u8],
        elem: usize,
        out_stride: usize,
        nelems: usize,
    ) {
        assert!(
            elem > 0 && src_stride > 0 && out_stride > 0,
            "strides and element size must be positive"
        );
        assert!(
            nelems == 0 || out.len() >= ((nelems - 1) * out_stride + 1) * elem,
            "output slice too short for iget"
        );
        unwrap_infallible(self.submit(OpDesc::new(
            dst,
            OpKind::StridedGet { src_off, src_stride, out, elem, out_stride, nelems },
        )));
    }

    /// AM-packed scatter-put of arbitrary regions: `payload` travels as one
    /// contiguous message; a software handler at the target writes each
    /// `(offset, len)` region in order, consuming the payload front to back.
    /// Models GASNet's VIS interface for general multi-dimensional sections.
    pub fn am_put_regions(&self, dst: PeId, regions: &[(usize, usize)], payload: &[u8]) {
        let total: usize = regions.iter().map(|r| r.1).sum();
        assert_eq!(total, payload.len(), "payload must exactly cover the regions");
        unwrap_infallible(self.submit(OpDesc::new(dst, OpKind::AmPutRegions { regions, payload })));
    }

    /// AM-packed gather-get of arbitrary regions into `out` (front to back).
    pub fn am_get_regions(&self, dst: PeId, regions: &[(usize, usize)], out: &mut [u8]) {
        let total: usize = regions.iter().map(|r| r.1).sum();
        assert_eq!(total, out.len(), "output must exactly cover the regions");
        unwrap_infallible(self.submit(OpDesc::new(dst, OpKind::AmGetRegions { regions, out })));
    }

    // ---- remote atomics ----------------------------------------------------

    /// Execute a remote atomic on the 8-byte word at `off` of `dst`'s heap.
    /// Returns the previous value (meaningful for fetching ops). Panics if
    /// a fault plan kills the delivery; use [`Self::try_amo`] to handle
    /// that.
    pub fn amo(&self, dst: PeId, off: usize, op: AmoOp) -> u64 {
        unwrap_infallible(self.try_amo(dst, off, op))
    }

    /// Fallible [`Self::amo`]: surfaces dead targets and retry exhaustion
    /// instead of panicking. On `Err` the word was not touched. Under
    /// coalescing, a staged non-fetching AMO returns `Ok(0)` — OpenSHMEM
    /// defines no result for non-fetching atomics, so callers never read
    /// it.
    pub fn try_amo(&self, dst: PeId, off: usize, op: AmoOp) -> Result<u64, ConduitError> {
        self.submit(OpDesc::new(dst, OpKind::Amo { off, op })).map(|r| r.value)
    }

    /// Account for `polls` remote polling messages against `dst`'s NIC
    /// starting now (without moving this PE's clock).
    ///
    /// Spin-based locks poll a remote word while they wait. The *number of
    /// retries* a waiter makes depends on when it is scheduled, not on
    /// virtual time, so waiters reconstruct the polls their virtual wait
    /// implies and charge them here — that contention pressure on the lock
    /// home's NIC is precisely what queue-based (MCS) locks eliminate.
    pub fn charge_poll_traffic(&self, dst: PeId, polls: u64) {
        if polls == 0 || self.machine().same_node(self.pe.id(), dst) {
            return;
        }
        let m = self.machine();
        Stats::add(&m.stats().amos, polls);
        if m.metrics().enabled() {
            m.metrics().count(self.pe.id(), "lock_poll", Some(m.node_of(dst)), polls);
        }
        let occ = self.cost.control_msg_occupancy_ns().round() as u64;
        let nic = m.nic(m.node_of(dst));
        let now = self.pe.now();
        m.nic_turn_ctx(self.pe.id(), self.ctx_id, now, || {
            for _ in 0..polls {
                nic.reserve_rx(now, occ, 8);
            }
        });
    }

    // ---- waiting -----------------------------------------------------------

    /// `shmem_wait_until` on an 8-byte word of this PE's *own* heap: block
    /// until `pred(value)` holds. The clock is lifted past the satisfying
    /// writer's completion time.
    pub fn wait_until(&self, off: usize, mut pred: impl FnMut(u64) -> bool) -> u64 {
        // Blocking with ops still staged would deadlock in *real* time: a
        // peer may be spinning on data sitting in one of our buffers (the
        // MCS chain write is exactly this shape). Flush everything first.
        self.flush_staged();
        let m = self.machine();
        let me = self.pe.id();
        // Waiting on a word this PE has an un-quieted loopback put to is a
        // self-satisfying wait: the wait can complete on our own in-flight
        // data instead of the remote event it is meant to observe.
        if let Some(h) = self.pending.borrow().check_get(me, off, 8) {
            self.flag_hazard(h);
        }
        let word = m.heap(me).atomic64(off);
        let mut seen = 0;
        m.wait_on_word(me, off, || {
            seen = word.load(Ordering::Acquire);
            pred(seen)
        });
        m.san_sync_edge(me, me, off);
        let stamp = m.heap(me).max_stamp(off, 8);
        let poll = self.machine().config().compute.local_op_ns * 2.0;
        let t_begin = self.pe.now();
        m.lift_clock(me, stamp);
        self.pe.advance(poll);
        self.trace(SpanKind::WaitUntil, t_begin.min(self.pe.now()), None, 8);
        seen
    }

    // ---- completion ------------------------------------------------------

    /// `shmem_quiet`: block until all outstanding remote writes by this PE
    /// are globally visible. Flushes every coalescing buffer first — staged
    /// ops are outstanding writes too. Panics if the flush discovered a
    /// staged op whose target died; use [`Self::try_quiet`] to handle that.
    pub fn quiet(&self) {
        unwrap_infallible(self.try_quiet());
    }

    /// Fallible [`Self::quiet`]: completes everything completable, then
    /// surfaces the first error deferred by a coalesced flush — a staged
    /// put or AMO whose target PE died between staging and the flush.
    /// Staging reported success, so the loss must ride the completion path
    /// (this is how `STAT_FAILED_IMAGE` reaches a CAF `sync` statement for
    /// writes the runtime had already buffered).
    pub fn try_quiet(&self) -> Result<(), ConduitError> {
        self.flush_staged();
        let m = self.machine();
        let t_begin = self.pe.now();
        Stats::bump(&m.stats().quiets);
        let t = self.pending.borrow().max_outstanding();
        self.pending.borrow_mut().clear();
        m.lift_clock(self.pe.id(), t);
        self.pe.advance(self.cost.profile().put_issue_ns * 0.25);
        // The completion target rides in `remote_end` so the critical-path
        // profiler can pair this quiet with the transfer it waited on.
        self.record_op(
            SpanKind::Quiet,
            t_begin,
            None,
            0,
            FlowDetail { remote_end: t, ..FlowDetail::default() },
        );
        self.take_deferred()
    }

    /// Drain the deferred-error queue: first error wins, the rest (all
    /// symptoms of the same failure epoch) are dropped with it.
    fn take_deferred(&self) -> Result<(), ConduitError> {
        let mut d = self.deferred.borrow_mut();
        if d.is_empty() {
            return Ok(());
        }
        let first = d[0];
        d.clear();
        Err(first)
    }

    /// `shmem_fence`: order deliveries per target without waiting. Staged
    /// ops flush first — fencing them while buffered would order nothing.
    pub fn fence(&self) {
        self.flush_staged();
        let m = self.machine();
        Stats::bump(&m.stats().fences);
        self.pending.borrow_mut().fence();
        self.pe.advance(self.cost.profile().put_issue_ns * 0.25);
    }

    /// Outstanding un-quieted puts (diagnostics). Counts coalesced ops
    /// still sitting in staging buffers too: staged is even less complete
    /// than in-flight.
    pub fn outstanding_puts(&self) -> usize {
        let staged = self.coalescer.as_ref().map_or(0, |c| c.borrow().staged_ops());
        self.pending.borrow().outstanding() + staged
    }

    // ---- barriers ---------------------------------------------------------

    /// Full-job barrier (`shmem_barrier_all`): implies quiet. Panics on a
    /// deferred staged-op error; use [`Self::try_barrier_all`] under fault
    /// plans with PE failures.
    pub fn barrier_all(&self) {
        unwrap_infallible(self.try_barrier_all());
    }

    /// Fallible [`Self::barrier_all`]. The barrier itself always happens —
    /// peers must not hang because *this* PE had a dead-target write — and
    /// any deferred error surfaces after it.
    pub fn try_barrier_all(&self) -> Result<(), ConduitError> {
        let quiet = self.try_quiet();
        let t_begin = self.pe.now();
        let cost = self.cost.barrier_ns(self.pe.n());
        self.machine().barrier_all(self.pe.id(), cost);
        self.trace(SpanKind::Barrier, t_begin, None, 0);
        quiet
    }

    /// Barrier over a sorted subset of PEs containing this PE. Implies
    /// quiet. Panics on a deferred staged-op error; use
    /// [`Self::try_barrier_group`] under fault plans with PE failures.
    pub fn barrier_group(&self, group: &[PeId]) {
        unwrap_infallible(self.try_barrier_group(group));
    }

    /// Fallible [`Self::barrier_group`] — the synchronization a re-formed
    /// team runs on (survivors barrier among themselves while deferred
    /// errors about the dead PE surface without being lost).
    pub fn try_barrier_group(&self, group: &[PeId]) -> Result<(), ConduitError> {
        let quiet = self.try_quiet();
        let t_begin = self.pe.now();
        let cost = self.cost.barrier_ns(group.len());
        self.machine().barrier_group(self.pe.id(), group, cost);
        self.trace(SpanKind::Barrier, t_begin, None, 0);
        quiet
    }
}

impl Drop for Ctx<'_> {
    /// `shmem_finalize` semantics: a PE's program ending completes its
    /// pending communication. Without this, an op staged after the last
    /// explicit sync point would silently never reach the wire — and a
    /// peer blocked in `wait_until` on it would hang the job.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return; // the job is already coming down; don't double-panic
        }
        self.flush_staged();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_machine::{generic_smp, run, stampede, Platform};

    fn two_node_cfg() -> pgas_machine::MachineConfig {
        stampede(2, 2).with_heap_bytes(1 << 16)
    }

    fn shmem_ctx(pe: Pe<'_>) -> Ctx<'_> {
        Ctx::new(pe, ConduitProfile::mvapich_shmem(), CtxOptions::default())
    }

    #[test]
    fn put_then_get_roundtrips_data() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 64, b"hello-conduit");
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut buf = [0u8; 13];
            ctx.get(2, 64, &mut buf);
            buf
        });
        for r in out.results {
            assert_eq!(&r, b"hello-conduit");
        }
        assert!(out.stats.puts >= 1);
        assert!(out.stats.gets >= 4);
    }

    #[test]
    fn quiet_advances_clock_to_remote_completion() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 0, &[1u8; 4096]);
                let before = pe.now();
                ctx.quiet();
                let after = pe.now();
                (before, after)
            } else {
                (0, 0)
            }
        });
        let (before, after) = out.results[0];
        assert!(after > before, "quiet must wait for remote completion");
    }

    #[test]
    fn get_after_unquieted_put_is_flagged() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 0, &[7u8; 8]);
                let mut buf = [0u8; 8];
                ctx.get(2, 0, &mut buf); // same region, no quiet: hazard
                ctx.hazard_count()
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 1);
        assert_eq!(out.stats.hazards, 1);
    }

    #[test]
    fn quiet_suppresses_the_hazard() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 0, &[7u8; 8]);
                ctx.quiet();
                let mut buf = [0u8; 8];
                ctx.get(2, 0, &mut buf);
                ctx.hazard_count()
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 0);
        assert_eq!(out.stats.hazards, 0);
    }

    #[test]
    fn strict_mode_panics_on_hazard() {
        let err = pgas_machine::run_with_result(two_node_cfg(), |pe| {
            // Coalescing is pinned off: staged overlapping puts apply FIFO
            // at flush and are legitimately ordered, so the WAW hazard this
            // test relies on only exists on the direct path.
            let ctx = Ctx::new(
                pe,
                ConduitProfile::mvapich_shmem(),
                CtxOptions {
                    strict_ordering: true,
                    coalesce: CoalescePolicy::Off,
                    ..Default::default()
                },
            );
            if pe.id() == 0 {
                ctx.put(2, 0, &[7u8; 8]);
                ctx.put(2, 4, &[9u8; 8]); // overlapping WAW
            }
            ctx.barrier_all();
        })
        .unwrap_err();
        assert!(err.message.contains("ordering hazard"), "got: {}", err.message);
    }

    #[test]
    fn fetch_add_is_atomic_under_contention() {
        let out = run(generic_smp(8).with_heap_bytes(4096), |pe| {
            let ctx = Ctx::new(
                pe,
                ConduitProfile::cray_shmem(Platform::GenericSmp),
                CtxOptions::default(),
            );
            ctx.barrier_all();
            for _ in 0..100 {
                ctx.amo(0, 0, AmoOp::FetchAdd(1));
            }
            ctx.barrier_all();
            ctx.amo(0, 0, AmoOp::Fetch)
        });
        for r in out.results {
            assert_eq!(r, 800);
        }
    }

    #[test]
    fn compare_swap_semantics() {
        let out = run(generic_smp(1).with_heap_bytes(4096), |pe| {
            let ctx = Ctx::new(
                pe,
                ConduitProfile::cray_shmem(Platform::GenericSmp),
                CtxOptions::default(),
            );
            ctx.amo(0, 8, AmoOp::Set(10));
            ctx.quiet();
            let miss = ctx.amo(0, 8, AmoOp::CompareSwap { cond: 99, value: 1 });
            let hit = ctx.amo(0, 8, AmoOp::CompareSwap { cond: 10, value: 42 });
            let cur = ctx.amo(0, 8, AmoOp::Fetch);
            (miss, hit, cur)
        });
        assert_eq!(out.results[0], (10, 10, 42));
    }

    #[test]
    fn swap_and_bitwise_ops() {
        let out = run(generic_smp(1).with_heap_bytes(4096), |pe| {
            let ctx = Ctx::new(
                pe,
                ConduitProfile::cray_shmem(Platform::GenericSmp),
                CtxOptions::default(),
            );
            ctx.amo(0, 0, AmoOp::Set(0b1100));
            let old = ctx.amo(0, 0, AmoOp::FetchAnd(0b1010));
            let after_and = ctx.amo(0, 0, AmoOp::Fetch);
            ctx.amo(0, 0, AmoOp::Or(0b0001));
            let after_or = ctx.amo(0, 0, AmoOp::Fetch);
            ctx.amo(0, 0, AmoOp::Xor(0b1111));
            let after_xor = ctx.amo(0, 0, AmoOp::Fetch);
            let swapped = ctx.amo(0, 0, AmoOp::Swap(77));
            (old, after_and, after_or, after_xor, swapped)
        });
        assert_eq!(out.results[0], (0b1100, 0b1000, 0b1001, 0b0110, 0b0110));
    }

    #[test]
    fn wait_until_synchronizes_and_lifts_clock() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                let v = ctx.wait_until(8, |v| v == 5);
                (v, pe.now())
            } else if pe.id() == 2 {
                pe.advance(50_000.0);
                ctx.amo(0, 8, AmoOp::Set(5));
                ctx.quiet();
                (5, pe.now())
            } else {
                (0, 0)
            }
        });
        let (v, waiter_time) = out.results[0];
        assert_eq!(v, 5);
        assert!(
            waiter_time > 50_000,
            "waiter clock {waiter_time} must exceed writer issue time 50000"
        );
    }

    #[test]
    fn iput_scatters_elements() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                let src: Vec<u8> = (0..40).collect();
                // Write every other 8-byte element into pe2 with stride 2.
                ctx.iput(2, 0, 2, &src, 8, 1, 5);
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut buf = vec![0u8; 80];
            ctx.get(2, 0, &mut buf);
            buf
        });
        let buf = &out.results[1];
        for i in 0..5 {
            let elem: Vec<u8> = (i as u8 * 8..(i as u8 + 1) * 8).collect();
            assert_eq!(&buf[i * 16..i * 16 + 8], &elem[..], "element {i}");
            assert_eq!(&buf[i * 16 + 8..i * 16 + 16], &[0u8; 8], "gap {i}");
        }
    }

    #[test]
    fn iget_gathers_elements() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 2 {
                let src: Vec<u8> = (0..80).collect();
                ctx.put(2, 0, &src);
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut out_buf = vec![0u8; 40];
            // Gather every other 8-byte element from pe2.
            ctx.iget(2, 0, 2, &mut out_buf, 8, 1, 5);
            out_buf
        });
        for r in &out.results {
            for i in 0..5usize {
                let expect: Vec<u8> = (i as u8 * 16..i as u8 * 16 + 8).collect();
                assert_eq!(&r[i * 8..(i + 1) * 8], &expect[..], "element {i}");
            }
        }
    }

    #[test]
    fn native_iput_issues_one_message_loop_issues_many() {
        let cray = run(two_node_cfg(), |pe| {
            let ctx =
                Ctx::new(pe, ConduitProfile::cray_shmem(Platform::CrayXc30), CtxOptions::default());
            if pe.id() == 0 {
                let src = vec![1u8; 800];
                ctx.iput(2, 0, 2, &src, 8, 1, 100);
                ctx.quiet();
            }
            ctx.barrier_all();
        });
        assert_eq!(cray.stats.puts, 1, "native strided: one descriptor");

        let mvapich = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                let src = vec![1u8; 800];
                ctx.iput(2, 0, 2, &src, 8, 1, 100);
                ctx.quiet();
            }
            ctx.barrier_all();
        });
        assert_eq!(mvapich.stats.puts, 100, "loop strided: one put per element");
    }

    #[test]
    fn am_put_of_strided_regions_moves_data_in_one_message() {
        let out = run(two_node_cfg(), |pe| {
            let ctx =
                Ctx::new(pe, ConduitProfile::gasnet(Platform::Stampede), CtxOptions::default());
            if pe.id() == 0 {
                let src: Vec<u8> = (0..24).collect();
                // Three 8-byte elements, three slots apart.
                ctx.am_put_regions(2, &[(0, 8), (24, 8), (48, 8)], &src);
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut buf = vec![0u8; 8];
            ctx.get(2, 48, &mut buf); // element 2 lands at offset 2*3*8 = 48
            buf
        });
        assert_eq!(out.stats.puts, 1);
        assert_eq!(out.results[0], (16..24).collect::<Vec<u8>>());
    }

    #[test]
    fn am_region_ops_price_the_bytes_they_carry() {
        // 999 one-byte regions and one of 64 KiB: 66 535 bytes in 1000
        // pieces, not 1000 times their 66-byte average.
        let mut regions: Vec<(usize, usize)> = (0..999).map(|i| (i * 2, 1)).collect();
        regions.push((4096, 1 << 16));
        let total: usize = regions.iter().map(|r| r.1).sum();
        assert_eq!(total, 66_535);
        let cfg =
            stampede(2, 1).with_heap_bytes(1 << 18).with_faults(pgas_machine::FaultPlan::none());
        let out = run(cfg.clone(), |pe| {
            let ctx =
                Ctx::new(pe, ConduitProfile::gasnet(Platform::Stampede), CtxOptions::default());
            (pe.id() == 0).then(|| {
                ctx.am_put_regions(1, &regions, &vec![7u8; total]);
                let put = (pe.now(), pe.machine().heap(1).max_stamp(4096, 1 << 16));
                ctx.quiet();
                let t0 = pe.now();
                ctx.am_get_regions(1, &regions, &mut vec![0u8; total]);
                (put, t0, pe.now())
            })
        });
        let (put, t0, got) = out.results[0].unwrap();
        // The same two transfers priced on a fresh machine, from the same
        // clocks, over the bytes they carry.
        let want = run(cfg, |pe| {
            (pe.id() == 0).then(|| {
                let cm = CostModel::new(pe.machine(), ConduitProfile::gasnet(Platform::Stampede));
                let (t, _) = cm.am_packed_put(0, 1, total, 1000, 0, 0);
                ((t.local_complete, t.remote_complete), cm.am_packed_get(0, 1, total, 1000, t0).0)
            })
        });
        assert_eq!((put, got), want.results[0].unwrap());
    }

    #[test]
    fn fastpath_counts_and_still_moves_data() {
        let out = run(generic_smp(2).with_heap_bytes(4096), |pe| {
            let ctx = Ctx::new(
                pe,
                ConduitProfile::mvapich_shmem(),
                CtxOptions { shmem_ptr_fastpath: true, ..Default::default() },
            );
            if pe.id() == 0 {
                ctx.put(1, 0, b"fastpath");
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut buf = [0u8; 8];
            ctx.get(1, 0, &mut buf);
            buf
        });
        assert!(out.stats.local_fastpath >= 2);
        assert_eq!(&out.results[1], b"fastpath");
    }

    #[test]
    fn fence_orders_without_completing() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 0, &[1u8; 8]);
                ctx.fence();
                ctx.put(2, 0, &[2u8; 8]); // same location: fence makes this OK
                let pending = ctx.outstanding_puts();
                let hazards = ctx.hazard_count();
                ctx.quiet();
                (pending, hazards)
            } else {
                (0, 0)
            }
        });
        let (pending, hazards) = out.results[0];
        assert_eq!(pending, 2, "fence does not retire obligations");
        assert_eq!(hazards, 0, "fence suppresses the WAW hazard");
    }

    #[test]
    fn tracing_records_operation_spans() {
        let out = run(two_node_cfg().with_trace(true), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 0, &[1u8; 64]);
                ctx.quiet();
                let mut buf = [0u8; 8];
                ctx.get(2, 0, &mut buf);
                ctx.amo(2, 8, AmoOp::FetchAdd(1));
            }
            ctx.barrier_all();
        });
        use pgas_machine::trace::SpanKind;
        let kinds: Vec<SpanKind> = out.trace.iter().filter(|s| s.pe == 0).map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::Put));
        assert!(kinds.contains(&SpanKind::Get));
        assert!(kinds.contains(&SpanKind::Amo));
        assert!(kinds.contains(&SpanKind::Quiet));
        assert!(kinds.contains(&SpanKind::Barrier));
        for s in &out.trace {
            assert!(s.end >= s.begin, "span must not be inverted: {s:?}");
        }
        // Disabled by default: same program records nothing. (Forced off so
        // a PGAS_TRACE=1 environment cannot turn it back on.)
        let out = pgas_machine::with_forced_tracing(false, || {
            run(two_node_cfg(), |pe| {
                let ctx = shmem_ctx(pe);
                if pe.id() == 0 {
                    ctx.put(2, 0, &[1u8; 64]);
                }
                ctx.barrier_all();
            })
        });
        assert!(out.trace.is_empty());
    }

    #[test]
    fn injected_drops_retry_and_charge_virtual_time() {
        use pgas_machine::FaultPlan;
        let cfg =
            two_node_cfg().with_trace(true).with_faults(FaultPlan::transient_drops(0xBEEF, 0.1));
        let out = run(cfg, |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                for i in 0..64usize {
                    ctx.put(2, 64 + i * 8, &[i as u8; 8]);
                }
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut buf = [0u8; 8];
            ctx.get(2, 64 + 63 * 8, &mut buf);
            buf
        });
        for r in out.results {
            assert_eq!(r, [63u8; 8], "data still lands intact under drops");
        }
        assert!(out.stats.faults_injected > 0, "0.1 drop rate over 64 puts must hit");
        assert!(out.stats.retries > 0);
        assert_eq!(out.stats.retries_exhausted, 0, "8 attempts at 10% loss never exhaust here");
        assert_eq!(out.stats.faults_injected, out.fault_events.len() as u64);
        for e in &out.fault_events {
            assert_eq!(e.kind, "drop");
            assert!(e.delay_ns > 0);
        }
        use pgas_machine::trace::SpanKind;
        assert!(out.trace.iter().any(|s| s.kind == SpanKind::Retry), "retries leave trace spans");
    }

    #[test]
    fn same_seed_same_faults_different_seed_differs() {
        use pgas_machine::FaultPlan;
        let go = |seed: u64| {
            run(two_node_cfg().with_faults(FaultPlan::transient_drops(seed, 0.2)), |pe| {
                let ctx = shmem_ctx(pe);
                if pe.id() == 0 {
                    for i in 0..96usize {
                        ctx.put(2, i * 8, &[1u8; 8]);
                    }
                    ctx.quiet();
                }
                ctx.barrier_all();
            })
        };
        let a = go(11);
        let b = go(11);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.fault_events, b.fault_events);
        assert_eq!(a.clocks, b.clocks);
        let c = go(12);
        assert_ne!(
            a.fault_events, c.fault_events,
            "a different seed must perturb the fault schedule"
        );
    }

    #[test]
    fn retry_exhaustion_surfaces_an_error() {
        use pgas_machine::{FaultPlan, RetryPolicy};
        let plan = FaultPlan::transient_drops(7, 0.9)
            .with_retry(RetryPolicy { max_attempts: 2, ..Default::default() });
        let out = run(two_node_cfg().with_faults(plan), |pe| {
            let ctx = shmem_ctx(pe);
            if pe.id() == 0 {
                (0..50).find_map(|_| ctx.try_put(2, 0, &[1u8; 8]).err())
            } else {
                None
            }
        });
        let err = out.results[0].expect("90% drops with 2 attempts must exhaust");
        assert_eq!(err, ConduitError::RetriesExhausted { op: "put", target: 2, attempts: 2 });
        assert!(out.stats.retries_exhausted >= 1);
        assert!(out.fault_events.iter().any(|e| e.kind == "exhausted"));
    }

    #[test]
    fn operations_on_a_dead_target_fail_fast() {
        use pgas_machine::FaultPlan;
        let plan = FaultPlan::new(1).with_pe_failure(2, 1_000);
        let out = run(two_node_cfg().with_faults(plan), |pe| {
            let ctx = shmem_ctx(pe);
            let m = pe.machine();
            if pe.id() == 2 {
                pe.advance(2_000.0); // crosses the scheduled deadline
                None
            } else if pe.id() == 0 {
                m.wait_on(0, || m.pe_failed(2));
                let put = ctx.try_put(2, 0, &[1u8; 8]);
                let mut buf = [0u8; 8];
                let get = ctx.try_get(2, 0, &mut buf);
                let amo = ctx.try_amo(2, 0, AmoOp::FetchAdd(1)).err();
                Some((put, get, amo))
            } else {
                None
            }
        });
        let (put, get, amo) = out.results[0].unwrap();
        assert_eq!(put, Err(ConduitError::TargetFailed { op: "put", target: 2 }));
        assert_eq!(get, Err(ConduitError::TargetFailed { op: "get", target: 2 }));
        assert_eq!(amo, Some(ConduitError::TargetFailed { op: "amo", target: 2 }));
        assert_eq!(out.failed_pes, vec![2]);
        assert_eq!(out.stats.pe_failures, 1);
    }

    #[test]
    fn coalesced_staged_ops_to_a_dying_target_surface_at_quiet() {
        use pgas_machine::FaultPlan;
        let plan = FaultPlan::new(3).with_pe_failure(2, 1_000);
        let out = run(two_node_cfg().with_faults(plan), |pe| {
            let ctx = coalescing_ctx(pe);
            if pe.id() == 2 {
                pe.advance(2_000.0); // crosses the scheduled deadline
                (Ok(()), 0, 0)
            } else if pe.id() == 0 {
                // Staging succeeds while the target is still alive...
                ctx.put(2, 0, &[1u8; 8]);
                ctx.put(2, 64, &[2u8; 8]);
                let staged = ctx.outstanding_puts();
                assert_eq!(staged, 2, "both puts staged without error");
                // ...but the deadline passes before the flush, so the batch
                // never reaches the wire and the loss surfaces at quiet.
                pe.advance(2_000.0);
                (ctx.try_quiet(), staged, ctx.deferred_errors())
            } else {
                (Ok(()), 0, 0)
            }
        });
        let (quiet, _, left) = out.results[0];
        assert_eq!(quiet, Err(ConduitError::TargetFailed { op: "put", target: 2 }));
        assert_eq!(left, 0, "try_quiet drains every deferred error");
        assert_eq!(out.stats.pe_failures, 1);
    }

    #[test]
    fn injected_corruption_is_detected_and_retried_end_to_end() {
        use pgas_machine::FaultPlan;
        // Generous retry budget: every corrupted delivery is caught by the
        // end-to-end CRC and resent until a clean copy lands.
        let plan = FaultPlan::new(9).with_corrupt_prob(0.3);
        let out = pgas_machine::with_forced_checksums(true, || {
            run(two_node_cfg().with_faults(plan), |pe| {
                let ctx = shmem_ctx(pe);
                if pe.id() == 0 {
                    for i in 0..64usize {
                        ctx.put(2, i * 8, &(i as u64).to_le_bytes());
                    }
                    ctx.quiet();
                }
                ctx.barrier_all();
                let mut buf = [0u8; 8];
                ctx.get(2, 63 * 8, &mut buf);
                u64::from_le_bytes(buf)
            })
        });
        for r in &out.results {
            assert_eq!(*r, 63, "corrupted deliveries retried to a clean copy");
        }
        assert!(out.stats.payload_corrupt > 0, "the CRC caught corruption: {:?}", out.stats);
        assert_eq!(out.stats.retries_exhausted, 0);
    }

    #[test]
    fn corruption_with_an_exhausted_budget_is_the_typed_error() {
        use pgas_machine::{FaultPlan, RetryPolicy};
        let plan = FaultPlan::new(9)
            .with_corrupt_prob(0.9)
            .with_retry(RetryPolicy { max_attempts: 1, ..Default::default() });
        let out = pgas_machine::with_forced_checksums(true, || {
            run(two_node_cfg().with_faults(plan), |pe| {
                let ctx = shmem_ctx(pe);
                if pe.id() == 0 {
                    (0..50).find_map(|_| ctx.try_put(2, 0, &[1u8; 8]).err())
                } else {
                    None
                }
            })
        });
        let err = out.results[0].expect("90% corruption with 1 attempt must exhaust");
        assert_eq!(err, ConduitError::PayloadCorrupt { op: "put", target: 2, attempts: 1 });
    }

    #[test]
    fn am_call_to_a_dying_target_times_out_instead_of_blocking() {
        use pgas_machine::{FaultPlan, RetryPolicy};
        let plan = FaultPlan::new(5)
            .with_pe_failure(2, 1_000)
            .with_retry(RetryPolicy { max_attempts: 3, ..Default::default() });
        // The target dies (its thread crosses the deadline) only once the
        // call has returned: a target that host scheduling let die first is
        // refused at issue, with nothing to time out.
        let called = std::sync::atomic::AtomicBool::new(false);
        let out = run(two_node_cfg().with_faults(plan), |pe| {
            let ctx = shmem_ctx(pe);
            let add = ctx.register_am(Rc::new(AddAm));
            ctx.barrier_all();
            if pe.id() == 2 {
                pe.machine().wait_on(2, || called.load(Ordering::Acquire));
                pe.advance(2_000.0); // crosses the scheduled deadline
                None
            } else if pe.id() == 0 {
                // Issue just before the target's deadline: the request is
                // accepted, but the handler's virtual execution instant
                // falls after the death, so no reply can ever come. The
                // sender must pay the reply-timeout retry chain and then
                // surface the loss — not block forever.
                pe.advance(990.0);
                let t0 = pe.now();
                let err = ctx.try_am_call(2, add, &5u64.to_le_bytes()).err();
                called.store(true, Ordering::Release);
                pe.machine().notify_pe(2);
                Some((err, pe.now() - t0))
            } else {
                None
            }
        });
        let (err, waited) = out.results[0].unwrap();
        assert_eq!(err, Some(ConduitError::TargetFailed { op: "am", target: 2 }));
        assert!(waited > 0, "the sender paid the reply-timeout retry chain");
        assert!(
            out.fault_events.iter().any(|e| e.kind == "reply-timeout"),
            "timeouts are recorded fault events: {:?}",
            out.fault_events
        );
    }

    #[test]
    fn barrier_group_subsets_synchronize() {
        let out = run(generic_smp(4).with_heap_bytes(4096), |pe| {
            let ctx = Ctx::new(pe, ConduitProfile::mvapich_shmem(), CtxOptions::default());
            if pe.id() < 2 {
                pe.advance(1000.0 * (pe.id() + 1) as f64);
                ctx.barrier_group(&[0, 1]);
                pe.now()
            } else {
                0
            }
        });
        assert_eq!(out.results[0], out.results[1]);
        assert!(out.results[0] >= 2000);
    }

    // ---- coalescing & active messages ------------------------------------

    fn coalescing_ctx(pe: Pe<'_>) -> Ctx<'_> {
        Ctx::new(
            pe,
            ConduitProfile::mvapich_shmem(),
            CtxOptions {
                coalesce: CoalescePolicy::On(CoalescingConfig::default()),
                ..Default::default()
            },
        )
    }

    #[test]
    fn coalescing_merges_rewrites_into_one_wire_message() {
        let out = run(two_node_cfg().with_trace(true), |pe| {
            let ctx = coalescing_ctx(pe);
            assert!(ctx.coalescing());
            if pe.id() == 0 {
                // Four rewrites of one location: exact-range write combining
                // keeps one staged op carrying the last payload.
                for round in 1..=4u8 {
                    ctx.put_nbi(2, 0, &[round; 64]);
                }
                let staged = ctx.outstanding_puts();
                ctx.quiet();
                staged
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 1, "rewrites merge into one staged op");
        assert_eq!(out.stats.puts, 4, "every put still counts");
        let wire_puts = out.trace.iter().filter(|s| s.pe == 0 && s.kind == SpanKind::Put).count();
        assert_eq!(wire_puts, 1, "one flush span for the merged batch");
        // The last write wins on the target.
        let data = run(two_node_cfg(), |pe| {
            let ctx = coalescing_ctx(pe);
            if pe.id() == 0 {
                for round in 1..=4u8 {
                    ctx.put_nbi(2, 0, &[round; 64]);
                }
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut buf = [0u8; 64];
            ctx.get(2, 0, &mut buf);
            buf
        });
        for r in data.results {
            assert_eq!(r, [4u8; 64], "last staged payload lands");
        }
    }

    #[test]
    fn an_empty_strided_or_regions_transfer_is_no_flush_point() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = coalescing_ctx(pe);
            if pe.id() != 0 {
                return Vec::new();
            }
            ctx.put(2, 0, &[1u8; 8]);
            let mut out = [0u8; 0];
            let empties = [
                OpKind::StridedPut {
                    dst_off: 64,
                    dst_stride: 2,
                    src: &[],
                    elem: 8,
                    src_stride: 1,
                    nelems: 0,
                },
                OpKind::StridedGet {
                    src_off: 64,
                    src_stride: 2,
                    out: &mut [],
                    elem: 8,
                    out_stride: 1,
                    nelems: 0,
                },
                OpKind::AmPutRegions { regions: &[], payload: &[] },
                OpKind::AmGetRegions { regions: &[], out: &mut out },
            ];
            // After each empty descriptor: its bytes and whether the put is
            // still staged.
            let staged = || ctx.coalescer.as_ref().unwrap().borrow().staged_ops();
            let seen: Vec<(usize, usize)> = empties
                .into_iter()
                .map(|kind| (ctx.submit(OpDesc::new(2, kind)).unwrap().bytes, staged()))
                .collect();
            ctx.quiet();
            seen
        });
        assert_eq!(out.results[0], vec![(0, 1); 4], "the staged put stays staged");
    }

    #[test]
    fn quiet_flushes_staged_ops() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = coalescing_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 0, &[1u8; 8]);
                ctx.put(2, 16, &[2u8; 8]);
                let before = ctx.outstanding_puts();
                ctx.quiet();
                let after = ctx.outstanding_puts();
                (before, after)
            } else {
                (9, 9)
            }
        });
        assert_eq!(out.results[0], (2, 0), "staged ops count as outstanding until quiet");
    }

    #[test]
    fn staged_put_then_get_still_flags_missing_quiet() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = coalescing_ctx(pe);
            if pe.id() == 0 {
                ctx.put(2, 0, &[7u8; 8]);
                let mut buf = [0u8; 8];
                // The get flushes the buffer first (read-your-writes), and
                // the freshly flushed put is in flight: hazard, exactly as
                // without coalescing.
                ctx.get(2, 0, &mut buf);
                (ctx.hazard_count(), buf)
            } else {
                (0, [0u8; 8])
            }
        });
        let (hazards, buf) = out.results[0];
        assert_eq!(hazards, 1, "skipping quiet is still flagged under coalescing");
        assert_eq!(buf, [7u8; 8], "the flush landed the data before the read");
        assert_eq!(out.stats.hazards, 1);
    }

    #[test]
    fn forced_aggregation_off_beats_explicit_on() {
        // The suite-wide kill switch must win over per-context `On`: with
        // it, overlapping puts take the direct path and the WAW hazard
        // reappears.
        let out = pgas_machine::with_forced_aggregation(false, || {
            run(two_node_cfg(), |pe| {
                let ctx = coalescing_ctx(pe);
                assert!(!ctx.coalescing());
                if pe.id() == 0 {
                    ctx.put(2, 0, &[1u8; 8]);
                    ctx.put(2, 0, &[2u8; 8]);
                    (ctx.outstanding_puts(), ctx.hazard_count())
                } else {
                    (0, 0)
                }
            })
        });
        assert_eq!(out.results[0], (2, 1), "direct path: two obligations, one WAW hazard");
    }

    #[test]
    fn staged_amos_flush_before_a_fetching_amo() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = coalescing_ctx(pe);
            if pe.id() == 0 {
                for _ in 0..3 {
                    ctx.amo(2, 8, AmoOp::Add(5));
                }
                let staged = ctx.outstanding_puts();
                // Fetching AMO flushes the node buffer first, so it observes
                // all three adds.
                let v = ctx.amo(2, 8, AmoOp::FetchAdd(0));
                (staged, v)
            } else {
                (0, 0)
            }
        });
        assert_eq!(out.results[0], (3, 15));
        assert_eq!(out.stats.amos, 4);
    }

    #[test]
    fn capacity_overflow_flushes_mid_stream() {
        let out = run(two_node_cfg().with_trace(true), |pe| {
            let cfg = CoalescingConfig { max_bytes: 64, max_ops: 4, max_age_ns: u64::MAX };
            let ctx = Ctx::new(
                pe,
                ConduitProfile::mvapich_shmem(),
                CtxOptions { coalesce: CoalescePolicy::On(cfg), ..Default::default() },
            );
            if pe.id() == 0 {
                for i in 0..6usize {
                    ctx.put(2, i * 16, &[i as u8; 16]);
                }
                ctx.quiet();
            }
            ctx.barrier_all();
            let mut buf = [0u8; 96];
            ctx.get(2, 0, &mut buf);
            buf
        });
        // 16-byte puts, 64-byte buffer: flushes after every 4 ops → 2 wire
        // messages for 6 puts (one forced, one at quiet).
        let wire_puts = out.trace.iter().filter(|s| s.pe == 0 && s.kind == SpanKind::Put).count();
        assert_eq!(wire_puts, 2, "capacity forces a mid-stream flush");
        for r in out.results {
            for i in 0..6usize {
                assert_eq!(&r[i * 16..(i + 1) * 16], &[i as u8; 16], "payload {i}");
            }
        }
    }

    struct AddAm;
    impl AmHandler for AddAm {
        fn compute_ns(&self, _arg: &[u8]) -> f64 {
            25.0
        }
        fn execute(&self, t: &mut AmTarget<'_>, arg: &[u8]) -> Option<Vec<u8>> {
            let delta = u64::from_le_bytes(arg.try_into().unwrap());
            let v = t.read_u64(0);
            t.write_u64(0, v.wrapping_add(delta));
            Some(v.to_le_bytes().to_vec())
        }
    }

    #[test]
    fn am_send_runs_handler_at_target() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            let add = ctx.register_am(Rc::new(AddAm));
            ctx.barrier_all();
            if pe.id() == 0 {
                for _ in 0..3 {
                    ctx.am_send(2, add, &5u64.to_le_bytes());
                }
                let outstanding = ctx.outstanding_puts();
                ctx.quiet();
                outstanding
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 3, "each handler write is a completion obligation");
        assert_eq!(out.stats.ams, 3);
        let check = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            let add = ctx.register_am(Rc::new(AddAm));
            ctx.barrier_all();
            if pe.id() == 0 {
                ctx.am_send(2, add, &5u64.to_le_bytes());
                ctx.am_send(2, add, &7u64.to_le_bytes());
                ctx.quiet();
            }
            ctx.barrier_all();
            ctx.amo(2, 0, AmoOp::Fetch)
        });
        for r in check.results {
            assert_eq!(r, 12, "both handler updates applied atomically");
        }
    }

    #[test]
    fn am_call_round_trips_a_reply() {
        let out = run(two_node_cfg(), |pe| {
            let ctx = shmem_ctx(pe);
            let add = ctx.register_am(Rc::new(AddAm));
            ctx.barrier_all();
            if pe.id() == 0 {
                ctx.amo(2, 0, AmoOp::Set(40));
                ctx.quiet();
                let before = pe.now();
                let reply = ctx.am_call(2, add, &2u64.to_le_bytes());
                let after = pe.now();
                let old = u64::from_le_bytes(reply.try_into().unwrap());
                let now = ctx.amo(2, 0, AmoOp::Fetch);
                (old, now, after > before)
            } else {
                (0, 0, true)
            }
        });
        let (old, now, advanced) = out.results[0];
        assert_eq!(old, 40, "reply carries the pre-update value");
        assert_eq!(now, 42, "the handler's write landed");
        assert!(advanced, "the round trip costs virtual time");
    }

    #[test]
    fn am_faults_surface_like_put_faults() {
        use pgas_machine::{FaultPlan, RetryPolicy};
        let plan = FaultPlan::transient_drops(3, 0.9)
            .with_retry(RetryPolicy { max_attempts: 2, ..Default::default() });
        let out = run(two_node_cfg().with_faults(plan), |pe| {
            let ctx = shmem_ctx(pe);
            let add = ctx.register_am(Rc::new(AddAm));
            if pe.id() == 0 {
                (0..50).find_map(|_| ctx.try_am_send(2, add, &1u64.to_le_bytes()).err())
            } else {
                None
            }
        });
        let err = out.results[0].expect("90% drops with 2 attempts must exhaust");
        assert_eq!(err, ConduitError::RetriesExhausted { op: "am", target: 2, attempts: 2 });
    }

    #[test]
    fn an_am_call_span_carries_the_request_and_the_reply_leg() {
        let out = run(two_node_cfg().with_trace(true), |pe| {
            let ctx = shmem_ctx(pe);
            let add = ctx.register_am(Rc::new(AddAm));
            ctx.barrier_all();
            if pe.id() == 0 {
                ctx.am_call(2, add, &2u64.to_le_bytes());
            }
            ctx.barrier_all();
        });
        let span = out.trace.iter().find(|s| s.pe == 0 && s.kind == SpanKind::Amo).unwrap();
        // The same two legs on a fresh machine: the request's breakdown plus
        // the reply leg's service.
        let legs = run(two_node_cfg(), |pe| {
            (pe.id() == 0).then(|| {
                let cm = CostModel::new(pe.machine(), ConduitProfile::mvapich_shmem());
                let (req, request) = cm.am_request(0, 2, 8, 25.0, 0, 0);
                (request, cm.am_reply(0, 2, 8, req.executed).1)
            })
        });
        let (request, reply) = legs.results[0].unwrap();
        assert!(reply.service_ns > 0);
        assert_eq!(span.service_ns, request.service_ns + reply.service_ns);
        assert_eq!(
            span.remote_end - span.remote_begin,
            request.remote_end - request.remote_begin,
            "the delivery window is the request's, handler included"
        );
    }

    #[test]
    fn strided_and_packed_gets_trace_spans_without_a_breakdown() {
        let out = run(two_node_cfg().with_trace(true), |pe| {
            let ctx =
                Ctx::new(pe, ConduitProfile::cray_shmem(Platform::CrayXc30), CtxOptions::default());
            if pe.id() == 0 {
                let mut buf = vec![0u8; 40];
                ctx.iget(2, 0, 2, &mut buf, 8, 1, 5);
                let regions = [(0, 8), (64, 16)];
                ctx.submit(OpDesc::new(
                    2,
                    OpKind::AmGetRegions { regions: &regions, out: &mut buf },
                ))
                .unwrap();
            }
            ctx.barrier_all();
        });
        let gets: Vec<_> =
            out.trace.iter().filter(|s| s.pe == 0 && s.kind == SpanKind::Get).collect();
        assert_eq!(gets.len(), 2);
        for s in gets {
            assert!(s.end > s.begin, "{s:?}");
            assert_eq!((s.queue_ns, s.service_ns, s.remote_begin, s.remote_end), (0, 0, 0, 0));
        }
    }

    #[test]
    fn native_and_packed_strided_puts_land_the_same_bytes() {
        // Under checksums, so every layout lands through verification.
        let out = pgas_machine::with_forced_checksums(true, || {
            run(two_node_cfg(), |pe| {
                let ctx = Ctx::new(
                    pe,
                    ConduitProfile::cray_shmem(Platform::CrayXc30),
                    CtxOptions::default(),
                );
                if pe.id() == 0 {
                    let src: Vec<u8> = (1..=48).collect();
                    // Every other 8-byte element of `src`, three slots apart.
                    ctx.iput(2, 0, 3, &src, 8, 2, 3);
                    let packed: Vec<u8> = src.chunks(16).flat_map(|c| c[..8].to_vec()).collect();
                    ctx.am_put_regions(2, &[(512, 8), (536, 8), (560, 8)], &packed);
                    ctx.quiet();
                }
                ctx.barrier_all();
                let (mut native, mut packed) = (vec![0u8; 72], vec![0u8; 72]);
                ctx.get(2, 0, &mut native);
                ctx.get(2, 512, &mut packed);
                (native, packed)
            })
        });
        assert_eq!(out.stats.puts, 2, "one wire transfer each");
        let (native, packed) = &out.results[1];
        assert_eq!(native, packed);
        assert_eq!(&native[48..56], &(33..=40).collect::<Vec<u8>>()[..], "element 2");
        assert_eq!(&native[8..24], &[0u8; 16], "the gap stays untouched");
    }
}
