//! The machine proper: PE state, clocks, heaps, NICs, barriers.

use crate::config::MachineConfig;
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::heap::Heap;
use crate::knobs::{Knobs, ResolvedKnobs};
use crate::metrics::MetricsRegistry;
use crate::nic::Nic;
use crate::sanitizer::{HazardReport, Sanitizer, SanitizerMode};
use crate::stats::{FaultEvent, Stats};
use crate::stream::{SnapshotRing, StreamConfig, StreamSample};
use crate::sync::{ClockBarrier, NotifyCell, Poison};
use crate::trace::{Span, SpanKind, Tracer};
use parking_lot::{fiber, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Index of a processing element, `0..total_pes`.
pub type PeId = usize;

/// Hard cap on PE count (the CAF lock pointer encoding reserves 20 bits for
/// the image index, see the paper §IV-D; we stay within it).
pub const MAX_PES: usize = 1 << 20;

/// State owned by one PE.
struct PeState {
    heap: Heap,
    clock: AtomicU64,
    notify: NotifyCell,
}

/// Runtime state of the live streaming snapshot channel (see
/// [`crate::stream`]): the configured cadence and ring, and the next
/// virtual time at which a sample is due.
struct StreamState {
    cadence_ns: u64,
    ring: Arc<SnapshotRing>,
    /// Next cadence boundary a sample is owed for. Read without the ring's
    /// lock on the fast path; claimed and moved only under it.
    next_tick: AtomicU64,
    /// The originating config, kept so push consumers registered on it —
    /// even after the machine was built — see every sample.
    cfg: StreamConfig,
}

impl StreamState {
    fn new(cfg: StreamConfig) -> StreamState {
        StreamState {
            cadence_ns: cfg.cadence_ns(),
            ring: cfg.ring(),
            next_tick: AtomicU64::new(cfg.cadence_ns()),
            cfg,
        }
    }
}

/// Virtual-time NIC arbiter of every launched machine ([`Machine::new_on`]).
///
/// [`Nic::reserve`] grants lane occupancy first-come-first-served in *real*
/// time, so when several PEs contend with overlapping virtual windows the
/// per-PE split of queueing delay would follow host scheduling. The arbiter
/// makes it a pure function of the program by granting whole reservation
/// sequences in `(virtual start, pe)` order: a request is granted once it is
/// the least request held or still possible — no other PE could still issue
/// an earlier one. What a PE could still issue is its *horizon*: its clock
/// while it can run (clocks are monotone), its key's start while it has a
/// request parked, `u64::MAX` while it is quiescent (blocked in a
/// barrier/`wait_on`) or finished.
///
/// **The scheduler grants.** Every PE is a fiber of one carrier, and only
/// the PE that runs can move anything. A request that no horizon precedes
/// is granted at once ([`Machine::nic_turn_ctx`]); any other parks its key
/// and its fiber. When no fiber can run, every unfinished PE is parked in a
/// turn, a `wait_on` or a barrier, so nothing can precede the least parked
/// key any more, and the carrier's idle point grants it: one unpark
/// ([`Machine::grant_idle`]). Waiting for the idle point cannot let a
/// smaller key in: a runnable PE at or below the key's start would block the
/// grant anyway, and one past it can only park later keys. Nobody wakes a
/// parked key but the grant, so there is no wake to lose.
///
/// The quiescent rule is conservative for barrier waits — a PE blocked in a
/// barrier cannot be released while the granted PE is still parked short of
/// it — and airtight for `wait_on` waits: a write that may satisfy a
/// waiter's predicate is published through [`Machine::apply_and_notify`],
/// which gives the waiter its horizon back in the same critical section as
/// the write. The residual caveat is predicates that turn true *without* a
/// notifying write — e.g. `pe_failed` flips during a fault plan.
///
/// **Orderings.** Every field is read and written only by the one PE that
/// runs, or by the carrier's idle point while none does. On the baton
/// carrier consecutive holders are different OS threads, and the handoff
/// goes through the baton's mutex, whose release/acquire orders everything
/// before it; so the atomics here are `Relaxed` (they are atomics only to
/// keep the machine `Sync` without `unsafe`).
struct ArbiterState {
    /// Parked requests, at most one per PE, least `(start, pe, ctx)` first:
    /// the context channel id is part of the key, so ops issued on different
    /// per-context NIC channels park as distinct requests (a PE still parks
    /// at most one at a time, so the grant order is decided by `(start, pe)`;
    /// the ctx component is attribution, not tie-breaking).
    parked: Mutex<BinaryHeap<Reverse<TurnKey>>>,
    /// Per PE, the earliest virtual time at which it holds or could still
    /// issue a NIC request (see above); the grant check is over this one
    /// array. Stored beside every clock store, on parking and on the grant;
    /// `u64::MAX` from when it arrives at a barrier, sleeps in `wait_on`
    /// (under its notify lock) or finishes; its clock again when it leaves
    /// `wait_on` or has that quiescence withdrawn by
    /// [`Machine::apply_and_notify`] (same lock), or a barrier's completing
    /// arrival releases it.
    horizon: Vec<AtomicU64>,
    /// PEs with a key in `parked`. Set on parking, cleared by the grant.
    in_turn: Vec<AtomicBool>,
    /// Non-zero for PEs whose quiescence comes from `wait_on` (as opposed to
    /// a barrier): a write published through [`Machine::apply_and_notify`]
    /// may satisfy their predicate, so it must withdraw their quiescence in
    /// the same critical section — whereas a barrier waiter can only be
    /// released by the barrier itself and must stay quiescent under incoming
    /// writes. The value names what is polled, for the stall report:
    /// `offset + 1` of the word in the PE's own heap, or [`UNNAMED_WAIT`].
    in_wait_on: Vec<AtomicUsize>,
    /// PEs whose program closure has returned. A separate, cold flag: a
    /// `u64::MAX` horizon alone cannot tell the stall report "gone for good"
    /// from "waiting in a barrier". (Nothing resurrects a finished PE's
    /// horizon: a barrier release skips the dead, [`Machine::arb_release`].)
    finished: Vec<AtomicBool>,
    /// Turns that went through the parking lot.
    #[cfg(test)]
    parked_turns: AtomicU64,
}

/// `in_wait_on` value of a `wait_on` whose predicate names no word.
const UNNAMED_WAIT: usize = usize::MAX;

/// A parked NIC request: `(start, pe, ctx)`.
type TurnKey = (u64, PeId, u32);

/// The simulated machine. Shared (via reference) by every PE thread.
pub struct Machine {
    cfg: MachineConfig,
    pes: Vec<PeState>,
    nics: Vec<Nic>,
    stats: Stats,
    tracer: Tracer,
    metrics: MetricsRegistry,
    sanitizer: Sanitizer,
    poison: Poison,
    global_barrier: ClockBarrier,
    subset_barriers: Mutex<HashMap<Vec<PeId>, Arc<ClockBarrier>>>,
    /// Fault-injection state; `None` unless a non-zero plan was resolved, so
    /// the zero-fault path costs one branch per hook.
    faults: Option<FaultState>,
    /// Live streaming snapshot channel; `None` unless configured, so the
    /// common path costs one branch per clock movement.
    stream: Option<StreamState>,
    /// Virtual-time NIC arbiter; `None` on a machine driven by hand
    /// ([`Machine::new`]), `Some` on every launched one.
    arbiter: Option<ArbiterState>,
    /// Every knob as resolved on the launching thread at build time.
    knobs: ResolvedKnobs,
}

impl Machine {
    /// Build a machine from a validated configuration, to be driven by hand:
    /// one caller moves every PE, so it has no NIC arbiter — whose grant
    /// waits for every other PE to run or park, which none here ever does —
    /// and [`Self::nic_turn`] is a passthrough.
    pub fn new(cfg: MachineConfig) -> Arc<Machine> {
        Machine::new_on(cfg, false)
    }

    /// [`Self::new`], or with `launched` the launcher's machine: it runs
    /// every PE as a fiber of one carrier, and so always arbitrates.
    pub(crate) fn new_on(cfg: MachineConfig, launched: bool) -> Arc<Machine> {
        cfg.validate().expect("invalid machine configuration");
        let n = cfg.total_pes();
        let knobs = Knobs::resolve(&cfg);
        let faults = knobs.faults.value.clone().map(|plan| {
            plan.validate(n, cfg.nodes).expect("invalid fault plan");
            FaultState::new(plan, n)
        });
        let stream = knobs.stream.value.clone().map(StreamState::new);
        let arbiter = launched.then(|| ArbiterState {
            parked: Mutex::new(BinaryHeap::new()),
            horizon: (0..n).map(|_| AtomicU64::new(0)).collect(),
            in_turn: (0..n).map(|_| AtomicBool::new(false)).collect(),
            in_wait_on: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            finished: (0..n).map(|_| AtomicBool::new(false)).collect(),
            #[cfg(test)]
            parked_turns: AtomicU64::new(0),
        });
        Arc::new(Machine {
            faults,
            stream,
            arbiter,
            pes: (0..n)
                .map(|_| PeState {
                    heap: Heap::new(cfg.heap_bytes),
                    clock: AtomicU64::new(0),
                    notify: NotifyCell::default(),
                })
                .collect(),
            nics: (0..cfg.nodes).map(|_| Nic::new()).collect(),
            global_barrier: ClockBarrier::new(n),
            subset_barriers: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            tracer: Tracer::new(knobs.trace.value, n),
            metrics: MetricsRegistry::new_windowed(knobs.metrics.value, n, cfg.metrics_window_ns),
            sanitizer: Sanitizer::new(knobs.sanitizer.value, n, cfg.heap_bytes),
            poison: Poison::default(),
            cfg,
            knobs,
        })
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Every knob this machine runs with, and which layer set it (see
    /// [`crate::knobs`]). Resolved once at build time, on the launching
    /// thread; conduits built on PE threads read their switches from here.
    #[inline]
    pub fn knobs(&self) -> &ResolvedKnobs {
        &self.knobs
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// Node hosting `pe` (PEs are laid out blockwise across nodes, matching
    /// the usual `mpirun`-style placement).
    #[inline]
    pub fn node_of(&self, pe: PeId) -> usize {
        pe / self.cfg.cores_per_node
    }

    /// Do `a` and `b` share a node (and hence a memory fabric and a NIC)?
    #[inline]
    pub fn same_node(&self, a: PeId, b: PeId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The heap of `pe`.
    #[inline]
    pub fn heap(&self, pe: PeId) -> &Heap {
        &self.pes[pe].heap
    }

    /// NIC of `node`.
    #[inline]
    pub fn nic(&self, node: usize) -> &Nic {
        &self.nics[node]
    }

    /// Machine-wide operation counters.
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The execution tracer (no-op unless enabled in the configuration).
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The per-op metrics registry (no-op unless enabled).
    #[inline]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The poison flag (set when any PE panics).
    #[inline]
    pub fn poison(&self) -> &Poison {
        &self.poison
    }

    // ---- race & sync sanitizer ------------------------------------------

    /// Is the sanitizer active?
    #[inline]
    pub fn san_on(&self) -> bool {
        self.sanitizer.is_on()
    }

    /// The sanitizer itself (for report draining).
    #[inline]
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Deliver a sanitizer report: count it, record it, and panic the
    /// calling PE in `Panic` mode.
    fn san_deliver(&self, report: HazardReport) {
        Stats::bump(&self.stats.races);
        let panic_mode = self.sanitizer.mode() == SanitizerMode::Panic;
        let msg = if panic_mode { report.to_string() } else { String::new() };
        self.sanitizer.push(report);
        if panic_mode {
            panic!("{msg}");
        }
    }

    /// Sanitizer hook: a write by `writer` to `owner`'s heap completing at
    /// virtual time `time`. No-op when the sanitizer is off.
    #[allow(clippy::too_many_arguments)]
    pub fn san_record_write(
        &self,
        owner: PeId,
        off: usize,
        len: usize,
        writer: PeId,
        time: u64,
        atomic: bool,
        op: &'static str,
    ) {
        if let Some(r) = self.sanitizer.record_write(owner, off, len, writer, time, atomic, op) {
            self.san_deliver(r);
        }
    }

    /// Sanitizer hook: a read by `reader` of `owner`'s heap.
    pub fn san_check_read(
        &self,
        owner: PeId,
        off: usize,
        len: usize,
        reader: PeId,
        op: &'static str,
    ) {
        let now = self.clock(reader);
        if let Some(r) = self.sanitizer.check_read(owner, off, len, reader, now, op) {
            self.san_deliver(r);
        }
    }

    /// Sanitizer hook: `observer` synchronized with whoever last wrote the
    /// word at `off` in `owner`'s heap (a completed `wait_until` or a
    /// fetching atomic). Creates the happens-before edge reader-side checks
    /// rely on.
    pub fn san_sync_edge(&self, observer: PeId, owner: PeId, off: usize) {
        let Some((w, wtime)) = self.sanitizer.last_writer(owner, off) else {
            return;
        };
        if w == observer {
            return;
        }
        self.sanitizer.join_rows(observer, w);
        // The writer's live clock bounds the completion time of everything
        // it issued *and then quieted* before setting this word; the word's
        // own stamp covers the direct write.
        self.sanitizer.raise(observer, w, wtime.max(self.clock(w)));
    }

    /// Sanitizer hook: a structured hazard found by a higher layer (the
    /// conduit's pending-put checker). Recorded and, in `Panic` mode,
    /// escalated — but *not* counted in `stats.races`, since the conduit
    /// already counts it in `stats.hazards`.
    pub fn san_report(&self, report: HazardReport) {
        if !self.sanitizer.is_on() {
            return;
        }
        let panic_mode = self.sanitizer.mode() == SanitizerMode::Panic;
        let msg = if panic_mode { report.to_string() } else { String::new() };
        self.sanitizer.push(report);
        if panic_mode {
            panic!("{msg}");
        }
    }

    // ---- fault injection -------------------------------------------------

    /// Is a non-zero fault plan active on this machine?
    #[inline]
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.knobs.faults.value.as_ref()
    }

    /// Roll one message attempt by `pe` against the plan's transient-fault
    /// probabilities. `None` when no plan is active or the dice came up
    /// clean. Deterministic: stream `pe` advances only on `pe`'s own ops.
    #[inline]
    pub fn fault_draw(&self, pe: PeId) -> Option<FaultKind> {
        self.faults.as_ref()?.draw(pe)
    }

    /// Detection-timeout + backoff delay (with deterministic jitter) for
    /// retry number `attempt` (1-based) by `pe`. Zero when no plan is active.
    pub fn fault_backoff_ns(&self, pe: PeId, attempt: u32) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.backoff_ns(pe, attempt))
    }

    /// Fraction of nominal NIC bandwidth available on `node` for a
    /// reservation beginning at `t_ns` (1.0 unless a degradation window of
    /// the active plan covers that instant).
    #[inline]
    pub fn degradation_factor(&self, node: usize, t_ns: u64) -> f64 {
        match &self.faults {
            Some(f) => f.bandwidth_factor(node, t_ns),
            None => 1.0,
        }
    }

    /// Has `pe` been marked dead by a scheduled failure?
    #[inline]
    pub fn pe_failed(&self, pe: PeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.is_failed(pe))
    }

    /// The virtual instant at which the active plan schedules `pe` to die,
    /// if any. Unlike [`Self::pe_failed`] — which flips only once the dying
    /// PE's own clock crosses the deadline, i.e. at a real-time point that
    /// depends on host scheduling — this is a pure function of the plan, so
    /// issuers can make *deterministic* dead-target decisions by comparing
    /// it against their own virtual clock.
    #[inline]
    pub fn pe_deadline(&self, pe: PeId) -> Option<u64> {
        self.faults.as_ref().map(|f| f.deadline(pe)).filter(|&d| d != u64::MAX)
    }

    /// Deterministic dead-target predicate: is `pe` scheduled to be dead by
    /// virtual time `t_ns`? True as soon as the issuer's clock passes the
    /// scheduled deadline, whether or not the dying PE's thread has crossed
    /// it yet — the answer depends only on the plan and `t_ns`, never on
    /// host scheduling.
    #[inline]
    pub fn pe_dead_at(&self, pe: PeId, t_ns: u64) -> bool {
        self.pe_deadline(pe).is_some_and(|d| t_ns >= d)
    }

    /// Every PE marked dead so far, ascending.
    pub fn failed_pes(&self) -> Vec<PeId> {
        self.faults.as_ref().map_or_else(Vec::new, |f| f.failed_list())
    }

    /// Has any PE been marked dead?
    pub fn any_pe_failed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.any_failed())
    }

    /// Mark `pe` dead: count it, log it, detach it from every barrier it
    /// belongs to (pending rounds complete among the survivors), and wake
    /// all waiters so failure-aware predicates re-evaluate.
    #[cold]
    fn fail_pe(&self, pe: PeId, now: u64) {
        let Some(fs) = &self.faults else { return };
        // The subset-barrier lock orders marking against concurrent barrier
        // creation: a group barrier created after this point sees the death
        // and shrinks itself, one created before is shrunk here.
        let subsets = self.subset_barriers.lock();
        if !fs.mark_failed(pe) {
            return;
        }
        Stats::bump(&self.stats.pe_failures);
        self.stats.record_fault(FaultEvent {
            pe,
            op: "pe-failure",
            target: pe,
            kind: "pe-failure",
            attempt: 0,
            delay_ns: 0,
            at_ns: now,
        });
        self.tracer.record(Span::op(pe, SpanKind::Fault, now, now, None, 0));
        self.global_barrier.leave();
        for (group, b) in subsets.iter() {
            if group.binary_search(&pe).is_ok() {
                b.leave();
            }
        }
        drop(subsets);
        self.interrupt_all();
    }

    /// Check `pe` against its scheduled death instant at clock value `now`.
    #[inline]
    fn poll_failure(&self, pe: PeId, now: u64) {
        if let Some(fs) = &self.faults {
            if now >= fs.deadline(pe) && !fs.is_failed(pe) {
                self.fail_pe(pe, now);
            }
        }
    }

    // ---- live streaming snapshots ---------------------------------------

    /// Is a streaming snapshot channel attached?
    #[inline]
    pub fn stream_active(&self) -> bool {
        self.stream.is_some()
    }

    /// Hook called whenever a PE's clock moves: if the new time crossed the
    /// next cadence boundary, produce one sample. The fast path (no stream,
    /// or boundary not reached) is a branch and a relaxed load.
    #[inline]
    fn stream_tick(&self, now: u64) {
        if let Some(st) = &self.stream {
            if now >= st.next_tick.load(Ordering::Relaxed) {
                self.stream_sample(st, now);
            }
        }
    }

    /// Claim the pending cadence boundary and sample the machine's state.
    /// Sampling only *reads* (clocks, metric counters, last-span peeks, NIC
    /// counters) — no virtual clock moves, which is the contract the
    /// streaming test asserts. Which PE thread wins the claim (and thus the
    /// exact set of samples) depends on host scheduling; the stream is a
    /// live monitoring surface, not a deterministic artifact.
    ///
    /// Claim, numbering and push are one critical section under the ring's
    /// lock, so the ring (and every push consumer) sees samples in `seq` and
    /// `t_ns` order: a claimer that raced ahead on the fast-path check finds
    /// the boundary already moved past its clock and leaves.
    #[cold]
    fn stream_sample(&self, st: &StreamState, now: u64) {
        st.ring.push_with(|seq| {
            if now < st.next_tick.load(Ordering::Relaxed) {
                return None;
            }
            // One sample per crossing: move the boundary past `now`.
            st.next_tick.store((now / st.cadence_ns + 1) * st.cadence_ns, Ordering::Relaxed);
            let sample = StreamSample {
                seq,
                t_ns: now,
                clocks: (0..self.num_pes()).map(|p| self.clock(p)).collect(),
                counters: self.metrics.live_counter_totals(),
                inflight: self.tracer.latest_per_pe(),
                nics: self
                    .nics
                    .iter()
                    .map(|nic| crate::launch::NicSnapshot {
                        messages: nic.messages(),
                        bytes: nic.bytes(),
                        busy_ns: nic.busy_ns(),
                    })
                    .collect(),
                windows: match st.cfg.window_metric() {
                    Some(name) => self.metrics.live_window_series(name),
                    None => Vec::new(),
                },
                requests: if st.cfg.requests_enabled() {
                    self.tracer.live_requests()
                } else {
                    Vec::new()
                },
            };
            // Fan out to push consumers (dashboards, pgas_top's live series)
            // before the ring can evict anything: a slow puller never costs
            // a subscriber a sample.
            st.cfg.notify_consumers(&sample);
            Some(sample)
        });
    }

    // ---- deterministic NIC arbitration ----------------------------------

    /// Run `f` (a NIC reservation sequence on behalf of `pe`, requesting no
    /// earlier than virtual time `start`) under the arbiter's virtual-time
    /// ordering. On a machine driven by hand this is exactly `f()`.
    ///
    /// The caller must be the thread running `pe`, and `f` must not block on
    /// other PEs (it only touches NIC lane frontiers).
    pub fn nic_turn<R>(&self, pe: PeId, start: u64, f: impl FnOnce() -> R) -> R {
        self.nic_turn_ctx(pe, 0, start, f)
    }

    /// [`Self::nic_turn`] on a specific per-context NIC channel: `ctx` is
    /// the conduit context id the request belongs to (0 = the default
    /// context). The channel id rides in the parked key, so grants —
    /// and the spans they order — attribute to the issuing context.
    ///
    /// A request that no other PE's horizon precedes, unpoisoned, is granted
    /// here: `f` runs at once and the parking lot is not touched. Nothing
    /// else can run between the check and `f` (one carrier, and no turn
    /// closure in the tree waits or moves the caller's clock: `cost.rs`,
    /// `ctx.rs` ×4, the benchmark's ladder). Any other request parks until
    /// the idle point grants it (`Self::grant_idle`).
    pub fn nic_turn_ctx<R>(&self, pe: PeId, ctx: u32, start: u64, f: impl FnOnce() -> R) -> R {
        let Some(arb) = &self.arbiter else { return f() };
        if !self.poison.is_poisoned() && Self::arb_blocker(arb, start, pe).is_none() {
            debug_assert!(fiber::is_fiber(), "a launched machine runs its PEs as fibers");
            return f();
        }
        #[cfg(test)]
        arb.parked_turns.fetch_add(1, Ordering::Relaxed);
        arb.parked.lock().push(Reverse((start, pe, ctx)));
        arb.in_turn[pe].store(true, Ordering::Relaxed);
        arb.horizon[pe].store(start, Ordering::Relaxed);
        while arb.in_turn[pe].load(Ordering::Relaxed) {
            if self.poison.is_poisoned() {
                arb.parked.lock().retain(|&Reverse(key)| key.1 != pe);
                arb.in_turn[pe].store(false, Ordering::Relaxed);
                arb.horizon[pe].store(self.clock(pe), Ordering::Relaxed);
                self.poison.check(); // panics
            }
            fiber::park();
        }
        f()
    }

    /// The carrier's idle point: no PE can run, so grant the least parked
    /// key unless some PE could still issue an earlier request — the grant
    /// is one unpark. Whether a PE was made runnable; `false` with nothing
    /// grantable, which on the idle point means the job is stalled.
    pub(crate) fn grant_idle(&self) -> bool {
        let Some(arb) = &self.arbiter else { return false };
        let mut parked = arb.parked.lock();
        let Some(&Reverse((start, pe, _))) = parked.peek() else { return false };
        if Self::arb_blocker(arb, start, pe).is_some() {
            return false;
        }
        parked.pop();
        drop(parked);
        arb.horizon[pe].store(self.clock(pe), Ordering::Relaxed);
        arb.in_turn[pe].store(false, Ordering::Relaxed);
        fiber::unpark(pe)
    }

    /// The first PE other than `pe` that holds or could still issue a
    /// request before `(start, pe)`, if any: its horizon is at or before
    /// `start`, unless that is a parked key tied with `start` and of a later
    /// PE (which `(start, pe)` precedes).
    #[inline]
    fn arb_blocker(arb: &ArbiterState, start: u64, pe: PeId) -> Option<PeId> {
        arb.horizon.iter().enumerate().position(|(q, h)| {
            let h = h.load(Ordering::Relaxed);
            h <= start
                && q != pe
                && (h < start || q < pe || !arb.in_turn[q].load(Ordering::Relaxed))
        })
    }

    /// Mark `pe` unable to issue NIC requests until externally unblocked:
    /// it enters a barrier, or its program closure finished. No-op without
    /// an arbiter.
    #[inline]
    fn arb_quiesce(&self, pe: PeId) {
        if let Some(arb) = &self.arbiter {
            arb.horizon[pe].store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// A barrier's completing arrival, *before* the waiters are unparked: a
    /// released PE that has not run yet must not look quiescent, or
    /// reservations could be granted out of virtual-time order. A member
    /// that died left the group instead of arriving — it may be parked in a
    /// turn, asleep in `wait_on` or gone — and its horizon says so already.
    fn arb_release(&self, group: impl Iterator<Item = PeId>) {
        let Some(arb) = &self.arbiter else { return };
        for q in group.filter(|&q| !self.pe_failed(q)) {
            arb.horizon[q].store(self.clock(q), Ordering::Relaxed);
        }
    }

    /// `pe`, running, moved its clock to `next`: that is its horizon now.
    /// One branch when no arbiter, a store with one.
    #[inline]
    fn arb_clock_moved(&self, pe: PeId, next: u64) {
        if let Some(arb) = &self.arbiter {
            arb.horizon[pe].store(next, Ordering::Relaxed);
        }
    }

    /// Mark `pe`'s program closure finished (launcher hook): permanently
    /// quiescent for NIC arbitration.
    pub(crate) fn pe_finished(&self, pe: PeId) {
        if let Some(arb) = &self.arbiter {
            arb.finished[pe].store(true, Ordering::Relaxed);
        }
        self.arb_quiesce(pe);
    }

    // ---- virtual clocks ------------------------------------------------

    /// Current virtual time of `pe`, ns.
    #[inline]
    pub fn clock(&self, pe: PeId) -> u64 {
        self.pes[pe].clock.load(Ordering::Acquire)
    }

    /// Advance `pe`'s clock by `ns` (fractional costs round half-up) and
    /// return the new time. Must only be called from the thread running `pe`.
    #[inline]
    pub fn advance(&self, pe: PeId, ns: f64) -> u64 {
        debug_assert!(ns >= 0.0, "cannot advance a clock by a negative amount");
        let prev = self.pes[pe].clock.load(Ordering::Acquire);
        let next = prev + ns.round() as u64;
        self.pes[pe].clock.store(next, Ordering::Release);
        self.poll_failure(pe, next);
        self.stream_tick(next);
        self.arb_clock_moved(pe, next);
        next
    }

    /// Set `pe`'s clock to `max(current, t)` and return the new time.
    #[inline]
    pub fn lift_clock(&self, pe: PeId, t: u64) -> u64 {
        let prev = self.pes[pe].clock.load(Ordering::Acquire);
        let next = prev.max(t);
        self.pes[pe].clock.store(next, Ordering::Release);
        self.poll_failure(pe, next);
        self.stream_tick(next);
        self.arb_clock_moved(pe, next);
        next
    }

    // ---- notification / waiting ----------------------------------------

    /// Wake anything waiting on `pe`'s memory (call after remotely writing
    /// that PE's heap).
    #[inline]
    pub fn notify_pe(&self, pe: PeId) {
        self.pes[pe].notify.notify();
    }

    /// Apply `f` — a write to `pe`'s heap that `wait_on` predicates may
    /// observe — and wake `pe`'s waiters, as one critical section.
    ///
    /// On a launched machine this additionally withdraws `pe`'s `wait_on`
    /// quiescence in the same section: the moment the write is observable,
    /// `pe` no longer counts as "provably unable to issue a NIC request",
    /// closing the wake-latency window in which an arbiter grant could order
    /// reservations by host scheduling. On a machine driven by hand this is
    /// just `f` followed by [`Self::notify_pe`] under the notify lock.
    pub fn apply_and_notify<R>(&self, pe: PeId, f: impl FnOnce() -> R) -> R {
        self.pes[pe].notify.notify_applying(|| {
            let out = f();
            if let Some(arb) = &self.arbiter {
                if arb.in_wait_on[pe].load(Ordering::Relaxed) != 0 {
                    arb.horizon[pe].store(self.clock(pe), Ordering::Relaxed);
                }
            }
            out
        })
    }

    /// Block the calling thread (which must be running `pe`) until `pred()`
    /// holds. `pred` runs under `pe`'s notify lock, so it sees all or none of
    /// an [`Self::apply_and_notify`] write. Poison-aware; periodically
    /// re-checks.
    pub fn wait_on(&self, pe: PeId, pred: impl FnMut() -> bool) {
        self.wait_on_named(pe, UNNAMED_WAIT, pred);
    }

    /// [`Self::wait_on`] for a predicate over the 8-byte word at `off` of
    /// `pe`'s own heap: a stall report names the word.
    pub fn wait_on_word(&self, pe: PeId, off: usize, pred: impl FnMut() -> bool) {
        self.wait_on_named(pe, off + 1, pred);
    }

    fn wait_on_named(&self, pe: PeId, name: usize, pred: impl FnMut() -> bool) {
        // The predicate only runs under the notify lock, so the waiter sees
        // all or none of a write published through `apply_and_notify` (value,
        // stamp, sanitizer record). Under the arbiter, quiescence is asserted
        // there right before every park and withdrawn there on exit: a
        // waiter is flagged quiescent only while no satisfying write has
        // been observed.
        let arb = self.arbiter.as_ref();
        self.pes[pe].notify.wait_until(
            &self.poison,
            pred,
            || {
                let Some(arb) = arb else { return };
                arb.in_wait_on[pe].store(name, Ordering::Relaxed);
                arb.horizon[pe].store(u64::MAX, Ordering::Relaxed);
            },
            || {
                let Some(arb) = arb else { return };
                arb.horizon[pe].store(self.clock(pe), Ordering::Relaxed);
                arb.in_wait_on[pe].store(0, Ordering::Relaxed);
            },
        );
    }

    /// Unpark every parked PE of a launched machine, so that it re-reads its
    /// predicate and the poison flag; whether any was parked. (A PE parked
    /// in a NIC turn parks again unless poisoned: only the idle point grants
    /// it.) A machine driven by hand has no parked PE.
    pub fn interrupt_all(&self) -> bool {
        self.arbiter.is_some() && (0..self.num_pes()).fold(false, |any, pe| fiber::unpark(pe) | any)
    }

    /// Why the job cannot go on, when it cannot: one line per PE that has not
    /// finished, saying what it is blocked in, and the lowest such PE.
    /// Meaningful when no PE is running — the launcher calls it from the
    /// carrier's idle point, with every PE parked. `None` on a machine driven
    /// by hand: it reads the arbiter's state. A PE with a key in the set is in
    /// a turn, one with `in_wait_on` set polls, any other whose horizon is
    /// `u64::MAX` waits in a barrier, and one that could run but does not is
    /// blocked in something of the program's own.
    pub(crate) fn stall_report(&self) -> Option<(PeId, String)> {
        let arb = self.arbiter.as_ref()?;
        let parked = arb.parked.lock();
        let min = parked.peek().map(|&Reverse(key)| key);
        let barrier_line = |name: &str, b: &ClockBarrier| {
            let (round, arrived, expected) = b.pending()?;
            Some(format!("barrier({name}) round {round}, {arrived} of {expected} arrived"))
        };
        let subsets = self.subset_barriers.lock();
        let mut lines = Vec::new();
        for pe in (0..self.num_pes()).filter(|&pe| !arb.finished[pe].load(Ordering::Relaxed)) {
            let at = self.clock(pe);
            let what = if let Some(Reverse(key)) = parked.iter().find(|key| key.0 .1 == pe) {
                let behind = match min {
                    Some(min) if min != *key => format!("behind the key of PE {}", min.1),
                    _ => match Self::arb_blocker(arb, key.0, pe) {
                        Some(q) => {
                            format!("PE {q} at {} ns could still issue earlier", self.clock(q))
                        }
                        None => "grantable".to_string(),
                    },
                };
                format!("NIC turn (start {} ns, pe {}, ctx {}): {behind}", key.0, key.1, key.2)
            } else if let name @ 1.. = arb.in_wait_on[pe].load(Ordering::Relaxed) {
                let word = match name {
                    UNNAMED_WAIT => String::new(),
                    _ => format!("(word at offset {:#x} of PE {pe})", name - 1),
                };
                format!("wait_on{word}: predicate false and no PE that could change that can run")
            } else if arb.horizon[pe].load(Ordering::Relaxed) == u64::MAX {
                let mut pending: Vec<String> = subsets
                    .iter()
                    .filter(|(group, _)| group.binary_search(&pe).is_ok())
                    .filter_map(|(group, b)| barrier_line(&format!("{group:?}"), b))
                    .collect();
                pending.sort();
                pending.extend(barrier_line("all", &self.global_barrier));
                pending.join(" / ")
            } else {
                "blocked outside the machine, on a lock or condvar of the program's own".to_string()
            };
            lines.push((pe, format!("PE {pe} at {at} ns: {what}")));
        }
        const SHOWN: usize = 32;
        let (first, blocked) = (lines.first()?.0, lines.len());
        let mut shown: Vec<String> = lines.into_iter().take(SHOWN).map(|(_, line)| line).collect();
        if blocked > SHOWN {
            shown.push(format!("… and {} more", blocked - SHOWN));
        }
        let head =
            format!("deadlock: no PE can run and none of the {blocked} unfinished can be woken");
        Some((first, format!("{head}\n  {}", shown.join("\n  "))))
    }

    // ---- barriers -------------------------------------------------------

    /// Rendezvous all PEs; afterwards every clock equals
    /// `max(arrival clocks) + extra_ns`. Every PE must pass the same
    /// `extra_ns` (the communication layer computes it from the barrier
    /// algorithm it models). Returns the new clock.
    pub fn barrier_all(&self, pe: PeId, extra_ns: f64) -> u64 {
        self.poll_failure(pe, self.clock(pe));
        if self.pe_failed(pe) {
            // A dead PE must not rendezvous: it already left the group.
            return self.clock(pe);
        }
        Stats::bump(&self.stats.barriers);
        self.arb_quiesce(pe);
        let prev = self.clock(pe);
        let release = || self.arb_release(0..self.num_pes());
        let max = self.global_barrier.arrive_with(prev, &self.poison, release);
        let t = max + extra_ns.round() as u64;
        self.pes[pe].clock.store(t, Ordering::Release);
        self.arb_clock_moved(pe, t);
        self.sanitizer.barrier_join(pe, 0..self.num_pes(), t);
        self.stream_tick(t);
        t
    }

    /// Rendezvous a subset of PEs (each member passes the same sorted
    /// `group`, which must contain `pe`). Clock rule as in `barrier_all`.
    pub fn barrier_group(&self, pe: PeId, group: &[PeId], extra_ns: f64) -> u64 {
        debug_assert!(group.windows(2).all(|w| w[0] < w[1]), "group must be sorted and unique");
        debug_assert!(group.contains(&pe), "barrier group must contain the calling PE");
        self.poll_failure(pe, self.clock(pe));
        if self.pe_failed(pe) {
            return self.clock(pe);
        }
        Stats::bump(&self.stats.barriers);
        let barrier = {
            let mut map = self.subset_barriers.lock();
            map.entry(group.to_vec())
                .or_insert_with(|| {
                    let b = ClockBarrier::new(group.len());
                    // Members already dead at creation never arrive.
                    if let Some(fs) = &self.faults {
                        for &g in group {
                            if fs.is_failed(g) {
                                b.leave();
                            }
                        }
                    }
                    Arc::new(b)
                })
                .clone()
        };
        self.arb_quiesce(pe);
        let prev = self.clock(pe);
        let release = || self.arb_release(group.iter().copied());
        let max = barrier.arrive_with(prev, &self.poison, release);
        let t = max + extra_ns.round() as u64;
        self.pes[pe].clock.store(t, Ordering::Release);
        self.arb_clock_moved(pe, t);
        self.sanitizer.barrier_join(pe, group.iter().copied(), t);
        self.stream_tick(t);
        t
    }

    // ---- compute model ---------------------------------------------------

    /// Charge `flops` floating-point operations of local compute to `pe`.
    pub fn compute_flops(&self, pe: PeId, flops: f64) -> u64 {
        self.charge_compute(pe, flops / self.cfg.compute.core_gflops)
    }

    /// Charge `n` generic local operations (loop iterations, hash probes...).
    pub fn compute_ops(&self, pe: PeId, n: u64) -> u64 {
        self.charge_compute(pe, n as f64 * self.cfg.compute.local_op_ns)
    }

    fn charge_compute(&self, pe: PeId, ns: f64) -> u64 {
        let begin = self.clock(pe);
        let end = self.advance(pe, ns);
        if self.tracer.enabled() && end > begin {
            self.tracer.record(Span::op(pe, SpanKind::Compute, begin, end, None, 0));
        }
        if self.metrics.enabled() {
            self.metrics.observe(pe, "compute_ns", None, end - begin);
        }
        end
    }
}

/// Handle given to the SPMD closure: one per PE thread.
///
/// `Pe` is `Copy`-cheap to pass around; all state lives in the [`Machine`].
#[derive(Clone, Copy)]
pub struct Pe<'m> {
    id: PeId,
    machine: &'m Machine,
}

impl<'m> Pe<'m> {
    pub(crate) fn new(id: PeId, machine: &'m Machine) -> Self {
        Pe { id, machine }
    }

    /// This PE's index, `0..n`.
    #[inline]
    pub fn id(&self) -> PeId {
        self.id
    }

    /// Total PEs in the job.
    #[inline]
    pub fn n(&self) -> usize {
        self.machine.num_pes()
    }

    /// The machine this PE runs on.
    #[inline]
    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// Node hosting this PE.
    #[inline]
    pub fn node(&self) -> usize {
        self.machine.node_of(self.id)
    }

    /// Current virtual time, ns.
    #[inline]
    pub fn now(&self) -> u64 {
        self.machine.clock(self.id)
    }

    /// Advance this PE's virtual clock by `ns`.
    #[inline]
    pub fn advance(&self, ns: f64) -> u64 {
        self.machine.advance(self.id, ns)
    }

    /// Charge local floating-point work to the clock.
    #[inline]
    pub fn compute_flops(&self, flops: f64) -> u64 {
        self.machine.compute_flops(self.id, flops)
    }

    /// Charge generic local operations to the clock.
    #[inline]
    pub fn compute_ops(&self, n: u64) -> u64 {
        self.machine.compute_ops(self.id, n)
    }

    /// Let the job's other PEs run before this one goes on: the one call for
    /// a host-side spin (a lock's backoff loop) to make between attempts.
    /// It requeues this PE behind every runnable one — `std::thread::
    /// yield_now` would give the whole carrier to the OS and the lock's
    /// holder nothing. Moves no virtual clock.
    #[inline]
    pub fn yield_now(&self) {
        parking_lot::fiber::yield_now();
    }
}

impl std::fmt::Debug for Pe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pe({}/{})", self.id, self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::generic_smp;

    #[test]
    fn nic_turn_is_a_passthrough_without_the_arbiter() {
        // A machine driven by hand has none.
        let m = Machine::new(generic_smp(2));
        assert!(m.arbiter.is_none());
        assert_eq!(m.nic_turn(0, 50, || 7), 7);
    }

    #[test]
    fn nic_arbiter_grants_tied_reservations_in_pe_order() {
        // Four PEs race for the same lane with identical virtual start
        // times on a plain launched machine: which PE gets there first must
        // not matter — slots go out strictly by PE id.
        let out = crate::launch::run(generic_smp(4), |pe| {
            let m = pe.machine();
            m.nic_turn(pe.id(), 100, || m.nic(0).reserve_tx(100, 10, 1).begin)
        });
        assert_eq!(out.results, vec![100, 110, 120, 130]);
    }

    #[test]
    fn nic_arbiter_grants_by_virtual_start_before_pe_id() {
        // PE 0 asks for the lane at t=200, PE 1 at t=100: the later virtual
        // request loses even if its thread gets there first.
        let out = crate::launch::run(generic_smp(2), |pe| {
            let m = pe.machine();
            let start = if pe.id() == 0 { 200 } else { 100 };
            m.nic_turn(pe.id(), start, || m.nic(0).reserve_tx(start, 10, 1).begin)
        });
        assert_eq!(out.results, vec![200, 100]);
    }

    /// A contended arbiter workload: tied NIC reservations, a ring handoff
    /// through `wait_on` (PE k waits for word k, then releases PE k+1), a
    /// barrier.
    fn contended_job(pe: Pe<'_>) -> u64 {
        let m = pe.machine();
        let me = pe.id();
        let word = |p: PeId| m.heap(p).atomic64(0);
        let r = m.nic_turn(me, 100, || m.nic(0).reserve_tx(100, 10, 1).end);
        m.lift_clock(me, r);
        if me != 0 {
            m.wait_on(me, || word(me).load(Ordering::Acquire) == 1);
        }
        if me + 1 < pe.n() {
            m.apply_and_notify(me + 1, || word(me + 1).store(1, Ordering::Release));
        }
        m.barrier_all(me, 5.0)
    }

    /// The job shape of `contended_job`, three rounds arranged so that each
    /// kind of arbiter wake is some minimum's last one. Round 1: the last PE
    /// sleeps in `wait_on` below the others' tied start (quiescence). Round 2
    /// starts below the clock the barrier before it releases at (a barrier's
    /// crossing). Round 3 starts above every clock: tied turns (parking, then
    /// un-parking), while the last PE takes none and just lifts its clock
    /// past the start (crossing).
    fn three_round_job(pe: Pe<'_>) -> u64 {
        let m = pe.machine();
        let (me, n) = (pe.id(), pe.n());
        let word = |p: PeId| m.heap(p).atomic64(0);
        let await_ring = |round| m.wait_on(me, || word(me).load(Ordering::Acquire) == round);
        for (round, start) in [(1, 1000), (2, 2000), (3, 5000)] {
            let sleeps_first = round == 1 && me == n - 1;
            if sleeps_first {
                await_ring(round);
            }
            if round == 3 && me == n - 1 {
                m.lift_clock(me, start + 1);
            } else {
                let r = m.nic_turn(me, start, || m.nic(0).reserve_tx(start, 10, 1).end);
                m.lift_clock(me, r);
            }
            if me != 0 && !sleeps_first {
                await_ring(round);
            }
            if me + 1 < n {
                m.apply_and_notify(me + 1, || word(me + 1).store(round, Ordering::Release));
            }
            m.barrier_all(me, 1500.0);
        }
        m.clock(me)
    }

    #[test]
    fn arbiter_wakes_are_never_left_to_the_backstop() {
        // There is no backstop: a wake a parked PE of `three_round_job` is
        // owed and never sent would stall the job, which is an error. 50
        // runs return `Ok` with the same outcome.
        let job = || {
            let out = crate::launch::run_with_result(generic_smp(8), three_round_job)
                .expect("no wake is ever missing");
            (out.results, out.clocks, out.nics)
        };
        let reference = job();
        assert_eq!(reference.0[0], 5000 + 7 * 10 + 1500, "seven tied turns, in series");
        for run in 0..50 {
            assert_eq!(job(), reference, "run {run}");
        }
    }

    // ---- one protocol, two carriers --------------------------------------

    use crate::launch::{run_on, Engine, NicSnapshot, SimOutcome};

    /// Everything of an outcome that describes the simulated machine; what
    /// is left out (`engine`, `knobs`' sources) describes the host.
    fn modelled<R: Clone + PartialEq + std::fmt::Debug>(
        out: &SimOutcome<R>,
    ) -> impl PartialEq + std::fmt::Debug {
        (
            out.results.clone(),
            out.clocks.clone(),
            out.stats,
            out.nics.clone(),
            out.metrics.clone(),
            out.fault_events.clone(),
            out.failed_pes.clone(),
        )
    }

    /// Run `job` on the baton carrier and on fibers and require the two
    /// outcomes to be equal, each run returning `Ok` (a wake owed and never
    /// sent is a stall); returns the fiber run's.
    fn same_on_both_engines<R: Clone + PartialEq + std::fmt::Debug + Send>(
        cfg: MachineConfig,
        job: impl Fn(Pe<'_>) -> R + Send + Sync + Copy,
    ) -> SimOutcome<R> {
        let n = cfg.total_pes();
        let baton = run_on(Engine::Baton, cfg.clone(), job).expect("baton carrier");
        assert_eq!(baton.engine.os_threads, n);
        let fibers = run_on(Engine::Fibers, cfg, job).expect("fiber carrier");
        assert_eq!(fibers.engine.os_threads, if parking_lot::fiber::SUPPORTED { 1 } else { n });
        assert_eq!(fibers.engine.fiber_switches, baton.engine.fiber_switches, "one schedule");
        assert_eq!(modelled(&fibers), modelled(&baton));
        fibers
    }

    #[test]
    fn engines_agree_on_the_contended_job() {
        let cfg = generic_smp(4).with_metrics(true);
        same_on_both_engines(cfg, contended_job);
    }

    #[test]
    fn engines_agree_on_the_three_round_job_and_fibers_need_no_expiry() {
        let cfg = generic_smp(8).with_metrics(true);
        same_on_both_engines(cfg, three_round_job);
    }

    /// A token goes round the ring three times; each holder takes a NIC turn
    /// and hands on through `wait_on`. A PE that finds its predecessor dead
    /// takes the token over at the plan's deadline plus a detection timeout —
    /// both pure functions of the plan, so the hand-over is the same on every
    /// host schedule.
    fn failing_ring_job(pe: Pe<'_>) -> (u64, u64) {
        const DETECT_NS: u64 = 10_000;
        let m = pe.machine();
        let (me, n) = (pe.id(), pe.n());
        let prev = (me + n - 1) % n;
        let word = |p: PeId| m.heap(p).atomic64(0);
        let mut held = 0;
        for lap in 1..=3u64 {
            if !(lap == 1 && me == 0) {
                let token = if me == 0 { lap - 1 } else { lap };
                m.wait_on(me, || word(me).load(Ordering::Acquire) >= token || m.pe_failed(prev));
                if word(me).load(Ordering::Acquire) >= token {
                    m.lift_clock(me, m.heap(me).max_stamp(0, 8));
                } else {
                    m.lift_clock(me, m.pe_deadline(prev).expect("prev died on plan") + DETECT_NS);
                }
            }
            if m.pe_failed(me) {
                break;
            }
            held += 1;
            let start = m.clock(me);
            let end = m.nic_turn(me, start, || m.nic(0).reserve_tx(start, 400, 64).end);
            m.lift_clock(me, end);
            m.advance(me, 250.0);
            if m.pe_failed(me) {
                break; // died holding the token: it is never handed on
            }
            let (next, at) = ((me + 1) % n, m.clock(me));
            m.apply_and_notify(next, || {
                word(next).store(lap, Ordering::Release);
                m.heap(next).stamp_range(0, 8, at);
            });
        }
        (held, m.barrier_all(me, 100.0))
    }

    #[test]
    fn engines_agree_on_a_handoff_ring_that_loses_a_pe() {
        use crate::fault::FaultPlan;
        // PE 2 dies in its second lap, holding the token.
        let plan = FaultPlan::new(3).with_pe_failure(2, 4_000);
        let cfg = generic_smp(4).with_metrics(true).with_faults(plan);
        let out = same_on_both_engines(cfg, failing_ring_job);
        assert_eq!(out.failed_pes, vec![2]);
        assert_eq!(out.fault_events.len(), 1);
        let held: Vec<u64> = out.results.iter().map(|r| r.0).collect();
        assert_eq!(held, vec![3, 3, 2, 3], "the dead PE held the token twice, the others thrice");
    }

    #[test]
    fn a_panic_mid_turn_is_the_same_error_on_both_engines() {
        let job = |pe: Pe<'_>| {
            let m = pe.machine();
            if pe.id() == 1 {
                m.nic_turn(1, 50, || panic!("boom mid-turn"));
            }
            m.barrier_all(pe.id(), 0.0)
        };
        for engine in [Engine::Baton, Engine::Fibers] {
            let err = run_on(engine, generic_smp(4), job).expect_err("PE 1 panics");
            assert_eq!((err.pe, err.message.as_str()), (1, "boom mid-turn"), "{engine:?}");
        }
    }

    // ---- random programs against a sequential reference -------------------

    /// One step of a PE's program in [`Spmd`].
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Advance(u64),
        /// A NIC turn `gap` ns from now: one reservation of `occ` ns on the
        /// TX or RX lane of NIC 0; `lift` takes the clock to its end.
        Turn {
            gap: u64,
            occ: u64,
            rx: bool,
            lift: bool,
        },
        /// Wait for the chain's token of `round` (stamped word 0 of the own
        /// heap), and take the clock to its stamp.
        Await(u64),
        /// Hand the token of `round` to the next PE, stamped with the clock.
        Signal(u64),
        Barrier(u64),
    }

    /// A deadlock-free SPMD program drawn from a seed: phases of per-PE step
    /// sequences, each closed by a barrier; in some phases a token goes down
    /// the PEs in order (`wait_on` / `apply_and_notify`). Gaps are drawn from
    /// a few values, so starts tie on purpose — after every barrier at least.
    struct Spmd(Vec<Vec<Step>>);

    impl Spmd {
        fn draw(n: usize, seed: u64) -> Spmd {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut below = move |bound: u64| rng.gen_range(0..bound);
            let mut pes = vec![Vec::new(); n];
            for round in 1..=2 + below(4) {
                let (chain, extra) = (below(2) == 0, [0, 7, 1500][below(3) as usize]);
                for (pe, steps) in pes.iter_mut().enumerate() {
                    let mut local: Vec<Step> = (0..below(6))
                        .map(|_| match below(4) {
                            0 => Step::Advance([1, 10, 250][below(3) as usize]),
                            _ => Step::Turn {
                                gap: [0, 0, 5, 10, 100][below(5) as usize],
                                occ: 1 + below(40),
                                rx: below(3) == 0,
                                lift: below(4) != 0,
                            },
                        })
                        .collect();
                    if chain {
                        let at = below(local.len() as u64 + 1) as usize;
                        let after = at + below((local.len() - at) as u64 + 1) as usize;
                        if pe + 1 < n {
                            local.insert(after, Step::Signal(round));
                        }
                        if pe > 0 {
                            local.insert(at, Step::Await(round));
                        }
                    }
                    steps.extend(local);
                    steps.push(Step::Barrier(extra));
                }
            }
            Spmd(pes)
        }

        /// The program as a PE runs it: every reservation it was granted.
        fn run(&self, pe: Pe<'_>) -> Vec<(u64, u64)> {
            let (m, me) = (pe.machine(), pe.id());
            let word = |p: PeId| m.heap(p).atomic64(0);
            let mut slots = Vec::new();
            for &step in &self.0[me] {
                match step {
                    Step::Advance(ns) => drop(m.advance(me, ns as f64)),
                    Step::Turn { gap, occ, rx, lift } => {
                        let start = m.clock(me) + gap;
                        let lane = if rx { crate::nic::Lane::Rx } else { crate::nic::Lane::Tx };
                        let r = m.nic_turn(me, start, || m.nic(0).reserve(lane, start, occ, 8));
                        slots.push((r.begin, r.end));
                        if lift {
                            m.lift_clock(me, r.end);
                        }
                    }
                    Step::Await(round) => {
                        m.wait_on(me, || word(me).load(Ordering::Acquire) >= round);
                        m.lift_clock(me, m.heap(me).max_stamp(0, 8));
                    }
                    Step::Signal(round) => {
                        let at = m.clock(me);
                        m.apply_and_notify(me + 1, || {
                            word(me + 1).store(round, Ordering::Release);
                            m.heap(me + 1).stamp_range(0, 8, at);
                        });
                    }
                    Step::Barrier(extra) => drop(m.barrier_all(me, extra as f64)),
                }
            }
            slots
        }

        /// What the arbiter must make of the program, one PE at a time: run
        /// everybody as far as they get without a turn, then grant the least
        /// `(start, pe)` — or, with none asked for, release the barrier.
        /// Returns every PE's reservations and final clock.
        fn reference(&self) -> (Vec<Vec<(u64, u64)>>, Vec<u64>) {
            let n = self.0.len();
            let (mut pc, mut clock, mut slots) = (vec![0; n], vec![0u64; n], vec![Vec::new(); n]);
            let (mut token, mut frontier) = (vec![(0u64, 0u64); n], [0u64; 2]);
            loop {
                // Ascending: a token only ever goes to the next PE up.
                for pe in 0..n {
                    while let Some(&step) = self.0[pe].get(pc[pe]) {
                        match step {
                            Step::Advance(ns) => clock[pe] += ns,
                            Step::Await(round) if token[pe].0 >= round => {
                                clock[pe] = clock[pe].max(token[pe].1)
                            }
                            Step::Signal(round) => token[pe + 1] = (round, clock[pe]),
                            _ => break,
                        }
                        pc[pe] += 1;
                    }
                }
                let asks = (0..n).filter_map(|pe| match self.0[pe].get(pc[pe]) {
                    Some(&Step::Turn { gap, occ, rx, lift }) => {
                        Some((clock[pe] + gap, pe, occ, rx, lift))
                    }
                    _ => None,
                });
                if let Some((start, pe, occ, rx, lift)) = asks.min() {
                    let begin = frontier[rx as usize].max(start);
                    frontier[rx as usize] = begin + occ;
                    slots[pe].push((begin, begin + occ));
                    clock[pe] = if lift { clock[pe].max(begin + occ) } else { clock[pe] };
                    pc[pe] += 1;
                } else if let Some(&Step::Barrier(extra)) = self.0[0].get(pc[0]) {
                    let release = clock.iter().max().unwrap() + extra;
                    clock.fill(release);
                    pc.iter_mut().for_each(|pc| *pc += 1);
                } else {
                    return (slots, clock);
                }
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        // The larger count is CI's `--release` run of this crate.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 256 }))]

        #[test]
        fn engines_agree_with_a_sequential_reference_on_random_programs(
            n in 2usize..9,
            seed in any::<u64>(),
        ) {
            let program = Spmd::draw(n, seed);
            let cfg = generic_smp(n).with_heap_bytes(1 << 12);
            let fibers = same_on_both_engines(cfg, |pe| program.run(pe));
            let (slots, clocks) = program.reference();
            prop_assert_eq!(&fibers.results, &slots);
            prop_assert_eq!(&fibers.clocks, &clocks);
            let turns = slots.iter().map(Vec::len).sum::<usize>() as u64;
            let busy_ns = slots.iter().flatten().map(|(begin, end)| end - begin).sum();
            let want = NicSnapshot { messages: turns, bytes: turns * 8, busy_ns };
            prop_assert_eq!(&fibers.nics, &vec![want]);
        }
    }

    #[test]
    fn an_uncontested_turn_never_parks_and_a_contested_one_does() {
        let parked_turns =
            |m: &Machine| m.arbiter.as_ref().unwrap().parked_turns.load(Ordering::Relaxed);
        let cfg = generic_smp(2).with_heap_bytes(1 << 12);
        // One active PE: PE 1 sits in the second barrier through all of them.
        let out = run_on(Engine::Fibers, cfg.clone(), |pe| {
            let (m, me) = (pe.machine(), pe.id());
            m.barrier_all(me, 0.0);
            for _ in 0..if me == 0 { 10_000 } else { 0 } {
                let start = m.clock(0);
                let slot = m.nic_turn(0, start, || m.nic(0).reserve_tx(start, 10, 8));
                m.lift_clock(0, slot.end);
            }
            m.barrier_all(me, 0.0);
            parked_turns(m)
        });
        let out = out.expect("one active PE");
        assert_eq!(out.nics[0].messages, 10_000);
        assert_eq!(out.results, vec![0, 0], "an uncontested turn took the parking lot");
        // Two PEs ask for the same instant: the tie goes through the set.
        let out = run_on(Engine::Fibers, cfg, |pe| {
            let (m, me) = (pe.machine(), pe.id());
            m.barrier_all(me, 0.0);
            let slot = m.nic_turn(me, 100, || m.nic(0).reserve_tx(100, 10, 8));
            m.barrier_all(me, 0.0);
            (slot.begin, parked_turns(m))
        });
        let out = out.expect("tied starts");
        assert_eq!((out.results[0].0, out.results[1].0), (100, 110));
        assert!(out.results[0].1 >= 1, "a tie was granted without parking");
    }

    #[test]
    fn node_layout_is_blockwise() {
        let m = Machine::new(crate::platforms::stampede(4, 16));
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(15), 0);
        assert_eq!(m.node_of(16), 1);
        assert_eq!(m.node_of(63), 3);
        assert!(m.same_node(0, 15));
        assert!(!m.same_node(15, 16));
    }

    #[test]
    fn clock_advance_and_lift() {
        let m = Machine::new(generic_smp(2));
        assert_eq!(m.clock(0), 0);
        assert_eq!(m.advance(0, 10.4), 10);
        assert_eq!(m.advance(0, 10.6), 21);
        assert_eq!(m.lift_clock(0, 5), 21, "lift below current is a no-op");
        assert_eq!(m.lift_clock(0, 100), 100);
        assert_eq!(m.clock(1), 0, "other PEs unaffected");
    }

    #[test]
    fn compute_charges_by_gflops() {
        let m = Machine::new(generic_smp(1)); // 2.5 GF/s core
        m.compute_flops(0, 2500.0);
        assert_eq!(m.clock(0), 1000);
    }

    #[test]
    fn fault_hooks_are_inert_without_a_plan() {
        // Force the no-plan state: a PGAS_FAULT_PLAN env default (the CI
        // test-faulted job) would otherwise reach this machine.
        crate::with_forced_plan(crate::fault::FaultPlan::none(), || {
            let m = Machine::new(generic_smp(2));
            assert!(!m.faults_active());
            assert!(m.fault_plan().is_none());
            assert!(m.fault_draw(0).is_none());
            assert_eq!(m.fault_backoff_ns(0, 1), 0);
            assert_eq!(m.degradation_factor(0, 12345), 1.0);
            assert!(!m.pe_failed(0));
            assert!(m.failed_pes().is_empty());
            assert!(!m.any_pe_failed());
        });
    }

    #[test]
    fn zero_plan_builds_no_fault_state() {
        use crate::fault::FaultPlan;
        let m = Machine::new(generic_smp(2).with_faults(FaultPlan::none()));
        assert!(!m.faults_active());
    }

    #[test]
    fn scheduled_failure_trips_when_clock_crosses_deadline() {
        use crate::fault::FaultPlan;
        let m = Machine::new(generic_smp(2).with_faults(FaultPlan::new(1).with_pe_failure(1, 100)));
        assert!(m.faults_active());
        m.advance(1, 99.0);
        assert!(!m.pe_failed(1), "deadline not reached yet");
        m.advance(1, 1.0);
        assert!(m.pe_failed(1));
        assert_eq!(m.failed_pes(), vec![1]);
        assert_eq!(m.stats().snapshot().pe_failures, 1);
        let events = m.stats().drain_faults();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "pe-failure");
        assert_eq!(events[0].at_ns, 100);
        // The survivor's barrier completes alone; the dead PE's is a no-op.
        assert_eq!(m.barrier_all(0, 5.0), m.clock(0));
        let dead_clock = m.clock(1);
        assert_eq!(m.barrier_all(1, 5.0), dead_clock, "dead PE does not rendezvous");
    }

    #[test]
    fn stream_samples_at_cadence_boundaries_without_moving_clocks() {
        use crate::stream::StreamConfig;
        let sc = StreamConfig::new(100, 16);
        let ring = sc.ring();
        // The last assertions need an untraced, metric-less machine whatever
        // PGAS_TRACE / PGAS_METRICS say.
        let m = crate::with_forced_tracing(false, || {
            crate::with_forced_metrics(false, || Machine::new(generic_smp(2).with_stream(sc)))
        });
        assert!(m.stream_active());
        // 7 × 30 ns: the 100 ns boundary is crossed at t=120 (sample, next
        // due tick 200) and the 200 ns boundary at t=210 (second sample).
        for _ in 0..7 {
            m.advance(0, 30.0);
        }
        assert_eq!(m.clock(0), 210, "sampling moved no clock");
        assert_eq!(m.clock(1), 0);
        let samples = ring.drain();
        assert_eq!(samples.len(), 2, "one sample per crossed cadence boundary");
        assert_eq!(samples[0].seq, 0);
        assert_eq!(samples[0].t_ns, 120);
        assert_eq!(samples[0].clocks, vec![120, 0]);
        assert_eq!(samples[1].t_ns, 210);
        // Untraced, metric-less machine: samples carry clocks + NICs only.
        assert!(samples[0].counters.is_empty());
        assert!(samples[0].inflight.is_empty());
        assert_eq!(samples[0].nics.len(), 1);
    }

    #[test]
    fn concurrent_stream_ticks_land_in_the_ring_in_order() {
        use crate::stream::{StreamConfig, StreamSample};
        use std::sync::mpsc;
        // Force the interleaving that used to reorder the ring: the claimer
        // of the first boundary stalls inside its push consumer — sample
        // numbered, not yet in the ring — until a later tick on another
        // thread has returned, or (now that a claim holds the ring's lock
        // through the push, so none can) until it gives up waiting.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let done_rx = std::sync::Mutex::new(done_rx);
        let sc = StreamConfig::new(100, 16).with_consumer(Arc::new(move |s: &StreamSample| {
            if s.t_ns == 100 {
                let patience = std::time::Duration::from_millis(100);
                let _ = done_rx.lock().unwrap().recv_timeout(patience);
            }
        }));
        let ring = sc.ring();
        let m = &*Machine::new(generic_smp(4).with_stream(sc));
        let next_tick = &m.stream.as_ref().unwrap().next_tick;
        std::thread::scope(|scope| {
            scope.spawn(|| m.stream_tick(100));
            for t in [200, 300, 400] {
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    // Start once the first claimer is past its claim.
                    while next_tick.load(Ordering::Relaxed) == 100 {
                        std::thread::yield_now();
                    }
                    m.stream_tick(t);
                    let _ = done_tx.send(());
                });
            }
        });
        let samples = ring.drain();
        assert!(samples.len() >= 2, "the stalled claim and at least one later tick sampled");
        assert_eq!(samples[0].t_ns, 100);
        assert!(samples.windows(2).all(|w| w[0].seq < w[1].seq), "ring is in seq order");
        assert!(samples.windows(2).all(|w| w[0].t_ns < w[1].t_ns), "ring is in t_ns order");
    }

    #[test]
    fn heaps_are_independent() {
        let m = Machine::new(generic_smp(2));
        m.heap(0).write_bytes(0, b"abcdefgh");
        let mut out = [0u8; 8];
        m.heap(1).read_bytes(0, &mut out);
        assert_eq!(out, [0u8; 8]);
    }
}
