//! The layer ladder: one fixed put/get/atomic mix issued by PE 0 of a
//! two-node machine to PE 1, through the public API of one layer at a time.
//!
//! A round is {8 B put, 8 B get, 8 B fetch-add}, plus a 4 KiB put on the
//! rounds the seed picks (one in eight on average). The three lower rungs
//! end every round by completing their puts — the raw layers leave that to
//! the caller, and an unbounded set of outstanding puts is not a program
//! anyone runs; the `caf` rung completes per statement by itself, which is
//! the layer tax the paper measures. Only PE 0 is ever active, so the
//! arbiter, parking and the scheduler have nothing to decide: what a rung
//! costs over the rung below is that layer's per-call software path.

use crate::measure::SimCounters;
use caf::{run_caf, Backend, CafConfig};
use openshmem::{AmHandler, AmTarget, Shmem, ShmemConfig};
use pgas_conduit::ctx::AmoOp;
use pgas_conduit::{ConduitProfile, Ctx, CtxOptions, OpDesc, OpKind};
use pgas_machine::machine::{Machine, Pe, PeId};
use pgas_machine::{MachineConfig, Platform};
use std::rc::Rc;
use std::time::Instant;

/// 8-byte words in the array the small puts and gets address.
pub const SLOTS: usize = 512;
/// 8-byte words of the large put (4 KiB).
pub const BLOCK_WORDS: usize = 512;

const PLATFORM: Platform = Platform::Titan;
const ISSUER: PeId = 0;
const TARGET: PeId = 1;

// Raw heap layout of the two rungs below the symmetric allocator.
const A_OFF: usize = 0;
const B_OFF: usize = A_OFF + SLOTS * 8;
const CTR_OFF: usize = B_OFF + BLOCK_WORDS * 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Machine,
    Conduit,
    Openshmem,
    Caf,
}

impl Rung {
    pub const ALL: [Rung; 4] = [Rung::Machine, Rung::Conduit, Rung::Openshmem, Rung::Caf];

    /// The layer (crate) whose public API this rung calls.
    pub fn layer(self) -> &'static str {
        match self {
            Rung::Machine => "machine",
            Rung::Conduit => "conduit",
            Rung::Openshmem => "openshmem",
            Rung::Caf => "caf",
        }
    }

    /// Span name of this rung's passes in a traced run.
    pub fn span_name(self) -> &'static str {
        match self {
            Rung::Machine => "ladder.machine",
            Rung::Conduit => "ladder.conduit",
            Rung::Openshmem => "ladder.openshmem",
            Rung::Caf => "ladder.caf",
        }
    }

    /// Span name of one call of `kind` at this rung: the function called.
    pub fn call_name(self, kind: Kind) -> &'static str {
        match (self, kind) {
            (Rung::Machine, Kind::Put8) => "machine.put8",
            (Rung::Machine, Kind::Get8) => "machine.get8",
            (Rung::Machine, Kind::Amo8) => "machine.fetch_add",
            (Rung::Machine, Kind::Put4k) => "machine.put4k",
            (Rung::Machine, Kind::Complete) => "machine.lift_clock",
            (Rung::Conduit, Kind::Put8) => "conduit.submit(Put 8B)",
            (Rung::Conduit, Kind::Get8) => "conduit.submit(Get 8B)",
            (Rung::Conduit, Kind::Amo8) => "conduit.submit(Amo FetchAdd)",
            (Rung::Conduit, Kind::Put4k) => "conduit.submit(Put 4KiB)",
            (Rung::Conduit, Kind::Complete) => "conduit.quiet",
            (Rung::Openshmem, Kind::Put8) => "openshmem.put(8B)",
            (Rung::Openshmem, Kind::Get8) => "openshmem.get(8B)",
            (Rung::Openshmem, Kind::Amo8) => "openshmem.fadd",
            (Rung::Openshmem, Kind::Put4k) => "openshmem.put(4KiB)",
            (Rung::Openshmem, Kind::Complete) => "openshmem.quiet",
            (Rung::Caf, Kind::Put8) => "caf.put_elem",
            (Rung::Caf, Kind::Get8) => "caf.get_elem",
            (Rung::Caf, Kind::Amo8) => "caf.atomic_fetch_add",
            (Rung::Caf, Kind::Put4k) => "caf.put_to(4KiB)",
            (Rung::Caf, Kind::Complete) => unreachable!("caf completes per statement"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put8,
    Get8,
    Amo8,
    Put4k,
    /// The round-end completion of the three lower rungs. Not an op of the
    /// mix: its time counts in a rung's total, not in any per-kind number.
    Complete,
}

impl Kind {
    /// The four operation kinds of the mix, with their metric-name stems.
    pub const OPS: [(Kind, &'static str); 4] =
        [(Kind::Put8, "put8"), (Kind::Get8, "get8"), (Kind::Amo8, "amo8"), (Kind::Put4k, "put4k")];
}

/// One timed call of a traced rung, in ns since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct CallSample {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The op sequence: a pure function of `(seed, rounds)`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub rounds: usize,
}

struct Round {
    put_slot: usize,
    value: u64,
    get_slot: usize,
    addend: u64,
    /// `Some(stamp)` on rounds that carry the 4 KiB put.
    block_stamp: Option<u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Plan {
    fn iter(&self) -> impl Iterator<Item = Round> {
        let mut state = self.seed;
        (0..self.rounds as u64).map(move |i| {
            let r = splitmix64(&mut state);
            let put_slot = (r % SLOTS as u64) as usize;
            // Never the slot just written: a get over a put still in flight
            // is an ordering hazard below the caf rung, not part of the mix.
            let get_slot = (put_slot + 1 + ((r >> 16) % (SLOTS as u64 - 1)) as usize) % SLOTS;
            Round {
                put_slot,
                value: r | 1,
                get_slot,
                addend: 1 + ((r >> 32) & 0xff),
                block_stamp: (r >> 44).is_multiple_of(8).then_some(i + 1),
            }
        })
    }

    /// Calls of the mix this plan issues (completions not counted).
    pub fn ops(&self) -> u64 {
        3 * self.rounds as u64 + self.iter().filter(|r| r.block_stamp.is_some()).count() as u64
    }

    /// Closed form of the target's memory after the run.
    pub fn expected(&self) -> TargetState {
        let mut t = TargetState { a: vec![0; SLOTS], b: vec![0; BLOCK_WORDS], counter: 0 };
        for r in self.iter() {
            t.a[r.put_slot] = r.value;
            t.counter = t.counter.wrapping_add(r.addend);
            if let Some(stamp) = r.block_stamp {
                t.b = block(stamp);
            }
        }
        t
    }
}

/// Payload of the 4 KiB put stamped `stamp`.
fn block(stamp: u64) -> Vec<u64> {
    let mut b: Vec<u64> = (0..BLOCK_WORDS as u64).collect();
    b[0] = stamp;
    b
}

/// The same payload as the bytes the two raw rungs put.
fn block_bytes() -> Vec<u8> {
    block(0).iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// What PE 1 holds when the run is over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetState {
    pub a: Vec<u64>,
    pub b: Vec<u64>,
    pub counter: u64,
}

/// One rung's calls. Every implementation issues the same operations with
/// the same arguments; only the API they go through differs.
trait RungOps {
    fn put8(&mut self, slot: usize, value: u64);
    fn get8(&mut self, slot: usize) -> u64;
    fn fetch_add(&mut self, addend: u64) -> u64;
    fn put4k(&mut self, stamp: u64);
    /// Whether a round ends with [`Self::complete`]: false where the layer
    /// completes per statement by itself.
    const COMPLETES_ROUNDS: bool = true;
    /// Complete all outstanding puts.
    fn complete(&mut self);
}

/// Issue the plan through `ops`, checking every fetched value against a
/// local mirror of the target. Returns the number of failed checks.
fn drive<O: RungOps, const TRACED: bool>(
    ops: &mut O,
    plan: &Plan,
    epoch: Instant,
    samples: &mut Vec<CallSample>,
) -> u64 {
    let mut mirror = vec![0u64; SLOTS];
    let mut sum = 0u64;
    let mut failed = 0u64;
    macro_rules! call {
        ($kind:expr, $e:expr) => {{
            if TRACED {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                let out = $e;
                let end_ns = epoch.elapsed().as_nanos() as u64;
                samples.push(CallSample { kind: $kind, start_ns, end_ns });
                out
            } else {
                $e
            }
        }};
    }
    for r in plan.iter() {
        call!(Kind::Put8, ops.put8(r.put_slot, r.value));
        mirror[r.put_slot] = r.value;
        let got = call!(Kind::Get8, ops.get8(r.get_slot));
        failed += u64::from(got != mirror[r.get_slot]);
        let old = call!(Kind::Amo8, ops.fetch_add(r.addend));
        failed += u64::from(old != sum);
        sum = sum.wrapping_add(r.addend);
        if let Some(stamp) = r.block_stamp {
            call!(Kind::Put4k, ops.put4k(stamp));
        }
        if O::COMPLETES_ROUNDS {
            call!(Kind::Complete, ops.complete());
        }
    }
    failed
}

// ---- rung 1: the machine ----------------------------------------------------

/// A put, get and fetch-add written directly against `pgas-machine`: the
/// NIC turn, the lane reservations, the heap access with its stamps, and
/// the clock lift each one decomposes into — wire costs only, none of a
/// conduit's software overheads, hazard tracking or completion state.
struct MachineOps<'m> {
    m: &'m Machine,
    latency: u64,
    amo_ns: u64,
    /// Latest remote completion among the puts issued since `complete`.
    outstanding: u64,
    block: Vec<u8>,
}

impl<'m> MachineOps<'m> {
    fn new(m: &'m Machine) -> Self {
        let wire = &m.config().wire;
        MachineOps {
            m,
            latency: wire.inter.latency_ns.round() as u64,
            amo_ns: wire.amo_ns.round() as u64,
            outstanding: 0,
            block: block_bytes(),
        }
    }

    fn occupancy(&self, bytes: usize) -> u64 {
        let wire = &self.m.config().wire;
        (wire.nic_msg_overhead_ns + bytes as f64 / wire.inter.bytes_per_ns).round() as u64
    }

    fn put(&mut self, off: usize, src: &[u8]) {
        let m = self.m;
        let (start, occ, lat) = (m.clock(ISSUER), self.occupancy(src.len()), self.latency);
        let (tx, rx) = m.nic_turn(ISSUER, start, || {
            let tx = m.nic(m.node_of(ISSUER)).reserve_tx(start, occ, src.len());
            let rx = m.nic(m.node_of(TARGET)).reserve_rx(tx.begin + lat, occ, src.len());
            (tx, rx)
        });
        m.apply_and_notify(TARGET, || {
            m.heap(TARGET).write_bytes(off, src);
            m.heap(TARGET).stamp_range(off, src.len(), rx.end);
        });
        m.lift_clock(ISSUER, tx.end);
        self.outstanding = self.outstanding.max(rx.end);
    }
}

impl RungOps for MachineOps<'_> {
    fn put8(&mut self, slot: usize, value: u64) {
        self.put(A_OFF + slot * 8, &value.to_le_bytes());
    }

    fn get8(&mut self, slot: usize) -> u64 {
        let m = self.m;
        let off = A_OFF + slot * 8;
        let (start, occ, lat) = (m.clock(ISSUER), self.occupancy(8), self.latency);
        let recv = m.nic_turn(ISSUER, start, || {
            let req = m.nic(m.node_of(ISSUER)).reserve_tx(start, occ, 8);
            let data = m.nic(m.node_of(TARGET)).reserve_tx(req.end + lat, occ, 8);
            m.nic(m.node_of(ISSUER)).reserve_rx(data.begin + lat, occ, 8)
        });
        let mut out = [0u8; 8];
        m.heap(TARGET).read_bytes(off, &mut out);
        let stamp = m.heap(TARGET).max_stamp(off, 8);
        m.lift_clock(ISSUER, recv.end.max(stamp));
        u64::from_le_bytes(out)
    }

    fn fetch_add(&mut self, addend: u64) -> u64 {
        let m = self.m;
        let (start, occ, lat) = (m.clock(ISSUER), self.occupancy(8), self.latency);
        let rx = m.nic_turn(ISSUER, start, || {
            let tx = m.nic(m.node_of(ISSUER)).reserve_tx(start, occ, 8);
            m.nic(m.node_of(TARGET)).reserve_rx(tx.begin + lat, occ, 8)
        });
        let executed = rx.end + self.amo_ns;
        let (old, prior) = m.nic_turn(ISSUER, executed, || {
            m.apply_and_notify(TARGET, || {
                let prior = m.heap(TARGET).max_stamp(CTR_OFF, 8);
                let old = m
                    .heap(TARGET)
                    .atomic64(CTR_OFF)
                    .fetch_add(addend, std::sync::atomic::Ordering::AcqRel);
                m.heap(TARGET).stamp_range(CTR_OFF, 8, executed);
                (old, prior)
            })
        });
        m.lift_clock(ISSUER, (executed + lat + occ).max(prior));
        old
    }

    fn put4k(&mut self, stamp: u64) {
        self.block[..8].copy_from_slice(&stamp.to_le_bytes());
        let block = std::mem::take(&mut self.block);
        self.put(B_OFF, &block);
        self.block = block;
    }

    fn complete(&mut self) {
        self.m.lift_clock(ISSUER, std::mem::take(&mut self.outstanding));
    }
}

// ---- rung 2: the conduit ------------------------------------------------------

/// `Ctx::submit(OpDesc)` only: the named per-op shims are slated for
/// deletion (ROADMAP item 4) and the benchmark must not pin them.
struct ConduitOps<'c, 'm> {
    ctx: &'c Ctx<'m>,
    block: Vec<u8>,
}

impl RungOps for ConduitOps<'_, '_> {
    fn put8(&mut self, slot: usize, value: u64) {
        let src = value.to_le_bytes();
        let op = OpDesc::new(TARGET, OpKind::Put { dst_off: A_OFF + slot * 8, src: &src });
        self.ctx.submit(op).expect("ladder put");
    }

    fn get8(&mut self, slot: usize) -> u64 {
        let mut out = [0u8; 8];
        let op = OpDesc::new(TARGET, OpKind::Get { src_off: A_OFF + slot * 8, out: &mut out });
        self.ctx.submit(op).expect("ladder get");
        u64::from_le_bytes(out)
    }

    fn fetch_add(&mut self, addend: u64) -> u64 {
        let op = OpDesc::new(TARGET, OpKind::Amo { off: CTR_OFF, op: AmoOp::FetchAdd(addend) });
        self.ctx.submit(op).expect("ladder fetch-add").value
    }

    fn put4k(&mut self, stamp: u64) {
        self.block[..8].copy_from_slice(&stamp.to_le_bytes());
        let op = OpDesc::new(TARGET, OpKind::Put { dst_off: B_OFF, src: &self.block });
        self.ctx.submit(op).expect("ladder block put");
    }

    fn complete(&mut self) {
        self.ctx.quiet();
    }
}

// ---- rung 3: openshmem ----------------------------------------------------------

struct ShmemOps<'s, 'm> {
    sh: &'s Shmem<'m>,
    a: openshmem::SymPtr<u64>,
    b: openshmem::SymPtr<u64>,
    ctr: openshmem::SymPtr<u64>,
    block: Vec<u64>,
}

impl RungOps for ShmemOps<'_, '_> {
    fn put8(&mut self, slot: usize, value: u64) {
        self.sh.put(self.a.at(slot), &[value], TARGET);
    }

    fn get8(&mut self, slot: usize) -> u64 {
        let mut out = [0u64];
        self.sh.get(self.a.at(slot), &mut out, TARGET);
        out[0]
    }

    fn fetch_add(&mut self, addend: u64) -> u64 {
        self.sh.fadd(self.ctr, addend, TARGET)
    }

    fn put4k(&mut self, stamp: u64) {
        self.block[0] = stamp;
        self.sh.put(self.b, &self.block, TARGET);
    }

    fn complete(&mut self) {
        self.sh.quiet();
    }
}

// ---- rung 4: caf ------------------------------------------------------------------

struct CafOps<'i, 'm> {
    img: &'i caf::Image<'m>,
    a: &'i caf::Coarray<u64>,
    b: &'i caf::Coarray<u64>,
    ctr: caf::AtomicVar,
    block: Vec<u64>,
}

impl RungOps for CafOps<'_, '_> {
    fn put8(&mut self, slot: usize, value: u64) {
        self.a.put_elem(self.img, TARGET + 1, &[slot], value);
    }

    fn get8(&mut self, slot: usize) -> u64 {
        self.a.get_elem(self.img, TARGET + 1, &[slot])
    }

    fn fetch_add(&mut self, addend: u64) -> u64 {
        self.img.atomic_fetch_add(&self.ctr, TARGET + 1, addend as i64) as u64
    }

    fn put4k(&mut self, stamp: u64) {
        self.block[0] = stamp;
        self.b.put_to(self.img, TARGET + 1, &self.block);
    }

    const COMPLETES_ROUNDS: bool = false;

    fn complete(&mut self) {}
}

// ---- running a rung -----------------------------------------------------------------

/// The ladder's machine: Titan, two nodes of one core, so every call
/// crosses the wire and only PE 0 ever issues.
pub fn machine_config() -> MachineConfig {
    crate::engine::pinned(PLATFORM.config(2, 1))
}

fn profile() -> ConduitProfile {
    ConduitProfile::native_shmem(PLATFORM)
}

/// What a PE's body hands back.
enum PeOut {
    Issuer { host_ns: u64, virt_ns: u64, failed: u64, samples: Vec<CallSample> },
    Target(TargetState),
}

/// One rung's run: PE 0's loop on both clocks, and PE 1's final memory.
pub struct RungRun {
    /// Host ns PE 0 spent in the op loop.
    pub host_ns: u64,
    /// Virtual ns PE 0's clock advanced over the op loop.
    pub virt_ns: u64,
    pub sim: SimCounters,
    /// Fetched values that disagreed with the mirror.
    pub failed_checks: u64,
    pub samples: Vec<CallSample>,
    pub target: TargetState,
}

impl RungRun {
    /// Operations whose outcome is wrong: failed fetch checks plus words of
    /// the target's final memory that differ from the plan's closed form.
    pub fn failed_ops(&self, plan: &Plan) -> u64 {
        let want = plan.expected();
        let diff = |x: &[u64], y: &[u64]| x.iter().zip(y).filter(|(p, q)| p != q).count() as u64;
        self.failed_checks
            + diff(&self.target.a, &want.a)
            + diff(&self.target.b, &want.b)
            + u64::from(self.target.counter != want.counter)
    }
}

/// The body shared by all rungs once a rung has built its `ops`: barrier,
/// PE 0 drives the plan, barrier, PE 1 reports its memory.
fn body<O: RungOps>(
    pe: PeId,
    mut ops: O,
    plan: &Plan,
    traced: Option<Instant>,
    now: impl Fn() -> u64,
    barrier: impl Fn(),
    read_target: impl FnOnce() -> TargetState,
) -> PeOut {
    barrier();
    let out = if pe == ISSUER {
        let mut samples = Vec::new();
        let (v0, t0) = (now(), Instant::now());
        let failed = match traced {
            Some(epoch) => {
                samples.reserve(4 * plan.rounds + plan.rounds / 4);
                drive::<O, true>(&mut ops, plan, epoch, &mut samples)
            }
            None => drive::<O, false>(&mut ops, plan, t0, &mut samples),
        };
        let host_ns = t0.elapsed().as_nanos() as u64;
        Some(PeOut::Issuer { host_ns, virt_ns: now() - v0, failed, samples })
    } else {
        None
    };
    barrier();
    out.unwrap_or_else(|| PeOut::Target(read_target()))
}

fn read_heap_words(m: &Machine, pe: PeId, off: usize, words: usize) -> Vec<u64> {
    let mut bytes = vec![0u8; words * 8];
    m.heap(pe).read_bytes(off, &mut bytes);
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))).collect()
}

fn raw_target(m: &Machine) -> TargetState {
    TargetState {
        a: read_heap_words(m, TARGET, A_OFF, SLOTS),
        b: read_heap_words(m, TARGET, B_OFF, BLOCK_WORDS),
        counter: read_heap_words(m, TARGET, CTR_OFF, 1)[0],
    }
}

/// Run `plan` through `rung` on a machine built from `cfg`. With `traced`,
/// every call is timed against that epoch and returned as a sample.
pub fn run_rung(rung: Rung, cfg: MachineConfig, plan: Plan, traced: Option<Instant>) -> RungRun {
    let out = match rung {
        Rung::Machine => pgas_machine::run(cfg, move |pe: Pe<'_>| {
            let m = pe.machine();
            body(
                pe.id(),
                MachineOps::new(m),
                &plan,
                traced,
                || pe.now(),
                || {
                    m.barrier_all(pe.id(), 0.0);
                },
                || raw_target(m),
            )
        }),
        Rung::Conduit => pgas_machine::run(cfg, move |pe: Pe<'_>| {
            let ctx = Ctx::new(pe, profile(), CtxOptions::default());
            body(
                pe.id(),
                ConduitOps { ctx: &ctx, block: block_bytes() },
                &plan,
                traced,
                || pe.now(),
                || ctx.barrier_all(),
                || raw_target(pe.machine()),
            )
        }),
        Rung::Openshmem => pgas_machine::run(cfg, move |pe: Pe<'_>| {
            let sh = Shmem::new(pe, ShmemConfig::new(profile()));
            let a = sh.shmalloc::<u64>(SLOTS).expect("ladder array");
            let b = sh.shmalloc::<u64>(BLOCK_WORDS).expect("ladder block");
            let ctr = sh.shmalloc::<u64>(1).expect("ladder counter");
            body(
                pe.id(),
                ShmemOps { sh: &sh, a, b, ctr, block: block(0) },
                &plan,
                traced,
                || pe.now(),
                || sh.barrier_all(),
                || {
                    let read = |p: openshmem::SymPtr<u64>| {
                        let mut out = vec![0u64; p.count()];
                        sh.read_local(p, &mut out);
                        out
                    };
                    TargetState { a: read(a), b: read(b), counter: read(ctr)[0] }
                },
            )
        }),
        Rung::Caf => run_caf(cfg, CafConfig::new(Backend::Shmem, PLATFORM), move |img| {
            let a = img.coarray::<u64>(&[SLOTS]).expect("ladder array");
            let b = img.coarray::<u64>(&[BLOCK_WORDS]).expect("ladder block");
            let ctr = img.atomic_var(0);
            let pe = img.shmem().ctx().pe();
            body(
                pe.id(),
                CafOps { img, a: &a, b: &b, ctr, block: block(0) },
                &plan,
                traced,
                || pe.now(),
                || img.sync_all(),
                || TargetState {
                    a: a.read_local(img),
                    b: b.read_local(img),
                    counter: img.atomic_ref(&ctr, TARGET + 1) as u64,
                },
            )
        }),
    };
    let sim = SimCounters::of(&out);
    let mut results = out.results.into_iter();
    match (results.next(), results.next()) {
        (
            Some(PeOut::Issuer { host_ns, virt_ns, failed, samples }),
            Some(PeOut::Target(target)),
        ) => RungRun { host_ns, virt_ns, sim, failed_checks: failed, samples, target },
        _ => unreachable!("PE 0 issues and PE 1 is the target"),
    }
}

// ---- active-message round trips -------------------------------------------------------

/// Replies with the 8-byte word at the offset its argument names.
struct ReadWordAm;

impl AmHandler for ReadWordAm {
    fn execute(&self, t: &mut AmTarget<'_>, arg: &[u8]) -> Option<Vec<u8>> {
        let off = u64::from_le_bytes(arg.try_into().expect("8-byte offset")) as usize;
        Some(t.read_u64(off).to_le_bytes().to_vec())
    }
}

const AM_WORD: u64 = 0xA11C_E5ED_0DD5_EED5;

/// Host ns per `am_call` round trip from PE 0 to PE 1 at the conduit rung
/// (`Ctx::submit(AmCall)`) and the openshmem rung (`Shmem::am_call`), and
/// the number of replies that were not the word the target holds.
pub fn am_call_probe(rung: Rung, calls: usize) -> (f64, u64) {
    let out = pgas_machine::run(machine_config(), move |pe: Pe<'_>| {
        let sh = Shmem::new(pe, ShmemConfig::new(profile()));
        let word = sh.shmalloc::<u64>(1).expect("am probe word");
        sh.write_local(word, &[AM_WORD]);
        let handler = sh.register_am(Rc::new(ReadWordAm));
        sh.barrier_all();
        let mut measured = (0u64, 0u64);
        if pe.id() == ISSUER {
            let arg = (word.offset() as u64).to_le_bytes();
            let mut wrong = 0u64;
            let t0 = Instant::now();
            for _ in 0..calls {
                let reply = match rung {
                    Rung::Conduit => {
                        let mut reply = Vec::new();
                        let kind = OpKind::AmCall { handler, arg: &arg, reply: &mut reply };
                        sh.ctx().submit(OpDesc::new(TARGET, kind)).expect("am call");
                        reply
                    }
                    Rung::Openshmem => sh.am_call(TARGET, handler, &arg),
                    other => unreachable!("no am_call at the {} rung", other.layer()),
                };
                wrong += u64::from(reply != AM_WORD.to_le_bytes());
            }
            measured = (t0.elapsed().as_nanos() as u64, wrong);
        }
        sh.barrier_all();
        measured
    });
    let (host_ns, wrong) = out.results[ISSUER];
    (host_ns as f64 / calls as f64, wrong)
}

/// A layer's own cost: its rung minus the rung below (the machine rung is
/// its own).
pub fn self_times(rungs: [f64; 4]) -> [f64; 4] {
    [rungs[0], rungs[1] - rungs[0], rungs[2] - rungs[1], rungs[3] - rungs[2]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_rung_minus_rung_below() {
        assert_eq!(self_times([100.0, 150.0, 180.0, 260.0]), [100.0, 50.0, 30.0, 80.0]);
    }

    #[test]
    fn a_plan_is_a_pure_function_of_its_seed() {
        let p = Plan { seed: 7, rounds: 4000 };
        assert_eq!(p.expected(), p.expected());
        assert_ne!(p.expected(), Plan { seed: 8, rounds: 4000 }.expected());
        let big = p.ops() - 3 * 4000;
        assert!((400..600).contains(&big), "one round in eight carries the block, got {big}");
        assert!(p.iter().all(|r| r.get_slot != r.put_slot && r.get_slot < SLOTS));
    }

    #[test]
    fn every_rung_leaves_the_closed_form_in_the_target() {
        let plan = Plan { seed: 3, rounds: 300 };
        for rung in Rung::ALL {
            let run = run_rung(rung, machine_config(), plan, None);
            assert_eq!(run.failed_ops(&plan), 0, "{rung:?}");
            assert_eq!(run.target, plan.expected(), "{rung:?}");
            assert!(run.virt_ns > 0 && run.host_ns > 0);
        }
    }

    #[test]
    fn a_corrupted_target_counts_as_failed_ops() {
        let plan = Plan { seed: 3, rounds: 50 };
        let mut run = run_rung(Rung::Conduit, machine_config(), plan, None);
        run.target.a[plan.iter().last().unwrap().put_slot] ^= 1;
        run.target.counter += 1;
        assert_eq!(run.failed_ops(&plan), 2);
    }

    #[test]
    fn tracing_a_rung_times_every_call_and_moves_no_virtual_time() {
        let plan = Plan { seed: 5, rounds: 200 };
        let plain = run_rung(Rung::Openshmem, machine_config(), plan, None);
        let traced = run_rung(Rung::Openshmem, machine_config(), plan, Some(Instant::now()));
        assert_eq!(traced.sim.makespan_ns, plain.sim.makespan_ns);
        assert_eq!(
            traced.samples.len() as u64,
            plan.ops() + 200,
            "ops plus one completion a round"
        );
        assert!(traced.samples.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        let caf = run_rung(Rung::Caf, machine_config(), plan, Some(Instant::now()));
        assert_eq!(caf.samples.len() as u64, plan.ops(), "caf completes per statement");
    }

    #[test]
    fn upper_rungs_cost_virtual_time_over_the_machine() {
        let plan = Plan { seed: 1, rounds: 200 };
        let virt: Vec<u64> =
            Rung::ALL.iter().map(|&r| run_rung(r, machine_config(), plan, None).virt_ns).collect();
        assert!(virt[0] < virt[1], "conduit adds software overhead: {virt:?}");
        assert!(virt[2] < virt[3], "caf adds statement completion: {virt:?}");
    }

    #[test]
    fn am_calls_round_trip_at_both_rungs() {
        for rung in [Rung::Conduit, Rung::Openshmem] {
            let (ns, wrong) = am_call_probe(rung, 100);
            assert!(ns > 0.0);
            assert_eq!(wrong, 0, "{rung:?}");
        }
    }
}
