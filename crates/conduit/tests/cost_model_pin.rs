//! Pins the conduit's cost model to one hash.
//!
//! A seeded program drives every reserving entry point of [`CostModel`] on
//! one launched machine, with non-zero `start` and `floor`, so flows contend
//! for NIC lanes. Every PE replays the whole op stream and issues the ops
//! whose source it is, from its own fiber, so the arbiter grants the
//! contending turns in `(start, pe)` order. It probes every estimator in
//! between. Every returned timing and every [`FlowDetail`] field, in op
//! order, then each NIC's final `messages`, `bytes` and `busy_ns` are folded
//! into one FNV-1a hash. The program runs for every conduit profile
//! constructor on every platform preset, on one node and on three, plus one
//! machine whose node 1 sits in a degraded-bandwidth window.
//!
//! The expected hash was recorded before the estimators were rebuilt on the
//! reserving path and must not move: any change to a coefficient, a
//! rounding or a reservation order changes it. The adapters below are the
//! only lines that follow the cost model's calling convention.

use pgas_conduit::cost::{AmTiming, AmoTiming, FlowDetail, PutTiming};
use pgas_conduit::{ConduitProfile, CostModel};
use pgas_machine::{DegradedWindow, FaultPlan, MachineConfig, Platform};

/// The hash of the whole sweep. It was first recorded when this test was
/// introduced, and re-recorded on the same model when the spin-lock
/// round-trip closed form left the sweep, and when the sweep moved from one
/// caller issuing every op to each PE issuing its own under the arbiter.
const PINNED: u64 = 0x1382_fd01_7e18_6c0a;

// ---- adapters -------------------------------------------------------------

fn put(
    cm: &CostModel,
    s: usize,
    d: usize,
    bytes: usize,
    t: u64,
    f: u64,
) -> (PutTiming, FlowDetail) {
    cm.put(s, d, bytes, t, f)
}

fn get(cm: &CostModel, s: usize, d: usize, bytes: usize, t: u64) -> (u64, FlowDetail) {
    cm.get(s, d, bytes, t)
}

fn amo(cm: &CostModel, s: usize, d: usize, fetching: bool, t: u64) -> (AmoTiming, FlowDetail) {
    cm.amo(s, d, fetching, t)
}

fn iput(
    cm: &CostModel,
    (s, d): (usize, usize),
    n: usize,
    e: usize,
    t: u64,
    f: u64,
) -> Option<(PutTiming, FlowDetail)> {
    cm.strided_put_native(s, d, n, e, t, f)
}

fn iget(
    cm: &CostModel,
    (s, d): (usize, usize),
    n: usize,
    e: usize,
    t: u64,
) -> Option<(u64, FlowDetail)> {
    cm.strided_get_native(s, d, n, e, t)
}

fn am_put(
    cm: &CostModel,
    (s, d): (usize, usize),
    n: usize,
    e: usize,
    t: u64,
    f: u64,
) -> (PutTiming, FlowDetail) {
    cm.am_packed_put(s, d, n * e, n, t, f)
}

fn am_get(cm: &CostModel, (s, d): (usize, usize), n: usize, e: usize, t: u64) -> (u64, FlowDetail) {
    cm.am_packed_get(s, d, n * e, n, t)
}

fn flush(
    cm: &CostModel,
    (s, d): (usize, usize),
    bytes: usize,
    nops: usize,
    t: u64,
    f: u64,
) -> (PutTiming, FlowDetail) {
    cm.am_packed_put(s, d, bytes, nops, t, f)
}

fn am_request(
    cm: &CostModel,
    (s, d): (usize, usize),
    arg: usize,
    extra: f64,
    t: u64,
    f: u64,
) -> (AmTiming, FlowDetail) {
    cm.am_request(s, d, arg, extra, t, f)
}

/// The reply leg alone: its delivery time, queue and service.
fn am_reply(cm: &CostModel, s: usize, d: usize, bytes: usize, executed: u64) -> [u64; 3] {
    let (done, fd) = cm.am_reply(s, d, bytes, executed);
    [done, fd.queue_ns, fd.service_ns]
}

// ---- the sweep -------------------------------------------------------------

/// FNV-1a over little-endian words.
struct Fold(u64);

impl Fold {
    fn words(&mut self, xs: &[u64]) {
        for b in xs.iter().flat_map(|x| x.to_le_bytes()) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The words one op answers, in fold order.
#[derive(Default)]
struct Answer(Vec<u64>);

impl Answer {
    fn word(&mut self, x: u64) {
        self.0.push(x);
    }

    fn words(&mut self, xs: &[u64]) {
        self.0.extend_from_slice(xs);
    }

    fn flow(&mut self, d: FlowDetail) {
        self.words(&[d.queue_ns, d.service_ns, d.remote_begin, d.remote_end]);
    }

    fn put(&mut self, (t, d): (PutTiming, FlowDetail)) {
        self.words(&[t.local_complete, t.remote_complete]);
        self.flow(d);
    }
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Sizes either side of every rendezvous threshold, up to 1 MiB.
const BYTES: [usize; 12] = [1, 8, 64, 800, 4096, 8192, 8193, 16384, 16385, 65536, 65537, 1 << 20];
const NELEMS: [usize; 5] = [1, 8, 100, 1024, 4096];
const ELEMS: [usize; 4] = [1, 4, 8, 64];
const OPS: usize = 160;

/// The seeded op stream as PE `me` replays it: every PE draws every op, and
/// issues (and answers) only those whose source it is, so each turn is
/// requested by the PE it is for. The answers, tagged with their op index.
fn replay(cm: &CostModel, me: usize, pes: u64, seed: u64) -> Vec<(usize, Answer)> {
    let mut rng = Rng(seed);
    let mut clock = 1_000;
    let mut answers = Vec::new();
    for op in 0..OPS {
        let pair = (rng.below(pes) as usize, rng.below(pes) as usize);
        let (s, d) = pair;
        // Overlapping issue instants make flows queue behind each other.
        clock += rng.below(3_000);
        let t = clock + rng.below(20_000);
        let f = if rng.below(3) == 0 { t + rng.below(40_000) } else { rng.below(2) * t / 2 };
        let bytes = rng.pick(&BYTES);
        let (n, e) = (rng.pick(&NELEMS), rng.pick(&ELEMS));
        let kind = rng.below(10);
        let fetching = kind == 2 && rng.below(2) == 0;
        let extra = if kind == 8 { rng.pick(&[0.0, 37.5, 1_200.0]) } else { 0.0 };
        if s != me {
            continue;
        }
        let mut h = Answer::default();
        match kind {
            0 => h.put(put(cm, s, d, bytes, t, f)),
            1 => {
                let (done, fd) = get(cm, s, d, bytes, t);
                h.word(done);
                h.flow(fd);
            }
            2 => {
                let (a, fd) = amo(cm, s, d, fetching, t);
                h.words(&[a.local_complete, a.remote_complete]);
                h.flow(fd);
            }
            3 => match iput(cm, pair, n, e, t, f) {
                Some(x) => h.put(x),
                None => h.word(u64::MAX),
            },
            4 => match iget(cm, pair, n, e, t) {
                Some((done, fd)) => {
                    h.word(done);
                    h.flow(fd);
                }
                None => h.word(u64::MAX - 1),
            },
            5 => h.put(am_put(cm, pair, n, e, t, f)),
            6 => {
                let (done, fd) = am_get(cm, pair, n, e, t);
                h.word(done);
                h.flow(fd);
            }
            7 => h.put(flush(cm, pair, bytes + 16 * n, n, t, f)),
            8 => {
                let (a, fd) = am_request(cm, pair, bytes, extra, t, f);
                h.words(&[a.local_complete, a.executed]);
                h.flow(fd);
            }
            _ => h.words(&am_reply(cm, s, d, bytes, t)),
        }
        // Estimators between the same pair.
        let est = [
            cm.get_estimate_ns(s, d, bytes),
            cm.strided_get_estimate_ns(s, d, n, e).unwrap_or(u64::MAX),
            cm.am_packed_get_estimate_ns(s, d, n, e),
        ];
        h.words(&est);
        let p = cm.put_estimate(s, d, bytes);
        h.words(&[p.local_complete, p.remote_complete]);
        let p = cm.am_packed_put_estimate(s, d, n, e);
        h.words(&[p.local_complete, p.remote_complete]);
        match cm.strided_put_estimate(s, d, n, e) {
            Some(p) => h.words(&[p.local_complete, p.remote_complete]),
            None => h.word(u64::MAX),
        }
        answers.push((op, h));
    }
    answers
}

/// Launch one machine on which every PE replays the op stream, and fold
/// into `h` every answer in op order, then each NIC's totals.
fn sweep(h: &mut Fold, cfg: MachineConfig, profile: ConduitProfile, seed: u64) {
    let out = pgas_machine::run(cfg, |pe| {
        replay(&CostModel::new(pe.machine(), profile), pe.id(), pe.n() as u64, seed)
    });
    let mut answers: Vec<(usize, Answer)> = out.results.into_iter().flatten().collect();
    answers.sort_by_key(|&(op, _)| op);
    for (_, answer) in &answers {
        h.words(&answer.0);
    }
    for nic in &out.nics {
        h.words(&[nic.messages, nic.bytes, nic.busy_ns]);
    }
}

fn profiles() -> Vec<ConduitProfile> {
    use Platform::*;
    let mut v = vec![ConduitProfile::mvapich_shmem()];
    for p in [Titan, CrayXc30, GenericSmp] {
        v.push(ConduitProfile::cray_shmem(p));
        v.push(ConduitProfile::dmapp(p));
    }
    for p in [Stampede, Titan, CrayXc30, GenericSmp] {
        v.push(ConduitProfile::gasnet(p));
        v.push(ConduitProfile::mpi3(p));
        v.push(ConduitProfile::native_shmem(p));
    }
    v
}

/// `nodes` nodes of two cores on `platform`'s wire, with no fault plan
/// whatever the environment selects.
fn machine(platform: Platform, nodes: usize) -> MachineConfig {
    let mut cfg = platform.config(nodes, 2);
    cfg.nodes = nodes;
    cfg.cores_per_node = 2;
    cfg.with_faults(FaultPlan::none())
}

#[test]
fn cost_model_outputs_match_the_pinned_hash() {
    let mut h = Fold(0xcbf2_9ce4_8422_2325);
    let mut seed = 7;
    for platform in [Platform::Stampede, Platform::Titan, Platform::CrayXc30, Platform::GenericSmp]
    {
        for profile in profiles() {
            for nodes in [1, 3] {
                seed += 1;
                sweep(&mut h, machine(platform, nodes), profile, seed);
            }
        }
    }
    // Node 1's NIC at 40 % bandwidth for part of the run.
    let window =
        DegradedWindow { node: 1, begin_ns: 20_000, end_ns: 300_000, bandwidth_factor: 0.4 };
    for profile in [ConduitProfile::mvapich_shmem(), ConduitProfile::gasnet(Platform::Stampede)] {
        let cfg = machine(Platform::Stampede, 3)
            .with_faults(FaultPlan::new(5).with_degraded_window(window));
        seed += 1;
        sweep(&mut h, cfg, profile, seed);
    }
    assert_eq!(h.0, PINNED, "cost model outputs moved: hash {:#018x}", h.0);
}
