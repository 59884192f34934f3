//! Paper-scale smoke runs: the targeted-wake parking discipline and the
//! fiber engine exist so sweeps at 1024/2048 images (and beyond) are
//! routine. This file guards that an order of magnitude past the figures.
//!
//! The runs are *smoke* tests — they assert liveness (no deadlock at
//! thousands of PEs), delivery (every put arrives), and the per-PE
//! results — not timing. Stacks are trimmed well below the 512 KiB
//! platform default so the virtual-memory footprint stays modest
//! (10k × 128 KiB ≈ 1.2 GiB reserved, mostly never touched).
//!
//! `SMOKE_NODES` overrides the scale for ad-hoc probing.

use pgas_machine::{run, stampede, with_forced_mode, SanitizerMode};

/// Ring exchange at `nodes × 16` PEs: PE i puts its id+1 into PE (i+1) % n,
/// waits on its own cell, and barriers — every PE is both source and sink,
/// and every PE transits every blocking point (NIC arbiter parking,
/// `wait_until`, barrier).
fn ring_smoke(default_nodes: usize) {
    let nodes: usize =
        std::env::var("SMOKE_NODES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_nodes);
    const CORES: usize = 16;
    let n = nodes * CORES;

    let mcfg = stampede(nodes, CORES).with_heap_bytes(1 << 12).with_stack_bytes(1 << 17);
    // The sanitizer is pinned off whatever `PGAS_SANITIZER` says: this is a
    // liveness smoke, and `Sanitizer::barrier_join` joins n rows per member
    // per barrier — n² row joins, 4 m 40 s of CPU at 2496 PEs, which the
    // thread engine used to spread over the host's cores and the arbiter's
    // one carrier cannot.
    let out = with_forced_mode(SanitizerMode::Off, || {
        run(mcfg, |pe| {
            use pgas_conduit::{ConduitProfile, Ctx, CtxOptions};
            let ctx = Ctx::new(pe, ConduitProfile::mvapich_shmem(), CtxOptions::default());
            let n = pe.n();
            ctx.barrier_all();
            let next = (pe.id() + 1) % n;
            ctx.put(next, 0, &(pe.id() as u64 + 1).to_le_bytes());
            let got = ctx.wait_until(0, |v| v != 0);
            assert_eq!(got, ((pe.id() + n - 1) % n) as u64 + 1, "wrong neighbor value");
            ctx.barrier_all();
            got
        })
    });
    assert_eq!(out.results.len(), n);
    assert_eq!(out.engine.timed_wait_expiries, 0, "a PE was owed a wake and timed out instead");
    for (pe, &got) in out.results.iter().enumerate() {
        assert_eq!(got, ((pe + n - 1) % n) as u64 + 1);
    }
}

/// Tier-1 guard: 2496 PEs — past the largest figure sweep point, quick
/// enough for every test run.
#[test]
fn smoke_past_figure_scale() {
    ring_smoke(156);
}

/// The 10k-PE smoke run (625 nodes × 16 cores): 10 000 fibers
/// on one carrier, under a second in a debug build (it was 40 s of thread
/// spawns and futex handoffs in release).
#[test]
fn ten_thousand_pes_smoke() {
    ring_smoke(625);
}
