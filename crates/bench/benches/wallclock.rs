//! Wall-clock microbenchmarks for the simulator's own hot paths
//! (everything else in this workspace reports *virtual* time; these are the
//! real-time costs that bound how fast reproductions run).
//!
//! A self-contained harness (no external bench framework): each benchmark
//! is warmed up, then timed over enough iterations to fill a fixed
//! measurement budget, reporting ns/iter and throughput where applicable.

use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(200);

/// Time `f` (called once per iteration) and report its mean cost.
fn bench(name: &str, bytes_per_iter: Option<u64>, f: impl FnMut()) {
    let (ns_per_iter, iters) = time(f);
    report(name, bytes_per_iter, "ns/iter", ns_per_iter, iters);
}

/// Mean cost of `f` in ns, and the iterations it was taken over.
fn time(mut f: impl FnMut()) -> (f64, u64) {
    // Warm up and estimate the per-iteration cost.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < WARMUP {
        f();
        warm_iters += 1;
    }
    let est = WARMUP.as_nanos() as u64 / warm_iters.max(1);
    let iters = (MEASURE.as_nanos() as u64 / est.max(1)).clamp(10, 10_000_000);

    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() as f64 / iters as f64, iters)
}

fn report(name: &str, bytes_per_iter: Option<u64>, unit: &str, ns: f64, iters: u64) {
    match bytes_per_iter {
        Some(b) => {
            let gib_s = b as f64 / ns * 1e9 / (1u64 << 30) as f64;
            println!("{name:<34} {ns:>12.1} {unit} {gib_s:>10.2} GiB/s ({iters} iters)");
        }
        None => {
            println!("{name:<34} {ns:>12.1} {unit} {:>16} ({iters} iters)", "");
        }
    }
}

fn heap_copy() {
    use pgas_machine::heap::Heap;
    for size in [64usize, 4096, 1 << 20] {
        let heap = Heap::new(size + 64);
        let src = vec![0xA5u8; size];
        let mut dst = vec![0u8; size];
        bench(&format!("heap_write_{size}"), Some(size as u64), || {
            heap.write_bytes(8, std::hint::black_box(&src))
        });
        bench(&format!("heap_read_{size}"), Some(size as u64), || {
            heap.read_bytes(8, std::hint::black_box(&mut dst))
        });
    }
    // One Himeno halo row (65 f32) written element by element, as the
    // strided apply did, against the one run it is written as now.
    let heap = Heap::new(512);
    let row = vec![0xA5u8; 260];
    bench("heap_write_4B_x65", Some(260), || {
        for (i, elem) in std::hint::black_box(&row).chunks_exact(4).enumerate() {
            heap.write_bytes(8 + 4 * i, elem);
        }
    });
    bench("heap_write_260B", Some(260), || heap.write_bytes(8, std::hint::black_box(&row)));
}

fn heap_stamps() {
    use pgas_machine::heap::Heap;
    let heap = Heap::new(4096 + 64);
    // Rising times, so every call stores (the stamp of a fresh remote write);
    // a single caller is trivially a serialized stamp writer.
    let mut t = 0u64;
    for size in [8usize, 4096] {
        bench(&format!("stamp_range_{size}"), Some(size as u64), || {
            t += 1;
            heap.stamp_range(8, size, std::hint::black_box(t))
        });
    }
    bench("max_stamp_4096", Some(4096), || {
        std::hint::black_box(heap.max_stamp(8, 4096));
    });
}

/// The machine's per-op synchronization paths with nobody to synchronize
/// with: what every operation pays when there is no contention.
fn machine_idle_paths() {
    use pgas_machine::{generic_smp, Machine};
    let m = Machine::new(generic_smp(2).with_heap_bytes(1 << 12));
    let word = m.heap(1).atomic64(0);
    bench("apply_and_notify_idle", None, || {
        m.apply_and_notify(1, || word.fetch_add(1, std::sync::atomic::Ordering::AcqRel));
    });

    // By hand, so without the arbiter; `lift_clock_launched` is the row with.
    let mut t = 0u64;
    bench("lift_clock_arbiter_off", None, || {
        t += 10;
        std::hint::black_box(m.lift_clock(0, t));
    });

    let nic = pgas_machine::nic::Nic::new();
    let mut t = 0u64;
    bench("nic_reserve_tx", None, || {
        t += 10;
        std::hint::black_box(nic.reserve_tx(t, 10, 8));
    });

    // Launched, one active PE: PE 1 returns at once, PE 0 takes every turn
    // unopposed (the shape of the benchmark's `ladder_pair`).
    pgas_machine::run(generic_smp(2).with_heap_bytes(1 << 12), |pe| {
        if pe.id() == 0 {
            let m = pe.machine();
            let mut t = m.clock(0);
            bench("lift_clock_launched", None, || {
                t += 10;
                std::hint::black_box(m.lift_clock(0, t));
            });
            bench("nic_turn_uncontended", None, || {
                let start = m.clock(0);
                let slot = m.nic_turn(0, start, || m.nic(0).reserve_tx(start, 10, 8));
                m.lift_clock(0, slot.end);
            });
        }
    });

    // The same with 31 PEs waiting in a barrier: what the grant check costs
    // per PE it has to rule out (`dht_locked` and `serve_mixed` run 32).
    pgas_machine::run(generic_smp(32).with_heap_bytes(1 << 12), |pe| {
        let (m, me) = (pe.machine(), pe.id());
        m.barrier_all(me, 0.0);
        if me == 0 {
            bench("nic_turn_uncontended_32pe", None, || {
                let start = m.clock(0);
                let slot = m.nic_turn(0, start, || m.nic(0).reserve_tx(start, 10, 8));
                m.lift_clock(0, slot.end);
            });
        }
        m.barrier_all(me, 0.0);
    });
}

fn barrier_all_32() {
    use pgas_machine::generic_smp;
    const ROUNDS: u64 = 2000;
    let out = pgas_machine::run(generic_smp(32).with_heap_bytes(1 << 12), |pe| {
        let m = pe.machine();
        m.barrier_all(pe.id(), 0.0);
        let start = Instant::now();
        for _ in 0..ROUNDS {
            m.barrier_all(pe.id(), 0.0);
        }
        start.elapsed().as_nanos() as f64 / ROUNDS as f64
    });
    report("barrier_all_32", None, "ns/iter", out.results[0], ROUNDS);
}

/// What the arbiter's engine pays per handoff and per launch: the rows
/// `dht_locked` and `serve_mixed` are made of.
fn arbiter_engine() {
    use pgas_machine::{generic_smp, stampede};
    use std::sync::atomic::Ordering::{Acquire, Release};

    // One fiber to the next and back, through the scheduler both times.
    if parking_lot::fiber::SUPPORTED {
        const YIELDS: u64 = 1_000_000;
        let body = |_| (0..YIELDS).for_each(|_| parking_lot::fiber::yield_now());
        let start = Instant::now();
        parking_lot::fiber::run(2, 64 << 10, body, || unreachable!("yielders never idle"));
        let ns = start.elapsed().as_nanos() as f64 / YIELDS as f64;
        report("fiber_switch_round_trip", None, "ns/iter", ns, YIELDS);
    }

    // Two PEs alternating as the arbiter's minimum: PE 1 starts 5 ns behind
    // and every turn moves its taker 10 ns on, so each grant waits for the
    // other PE to park behind it — one handoff per turn.
    const TURNS: u64 = 20_000;
    let cfg = generic_smp(2).with_heap_bytes(1 << 12);
    let out = pgas_machine::run(cfg.clone(), |pe| {
        let (m, me) = (pe.machine(), pe.id());
        m.barrier_all(me, 0.0);
        m.advance(me, 5.0 * me as f64);
        let start = Instant::now();
        for _ in 0..TURNS {
            let t = m.clock(me);
            m.nic_turn(me, t, || m.nic(0).reserve_tx(t, 1, 8));
            m.lift_clock(me, t + 10);
        }
        start.elapsed().as_nanos() as f64 / (2 * TURNS) as f64
    });
    report("nic_turn_handoff_2pe", None, "ns/turn", out.results[0], 2 * TURNS);

    // A word bounced between two PEs through `wait_on`: two handoffs a round.
    const ROUNDS: u64 = 20_000;
    let out = pgas_machine::run(cfg, |pe| {
        let (m, me) = (pe.machine(), pe.id());
        let word = |p: usize| m.heap(p).atomic64(0);
        let send = |to: usize, r: u64| m.apply_and_notify(to, || word(to).store(r, Release));
        m.barrier_all(me, 0.0);
        let start = Instant::now();
        for r in 1..=ROUNDS {
            if me == 0 {
                send(1, r);
            }
            m.wait_on(me, || word(me).load(Acquire) == r);
            if me == 1 {
                send(0, r);
            }
        }
        start.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64
    });
    report("wait_on_handoff_2pe", None, "ns/handoff", out.results[0], 2 * ROUNDS);

    // 32 PEs asking for the same instant every round: each turn parks, and
    // the carrier's idle point grants the least key — one park and one grant
    // per turn, the chain `dht_locked`'s lock handoffs are made of.
    const CHAIN_ROUNDS: u64 = 1000;
    let out = pgas_machine::run(generic_smp(32).with_heap_bytes(1 << 12), |pe| {
        let (m, me) = (pe.machine(), pe.id());
        m.barrier_all(me, 0.0);
        let start = Instant::now();
        for round in 1..=CHAIN_ROUNDS {
            let t = round * 1000;
            m.lift_clock(me, t);
            m.nic_turn(me, t, || m.nic(0).reserve_tx(t, 1, 8));
        }
        m.barrier_all(me, 0.0);
        start.elapsed().as_nanos() as f64 / (32 * CHAIN_ROUNDS) as f64
    });
    report("grant_chain_32pe", None, "ns/turn", out.results[0], 32 * CHAIN_ROUNDS);

    // A job's fixed cost: build the machine, start every PE, join.
    let cfg = generic_smp(32).with_heap_bytes(1 << 12);
    bench("launch_32pe_arbiter", None, || {
        assert_eq!(pgas_machine::run(cfg.clone(), |pe| pe.id()).results.len(), 32);
    });
    const LAUNCHES: u64 = 3;
    let cfg = stampede(625, 16).with_heap_bytes(1 << 12).with_stack_bytes(1 << 17);
    let start = Instant::now();
    for _ in 0..LAUNCHES {
        let out = pgas_machine::run(cfg.clone(), |pe| pe.id());
        assert_eq!(out.results.len(), 10_000);
    }
    let ns = start.elapsed().as_nanos() as f64 / LAUNCHES as f64;
    report("launch_10k_pe_arbiter", None, "ns/iter", ns, LAUNCHES);
}

fn allocator() {
    use openshmem::SymAlloc;
    bench("sym_alloc_churn", None, || {
        let mut a = SymAlloc::new(1 << 20);
        let mut held = Vec::new();
        for i in 1..=100 {
            held.push(a.alloc((i % 13 + 1) * 32).unwrap());
            if i % 3 == 0 {
                let victim = held.remove(held.len() / 2);
                a.free(victim).unwrap();
            }
        }
        for off in held {
            a.free(off).unwrap();
        }
    });
}

fn section_enumeration() {
    use caf::{DimRange, Section};
    let sec = Section::new(vec![
        DimRange { start: 0, count: 50, step: 2 },
        DimRange { start: 0, count: 40, step: 2 },
        DimRange { start: 0, count: 25, step: 4 },
    ]);
    let shape = [100usize, 100, 100];
    bench("section_elements_50k", None, || {
        std::hint::black_box(sec.elements(&shape));
    });
    bench("section_pencils_1k", None, || {
        std::hint::black_box(
            sec.pencils(&shape, 0).fold(0, |sum, (arr, packed)| sum + arr + packed),
        );
    });
}

/// Section transfers through the whole caf > openshmem > conduit > machine
/// path: image 1 to image 2 across the network on a native-`iput` profile
/// with `2dim_strided`. Host ns per selected element.
fn section_transfers() {
    use caf::{run_caf, Backend, CafConfig, DimRange, Section, StridedAlgorithm};
    use pgas_machine::{titan, Platform};
    // One ghost plane of Himeno size S: 129 pencils of 65 contiguous f32.
    let halo = Section::new(vec![
        DimRange::full(65),
        DimRange { start: 1, count: 1, step: 1 },
        DimRange::full(129),
    ]);
    // The shape of the benchmark's `caf.strided_host_ns_per_elem` probe:
    // every other row and column of a 64x64 array, 32 pencils at stride 2.
    let every_other = DimRange { start: 0, count: 32, step: 2 };
    let stride2 = Section::new(vec![every_other, every_other]);
    for (name, shape, sec, get) in [
        ("put_section_halo_65x1x129_f32", vec![65, 2, 129], &halo, false),
        ("get_section_halo_65x1x129_f32", vec![65, 2, 129], &halo, true),
        ("put_section_stride2_32x32", vec![64, 64], &stride2, false),
    ] {
        let out = run_caf(
            titan(2, 1).with_heap_bytes(1 << 20),
            CafConfig::new(Backend::Shmem, Platform::Titan).with_strided(StridedAlgorithm::TwoDim),
            |img| {
                let a = img.coarray::<f32>(&shape).unwrap();
                let data = vec![1.5f32; sec.total()];
                let timing = (img.this_image() == 1).then(|| {
                    time(|| {
                        if get {
                            std::hint::black_box(a.get_section(img, 2, sec));
                        } else {
                            a.put_section(img, 2, sec, std::hint::black_box(&data));
                        }
                    })
                });
                img.sync_all();
                timing
            },
        );
        let (ns, iters) = out.results[0].expect("image 1 timed the transfer");
        report(name, None, "ns/elem", ns / sec.total() as f64, iters);
    }
}

/// The Himeno Jacobi sweep with nothing to exchange: one image, size S.
/// Host ns per interior cell update, launch and set-up included.
fn himeno_sweep() {
    use caf::Backend;
    use caf_apps::himeno::{run_himeno, HimenoConfig};
    let cfg = HimenoConfig::size_s();
    let cells = ((cfg.imax - 2) * (cfg.jmax - 2) * (cfg.kmax - 2) * cfg.iters) as f64;
    let (ns, iters) = time(|| {
        std::hint::black_box(run_himeno(
            pgas_machine::Platform::CrayXc30,
            Backend::Shmem,
            None,
            1,
            cfg,
        ));
    });
    report("himeno_sweep_S_1image", None, "ns/cell", ns / cells, iters);
}

/// The metrics registry as `serve_mixed` drives it: one PE's record paths,
/// and the end-of-run snapshot of 32 PEs x 2000 requests over 1600 windows.
fn metrics_registry() {
    use pgas_machine::stats::StatsSnapshot;
    use pgas_machine::MetricsRegistry;
    let reg = MetricsRegistry::new(true, 2);
    bench("metrics_count", None, || reg.count(0, "put", Some(1), std::hint::black_box(1)));
    // The conduit's five series for one op: kind counter, op_bytes, latency,
    // nic_queue_ns, team_op.
    let mut t = 0u64;
    bench("metrics_record_op", None, || {
        t += 1;
        reg.record_op(0, Some(1), "put", 8, "put_ns", std::hint::black_box(700 + t % 64), 40, 3);
    });

    // One image's share of a run: a completion every 7.9 us into 10 us
    // windows, 2000 of them into a fresh registry (a window log grows with
    // every call, so the registry is rebuilt rather than fed forever).
    const REQS: u64 = 2000;
    let feed = |reg: &MetricsRegistry, pe: usize| {
        for k in 0..REQS {
            let t = k * 7_900 + pe as u64 * 250;
            reg.observe_windowed(pe, "serve_latency_ns", None, t, 3_000 + (k * 37) % 9_000);
        }
    };
    let (ns, iters) = time(|| {
        let reg = MetricsRegistry::new_windowed(true, 1, 10_000);
        feed(&reg, 0);
        std::hint::black_box(&reg);
    });
    report("metrics_observe_windowed", None, "ns/call", ns / REQS as f64, iters);

    let reg = MetricsRegistry::new_windowed(true, 32, 10_000);
    for pe in 0..32 {
        feed(&reg, pe);
        for k in 0..REQS {
            let t = k * 7_900 + pe as u64 * 250;
            reg.observe_windowed(pe, "serve_queue_ns", None, t, (k * 13) % 2_000);
            reg.count_windowed(pe, "serve_requests", None, t, 1);
            reg.record_op(pe, Some(k as usize % 2), "get", 8, "get_ns", 1_500 + k % 900, k % 3, 7);
        }
    }
    bench("metrics_snapshot_32pe_1600win", None, || {
        std::hint::black_box(reg.snapshot(StatsSnapshot::default()));
    });
}

/// Drawing `serve_mixed`'s whole schedule the way a run does — the arrival
/// table once, then 31 workers striding through it — per request.
fn serve_request_gen() {
    use caf_apps::{global_arrivals, RequestGen, ServeConfig};
    let cfg = ServeConfig { keyspace: 1_000_000, requests_per_image: 2000, ..Default::default() };
    let (ns, iters) = time(|| {
        let clocks = global_arrivals(&cfg, 31);
        for image in 1..=31 {
            let mut gen = RequestGen::sharing(&cfg, image, 31, clocks.clone());
            for _ in 0..cfg.requests_per_image {
                std::hint::black_box(gen.next_req());
            }
        }
    });
    report(
        "serve_request_gen_31w",
        None,
        "ns/req",
        ns / (31 * cfg.requests_per_image) as f64,
        iters,
    );
}

fn tiny_simulation() {
    use caf::{run_caf, Backend, CafConfig};
    use pgas_machine::{generic_smp, Platform};
    bench("spawn_4_image_job", None, || {
        let out = run_caf(
            generic_smp(4).with_heap_bytes(1 << 16),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp).with_nonsym_bytes(1024),
            |img| img.this_image(),
        );
        assert_eq!(out.results.len(), 4);
    });
}

fn main() {
    println!("{:<34} {:>12} {:>16}", "benchmark", "mean", "throughput");
    heap_copy();
    heap_stamps();
    machine_idle_paths();
    barrier_all_32();
    arbiter_engine();
    allocator();
    section_enumeration();
    section_transfers();
    himeno_sweep();
    metrics_registry();
    serve_request_gen();
    tiny_simulation();
}
