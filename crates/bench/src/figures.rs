//! Figure generators (paper Figures 2, 3, 6, 7, 8, 9, 10 plus ablations).
//!
//! Every figure carries a critical-path sidecar: a small traced probe of the
//! figure's dominant communication pattern whose per-category time
//! attribution is written next to the figure JSON
//! (`results/<id>.critpath.json`), so a regression in a later PR is
//! explainable from the archived artifacts alone.

use caf::{Backend, StridedAlgorithm};
use caf_apps::{run_dht, run_himeno, DhtConfig, HimenoConfig};
use pgas_conduit::ConduitProfile;
use pgas_machine::Platform;
use pgas_microbench::lock_bench::{image_sweep, naive_spinlock_ms, LockBench};
use pgas_microbench::rma::{large_sizes, small_sizes};
use pgas_microbench::{CafPairBench, Figure, PairBench, Panel, Series};

use crate::baseline::BenchRecord;
use crate::probes;

/// Attach the figure's probe (from the [`probes`] registry, so figure
/// artifacts and the `bench` CLI can never disagree about what anchors a
/// figure) as both its critical-path sidecar and its bench-baseline record.
fn with_probe(fig: Figure) -> Figure {
    let probe = probes::probe_for(&fig.id)
        .unwrap_or_else(|| panic!("no probe registered for figure `{}`", fig.id));
    let record = BenchRecord::from_probe(&fig.id, &probe).to_json();
    fig.with_critpath(probe.sidecar_json()).with_bench(record)
}

fn library_profiles(platform: Platform) -> Vec<(String, ConduitProfile)> {
    match platform {
        Platform::Stampede => vec![
            ("MVAPICH2-X SHMEM".into(), ConduitProfile::mvapich_shmem()),
            ("MVAPICH2-X MPI-3.0".into(), ConduitProfile::mpi3(platform)),
            ("GASNet".into(), ConduitProfile::gasnet(platform)),
        ],
        _ => vec![
            ("Cray SHMEM".into(), ConduitProfile::cray_shmem(platform)),
            ("Cray MPICH".into(), ConduitProfile::mpi3(platform)),
            ("GASNet".into(), ConduitProfile::gasnet(platform)),
        ],
    }
}

fn thin(sizes: Vec<usize>, quick: bool) -> Vec<usize> {
    if quick {
        sizes.into_iter().step_by(3).collect()
    } else {
        sizes
    }
}

/// Figure 2: put latency, SHMEM vs MPI-3 vs GASNet, two platforms,
/// 1 pair and 16 pairs.
pub fn fig2_put_latency(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "fig2_put_latency",
        "Put latency comparison using two nodes for SHMEM, MPI-3.0 and GASNet",
    );
    let iters = if quick { 3 } else { 15 };
    for platform in [Platform::Stampede, Platform::Titan] {
        for (pairs, tag) in [(1usize, "1 pair"), (16, "16 pairs")] {
            for (range, sizes) in
                [("small", thin(small_sizes(), quick)), ("large", thin(large_sizes(), quick))]
            {
                let mut panel = Panel::new(
                    format!("{}: put {tag}, {range} sizes", platform.name()),
                    "bytes",
                    "latency (us)",
                );
                for (label, profile) in library_profiles(platform) {
                    let mut b = PairBench::new(platform, profile, pairs);
                    b.iters = iters;
                    let mut s = Series::new(label);
                    for &size in &sizes {
                        s.push(size as f64, b.put_latency_us(size));
                    }
                    panel.series.push(s);
                }
                fig.panels.push(panel);
            }
        }
    }
    with_probe(fig)
}

/// Figure 3: put bandwidth for the same configurations.
pub fn fig3_put_bandwidth(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "fig3_put_bandwidth",
        "Put bandwidth comparison using two nodes for SHMEM, MPI-3.0 and GASNet",
    );
    let iters = if quick { 3 } else { 10 };
    let mut sizes = thin(small_sizes(), quick);
    sizes.extend(thin(large_sizes(), quick));
    for platform in [Platform::Stampede, Platform::Titan] {
        for (pairs, tag) in [(1usize, "1 pair"), (16, "16 pairs")] {
            let mut panel = Panel::new(
                format!("{}: put {tag}", platform.name()),
                "bytes",
                "bandwidth (MB/s per pair)",
            );
            for (label, profile) in library_profiles(platform) {
                let mut b = PairBench::new(platform, profile, pairs);
                b.iters = iters;
                let mut s = Series::new(label);
                for &size in &sizes {
                    s.push(size as f64, b.put_bandwidth_mbs(size));
                }
                panel.series.push(s);
            }
            fig.panels.push(panel);
        }
    }
    // The probe behind the sidecar is the 16-pair contention point — the one
    // EXPERIMENTS.md walks through.
    with_probe(fig)
}

fn caf_put_figure(fig_id: &str, platform: Platform, quick: bool) -> Figure {
    let mut fig = Figure::new(
        fig_id,
        format!(
            "PGAS Microbenchmark tests on {}: put bandwidth and 2-D strided put bandwidth",
            platform.name()
        ),
    );
    let iters = if quick { 3 } else { 8 };
    let backends: Vec<Backend> = match platform {
        Platform::Stampede => vec![Backend::Shmem, Backend::Gasnet],
        _ => vec![Backend::CrayCaf, Backend::Shmem, Backend::Gasnet],
    };
    // (a)/(b): contiguous put bandwidth.
    let mut sizes = thin(small_sizes(), quick);
    sizes.extend(thin(large_sizes(), true));
    for (pairs, tag) in [(1usize, "1 pair"), (16, "16 pairs")] {
        let mut panel =
            Panel::new(format!("contiguous put: {tag}"), "bytes", "bandwidth (MB/s per pair)");
        for &backend in &backends {
            let mut b = CafPairBench::new(platform, backend, pairs);
            b.iters = iters;
            let mut s = Series::new(backend.label(platform));
            for &size in &sizes {
                s.push(size as f64, b.contiguous_put_bw_mbs(size));
            }
            panel.series.push(s);
        }
        fig.panels.push(panel);
    }
    // (c)/(d): 2-D strided put bandwidth.
    let mut strided_cfgs: Vec<(String, Backend, Option<StridedAlgorithm>)> = Vec::new();
    if matches!(platform, Platform::CrayXc30 | Platform::Titan) {
        strided_cfgs.push(("Cray-CAF".into(), Backend::CrayCaf, None));
    }
    strided_cfgs.push((
        format!("{}-naive", Backend::Shmem.label(platform)),
        Backend::Shmem,
        Some(StridedAlgorithm::Naive),
    ));
    strided_cfgs.push((
        format!("{}-2dim", Backend::Shmem.label(platform)),
        Backend::Shmem,
        Some(StridedAlgorithm::TwoDim),
    ));
    strided_cfgs.push(("UHCAF-GASNet".into(), Backend::Gasnet, None));
    let strides = if quick { vec![2usize, 8] } else { pgas_microbench::caf_rma::stride_sweep() };
    for (pairs, tag) in [(1usize, "1 pair"), (16, "16 pairs")] {
        let mut panel = Panel::new(
            format!("2-D strided put: {tag}"),
            "stride (# of integers)",
            "bandwidth (MB/s per pair)",
        );
        for (label, backend, strided) in &strided_cfgs {
            let mut b = CafPairBench::new(platform, *backend, pairs);
            b.iters = if quick { 2 } else { 5 };
            if let Some(a) = strided {
                b = b.with_strided(*a);
            }
            let mut s = Series::new(label.clone());
            for &stride in &strides {
                s.push(stride as f64, b.strided_put_bw_mbs(stride));
            }
            panel.series.push(s);
        }
        fig.panels.push(panel);
    }
    with_probe(fig)
}

/// Figure 6: CAF put + strided put bandwidth on the Cray XC30.
pub fn fig6_xc30_caf(quick: bool) -> Figure {
    caf_put_figure("fig6_xc30_caf", Platform::CrayXc30, quick)
}

/// Figure 7: CAF put + strided put bandwidth on Stampede.
pub fn fig7_stampede_caf(quick: bool) -> Figure {
    caf_put_figure("fig7_stampede_caf", Platform::Stampede, quick)
}

/// Figure 8: lock microbenchmark on Titan — all images acquire and release
/// a lock on image 1.
pub fn fig8_locks(quick: bool, max_images: usize) -> Figure {
    let mut fig = Figure::new(
        "fig8_locks",
        "Microbenchmark test for locks on Titan: all images lock/unlock on image 1",
    );
    let mut panel = Panel::new("lock contention", "images", "time (ms)");
    let acquires = if quick { 5 } else { 10 };
    let sweep = image_sweep(max_images);
    for backend in [Backend::CrayCaf, Backend::Gasnet, Backend::Shmem] {
        let mut s = Series::new(backend.label(Platform::Titan));
        for &images in &sweep {
            let b = LockBench { acquires, ..LockBench::new(Platform::Titan, backend, images) };
            s.push(images as f64, b.run_ms());
        }
        panel.series.push(s);
    }
    fig.panels.push(panel);
    with_probe(fig)
}

/// Figure 9: the DHT benchmark on Titan.
pub fn fig9_dht(quick: bool, max_images: usize) -> Figure {
    let mut fig = Figure::new("fig9_dht", "Distributed Hash Table (Titan)");
    let mut panel = Panel::new("DHT locked updates", "images", "time (ms)");
    let cfg = DhtConfig {
        updates_per_image: if quick { 16 } else { 48 },
        slots_per_image: 128,
        ..Default::default()
    };
    let sweep = image_sweep(max_images);
    for backend in [Backend::CrayCaf, Backend::Gasnet, Backend::Shmem] {
        let mut s = Series::new(backend.label(Platform::Titan));
        for &images in &sweep {
            s.push(images as f64, run_dht(Platform::Titan, backend, images, cfg).time_ms);
        }
        panel.series.push(s);
    }
    fig.panels.push(panel);
    with_probe(fig)
}

/// New figure (not in the paper): DHT update *throughput*, the paper's
/// locked get–modify–put pattern vs this repo's active-message updates
/// with small-op aggregation. The point of the figure is the winner flip:
/// panel (a) reproduces Figure 9's conclusion — UHCAF-Cray-SHMEM with
/// coarray locks is the best way to run the DHT — and panel (b) shows that
/// with the AM + aggregation machinery enabled, every backend's AM series
/// beats panel (a)'s winner outright: the best DHT configuration is no
/// longer a lock protocol at all.
pub fn dht_throughput(quick: bool, max_images: usize) -> Figure {
    use caf_apps::DhtUpdateMode;
    use pgas_machine::with_forced_aggregation;
    let mut fig = Figure::new(
        "dht_throughput",
        "DHT update throughput: locked get-modify-put vs active-message updates with small-op aggregation (Titan)",
    );
    let cfg = DhtConfig {
        updates_per_image: if quick { 16 } else { 48 },
        slots_per_image: 128,
        ..Default::default()
    };
    let sweep = image_sweep(max_images);
    let backends = [Backend::CrayCaf, Backend::Gasnet, Backend::Shmem];
    let throughput = |r: caf_apps::DhtResult| r.updates_total as f64 / r.time_ms;
    let mut locked = Panel::new("(a) locked updates, no aggregation", "images", "updates/ms");
    for backend in backends {
        let mut s = Series::new(format!("{} locked", backend.label(Platform::Titan)));
        for &images in &sweep {
            let r =
                with_forced_aggregation(false, || run_dht(Platform::Titan, backend, images, cfg));
            s.push(images as f64, throughput(r));
        }
        locked.series.push(s);
    }
    fig.panels.push(locked);
    let am_cfg = DhtConfig { update: DhtUpdateMode::Am, ..cfg };
    let mut am = Panel::new("(b) AM updates + aggregation", "images", "updates/ms");
    for backend in backends {
        let mut s = Series::new(format!("{} AM", backend.label(Platform::Titan)));
        for &images in &sweep {
            let r =
                with_forced_aggregation(true, || run_dht(Platform::Titan, backend, images, am_cfg));
            s.push(images as f64, throughput(r));
        }
        am.series.push(s);
    }
    fig.panels.push(am);
    with_probe(fig)
}

/// Figure 10: CAF Himeno performance on Stampede.
pub fn fig10_himeno(quick: bool, max_images: usize) -> Figure {
    let mut fig = Figure::new("fig10_himeno", "CAF Himeno benchmark performance on Stampede");
    let mut panel = Panel::new("Himeno Jacobi solver", "images", "MFLOPS");
    let cfg = if quick { HimenoConfig::size_xs() } else { HimenoConfig::size_m() };
    let sweep: Vec<usize> = [4usize, 8, 16, 32, 63, 127]
        .into_iter()
        .filter(|&n| n <= max_images.min(cfg.jmax - 2))
        .collect();
    let configs: [(&str, Backend, Option<StridedAlgorithm>); 3] = [
        ("UHCAF-MVAPICH2-X-SHMEM", Backend::Shmem, Some(StridedAlgorithm::Naive)),
        ("UHCAF-GASNet", Backend::Gasnet, None),
        ("UHCAF-GASNet-with-AM", Backend::Gasnet, Some(StridedAlgorithm::AmPacked)),
    ];
    for (label, backend, strided) in configs {
        let mut s = Series::new(label);
        for &images in &sweep {
            let r = run_himeno(Platform::Stampede, backend, strided, images, cfg);
            s.push(images as f64, r.mflops);
        }
        panel.series.push(s);
    }
    fig.panels.push(panel);
    with_probe(fig)
}

/// New figure (not in the paper): availability under churn. A sharded
/// active-message serving workload (eight workers + one spare on Titan)
/// loses a worker to a scheduled failure mid-run, re-forms its team with
/// the spare, redistributes the dead worker's shards from writer journals,
/// and resumes serving at full strength. Panel (a) is the per-round
/// throughput series against the healthy baseline — the detection round
/// absorbs the failure-handling cost, the rounds after it reclaim the
/// pre-failure rate (`ChurnResult::recovery_ratio ≥ 0.9` is the acceptance
/// bar). Panel (b) is the availability series: serving images per round,
/// dipping from 8 to 7 in the detection round and returning to 8 once the
/// spare serves. Both runs are pinned (forced plan and aggregation, fixed
/// seed), so the figure JSON is bit-stable; quick mode changes nothing
/// because the run is already anchor-sized.
pub fn availability_churn(_quick: bool) -> Figure {
    use caf_apps::{run_churn, ChurnConfig, ChurnResult};
    use pgas_machine::{with_forced_aggregation, with_forced_plan, FaultPlan};
    let cfg = ChurnConfig::default();
    let run = |plan: FaultPlan| -> ChurnResult {
        with_forced_aggregation(true, || {
            with_forced_plan(plan, || run_churn(Platform::Titan, Backend::Shmem, 9, cfg))
        })
    };
    let healthy = run(FaultPlan::new(cfg.seed));
    // The probe's calibrated scenario: worker image 5 (PE 4) dies at 30 µs.
    let churned = run(FaultPlan::new(cfg.seed).with_pe_failure(4, 30_000));
    let mut fig = Figure::new(
        "availability_churn",
        "Availability under churn: DHT-style serving through a worker failure, \
         team re-formation and shard replay (Titan, 8 workers + 1 spare)",
    );
    let round_tput = |r: &ChurnResult| {
        r.rounds
            .iter()
            .enumerate()
            .map(|(k, rd)| (k as f64, rd.updates as f64 / (rd.duration_ns as f64 / 1e3)))
            .collect::<Vec<_>>()
    };
    let mut tput = Panel::new("(a) serving throughput per round", "round", "updates/us");
    let mut s = Series::new("healthy baseline");
    s.points = round_tput(&healthy);
    tput.series.push(s);
    let mut s = Series::new("worker failure + recovery");
    s.points = round_tput(&churned);
    tput.series.push(s);
    fig.panels.push(tput);
    let mut avail = Panel::new("(b) availability: serving images per round", "round", "images");
    for (label, r) in [("healthy baseline", &healthy), ("worker failure + recovery", &churned)] {
        let mut s = Series::new(label);
        for (k, rd) in r.rounds.iter().enumerate() {
            s.push(k as f64, rd.serving as f64);
        }
        avail.series.push(s);
    }
    fig.panels.push(avail);
    with_probe(fig)
}

/// New figure (not in the paper): open-loop serving telemetry through a
/// worker death. The serving workload (Poisson arrivals from one shared
/// global stream, Zipfian keys, AM writes over the sharded table) runs at
/// 80 images on Titan — 79 workers + 1 spare, ≥1M scheduled requests —
/// and worker PE 32 dies mid-run. Panel (a) is the windowed latency
/// series (p50/p99/p999 per 10 ms virtual window, failure run, with the
/// healthy p99 as reference): flat microsecond-scale percentiles, one
/// spike in the detection window where the parked requests drain with
/// their original arrival times, then flat again — the dip-and-recover
/// signature. Panel (b) is the SLO error-budget burn-rate series (fast
/// and slow windows) that an alerting pipeline would page on: the fast
/// burn fires in the outage window and clears after recovery. Panel (c)
/// is completed requests per window: the victim's generation share
/// vanishes at the death and the drain backfills the detection window.
/// Both runs are pinned (forced plan + aggregation, fixed seed), so the
/// figure JSON is bit-stable. Quick mode runs the probe-sized 9-image
/// scenario instead.
pub fn serving_slo(quick: bool) -> Figure {
    use caf_apps::serve::{run_serve_outcome, ServeConfig, ServeResult};
    use caf_apps::DhtUpdateMode;
    use pgas_machine::{with_forced_aggregation, with_forced_plan, FaultPlan};
    let (images, cfg, victim, deadline) = if quick {
        // The probe's scenario with a longer post-recovery tail (the fast
        // burn series is a trailing 3-window rate, so the quick run needs
        // a few clean windows after the drain spike to show it clearing).
        let cfg = ServeConfig {
            keyspace: 10_000,
            requests_per_image: 80,
            epochs: 4,
            slots_per_shard: 64,
            mean_gap_ns: 1_500.0,
            ..Default::default()
        };
        (9usize, cfg, 4usize, 12_000u64)
    } else {
        let cfg = ServeConfig {
            keyspace: 2_000_000,
            zipf_exponent: 1.1,
            read_fraction: 0.5,
            mean_gap_ns: 40_000.0,
            requests_per_image: 13_000,
            epochs: 16,
            slots_per_shard: 2_048,
            seed: 0x510,
            mode: DhtUpdateMode::Am,
            window_ns: 10_000_000,
            slo_threshold_ns: 150_000,
            slo_objective: 0.999,
        };
        // PE 32 (worker image 33, node 2) dies at 240 ms — mid epoch 7 of
        // the ~520 ms run, so detection waits most of an epoch and the
        // drain burst carries outage-length latencies.
        (80usize, cfg, 32usize, 240_000_000u64)
    };
    let run = |plan: FaultPlan| -> ServeResult {
        with_forced_aggregation(true, || {
            with_forced_plan(plan, || {
                run_serve_outcome(Platform::Titan, Backend::Shmem, images, cfg, true).0
            })
        })
    };
    let healthy = run(FaultPlan::new(cfg.seed));
    // The failure run is traced so every request's critical path is walked
    // and panel (d) can attribute the death-window tail; by the PR 4
    // observability contract tracing moves no virtual clock, so panels
    // (a)-(c) are bit-identical to an untraced run.
    let failed = pgas_machine::with_forced_tracing(true, || {
        run(FaultPlan::new(cfg.seed).with_pe_failure(victim, deadline))
    });
    let mut fig = Figure::new(
        "serving_slo",
        format!(
            "Open-loop serving SLO through a worker death: {} workers + 1 spare on Titan, \
             {} requests scheduled, SLO p{} < {} us",
            images - 1,
            (images - 1) * cfg.requests_per_image,
            cfg.slo_objective * 100.0,
            cfg.slo_threshold_ns / 1000,
        ),
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let mut lat = Panel::new(
        "(a) latency percentiles per window",
        "window start (ms virtual)",
        "latency (us)",
    );
    for (label, pick) in
        [("p50 failure run", 0usize), ("p99 failure run", 1), ("p999 failure run", 2)]
    {
        let mut s = Series::new(label);
        for w in &failed.slo.windows {
            s.push(ms(w.start_ns), us([w.p50, w.p99, w.p999][pick]));
        }
        lat.series.push(s);
    }
    let mut s = Series::new("p99 healthy baseline");
    for w in &healthy.slo.windows {
        s.push(ms(w.start_ns), us(w.p99));
    }
    lat.series.push(s);
    fig.panels.push(lat);
    let mut burn = Panel::new(
        "(b) error-budget burn rate per window",
        "window start (ms virtual)",
        "x budget rate",
    );
    for (label, fast) in [("fast burn (failure run)", true), ("slow burn (failure run)", false)] {
        let mut s = Series::new(label);
        for w in &failed.slo.windows {
            let x1000 = if fast { w.fast_burn_x1000 } else { w.slow_burn_x1000 };
            s.push(ms(w.start_ns), x1000 as f64 / 1000.0);
        }
        burn.series.push(s);
    }
    let mut s = Series::new("fast burn (healthy baseline)");
    for w in &healthy.slo.windows {
        s.push(ms(w.start_ns), w.fast_burn_x1000 as f64 / 1000.0);
    }
    burn.series.push(s);
    fig.panels.push(burn);
    let mut tput =
        Panel::new("(c) completed requests per window", "window start (ms virtual)", "requests/ms");
    for (label, r) in [("healthy baseline", &healthy), ("worker failure + recovery", &failed)] {
        let mut s = Series::new(label);
        for w in &r.slo.windows {
            s.push(ms(w.start_ns), w.count as f64 / (cfg.window_ns as f64 / 1e6));
        }
        tput.series.push(s);
    }
    fig.panels.push(tput);
    // Panel (d): where the tail's time actually went. For each window with
    // SLO-violating requests, the share of their total latency charged to
    // each critical-path phase — the death window reads as fault-delay plus
    // drain queueing, not handler compute.
    if let Some(tail) = &failed.tail {
        let mut attr = Panel::new(
            "(d) tail attribution: slow-request time by cause (failure run)",
            "window start (ms virtual)",
            "share of slow-request time (%)",
        );
        for (k, phase) in pgas_machine::tailprof::REQ_PHASES.iter().enumerate() {
            let mut s = Series::new(phase.label());
            for p in &tail.profiles {
                let total: u64 = p.slow_phase_ns.iter().sum();
                if total == 0 {
                    continue; // no violating requests in this window
                }
                s.push(ms(p.start_ns), p.slow_phase_ns[k] as f64 / total as f64 * 100.0);
            }
            if !s.points.is_empty() {
                attr.series.push(s);
            }
        }
        fig.panels.push(attr);
    }
    with_probe(fig)
}

/// Supplementary (not a paper figure): the PGAS microbenchmark suite's
/// remaining point-to-point kernels — get latency/bandwidth and
/// bidirectional put bandwidth — across the same library profiles.
pub fn supp_pt2pt(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "supp_pt2pt",
        "Supplementary point-to-point kernels: get latency, get bandwidth, bidirectional put",
    );
    let iters = if quick { 3 } else { 10 };
    let sizes = {
        let mut v = thin(small_sizes(), quick);
        v.extend(thin(large_sizes(), true));
        v
    };
    for platform in [Platform::Stampede, Platform::Titan] {
        let mut lat = Panel::new(
            format!("{}: get latency, 1 pair", platform.name()),
            "bytes",
            "latency (us)",
        );
        let mut gbw = Panel::new(
            format!("{}: get bandwidth (nbi window), 1 pair", platform.name()),
            "bytes",
            "bandwidth (MB/s)",
        );
        let mut bibw = Panel::new(
            format!("{}: bidirectional put, 1 pair", platform.name()),
            "bytes",
            "bandwidth (MB/s per direction)",
        );
        for (label, profile) in library_profiles(platform) {
            let mut b = PairBench::new(platform, profile, 1);
            b.iters = iters;
            let mut s_lat = Series::new(label.clone());
            let mut s_gbw = Series::new(label.clone());
            let mut s_bi = Series::new(label);
            for &size in &sizes {
                s_lat.push(size as f64, b.get_latency_us(size));
                s_gbw.push(size as f64, b.get_bandwidth_mbs(size));
                s_bi.push(size as f64, b.bi_bandwidth_mbs(size));
            }
            lat.series.push(s_lat);
            gbw.series.push(s_gbw);
            bibw.series.push(s_bi);
        }
        fig.panels.push(lat);
        fig.panels.push(gbw);
        fig.panels.push(bibw);
    }
    with_probe(fig)
}

/// Ablation 1 (§IV-C design choice): base-dimension selection strategies
/// across section aspect ratios.
pub fn abl1_base_dim(quick: bool) -> Figure {
    use caf::{run_caf, CafConfig, DimRange, Section};
    let mut fig = Figure::new(
        "abl1_base_dim",
        "Ablation: base-dimension choice (1dim vs 2dim vs best-of-all vs planners) across 3-D section shapes",
    );
    let iters = if quick { 2 } else { 5 };
    // (c0, c1, c2) element counts per dimension; dim strides fixed at 2.
    let shapes = [(32usize, 8usize, 4usize), (8, 32, 4), (4, 8, 32), (16, 16, 16)];
    let mut panel = Panel::new(
        "strided put time by algorithm",
        "section shape index",
        "time per statement (us)",
    );
    for algo in [
        StridedAlgorithm::OneDim,
        StridedAlgorithm::TwoDim,
        StridedAlgorithm::BestOfAll,
        StridedAlgorithm::Tuned,
    ] {
        let mut s = Series::new(algo.label());
        for (ix, &(c0, c1, c2)) in shapes.iter().enumerate() {
            let shape = [c0 * 2, c1 * 2, c2 * 2];
            let heap = (shape.iter().product::<usize>() * 4 * 2 + (1 << 16)).next_power_of_two();
            let mcfg = Platform::CrayXc30.config(2, 1).with_heap_bytes(heap);
            let ccfg = CafConfig::new(Backend::Shmem, Platform::CrayXc30).with_strided(algo);
            let out = run_caf(mcfg, ccfg, move |img| {
                let a = img.coarray::<i32>(&shape).unwrap();
                let sec = Section::new(vec![
                    DimRange { start: 0, count: c0, step: 2 },
                    DimRange { start: 0, count: c1, step: 2 },
                    DimRange { start: 0, count: c2, step: 2 },
                ]);
                let data = vec![1i32; sec.total()];
                if img.this_image() == 1 {
                    let t0 = img.shmem().ctx().pe().now();
                    for _ in 0..iters {
                        a.put_section(img, 2, &sec, &data);
                    }
                    (img.shmem().ctx().pe().now() - t0) as f64 / iters as f64 / 1000.0
                } else {
                    0.0
                }
            });
            s.push(ix as f64, out.results[0]);
        }
        panel.series.push(s);
    }
    fig.panels.push(panel);
    with_probe(fig)
}

/// Ablation 2 (§IV-D design choice): MCS vs naive spinlock vs the
/// OpenSHMEM global lock under contention.
pub fn abl2_lock_algorithms(quick: bool, max_images: usize) -> Figure {
    let mut fig = Figure::new(
        "abl2_lock_algorithms",
        "Ablation: MCS CAF lock vs naive remote spinlock vs OpenSHMEM global lock",
    );
    let mut panel = Panel::new("lock algorithms on Titan", "images", "time (ms)");
    let acquires = if quick { 4 } else { 10 };
    let sweep = image_sweep(max_images.min(64));
    let mut mcs = Series::new("CAF MCS lock (paper)");
    let mut naive = Series::new("naive remote spinlock");
    let mut global = Series::new("OpenSHMEM global lock");
    for &images in &sweep {
        let b = LockBench { acquires, ..LockBench::new(Platform::Titan, Backend::Shmem, images) };
        mcs.push(images as f64, b.run_ms());
        naive.push(
            images as f64,
            naive_spinlock_ms(Platform::Titan, Backend::Shmem, images, acquires),
        );
        global.push(images as f64, shmem_global_lock_ms(images, acquires));
    }
    panel.series.push(mcs);
    panel.series.push(naive);
    panel.series.push(global);
    fig.panels.push(panel);
    with_probe(fig)
}

/// Time the OpenSHMEM global lock under the Figure 8 access pattern.
fn shmem_global_lock_ms(images: usize, acquires: usize) -> f64 {
    use openshmem::{Shmem, ShmemConfig};
    let cores = 16.min(images);
    let nodes = images.div_ceil(cores);
    let mcfg = Platform::Titan.config(nodes, cores).with_heap_bytes(1 << 16);
    let out = pgas_machine::run(mcfg, move |pe| {
        let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::cray_shmem(Platform::Titan)));
        let lock = shmem.shmalloc::<u64>(1).unwrap();
        shmem.barrier_all();
        let t0 = pe.now();
        for _ in 0..acquires {
            shmem.set_lock(lock);
            shmem.clear_lock(lock);
        }
        shmem.barrier_all();
        (pe.now() - t0) as f64 / 1e6
    });
    out.results.into_iter().fold(0.0, f64::max)
}

/// Extension (§VII future work): the `shmem_ptr` direct load/store fast
/// path for intra-node transfers.
pub fn ext1_shmem_ptr_fastpath(quick: bool) -> Figure {
    use caf::{run_caf, CafConfig};
    let mut fig = Figure::new(
        "ext1_shmem_ptr_fastpath",
        "Extension: shmem_ptr intra-node load/store fast path (paper §VII future work)",
    );
    let mut panel = Panel::new("intra-node put latency", "bytes", "latency (us)");
    let iters = if quick { 5 } else { 20 };
    for (label, fastpath) in [("message path", false), ("shmem_ptr fast path", true)] {
        let mut s = Series::new(label);
        for size in [8usize, 64, 512, 4096, 32768] {
            let mcfg = Platform::Stampede.config(1, 2).with_heap_bytes(1 << 18);
            let ccfg = CafConfig::new(Backend::Shmem, Platform::Stampede).with_fastpath(fastpath);
            let elems = size / 4;
            let out = run_caf(mcfg, ccfg, move |img| {
                let a = img.coarray::<i32>(&[elems]).unwrap();
                let data = vec![5i32; elems];
                img.sync_all();
                if img.this_image() == 1 {
                    let t0 = img.shmem().ctx().pe().now();
                    for _ in 0..iters {
                        a.put_to(img, 2, &data);
                    }
                    (img.shmem().ctx().pe().now() - t0) as f64 / iters as f64 / 1000.0
                } else {
                    0.0
                }
            });
            s.push(size as f64, out.results[0]);
        }
        panel.series.push(s);
    }
    fig.panels.push(panel);
    with_probe(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shapes_hold() {
        let fig = fig2_put_latency(true);
        assert_eq!(fig.panels.len(), 8);
        // Stampede, 1 pair, small sizes: SHMEM and GASNet below MPI-3.
        let p = &fig.panels[0];
        let shmem = p.series("MVAPICH2-X SHMEM").unwrap();
        let mpi = p.series("MVAPICH2-X MPI-3.0").unwrap();
        let gasnet = p.series("GASNet").unwrap();
        assert!(shmem.geomean_ratio_over(mpi) < 1.0, "SHMEM beats MPI-3 (small, 1 pair)");
        assert!(gasnet.geomean_ratio_over(mpi) < 1.0, "GASNet beats MPI-3 (small, 1 pair)");
        // Large sizes: SHMEM beats GASNet.
        let p = &fig.panels[1];
        assert!(
            p.series("MVAPICH2-X SHMEM").unwrap().geomean_ratio_over(p.series("GASNet").unwrap())
                < 1.0
        );
    }

    #[test]
    fn fig8_ordering_holds() {
        let fig = fig8_locks(true, 16);
        let p = &fig.panels[0];
        let shmem = p.series("UHCAF-Cray-SHMEM").unwrap();
        let gasnet = p.series("UHCAF-GASNet").unwrap();
        let cray = p.series("Cray-CAF").unwrap();
        assert!(shmem.geomean_ratio_over(gasnet) < 1.0, "SHMEM locks faster than GASNet");
        assert!(shmem.geomean_ratio_over(cray) < 1.0, "SHMEM locks faster than Cray CAF");
    }

    #[test]
    fn dht_throughput_winner_flips_with_aggregation() {
        let fig = dht_throughput(true, 8);
        let locked = &fig.panels[0];
        let am = &fig.panels[1];
        // Panel (a) reproduces Figure 9: SHMEM is the best locked backend
        // (throughput: higher is better, so the winner's ratio is > 1).
        let shmem_locked = locked.series("UHCAF-Cray-SHMEM locked").unwrap();
        for other in ["Cray-CAF locked", "UHCAF-GASNet locked"] {
            assert!(
                shmem_locked.geomean_ratio_over(locked.series(other).unwrap()) > 1.0,
                "locked SHMEM beats {other}"
            );
        }
        // Panel (b): every AM series beats panel (a)'s winner — enabling
        // the aggregation machinery changes the figure's winner from the
        // paper's locked pattern to active-message updates.
        for s in &am.series {
            assert!(
                s.geomean_ratio_over(shmem_locked) > 1.0,
                "{} should out-throughput the locked winner",
                s.label
            );
        }
    }

    #[test]
    fn availability_churn_dips_once_and_recovers() {
        let fig = availability_churn(true);
        let avail = &fig.panels[1];
        let healthy = avail.series("healthy baseline").unwrap();
        let churned = avail.series("worker failure + recovery").unwrap();
        assert!(healthy.points.iter().all(|p| p.1 == 8.0), "healthy run serves at full strength");
        assert!(churned.points.iter().any(|p| p.1 == 7.0), "the availability dip is visible");
        assert_eq!(
            churned.points.last().unwrap().1,
            8.0,
            "the spare restores full serving strength"
        );
        // Panel (a): post-recovery rounds sustain the healthy rate — the
        // figure's version of the ≥ 90% reclaim bar.
        let tput = &fig.panels[0];
        let h = tput.series("healthy baseline").unwrap();
        let c = tput.series("worker failure + recovery").unwrap();
        let last = c.points.len() - 1;
        assert!(
            c.points[last].1 >= 0.9 * h.points[last].1,
            "final round reclaims the healthy throughput: {} vs {}",
            c.points[last].1,
            h.points[last].1
        );
    }

    #[test]
    fn serving_slo_dips_and_recovers() {
        let fig = serving_slo(true);
        let lat = &fig.panels[0];
        let p999 = lat.series("p999 failure run").unwrap();
        let healthy_p99 = lat.series("p99 healthy baseline").unwrap();
        let peak = p999.points.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let healthy_peak = healthy_p99.points.iter().map(|p| p.1).fold(0.0f64, f64::max);
        assert!(
            peak > 2.0 * healthy_peak,
            "the drain burst is a visible latency spike: {peak} vs healthy {healthy_peak}"
        );
        assert!(
            p999.points.last().unwrap().1 <= healthy_peak * 1.5,
            "the tail returns to baseline after recovery"
        );
        // Panel (b): the outage burns budget in at least one window of the
        // failure run, the healthy baseline burns none, and the burn
        // clears by the end of the run.
        let burn = &fig.panels[1];
        let fast = burn.series("fast burn (failure run)").unwrap();
        assert!(fast.points.iter().any(|p| p.1 > 0.0), "the outage lights the fast burn");
        assert_eq!(fast.points.last().unwrap().1, 0.0, "the burn clears after recovery");
        let base = burn.series("fast burn (healthy baseline)").unwrap();
        assert!(base.points.iter().all(|p| p.1 == 0.0), "the healthy run burns no budget");
        // Panel (d): the traced failure run attributes its tail, and the
        // worst window's slow-request time is dominated by the outage
        // machinery — drain queueing plus fault delay, not handler compute.
        let attr = fig
            .panels
            .iter()
            .find(|p| p.title.starts_with("(d) tail attribution"))
            .expect("the traced failure run yields the attribution panel");
        let qw = attr.series("queue_wait").unwrap();
        let fd = attr.series("fault_delay").unwrap();
        let hc = attr.series("handler_compute").unwrap();
        assert!(!qw.points.is_empty(), "violating windows were attributed");
        let outage_peak =
            qw.points.iter().zip(&fd.points).map(|(q, f)| q.1 + f.1).fold(0.0f64, f64::max);
        assert!(
            outage_peak > 50.0,
            "the death window's tail is mostly queueing + fault delay: {outage_peak:.1}%"
        );
        assert!(
            hc.points.iter().all(|p| p.1 < 50.0),
            "no violating window is compute-bound: {:?}",
            hc.points
        );
    }

    #[test]
    fn abl1_tuned_never_worse_than_every_fixed_series() {
        let fig = abl1_base_dim(true);
        let p = &fig.panels[0];
        let tuned = p.series("tuned").unwrap();
        for fixed in ["1dim", "2dim", "best-of-all"] {
            let f = p.series(fixed).unwrap();
            for (t, x) in tuned.points.iter().zip(&f.points) {
                assert!(t.1 <= x.1, "shape {}: tuned {} vs {fixed} {}", t.0, t.1, x.1);
            }
        }
    }

    #[test]
    fn ext1_fastpath_wins() {
        let fig = ext1_shmem_ptr_fastpath(true);
        let p = &fig.panels[0];
        let msg = p.series("message path").unwrap();
        let fast = p.series("shmem_ptr fast path").unwrap();
        assert!(fast.geomean_ratio_over(msg) < 0.7, "fast path should cut intra-node latency");
    }
}
