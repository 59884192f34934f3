//! Figure probes: small traced + metered runs of each figure's dominant
//! communication pattern.
//!
//! A probe is the *regression anchor* of a figure: it is deterministic in
//! virtual time, independent of quick mode and of sweep sizes, and runs
//! with tracing and metrics forced on (which, by the PR 4 observability
//! contract, moves no virtual clock). Its critical-path report becomes the
//! figure's `results/<id>.critpath.json` sidecar and its [`RunDigest`] the
//! figure's record in the committed `BENCH_<platform>.json` baseline — so
//! the `bench regress` CLI can re-run just the probes (seconds, not the
//! full sweeps) and still compare bit-exactly against baselines captured by
//! a full `repro_all`.

use caf::{Backend, StridedAlgorithm};
use caf_apps::{run_himeno_outcome, HimenoConfig};
use pgas_conduit::ConduitProfile;
use pgas_machine::critdiff::RunDigest;
use pgas_machine::json::Json;
use pgas_machine::tailprof::{phase_totals, requests_json, ReqPathReport};
use pgas_machine::{
    with_forced_metrics, with_forced_tracing, CriticalPathReport, MetricsSnapshot, Platform,
    ResolvedKnobs,
};

/// The distilled outcome of one probe run.
pub struct ProbeOutcome {
    /// Platform name the probe ran on (`SimOutcome::machine`), which keys
    /// the `BENCH_<platform>.json` file the record lands in.
    pub platform: String,
    pub report: CriticalPathReport,
    pub metrics: MetricsSnapshot,
    /// Per-request critical paths (empty for figures without request
    /// markers): the serving/churn anchors' digests gain the request-phase
    /// table from these, so `bench regress` attributes a tail regression
    /// to queue-wait vs wire vs fault-delay instead of just "slower".
    pub req_paths: Vec<ReqPathReport>,
    /// The knobs the probe ran under and who set them: printed by `bench
    /// regress` under a regressed figure, never written to a baseline.
    pub knobs: ResolvedKnobs,
}

impl ProbeOutcome {
    /// The comparable digest for baselines and diffing.
    pub fn digest(&self) -> RunDigest {
        RunDigest::from_run_with_requests(&self.report, &self.metrics, &self.req_paths)
    }

    /// The figure sidecar JSON (aggregated segments, plus the request-phase
    /// tail evidence when the probe's app marks requests).
    pub fn sidecar_json(&self) -> Json {
        let mut j = self.report.to_sidecar_json();
        if let (Json::Object(fields), false) = (&mut j, self.req_paths.is_empty()) {
            let phase_ns = phase_totals(self.req_paths.iter().map(|p| p.phase_ns));
            let requests = requests_json(self.req_paths.len() as u64, &phase_ns);
            fields.push(("requests".to_string(), requests));
        }
        j
    }
}

/// Run `f` with tracing and metrics forced on and distill the outcome.
fn probe<R: Send>(f: impl FnOnce() -> pgas_machine::SimOutcome<R>) -> ProbeOutcome {
    let out = with_forced_tracing(true, || with_forced_metrics(true, f));
    ProbeOutcome {
        platform: out.machine.clone(),
        report: out.critical_path(),
        metrics: out.metrics.clone(),
        req_paths: out.req_paths(),
        knobs: out.knobs,
    }
}

/// Probe for the put latency/bandwidth figures: `pairs` senders on node 0
/// stream nbi puts to partners on node 1, then quiet — the 16-pair variant
/// reproduces the NIC contention the paper's Figure 3 measures.
pub fn put_pairs_probe(platform: Platform, pairs: usize, bytes: usize) -> ProbeOutcome {
    use pgas_conduit::{Ctx, CtxOptions};
    let profile = match platform {
        Platform::Stampede => ConduitProfile::mvapich_shmem(),
        _ => ConduitProfile::cray_shmem(platform),
    };
    let heap = (bytes * 2 + (1 << 14)).next_power_of_two();
    // The 16-pair variant contends hard for both nodes' NIC lanes; the
    // virtual-time arbiter keeps the grant order (and so the digest)
    // bit-identical run to run.
    let mcfg = platform.config(2, pairs).with_heap_bytes(heap);
    probe(|| {
        pgas_machine::run(mcfg, move |pe| {
            let ctx = Ctx::new(pe, profile, CtxOptions::default());
            let n = pe.n();
            ctx.barrier_all();
            if pe.id() < n / 2 {
                let dst = pe.id() + n / 2;
                let data = vec![1u8; bytes];
                for _ in 0..4 {
                    ctx.put_nbi(dst, 0, &data);
                }
                ctx.quiet();
            }
            ctx.barrier_all();
        })
    })
}

/// Probe for the strided-section figures: a 2-D strided put between nodes.
pub fn strided_probe(platform: Platform) -> ProbeOutcome {
    use caf::{run_caf, CafConfig, DimRange, Section};
    let mcfg = platform.config(2, 1).with_heap_bytes(1 << 17);
    let ccfg = CafConfig::new(Backend::Shmem, platform).with_strided(StridedAlgorithm::TwoDim);
    probe(|| {
        run_caf(mcfg, ccfg, |img| {
            let shape = [32usize, 32];
            let a = img.coarray::<i32>(&shape).unwrap();
            let sec = Section::new(vec![
                DimRange { start: 0, count: 16, step: 2 },
                DimRange { start: 0, count: 16, step: 2 },
            ]);
            let data = vec![1i32; sec.total()];
            img.sync_all();
            if img.this_image() == 1 {
                a.put_section(img, 2, &sec, &data);
            }
            img.sync_all();
        })
    })
}

/// Probe for the lock figures: every image acquires/releases a lock homed
/// on image 1 (the Figure 8 access pattern).
pub fn lock_probe(platform: Platform, images: usize) -> ProbeOutcome {
    use caf::{run_caf, CafConfig};
    let cores = 16.min(images);
    let nodes = images.div_ceil(cores);
    let mcfg = platform.config(nodes, cores).with_heap_bytes(1 << 16);
    let ccfg = CafConfig::new(Backend::Shmem, platform).with_nonsym_bytes(4096);
    probe(|| {
        run_caf(mcfg, ccfg, |img| {
            let lck = img.lock_var();
            img.sync_all();
            for _ in 0..3 {
                img.lock(&lck, 1);
                img.unlock(&lck, 1);
            }
            img.sync_all();
        })
    })
}

/// Probe for the DHT-throughput figure: 16 images streaming active-message
/// updates with small-op aggregation forced on — the configuration that
/// dethrones the paper's locked get–modify–put pattern. The force makes
/// the digest independent of the `PGAS_COALESCE` environment, so the same
/// baseline holds in both the plain and the `test-aggregated` CI jobs.
pub fn dht_throughput_probe(images: usize) -> ProbeOutcome {
    use caf_apps::{run_dht_outcome, DhtConfig, DhtUpdateMode};
    let cfg = DhtConfig {
        slots_per_image: 64,
        updates_per_image: 24,
        update: DhtUpdateMode::Am,
        ..Default::default()
    };
    probe(|| {
        pgas_machine::with_forced_aggregation(true, || {
            run_dht_outcome(Platform::Titan, Backend::Shmem, images, cfg, true).1
        })
    })
}

/// Probe for the availability-under-churn figure: nine images (eight
/// workers plus a spare) running the full recovery cycle — a scheduled
/// worker death mid-run, team re-formation that admits the spare, shard
/// redistribution and journal replay.
/// Aggregation *and* payload checksums are forced on internally, so the
/// digest is independent of both the `PGAS_COALESCE` and `PGAS_CHECKSUM`
/// environments: the plain, `test-aggregated` and `test-recovery` CI jobs
/// all compare against the same committed baseline.
pub fn availability_churn_probe() -> ProbeOutcome {
    use caf_apps::{run_churn_outcome, ChurnConfig};
    use pgas_machine::{
        with_forced_aggregation, with_forced_checksums, with_forced_plan, FaultPlan,
    };
    let cfg = ChurnConfig::default();
    // The calibrated scenario the churn tests pin down: worker image 5
    // (PE 4) dies at 30 µs, mid round 3's generation of the default
    // config's ~61 µs healthy makespan.
    let plan = FaultPlan::new(cfg.seed).with_pe_failure(4, 30_000);
    probe(move || {
        with_forced_aggregation(true, || {
            with_forced_checksums(true, || {
                with_forced_plan(plan, || {
                    run_churn_outcome(Platform::Titan, Backend::Shmem, 9, cfg).1
                })
            })
        })
    })
}

/// Probe for the serving-SLO figure: nine images (eight open-loop workers
/// plus a spare) running the calibrated mini serving scenario — Poisson
/// arrivals from the shared global stream, Zipfian keys, AM writes, and a
/// scheduled worker death early in the first epoch so detection waits a
/// near-full epoch and the parked requests drain with outage-length
/// latencies. Aggregation, payload checksums and the fault plan are all
/// forced internally, so the digest is independent of the
/// `PGAS_COALESCE`/`PGAS_CHECKSUM` environments, like the churn anchor.
pub fn serving_slo_probe() -> ProbeOutcome {
    use caf_apps::serve::{run_serve_outcome, ServeConfig};
    use pgas_machine::{
        with_forced_aggregation, with_forced_checksums, with_forced_plan, FaultPlan,
    };
    let cfg = ServeConfig {
        keyspace: 10_000,
        requests_per_image: 40,
        epochs: 2,
        slots_per_shard: 64,
        mean_gap_ns: 1_500.0,
        ..Default::default()
    };
    // The serve tests' calibrated scenario: worker image 5 (PE 4) dies at
    // 12 µs, early in the first epoch of the ~80 µs run.
    let plan = FaultPlan::new(cfg.seed).with_pe_failure(4, 12_000);
    probe(move || {
        with_forced_aggregation(true, || {
            with_forced_checksums(true, || {
                with_forced_plan(plan, || {
                    run_serve_outcome(Platform::Titan, Backend::Shmem, 9, cfg, true).1
                })
            })
        })
    })
}

/// Probe for the Himeno figure: a traced 8-image run of the real solver.
pub fn himeno_probe() -> ProbeOutcome {
    probe(|| {
        run_himeno_outcome(
            Platform::Stampede,
            Backend::Shmem,
            Some(StridedAlgorithm::Naive),
            8,
            HimenoConfig::size_xs(),
        )
        .1
    })
}

/// Every figure id the harness knows, in emission order.
pub const FIGURE_IDS: [&str; 14] = [
    "fig2_put_latency",
    "fig3_put_bandwidth",
    "fig6_xc30_caf",
    "fig7_stampede_caf",
    "fig8_locks",
    "fig9_dht",
    "dht_throughput",
    "fig10_himeno",
    "availability_churn",
    "serving_slo",
    "abl1_base_dim",
    "abl2_lock_algorithms",
    "ext1_shmem_ptr_fastpath",
    "supp_pt2pt",
];

/// Run the probe anchoring `figure_id`. `None` for unknown ids.
///
/// Aggregation policy per anchor: the *direct-path* figures (latency,
/// strided algorithms, lock ablation, Himeno solver, fastpath) pin
/// coalescing off — their figures measure unaggregated wire physics, and
/// on their microsecond-scale makespans even the AM unpack handler's few
/// hundred ns of compute would read as a category regression. The
/// *contention-scale* anchors (fig3's 16-pair stream, fig8/fig9's
/// 1024-image lock queue, the supplementary kernels) stay env-sensitive
/// on purpose: `PGAS_COALESCE=on bench diff fig3_put_bandwidth` is the
/// acceptance evidence for the aggregation win, and the `test-aggregated`
/// CI job's 5% regress tolerance genuinely gates those paths. The
/// dht_throughput probe forces aggregation *on* internally (see above).
pub fn probe_for(figure_id: &str) -> Option<ProbeOutcome> {
    let direct = |f: &dyn Fn() -> ProbeOutcome| pgas_machine::with_forced_aggregation(false, f);
    Some(match figure_id {
        "fig2_put_latency" | "ext1_shmem_ptr_fastpath" => {
            direct(&|| put_pairs_probe(Platform::Stampede, 1, 4096))
        }
        "fig3_put_bandwidth" => put_pairs_probe(Platform::Stampede, 16, 65536),
        "fig6_xc30_caf" | "abl1_base_dim" => direct(&|| strided_probe(Platform::CrayXc30)),
        "fig7_stampede_caf" => direct(&|| strided_probe(Platform::Stampede)),
        // Paper scale: Figure 8/9 sweep to 1024+ images, so their anchor
        // races the full thousand-image MCS queue (the ablation keeps the
        // small anchor — its sweep caps at 64).
        "fig8_locks" | "fig9_dht" => lock_probe(Platform::Titan, 1024),
        "dht_throughput" => dht_throughput_probe(16),
        // Both recovery anchors force their whole environment (aggregation,
        // checksums, fault plan) internally — see the probes' own docs.
        "availability_churn" => availability_churn_probe(),
        "serving_slo" => serving_slo_probe(),
        "abl2_lock_algorithms" => direct(&|| lock_probe(Platform::Titan, 8)),
        "fig10_himeno" => direct(&himeno_probe),
        "supp_pt2pt" => put_pairs_probe(Platform::Titan, 1, 65536),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_deterministic() {
        let a = put_pairs_probe(Platform::Stampede, 1, 4096);
        let b = put_pairs_probe(Platform::Stampede, 1, 4096);
        assert_eq!(a.platform, "stampede");
        assert_eq!(a.digest(), b.digest(), "same probe, same digest, bit for bit");
        assert_eq!(a.report.total_ns(), a.report.makespan_ns, "probe report tiles the makespan");
        assert!(!a.metrics.histograms.is_empty(), "probes run with metrics on");
    }

    #[test]
    fn contended_probe_is_deterministic() {
        // The Figure 3 anchor: 16 senders racing for two NIC lanes. Without
        // the virtual-time arbiter, real thread scheduling decides the lane
        // order and the per-PE attribution flips run to run.
        let a = put_pairs_probe(Platform::Stampede, 16, 65536);
        let b = put_pairs_probe(Platform::Stampede, 16, 65536);
        assert_eq!(a.digest(), b.digest(), "contended digest must be bit-identical");
    }

    #[test]
    fn lock_probe_is_deterministic() {
        // The Figure 8/9 anchor: 8 images racing MCS tail swaps. The queue
        // order is the value a tied `swap` fetches, so the digest is only
        // stable because tied AMO applications serialize through the
        // virtual-time arbiter instead of host scheduling.
        let a = lock_probe(Platform::Titan, 8);
        let b = lock_probe(Platform::Titan, 8);
        assert_eq!(a.digest(), b.digest(), "lock digest must be bit-identical");
    }

    #[test]
    fn every_figure_id_has_a_probe() {
        // Cheap structural check: the registry covers all ids (actually
        // running all 14 probes belongs to `bench record`, not unit tests).
        for id in FIGURE_IDS {
            assert!(
                matches!(
                    id,
                    "fig2_put_latency"
                        | "fig3_put_bandwidth"
                        | "fig6_xc30_caf"
                        | "fig7_stampede_caf"
                        | "fig8_locks"
                        | "fig9_dht"
                        | "dht_throughput"
                        | "fig10_himeno"
                        | "availability_churn"
                        | "serving_slo"
                        | "abl1_base_dim"
                        | "abl2_lock_algorithms"
                        | "ext1_shmem_ptr_fastpath"
                        | "supp_pt2pt"
                ),
                "unknown id {id}"
            );
        }
        assert!(probe_for("not_a_figure").is_none());
    }

    #[test]
    fn availability_churn_probe_is_deterministic_and_env_independent() {
        // The recovery anchor forces aggregation, checksums and its fault
        // plan internally: the digest must not move under the ambient
        // `PGAS_COALESCE`/`PGAS_CHECKSUM` the CI matrix varies, and the
        // scheduled death must actually fire inside the probe.
        let a = availability_churn_probe();
        let b = pgas_machine::with_forced_checksums(false, || {
            pgas_machine::with_forced_aggregation(false, availability_churn_probe)
        });
        assert_eq!(a.digest(), b.digest(), "churn probe digest must be bit-identical");
        assert_eq!(a.platform, "titan");
        assert_eq!(a.metrics.stats.pe_failures, 1, "the scheduled failure is in the anchor");
    }

    #[test]
    fn serving_slo_probe_is_deterministic_and_env_independent() {
        // The serving anchor forces aggregation, checksums and its fault
        // plan internally, so the digest must not move under the ambient
        // `PGAS_COALESCE`/`PGAS_CHECKSUM` the CI matrix varies, and the
        // scheduled death must actually fire inside the probe.
        let a = serving_slo_probe();
        let b = pgas_machine::with_forced_checksums(false, || {
            pgas_machine::with_forced_aggregation(false, serving_slo_probe)
        });
        assert_eq!(a.digest(), b.digest(), "serving probe digest must be bit-identical");
        assert_eq!(a.platform, "titan");
        assert_eq!(a.metrics.stats.pe_failures, 1, "the scheduled failure is in the anchor");
        assert!(
            a.metrics.windows.iter().any(|w| w.name == "serve_latency_ns"),
            "the windowed latency series is in the anchor's metrics"
        );
        assert!(!a.req_paths.is_empty(), "the serving anchor marks its requests");
        let d = a.digest();
        assert_eq!(d.req_count, a.req_paths.len() as u64, "digest carries the request table");
        assert!(d.req_phase_ns.iter().sum::<u64>() > 0, "request phases attribute real time");
    }

    #[test]
    fn dht_throughput_probe_is_deterministic_and_env_independent() {
        // The probe forces aggregation on internally, so its digest must
        // not depend on the ambient `PGAS_COALESCE` (both CI jobs compare
        // against the same committed baseline).
        let a = dht_throughput_probe(8);
        let b = pgas_machine::with_forced_aggregation(true, || dht_throughput_probe(8));
        assert_eq!(a.digest(), b.digest(), "dht probe digest must be bit-identical");
        assert!(!a.metrics.histograms.is_empty(), "probes run with metrics on");
    }
}
