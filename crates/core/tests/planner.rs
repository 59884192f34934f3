//! End-to-end tests for the strided planner (`caf::planner::plan`): it must
//! predict a statement's virtual time exactly and never lose to the fixed
//! Naive/TwoDim algorithms on any platform/backend profile.

use caf::planner::TransferDir;
use caf::{Backend, CafConfig, CoalescePolicy, DimRange, PlanDecision, Section, StridedAlgorithm};
use pgas_conduit::AmoSupport;
use pgas_machine::{generic_smp, FaultPlan, Platform};

/// Virtual time of three repetitions of `put_section` under `algo`.
fn time_with(
    platform: Platform,
    backend: Backend,
    algo: StridedAlgorithm,
    dims: &[DimRange],
    shape: &[usize],
) -> u64 {
    let sec = Section::new(dims.to_vec());
    let shape = shape.to_vec();
    let cfg = match platform {
        Platform::GenericSmp => generic_smp(2),
        _ => platform.config(2, 1),
    };
    let out = caf::run_caf(
        cfg.with_heap_bytes(1 << 20),
        CafConfig::new(backend, platform).with_strided(algo),
        move |img| {
            let a = img.coarray::<i32>(&shape).unwrap();
            if img.this_image() == 1 {
                let data = vec![1i32; sec.total()];
                let t0 = img.shmem().ctx().pe().now();
                for _ in 0..3 {
                    a.put_section(img, 2, &sec, &data);
                }
                img.shmem().ctx().pe().now() - t0
            } else {
                0
            }
        },
    );
    out.results[0]
}

/// Virtual time of three repetitions of `get_section` under `algo` — the
/// get-heavy mirror of [`time_with`]. Gets are blocking, so the elapsed
/// clock is the full transfer cost with no tail hidden behind `quiet`.
fn time_with_get(
    platform: Platform,
    backend: Backend,
    algo: StridedAlgorithm,
    dims: &[DimRange],
    shape: &[usize],
) -> u64 {
    let sec = Section::new(dims.to_vec());
    let shape = shape.to_vec();
    let cfg = match platform {
        Platform::GenericSmp => generic_smp(2),
        _ => platform.config(2, 1),
    };
    let out = caf::run_caf(
        cfg.with_heap_bytes(1 << 20),
        CafConfig::new(backend, platform).with_strided(algo),
        move |img| {
            let a = img.coarray::<i32>(&shape).unwrap();
            img.sync_all();
            if img.this_image() == 1 {
                let t0 = img.shmem().ctx().pe().now();
                for _ in 0..3 {
                    let back = a.get_section(img, 2, &sec);
                    assert_eq!(back.len(), sec.total());
                }
                img.shmem().ctx().pe().now() - t0
            } else {
                0
            }
        },
    );
    out.results[0]
}

/// The profile matrix the EXPERIMENTS sweep covers.
const COMBOS: [(Platform, Backend); 6] = [
    (Platform::Stampede, Backend::Shmem), // emulated iput (loop)
    (Platform::Stampede, Backend::Gasnet),
    (Platform::Titan, Backend::Shmem), // native iput
    (Platform::CrayXc30, Backend::Shmem),
    (Platform::CrayXc30, Backend::CrayCaf),
    (Platform::GenericSmp, Backend::Shmem),
];

/// Sections exercising the planner's three regimes: contiguous rows,
/// all-strided pencils, and a deep-stride layout whose 4 KiB-strided
/// dimension has the longer pencils (the cost model charges iput scatter by
/// element count, not stride depth).
fn sections() -> Vec<(Vec<DimRange>, Vec<usize>)> {
    vec![
        // Matrix-oriented: contiguous rows, strided columns.
        (
            vec![
                DimRange { start: 0, count: 32, step: 1 },
                DimRange { start: 0, count: 8, step: 3 },
            ],
            vec![32, 24],
        ),
        // All-strided, dim1 dominant: pencil plans at their best.
        (
            vec![
                DimRange { start: 0, count: 8, step: 2 },
                DimRange { start: 0, count: 32, step: 2 },
            ],
            vec![16, 64],
        ),
        // Deep strides: dim0 stride 64 B with 32-long pencils; dim1 stride
        // 4 KiB with 48-long pencils.
        (
            vec![
                DimRange { start: 0, count: 32, step: 16 },
                DimRange { start: 0, count: 48, step: 2 },
            ],
            vec![512, 96],
        ),
    ]
}

#[test]
fn tuned_never_worse_than_naive_or_twodim() {
    for (dims, shape) in sections() {
        for (platform, backend) in COMBOS {
            let tuned = time_with(platform, backend, StridedAlgorithm::Tuned, &dims, &shape);
            for rival in [StridedAlgorithm::Naive, StridedAlgorithm::TwoDim] {
                let other = time_with(platform, backend, rival, &dims, &shape);
                assert!(
                    tuned <= other,
                    "{platform:?}/{backend:?} {dims:?}: tuned {tuned} > {rival:?} {other}"
                );
            }
        }
    }
}

#[test]
fn tuned_never_worse_than_rivals_on_get_heavy_sections() {
    // Gets pay the request round trip on every call, so call-heavy plans
    // cost more than on the put side. The planner prices gets with the get
    // estimators and must never lose to the fixed algorithms on any
    // profile-matrix combo.
    for (dims, shape) in sections() {
        for (platform, backend) in COMBOS {
            let tuned = time_with_get(platform, backend, StridedAlgorithm::Tuned, &dims, &shape);
            for rival in [StridedAlgorithm::Naive, StridedAlgorithm::TwoDim] {
                let other = time_with_get(platform, backend, rival, &dims, &shape);
                assert!(
                    tuned <= other,
                    "{platform:?}/{backend:?} {dims:?}: tuned get {tuned} > {rival:?} {other}"
                );
            }
        }
    }
}

/// One put or get statement of `sec` from image 1 to image 2 under `algo`,
/// on otherwise idle NICs: the measured statement time and the planner
/// decisions it recorded.
fn statement(
    platform: Platform,
    backend: Backend,
    algo: StridedAlgorithm,
    dims: &[DimRange],
    shape: &[usize],
    dir: TransferDir,
) -> (u64, Vec<PlanDecision>) {
    let sec = Section::new(dims.to_vec());
    let shape = shape.to_vec();
    let cfg = match platform {
        Platform::GenericSmp => generic_smp(2),
        _ => platform.config(2, 1),
    };
    let out = caf::run_caf(
        cfg.with_heap_bytes(1 << 20).with_faults(FaultPlan::none()),
        CafConfig::new(backend, platform).with_strided(algo).with_aggregation(CoalescePolicy::Off),
        move |img| {
            let a = img.coarray::<i32>(&shape).unwrap();
            img.sync_all();
            if img.this_image() != 1 {
                return 0;
            }
            let t0 = img.shmem().ctx().pe().now();
            match dir {
                TransferDir::Put => a.put_section(img, 2, &sec, &vec![1i32; sec.total()]),
                TransferDir::Get => assert_eq!(a.get_section(img, 2, &sec).len(), sec.total()),
            }
            img.shmem().ctx().pe().now() - t0
        },
    );
    (out.results[0], out.plan_decisions)
}

#[test]
fn the_tuned_prediction_is_the_statement_cost() {
    // The tuned planner prices with the cost model on idle lanes, so on a
    // machine with nothing else in flight its prediction is the transfer's
    // virtual time to the ns. The statement adds its quiet (before a get,
    // after a put), which waits for nothing left over and costs a quarter
    // of a put issue.
    for (dims, shape) in sections() {
        for (platform, backend) in COMBOS {
            let profile = backend.profile(platform);
            let quiet = (profile.put_issue_ns / 4.0).round() as u64;
            for dir in [TransferDir::Put, TransferDir::Get] {
                let at = format!("{platform:?}/{backend:?} {dir:?} {dims:?}");
                let (measured, decisions) =
                    statement(platform, backend, StridedAlgorithm::Tuned, &dims, &shape, dir);
                assert_eq!(decisions.len(), 1, "{at}: one planned transfer");
                let d = &decisions[0];
                assert_eq!(d.predicted_ns.fract(), 0.0, "{at}: predictions are whole ns");
                assert_eq!(
                    measured,
                    d.predicted_ns as u64 + quiet,
                    "{at}: chose {} among {:?}",
                    d.chosen,
                    d.candidates
                );
                // The packed candidate exists iff an AM layer does, and is
                // priced at what the AM-packed algorithm measures.
                let packed = d.candidates.iter().find(|(label, _)| label == "packed");
                let am = matches!(profile.amo, AmoSupport::AmEmulated { .. });
                assert_eq!(packed.is_some(), am, "{at}: packed iff an AM layer exists");
                if let Some(&(_, price)) = packed {
                    let (measured, _) = statement(
                        platform,
                        backend,
                        StridedAlgorithm::AmPacked,
                        &dims,
                        &shape,
                        dir,
                    );
                    assert_eq!(measured, price as u64 + quiet, "{at}: packed price");
                }
            }
        }
    }
}

#[test]
fn plan_decisions_are_recorded_with_candidates() {
    let (dims, shape) = sections().into_iter().nth(1).unwrap();
    let sec = Section::new(dims);
    let out = caf::run_caf(
        Platform::CrayXc30.config(2, 1).with_heap_bytes(1 << 20),
        CafConfig::new(Backend::Shmem, Platform::CrayXc30).with_strided(StridedAlgorithm::Tuned),
        move |img| {
            let a = img.coarray::<i32>(&shape).unwrap();
            img.sync_all();
            if img.this_image() == 1 {
                a.put_section(img, 2, &sec, &vec![1i32; sec.total()]);
            }
            img.sync_all();
        },
    );
    assert_eq!(out.plan_decisions.len(), 1, "one planned transfer");
    assert_eq!(out.stats.plans, 1, "counter matches the log");
    let d = &out.plan_decisions[0];
    assert_eq!(d.pe, 0, "image 1 planned it");
    assert!(d.candidates.len() >= 3, "runs + both dims costed");
    let min = d.candidates.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min);
    assert_eq!(d.predicted_ns, min, "chose the cheapest candidate");
    assert!(
        d.candidates.iter().any(|(label, c)| label == &d.chosen && *c == d.predicted_ns),
        "chosen plan appears among candidates"
    );
}

#[test]
fn fixed_algorithms_record_no_decisions() {
    let (dims, shape) = sections().into_iter().next().unwrap();
    let sec = Section::new(dims);
    let out = caf::run_caf(
        Platform::CrayXc30.config(2, 1).with_heap_bytes(1 << 20),
        CafConfig::new(Backend::Shmem, Platform::CrayXc30).with_strided(StridedAlgorithm::TwoDim),
        move |img| {
            let a = img.coarray::<i32>(&shape).unwrap();
            img.sync_all();
            if img.this_image() == 1 {
                a.put_section(img, 2, &sec, &vec![1i32; sec.total()]);
            }
            img.sync_all();
        },
    );
    assert!(out.plan_decisions.is_empty());
    assert_eq!(out.stats.plans, 0);
}

#[test]
fn tuned_moves_identical_bytes_to_other_algorithms() {
    // The planner only changes *how* bytes move, never *what* arrives.
    let shape = [7usize, 6, 5];
    let sec = Section::new(vec![
        DimRange::triplet(1, 5, 2),
        DimRange::triplet(0, 5, 3),
        DimRange::triplet(2, 4, 2),
    ]);
    let total = sec.total();
    let mut reference: Option<Vec<f64>> = None;
    for algo in [StridedAlgorithm::Naive, StridedAlgorithm::Tuned] {
        let sec = sec.clone();
        let out = caf::run_caf(
            generic_smp(2).with_heap_bytes(1 << 18),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp).with_strided(algo),
            move |img| {
                let a = img.coarray::<f64>(&shape).unwrap();
                img.sync_all();
                if img.this_image() == 1 {
                    let data: Vec<f64> = (0..total).map(|i| i as f64 + 0.5).collect();
                    a.put_section(img, 2, &sec, &data);
                }
                img.sync_all();
                a.read_local(img)
            },
        );
        let got = out.results[1].clone();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{algo:?} diverged from Naive"),
        }
    }
}
