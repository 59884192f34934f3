//! Remote access to multi-dimensional strided sections (paper §IV-C).
//!
//! OpenSHMEM's strided interface (`shmem_iput`/`shmem_iget`) handles only
//! one dimension, so the runtime must compose multi-dimensional transfers.
//! The algorithms:
//!
//! * **Naive** — one contiguous transfer per stride-1 run. With a strided
//!   innermost dimension this is one `putmem` per *element* — the 50×40×25
//!   calls of the paper's example.
//! * **OneDim** — one `iput` per pencil along dimension 1, regardless of
//!   element counts (our model of the Cray compiler's runtime).
//! * **TwoDim** — the paper's `2dim_strided`: choose the base dimension with
//!   the most elements among the first two dimensions (bounding the choice
//!   preserves locality at the target), then one `iput` per remaining
//!   pencil: 1×40×25 calls in the example.
//! * **BestOfAll** — ablation: choose the best dimension among all of them.
//! * **AmPacked** — pack everything into one active message (GASNet VIS).

use crate::config::StridedAlgorithm;
use crate::planner::{self, TransferDir};
use crate::section::Section;
use openshmem::data::{zero, Scalar, SymPtr};
use openshmem::Shmem;

/// An execution plan for a section transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// One contiguous transfer per stride-1 run.
    Runs,
    /// One 1-D strided call per pencil along the given dimension.
    BaseDim(usize),
    /// One AM-packed message.
    Packed,
}

/// Label a concrete plan for the decision log ("runs", "dim1", "packed").
pub fn plan_label(plan: Plan) -> String {
    match plan {
        Plan::Runs => "runs".into(),
        Plan::BaseDim(d) => format!("dim{d}"),
        Plan::Packed => "packed".into(),
    }
}

/// Choose a plan; for the tuned planner also record its decision (chosen
/// plan, predicted cost, every candidate cost) in the machine's stats and
/// return the predicted cost, so figures and callers can contrast it
/// against measured virtual time.
fn plan_of(
    shmem: &Shmem<'_>,
    algo: StridedAlgorithm,
    target_pe: usize,
    sec: &Section,
    elem: usize,
    dir: TransferDir,
) -> (Plan, Option<f64>) {
    let plan = match algo {
        StridedAlgorithm::Naive => Plan::Runs,
        StridedAlgorithm::OneDim => Plan::BaseDim(0),
        StridedAlgorithm::TwoDim => Plan::BaseDim(sec.best_dim(2)),
        StridedAlgorithm::BestOfAll => Plan::BaseDim(sec.best_dim(usize::MAX)),
        StridedAlgorithm::AmPacked => Plan::Packed,
        StridedAlgorithm::Tuned => {
            let choice = planner::plan(shmem, target_pe, sec, elem, dir);
            shmem.machine().stats().record_plan(pgas_machine::stats::PlanDecision {
                pe: shmem.my_pe(),
                chosen: plan_label(choice.plan),
                predicted_ns: choice.predicted_ns,
                candidates: choice.candidates.iter().map(|&(p, c)| (plan_label(p), c)).collect(),
            });
            return (choice.plan, Some(choice.predicted_ns));
        }
    };
    (plan, None)
}

/// Surface a planner misprediction as a metric: the measured issue-side
/// virtual time of the transfer over the planner's predicted cost, as an
/// integer percentage (100 = perfect, 200 = twice as slow as predicted).
fn record_misprediction(shmem: &Shmem<'_>, target_pe: usize, predicted_ns: Option<f64>, t0: u64) {
    let Some(pred) = predicted_ns else { return };
    let m = shmem.machine();
    if !m.metrics().enabled() || pred <= 0.0 {
        return;
    }
    let actual = shmem.ctx().pe().now().saturating_sub(t0);
    let ratio_pct = ((actual as f64 / pred) * 100.0).round() as u64;
    m.metrics().observe(
        shmem.my_pe(),
        "plan_cost_ratio_pct",
        Some(m.node_of(target_pe)),
        ratio_pct,
    );
}

/// Length in elements of the section's stride-1 runs: a whole pencil along
/// dimension 0 when that dimension is contiguous, one element otherwise.
fn run_len(sec: &Section) -> usize {
    let d0 = sec.dims()[0];
    if d0.step == 1 {
        d0.count
    } else {
        1
    }
}

/// `(array element offset, packed element offset)` of each stride-1 run, in
/// packed order; every run is [`run_len`] elements long.
fn runs<'a>(sec: &'a Section, shape: &[usize]) -> impl Iterator<Item = (usize, usize)> + 'a {
    let d0 = sec.dims()[0];
    let per_pencil = d0.count / run_len(sec);
    sec.pencils(shape, 0).flat_map(move |(arr, packed)| {
        (0..per_pencil).map(move |k| (arr + k * d0.step, packed + k))
    })
}

/// Byte regions (offset, len) of the section's stride-1 runs, in packed
/// order, for the AM-packed path.
fn byte_runs<T: Scalar>(ptr: SymPtr<T>, shape: &[usize], sec: &Section) -> Vec<(usize, usize)> {
    let len = run_len(sec) * T::BYTES;
    runs(sec, shape).map(|(arr, _)| (ptr.offset() + arr * T::BYTES, len)).collect()
}

/// Write `data` (the section's elements, packed column-major) into
/// `target_pe`'s copy of the array at `ptr`/`shape`, selected by `sec`.
///
/// Host work is linear in `sec.total()`: every call below is handed exactly
/// the packed elements it transfers.
pub fn put_section<T: Scalar>(
    shmem: &Shmem<'_>,
    algo: StridedAlgorithm,
    target_pe: usize,
    ptr: SymPtr<T>,
    shape: &[usize],
    sec: &Section,
    data: &[T],
) {
    sec.validate(shape).unwrap_or_else(|e| panic!("invalid section: {e}"));
    assert_eq!(data.len(), sec.total(), "packed data length must equal the section size");
    assert_eq!(ptr.count(), shape.iter().product::<usize>(), "pointer/shape mismatch");
    if sec.is_full_contiguous(shape) {
        shmem.put(ptr, data, target_pe);
        return;
    }
    let (plan, predicted) = plan_of(shmem, algo, target_pe, sec, T::BYTES, TransferDir::Put);
    let t0 = shmem.ctx().pe().now();
    match plan {
        Plan::Runs => {
            let run = run_len(sec);
            for (arr, packed) in runs(sec, shape) {
                shmem.put(ptr.at(arr), &data[packed..packed + run], target_pe);
            }
        }
        Plan::BaseDim(base) => {
            let n = sec.dims()[base].count;
            let tst = sec.array_stride(shape, base);
            let sst = sec.packed_stride(base);
            let span = (n - 1) * sst + 1;
            for (arr, packed) in sec.pencils(shape, base) {
                shmem.iput(ptr.at(arr), tst, &data[packed..packed + span], sst, n, target_pe);
            }
        }
        Plan::Packed => {
            let regions = byte_runs(ptr, shape, sec);
            shmem.with_ne_bytes(data, |bytes| {
                shmem.ctx().am_put_regions(target_pe, &regions, bytes)
            });
        }
    }
    record_misprediction(shmem, target_pe, predicted, t0);
}

/// Read the section of `target_pe`'s copy of the array into a packed vector.
/// Linear in `sec.total()`, like [`put_section`].
pub fn get_section<T: Scalar>(
    shmem: &Shmem<'_>,
    algo: StridedAlgorithm,
    target_pe: usize,
    ptr: SymPtr<T>,
    shape: &[usize],
    sec: &Section,
) -> Vec<T> {
    sec.validate(shape).unwrap_or_else(|e| panic!("invalid section: {e}"));
    assert_eq!(ptr.count(), shape.iter().product::<usize>(), "pointer/shape mismatch");
    let mut out = vec![zero::<T>(); sec.total()];
    if sec.is_full_contiguous(shape) {
        shmem.get(ptr, &mut out, target_pe);
        return out;
    }
    let (plan, predicted) = plan_of(shmem, algo, target_pe, sec, T::BYTES, TransferDir::Get);
    let t0 = shmem.ctx().pe().now();
    match plan {
        Plan::Runs => {
            let run = run_len(sec);
            for (arr, packed) in runs(sec, shape) {
                shmem.get(ptr.at(arr), &mut out[packed..packed + run], target_pe);
            }
        }
        Plan::BaseDim(base) => {
            let n = sec.dims()[base].count;
            let sst = sec.array_stride(shape, base);
            let tst = sec.packed_stride(base);
            let span = (n - 1) * tst + 1;
            for (arr, packed) in sec.pencils(shape, base) {
                shmem.iget(ptr.at(arr), sst, &mut out[packed..packed + span], tst, n, target_pe);
            }
        }
        Plan::Packed => {
            let regions = byte_runs(ptr, shape, sec);
            let filled = shmem.fill_ne_bytes(&mut out, |bytes| {
                shmem.ctx().am_get_regions(target_pe, &regions, bytes);
                Ok::<(), std::convert::Infallible>(())
            });
            let Ok(()) = filled;
        }
    }
    record_misprediction(shmem, target_pe, predicted, t0);
    out
}

/// Number of communication calls each (static) algorithm issues for a
/// section — the quantity the paper's §IV-C analysis counts
/// (50·40·25 vs 1·40·25). For `Tuned`, ask [`crate::planner::plan`] for
/// the plan and use [`plan_call_count`] instead (the choice depends on the
/// conduit).
pub fn call_count(algo: StridedAlgorithm, sec: &Section) -> usize {
    let plan = match algo {
        StridedAlgorithm::Naive => Plan::Runs,
        StridedAlgorithm::OneDim => Plan::BaseDim(0),
        StridedAlgorithm::TwoDim => Plan::BaseDim(sec.best_dim(2)),
        StridedAlgorithm::BestOfAll => Plan::BaseDim(sec.best_dim(usize::MAX)),
        StridedAlgorithm::AmPacked => Plan::Packed,
        StridedAlgorithm::Tuned => {
            panic!("call_count(Tuned) is conduit-dependent; use planner::plan + plan_call_count")
        }
    };
    plan_call_count(plan, sec)
}

/// Communication calls a concrete [`Plan`] issues for a section.
pub fn plan_call_count(plan: Plan, sec: &Section) -> usize {
    match plan {
        Plan::Runs => sec.total() / run_len(sec),
        Plan::Packed => 1,
        Plan::BaseDim(base) => sec.total() / sec.dims()[base].count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, CafConfig, StridedAlgorithm::*};
    use crate::runtime::run_caf;
    use crate::section::DimRange;
    use pgas_machine::{generic_smp, stampede, Platform};

    #[test]
    fn paper_call_count_example() {
        // 3-D example from §IV-C: section (1:100:2, 1:80:2, 1:100:4) of
        // X(100,100,100) -> naive 50*40*25, 2dim 40*25.
        let sec = Section::new(vec![
            DimRange::triplet(0, 99, 2),
            DimRange::triplet(0, 79, 2),
            DimRange::triplet(0, 99, 4),
        ]);
        assert_eq!(call_count(Naive, &sec), 50 * 40 * 25);
        assert_eq!(call_count(TwoDim, &sec), 40 * 25);
        assert_eq!(call_count(OneDim, &sec), 40 * 25); // dim0 happens to be best
        assert_eq!(call_count(AmPacked, &sec), 1);
    }

    #[test]
    fn call_counts_where_dim1_dominates() {
        // dim0 has 8 elements, dim1 has 64: the 2dim algorithm picks dim1;
        // the Cray model (OneDim) is stuck with dim0 and pays 8x the calls.
        let sec = Section::new(vec![
            DimRange { start: 0, count: 8, step: 2 },
            DimRange { start: 0, count: 64, step: 2 },
        ]);
        assert_eq!(call_count(TwoDim, &sec), 8);
        assert_eq!(call_count(OneDim, &sec), 64);
        assert_eq!(call_count(Naive, &sec), 512);
    }

    #[test]
    fn naive_coalesces_contiguous_rows() {
        // Matrix-oriented halo: contiguous rows, strided columns (§V-D).
        let sec = Section::new(vec![
            DimRange { start: 0, count: 100, step: 1 },
            DimRange { start: 0, count: 30, step: 3 },
        ]);
        assert_eq!(call_count(Naive, &sec), 30, "one putmem per row");
        assert_eq!(call_count(TwoDim, &sec), 30, "iput along the contiguous rows");
    }

    #[test]
    fn all_algorithms_move_identical_bytes_3d() {
        let shape = [7, 6, 5];
        let sec = Section::new(vec![
            DimRange::triplet(1, 5, 2),
            DimRange::triplet(0, 5, 3),
            DimRange::triplet(2, 4, 2),
        ]);
        let total = sec.total();
        let mut reference: Option<Vec<f64>> = None;
        for algo in [Naive, OneDim, TwoDim, BestOfAll, AmPacked] {
            let out = run_caf(
                generic_smp(2).with_heap_bytes(1 << 18),
                CafConfig::new(Backend::Shmem, Platform::GenericSmp).with_strided(algo),
                |img| {
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
        // Sanity: the reference itself contains the packed values at the
        // section's element positions.
        let r = reference.unwrap();
        for (i, (arr, packed)) in sec.elements(&shape).iter().enumerate() {
            assert_eq!(r[*arr], *packed as f64 + 0.5, "element {i}");
        }
    }

    #[test]
    fn message_counts_observed_by_machine_stats() {
        let shape = [16, 16];
        let sec = Section::new(vec![
            DimRange { start: 0, count: 8, step: 2 },
            DimRange { start: 0, count: 8, step: 2 },
        ]);
        // On a Cray-like SHMEM (native iput), 2dim issues 8 messages,
        // naive issues 64.
        let count_for = |algo| {
            let out = run_caf(
                pgas_machine::titan(2, 1).with_heap_bytes(1 << 18),
                CafConfig::new(Backend::Shmem, Platform::Titan).with_strided(algo),
                |img| {
                    let a = img.coarray::<i64>(&shape).unwrap();
                    img.sync_all();
                    if img.this_image() == 1 {
                        let data = vec![7i64; sec.total()];
                        a.put_section(img, 2, &sec, &data);
                    }
                    img.sync_all();
                },
            );
            out.stats.puts
        };
        assert_eq!(count_for(TwoDim), 8);
        assert_eq!(count_for(Naive), 64);
        assert_eq!(count_for(AmPacked), 1);
        // On MVAPICH2-X (loop iput), 2dim degenerates to 64 messages — the
        // key §V-B2 observation.
        let out = run_caf(
            stampede(2, 1).with_heap_bytes(1 << 18),
            CafConfig::new(Backend::Shmem, Platform::Stampede).with_strided(TwoDim),
            |img| {
                let a = img.coarray::<i64>(&shape).unwrap();
                img.sync_all();
                if img.this_image() == 1 {
                    a.put_section(img, 2, &sec, &vec![7i64; sec.total()]);
                }
                img.sync_all();
            },
        );
        assert_eq!(out.stats.puts, 64);
    }

    #[test]
    fn get_section_round_trips_on_all_algorithms() {
        let shape = [9, 4];
        let sec = Section::new(vec![DimRange::triplet(0, 8, 4), DimRange::triplet(1, 3, 2)]);
        for algo in [Naive, OneDim, TwoDim, BestOfAll, AmPacked] {
            let out = run_caf(
                generic_smp(2).with_heap_bytes(1 << 18),
                CafConfig::new(Backend::Shmem, Platform::GenericSmp).with_strided(algo),
                |img| {
                    let a = img.coarray::<i32>(&shape).unwrap();
                    let mine: Vec<i32> =
                        (0..36).map(|k| k + 100 * img.this_image() as i32).collect();
                    a.write_local(img, &mine);
                    img.sync_all();
                    a.get_section(img, 2, &sec)
                },
            );
            // Rows {0,4,8}, cols {1,3} of image 2's data (200 + k).
            let expect: Vec<i32> = [9, 13, 17, 27, 31, 35].iter().map(|k| 200 + k).collect();
            assert_eq!(out.results[0], expect, "{algo:?}");
        }
    }

    #[test]
    fn adaptive_plans_match_conduit_capabilities() {
        use super::Plan;
        // All-strided 3-D section of a [16, 128, 8] array: dim1 dominates.
        let strided_sec = Section::new(vec![
            DimRange { start: 0, count: 8, step: 2 },
            DimRange { start: 0, count: 64, step: 2 },
            DimRange { start: 0, count: 4, step: 2 },
        ]);
        // Matrix-oriented section of a [64, 64] array: contiguous rows.
        let matrix_sec = Section::new(vec![
            DimRange { start: 0, count: 64, step: 1 },
            DimRange { start: 0, count: 16, step: 4 },
        ]);
        // Image 1 (PE 0) plans a put to PE 1, on the other node.
        let plan_on = |platform: Platform, backend, sec: Section| {
            run_caf(
                platform.config(2, 1).with_heap_bytes(1 << 18),
                CafConfig::new(backend, platform),
                move |img| planner::plan(img.shmem(), 1, &sec, 4, TransferDir::Put).plan,
            )
            .results[0]
        };
        // Cray SHMEM, all-strided: use native iput along the dominant dim.
        assert_eq!(
            plan_on(Platform::CrayXc30, Backend::Shmem, strided_sec.clone()),
            Plan::BaseDim(1)
        );
        // MVAPICH2-X (iput = loop): contiguous runs are the only sane plan.
        assert_eq!(plan_on(Platform::Stampede, Backend::Shmem, matrix_sec.clone()), Plan::Runs);
        // GASNet, all-strided small elements: AM packing wins (one message
        // vs thousands).
        assert_eq!(plan_on(Platform::Stampede, Backend::Gasnet, strided_sec), Plan::Packed);
        // Cray SHMEM, matrix-oriented: contiguous rows beat per-element
        // iput scatter charges (§V-D's observation).
        assert_eq!(plan_on(Platform::CrayXc30, Backend::Shmem, matrix_sec), Plan::Runs);
    }

    #[test]
    fn adaptive_never_loses_badly_to_fixed_algorithms() {
        // For several section shapes and conduits, the tuned plan's
        // virtual time must be within 10% of the best fixed algorithm.
        let cases: Vec<(Platform, Backend, Vec<DimRange>, Vec<usize>)> = vec![
            (
                Platform::CrayXc30,
                Backend::Shmem,
                vec![
                    DimRange { start: 0, count: 8, step: 2 },
                    DimRange { start: 0, count: 32, step: 2 },
                ],
                vec![16, 64],
            ),
            (
                Platform::Stampede,
                Backend::Shmem,
                vec![
                    DimRange { start: 0, count: 32, step: 1 },
                    DimRange { start: 0, count: 8, step: 3 },
                ],
                vec![32, 24],
            ),
            (
                Platform::Stampede,
                Backend::Gasnet,
                vec![
                    DimRange { start: 0, count: 16, step: 3 },
                    DimRange { start: 0, count: 16, step: 3 },
                ],
                vec![48, 48],
            ),
        ];
        for (platform, backend, dims, shape) in cases {
            let time_with = |algo: StridedAlgorithm| {
                let sec = Section::new(dims.clone());
                let shape = shape.clone();
                let out = run_caf(
                    platform.config(2, 1).with_heap_bytes(1 << 20),
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
            };
            // AM packing is only a real option where an active-message
            // layer exists (GASNet), matching the planner's candidate set.
            let mut fixed = vec![Naive, OneDim, TwoDim, BestOfAll];
            if backend == Backend::Gasnet {
                fixed.push(StridedAlgorithm::AmPacked);
            }
            let fixed_best = fixed.into_iter().map(time_with).min().unwrap();
            let tuned = time_with(Tuned);
            assert!(
                tuned as f64 <= fixed_best as f64 * 1.10,
                "{platform:?}/{backend:?}: tuned {tuned} vs best fixed {fixed_best}"
            );
        }
    }

    #[test]
    fn full_contiguous_section_is_one_message() {
        let out = run_caf(
            pgas_machine::titan(2, 1).with_heap_bytes(1 << 18),
            CafConfig::new(Backend::Shmem, Platform::Titan),
            |img| {
                let a = img.coarray::<i64>(&[32, 4]).unwrap();
                img.sync_all();
                if img.this_image() == 1 {
                    a.put_section(img, 2, &Section::full(&[32, 4]), &vec![1i64; 128]);
                }
                img.sync_all();
            },
        );
        assert_eq!(out.stats.puts, 1);
    }
}
