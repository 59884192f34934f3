//! Property-based tests (proptest) on the core data structures and
//! algorithms: the symmetric allocator, remote-pointer packing, section
//! arithmetic, strided-transfer equivalence, heap byte access and
//! reductions.

use caf::{run_caf, Backend, CafConfig, DimRange, RemotePtr, Section, StridedAlgorithm};
use openshmem::SymAlloc;
use pgas_machine::heap::Heap;
use pgas_machine::Platform;
use proptest::prelude::*;

// ---------- symmetric heap allocator ----------------------------------------

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc { size: usize, align_pow: u32 },
    FreeNth(usize),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![
            (1usize..2048, 3u32..9)
                .prop_map(|(size, align_pow)| AllocOp::Alloc { size, align_pow }),
            (0usize..64).prop_map(AllocOp::FreeNth),
        ],
        1..80,
    )
}

proptest! {
    #[test]
    fn allocator_never_overlaps_and_always_coalesces(ops in alloc_ops()) {
        let mut a = SymAlloc::new(64 * 1024);
        let mut live: Vec<(usize, usize)> = Vec::new(); // (off, size)
        for op in ops {
            match op {
                AllocOp::Alloc { size, align_pow } => {
                    if let Ok(off) = a.alloc_aligned(size, 1 << align_pow) {
                        prop_assert_eq!(off % (1usize << align_pow), 0);
                        for &(o, s) in &live {
                            let s_rounded = s.max(1).div_ceil(8) * 8;
                            prop_assert!(
                                off + size <= o || o + s_rounded <= off,
                                "overlap: new ({}, {}) vs live ({}, {})", off, size, o, s
                            );
                        }
                        live.push((off, size));
                    }
                }
                AllocOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (off, _) = live.remove(n % live.len());
                        prop_assert!(a.free(off).is_ok());
                    }
                }
            }
            a.check_invariants().map_err(TestCaseError::fail)?;
        }
        for (off, _) in live {
            prop_assert!(a.free(off).is_ok());
        }
        prop_assert_eq!(a.in_use(), 0);
        prop_assert_eq!(a.largest_free(), a.capacity());
    }

    #[test]
    fn allocator_is_deterministic(sizes in prop::collection::vec(1usize..512, 1..40)) {
        let run = |sizes: &[usize]| {
            let mut a = SymAlloc::new(1 << 16);
            sizes.iter().map(|&s| a.alloc(s).unwrap()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(&sizes), run(&sizes));
    }

    // ---------- remote pointer packing ---------------------------------------

    #[test]
    fn remote_ptr_roundtrips(image in 0usize..(1 << 20), offset in 0usize..(1usize << 36), flags in any::<u8>()) {
        let p = RemotePtr { image, offset, flags };
        let w = p.pack();
        let q = RemotePtr::unpack(w).expect("packed pointers are valid");
        prop_assert_eq!(q.image, image);
        prop_assert_eq!(q.offset, offset);
        prop_assert_ne!(w, caf::remote_ptr::NIL);
    }

    // ---------- machine heap byte access -------------------------------------

    #[test]
    fn heap_bytes_roundtrip(off in 0usize..64, data in prop::collection::vec(any::<u8>(), 0..96)) {
        let h = Heap::new(256);
        h.write_bytes(off, &data);
        let mut out = vec![0u8; data.len()];
        h.read_bytes(off, &mut out);
        prop_assert_eq!(out, data);
    }

    #[test]
    fn heap_disjoint_writes_do_not_interfere(
        a in prop::collection::vec(any::<u8>(), 1..40),
        b in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let h = Heap::new(256);
        let off_a = 10;
        let off_b = 10 + a.len(); // adjacent, not overlapping
        h.write_bytes(off_a, &a);
        h.write_bytes(off_b, &b);
        let mut ra = vec![0u8; a.len()];
        let mut rb = vec![0u8; b.len()];
        h.read_bytes(off_a, &mut ra);
        h.read_bytes(off_b, &mut rb);
        prop_assert_eq!(ra, a);
        prop_assert_eq!(rb, b);
    }

    // ---------- section arithmetic -------------------------------------------

    #[test]
    fn section_elements_are_unique_and_in_bounds(
        dims in prop::collection::vec((0usize..4, 1usize..6, 1usize..4), 1..4)
    ) {
        let shape: Vec<usize> = dims.iter().map(|&(s, c, st)| s + (c - 1) * st + 1).collect();
        let sec = Section::new(
            dims.iter().map(|&(start, count, step)| DimRange { start, count, step }).collect(),
        );
        sec.validate(&shape).map_err(TestCaseError::fail)?;
        let elems = sec.elements(&shape);
        prop_assert_eq!(elems.len(), sec.total());
        let total_cells: usize = shape.iter().product();
        let mut seen = std::collections::HashSet::new();
        for (i, &(arr, packed)) in elems.iter().enumerate() {
            prop_assert!(arr < total_cells);
            prop_assert_eq!(packed, i, "packed order is dense and sequential");
            prop_assert!(seen.insert(arr), "duplicate array offset {}", arr);
        }
    }
}

// ---------- repeat-run determinism -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// An arbitrated run is a pure function of its inputs. On a contended
    /// fig3-style workload — half the PEs streaming non-blocking puts across
    /// the node boundary, racing AMOs on a shared counter, and a consumer
    /// side blocked in `wait_until` — every repeat must reproduce the first
    /// run bit for bit: same run digest, same metrics snapshot, same
    /// critical path.
    #[test]
    fn repeated_runs_never_change_the_simulation(
        payload_pow in 10usize..16,
        reps in 1usize..5,
    ) {
        use pgas_conduit::ctx::AmoOp;
        use pgas_conduit::{ConduitProfile, Ctx, CtxOptions};
        use pgas_machine::critdiff::RunDigest;
        use pgas_machine::{stampede, with_forced_metrics, with_forced_tracing, FaultPlan};

        let run_once = || {
            with_forced_tracing(true, || {
                with_forced_metrics(true, || {
                    let payload = 1usize << payload_pow;
                    let mcfg =
                        stampede(2, 8).with_heap_bytes(1 << 18).with_faults(FaultPlan::none());
                    pgas_machine::run(mcfg, move |pe| {
                        let ctx =
                            Ctx::new(pe, ConduitProfile::mvapich_shmem(), CtxOptions::default());
                        let n = pe.n();
                        ctx.barrier_all();
                        if pe.id() < n / 2 {
                            let dst = pe.id() + n / 2;
                            let data = vec![1u8; payload];
                            for _ in 0..reps {
                                ctx.put_nbi(dst, 64, &data);
                            }
                            ctx.quiet();
                            ctx.amo(dst, 0, AmoOp::Add(1));
                        } else {
                            ctx.wait_until(0, |v| v == 1);
                        }
                        ctx.barrier_all();
                    })
                })
            })
        };
        let first = run_once();
        let first_digest = RunDigest::from_run(&first.critical_path(), &first.metrics);
        for repeat in 1..3 {
            let again = run_once();
            prop_assert_eq!(&again.metrics, &first.metrics, "metrics diverged in repeat {}", repeat);
            prop_assert_eq!(
                again.critical_path(), first.critical_path(),
                "critical path diverged in repeat {}", repeat
            );
            prop_assert_eq!(
                RunDigest::from_run(&again.critical_path(), &again.metrics),
                first_digest.clone(),
                "digest diverged in repeat {}", repeat
            );
        }
    }
}

/// The paper's figures are pure functions too: each figure's entry point,
/// run twice on its default configuration with nothing pinned, returns the
/// same value and leaves the same simulated machine behind — clocks, stats,
/// NIC totals, metrics. All three contend for a lock, a word or a NIC lane
/// at overlapping virtual times, two Titan or Stampede nodes apart.
#[test]
fn paper_figure_entry_points_repeat_exactly() {
    use caf_apps::{run_dht_outcome, run_himeno_outcome, DhtConfig, HimenoConfig};
    use pgas_microbench::LockBench;

    fn twice(what: &str, run: impl Fn() -> String) {
        assert!(run() == run(), "{what}: two runs of one configuration differ");
    }
    fn modelled<R: std::fmt::Debug>(out: &pgas_machine::SimOutcome<R>) -> String {
        format!("{:?}", (&out.results, &out.clocks, out.stats, &out.nics, &out.metrics))
    }
    twice("Fig. 8", || format!("{}", LockBench::new(Platform::Titan, Backend::Shmem, 32).run_ms()));
    twice("Fig. 9", || {
        let (r, out) =
            run_dht_outcome(Platform::Titan, Backend::Shmem, 32, DhtConfig::default(), false);
        format!("{r:?} {}", modelled(&out))
    });
    twice("Fig. 10", || {
        let naive = Some(StridedAlgorithm::Naive);
        let (r, out) = run_himeno_outcome(
            Platform::Stampede,
            Backend::Shmem,
            naive,
            31,
            HimenoConfig::size_xs(),
        );
        format!("{r:?} {}", modelled(&out))
    });
}

// ---------- strided algorithms move identical bytes --------------------------
// (runs real simulations; kept outside proptest! to control case counts)

#[test]
fn strided_algorithms_agree_on_random_sections() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for case in 0..12 {
        let rank = rng.gen_range(1..=3);
        let dims: Vec<DimRange> = (0..rank)
            .map(|_| DimRange {
                start: rng.gen_range(0..3),
                count: rng.gen_range(1..6),
                step: rng.gen_range(1..4),
            })
            .collect();
        let shape: Vec<usize> = dims
            .iter()
            .map(|d| d.start + (d.count - 1) * d.step + 1 + rng.gen_range(0..2))
            .collect();
        let sec = Section::new(dims);
        let total = sec.total();
        let mut landed: Vec<Vec<i32>> = Vec::new();
        for algo in [
            StridedAlgorithm::Naive,
            StridedAlgorithm::OneDim,
            StridedAlgorithm::TwoDim,
            StridedAlgorithm::BestOfAll,
            StridedAlgorithm::AmPacked,
        ] {
            let sec = sec.clone();
            let shape = shape.clone();
            let out = run_caf(
                Platform::CrayXc30.config(2, 1).with_heap_bytes(1 << 18),
                CafConfig::new(Backend::Shmem, Platform::CrayXc30).with_strided(algo),
                move |img| {
                    let a = img.coarray::<i32>(&shape).unwrap();
                    if img.this_image() == 1 {
                        let data: Vec<i32> = (0..total as i32).map(|i| i * 3 + 1).collect();
                        a.put_section(img, 2, &sec, &data);
                    }
                    img.sync_all();
                    a.read_local(img)
                },
            );
            landed.push(out.results[1].clone());
        }
        for w in landed.windows(2) {
            assert_eq!(w[0], w[1], "case {case}: algorithms diverged for {sec:?} in {shape:?}");
        }
    }
}

#[test]
fn reductions_match_serial_fold_on_random_inputs() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(42);
    for _ in 0..6 {
        let n_images = rng.gen_range(2..=7);
        let len = rng.gen_range(1..=17);
        let inputs: Vec<Vec<i64>> =
            (0..n_images).map(|_| (0..len).map(|_| rng.gen_range(-1000..1000)).collect()).collect();
        let expect_sum: Vec<i64> = (0..len).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        let expect_max: Vec<i64> =
            (0..len).map(|i| inputs.iter().map(|v| v[i]).max().unwrap()).collect();
        let inputs2 = inputs.clone();
        let out = run_caf(
            Platform::GenericSmp.config(1, n_images).with_heap_bytes(1 << 17),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp),
            move |img| {
                let mut sum = inputs2[img.this_image() - 1].clone();
                img.co_sum(&mut sum, None);
                let mut max = inputs2[img.this_image() - 1].clone();
                img.co_max(&mut max, None);
                (sum, max)
            },
        );
        for (sum, max) in out.results {
            assert_eq!(sum, expect_sum);
            assert_eq!(max, expect_max);
        }
    }
}
