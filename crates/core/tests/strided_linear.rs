//! The strided data path against its per-element reference.
//!
//! `put_section`/`get_section` hand every wire op exactly the elements it
//! transfers, and the conduit applies a native strided op as one run or one
//! heap scatter/gather instead of element by element. None of that may show
//! in the model: target bytes, every word's stamp, the issuer's clock, the
//! op and byte counters, NIC message counts and sanitizer reports must equal
//! what the element-by-element application produced. [`reference`] is that
//! application, kept for these tests only: the same cost-model calls and
//! counters, wire op by wire op from the `Section::elements` oracle, with one
//! heap write, one stamp pass and one sanitizer record per element.

use caf::strided::{get_section, put_section};
use caf::{run_caf, Backend, CafConfig, CoalescePolicy, DimRange, Section, StridedAlgorithm};
use openshmem::data::{to_bytes, Scalar, SymPtr};
use openshmem::Shmem;
use pgas_machine::{FaultPlan, HazardReport, MachineConfig, Platform, SanitizerMode};
use proptest::prelude::*;

mod reference {
    use super::*;
    use pgas_machine::stats::Stats;
    use std::collections::BTreeMap;

    /// Elements per stride-1 run of the section.
    fn run_len(sec: &Section) -> usize {
        let d0 = sec.dims()[0];
        if d0.step == 1 {
            d0.count
        } else {
            1
        }
    }

    /// The elements each wire op of `algo` carries, as
    /// `(array element offset, packed element offset)`, ops in issue order.
    fn wire_ops(
        algo: StridedAlgorithm,
        sec: &Section,
        shape: &[usize],
    ) -> Vec<Vec<(usize, usize)>> {
        let elements = sec.elements(shape);
        let base = match algo {
            StridedAlgorithm::Naive => {
                return elements.chunks(run_len(sec)).map(<[_]>::to_vec).collect()
            }
            StridedAlgorithm::AmPacked => return vec![elements],
            StridedAlgorithm::OneDim => 0,
            StridedAlgorithm::TwoDim => sec.best_dim(2),
            StridedAlgorithm::BestOfAll => sec.best_dim(usize::MAX),
            other => panic!("no static plan for {other:?}"),
        };
        // A pencil is the set of elements that differ only in their `base`
        // coordinate; keyed by the packed offset of its first element, which
        // is also the order pencils are issued in.
        let (n, stride) = (sec.dims()[base].count, sec.packed_stride(base));
        let mut pencils: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (arr, packed) in elements {
            pencils.entry(packed - packed / stride % n * stride).or_default().push((arr, packed));
        }
        pencils.into_values().collect()
    }

    /// One native strided (or AM-packed) put descriptor, applied element by
    /// element: `elems` are (target byte offset, element bytes).
    pub fn native_put(shmem: &Shmem<'_>, dst: usize, elems: &[(usize, Vec<u8>)], am: bool) {
        let (ctx, m, me) = (shmem.ctx(), shmem.machine(), shmem.my_pe());
        let (n, elem) = (elems.len(), elems[0].1.len());
        Stats::bump(&m.stats().puts);
        Stats::add(&m.stats().bytes_put, (n * elem) as u64);
        let now = ctx.pe().now();
        let (t, op) = if am {
            (ctx.cost_model().am_packed_put(me, dst, n * elem, n, now, 0).0, "am put")
        } else {
            let t = ctx.cost_model().strided_put_native(me, dst, n, elem, now, 0);
            (t.expect("native strided profile").0, "iput")
        };
        m.apply_and_notify(dst, || {
            for (off, bytes) in elems {
                m.heap(dst).write_bytes(*off, bytes);
                m.heap(dst).stamp_range(*off, elem, t.remote_complete);
                m.san_record_write(dst, *off, elem, me, t.remote_complete, false, op);
            }
        });
        m.lift_clock(me, t.local_complete);
    }

    /// One native strided get descriptor, gathered element by element from
    /// the target byte offsets `offs`; returns the elements back to back.
    pub fn native_get(shmem: &Shmem<'_>, dst: usize, offs: &[usize], elem: usize) -> Vec<u8> {
        let (ctx, m, me) = (shmem.ctx(), shmem.machine(), shmem.my_pe());
        Stats::bump(&m.stats().gets);
        Stats::add(&m.stats().bytes_get, (offs.len() * elem) as u64);
        let (done, _) = ctx
            .cost_model()
            .strided_get_native(me, dst, offs.len(), elem, ctx.pe().now())
            .expect("native strided profile");
        let mut out = vec![0u8; offs.len() * elem];
        let mut stamp = 0;
        for (slot, &off) in out.chunks_exact_mut(elem).zip(offs) {
            m.heap(dst).read_bytes(off, slot);
            stamp = stamp.max(m.heap(dst).max_stamp(off, elem));
            m.san_check_read(dst, off, elem, me, "iget");
        }
        m.lift_clock(me, done.max(stamp));
        out
    }

    /// Byte regions of an AM-packed transfer: the op's stride-1 runs.
    fn regions<T: Scalar>(
        ptr: SymPtr<T>,
        sec: &Section,
        op: &[(usize, usize)],
    ) -> Vec<(usize, usize)> {
        let run = run_len(sec);
        op.chunks(run).map(|r| (ptr.offset() + r[0].0 * T::BYTES, run * T::BYTES)).collect()
    }

    pub fn put_section<T: Scalar>(
        shmem: &Shmem<'_>,
        algo: StridedAlgorithm,
        pe: usize,
        ptr: SymPtr<T>,
        shape: &[usize],
        sec: &Section,
        data: &[T],
    ) {
        if sec.is_full_contiguous(shape) {
            return shmem.put(ptr, data, pe);
        }
        for op in wire_ops(algo, sec, shape) {
            match algo {
                StridedAlgorithm::Naive => {
                    shmem.put(ptr.at(op[0].0), &data[op[0].1..][..op.len()], pe)
                }
                StridedAlgorithm::AmPacked => {
                    shmem.ctx().am_put_regions(pe, &regions(ptr, sec, &op), &to_bytes(data))
                }
                // A software-loop profile turns a pencil into one put per
                // element: that loop is the model, not the host path.
                _ if !shmem.profile().has_native_strided() => {
                    for (arr, packed) in op {
                        shmem.put(ptr.at(arr), &data[packed..packed + 1], pe);
                    }
                }
                _ => {
                    let elems: Vec<(usize, Vec<u8>)> = op
                        .iter()
                        .map(|&(arr, packed)| {
                            (ptr.at(arr).offset(), to_bytes(&data[packed..packed + 1]))
                        })
                        .collect();
                    native_put(shmem, pe, &elems, false);
                }
            }
        }
    }

    pub fn get_section<T: Scalar>(
        shmem: &Shmem<'_>,
        algo: StridedAlgorithm,
        pe: usize,
        ptr: SymPtr<T>,
        shape: &[usize],
        sec: &Section,
    ) -> Vec<T> {
        let mut out = vec![T::load(&[0u8; 8]); sec.total()];
        if sec.is_full_contiguous(shape) {
            shmem.get(ptr, &mut out, pe);
            return out;
        }
        for op in wire_ops(algo, sec, shape) {
            match algo {
                StridedAlgorithm::Naive => {
                    shmem.get(ptr.at(op[0].0), &mut out[op[0].1..][..op.len()], pe)
                }
                StridedAlgorithm::AmPacked => {
                    let mut bytes = vec![0u8; sec.total() * T::BYTES];
                    shmem.ctx().am_get_regions(pe, &regions(ptr, sec, &op), &mut bytes);
                    openshmem::data::from_bytes(&bytes, &mut out);
                }
                _ if !shmem.profile().has_native_strided() => {
                    for (arr, packed) in op {
                        shmem.get(ptr.at(arr), &mut out[packed..packed + 1], pe);
                    }
                }
                _ => {
                    let offs: Vec<usize> =
                        op.iter().map(|&(arr, _)| ptr.at(arr).offset()).collect();
                    let bytes = native_get(shmem, pe, &offs, T::BYTES);
                    for (&(_, packed), slot) in op.iter().zip(bytes.chunks_exact(T::BYTES)) {
                        out[packed] = T::load(slot);
                    }
                }
            }
        }
        out
    }
}

/// Which implementation a run exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Production,
    Reference,
}

/// One randomly drawn transfer.
#[derive(Debug, Clone)]
struct Case {
    shape: Vec<usize>,
    dims: Vec<DimRange>,
    algo: StridedAlgorithm,
    put: bool,
    /// `Titan` runs `cray-shmem` (native `iput`), `Stampede` `mvapich-shmem`
    /// (the per-element `putmem` loop).
    platform: Platform,
    /// Byte offset of the array inside its allocation: 0 and 4 keep 4-byte
    /// elements inside words, 1 and 7 make every element straddle or sit odd.
    skew: usize,
}

/// Everything the model lets anyone observe about one transfer.
#[derive(Debug, PartialEq)]
struct Observed {
    issuer_clock: u64,
    /// Packed result of a get (empty for a put), as bytes.
    got: Vec<u8>,
    /// The target's copy of the array allocation, and the stamp of each word.
    target_bytes: Vec<u8>,
    target_stamps: Vec<u64>,
    puts: u64,
    gets: u64,
    bytes_put: u64,
    bytes_get: u64,
    nic_messages: Vec<u64>,
}

fn machine(platform: Platform) -> MachineConfig {
    // Every ambient knob that moves clocks or counters is pinned: the
    // reference passes no fault gate and stages nothing.
    platform
        .config(2, 1)
        .with_heap_bytes(1 << 18)
        .with_faults(FaultPlan::none())
        .with_aggregation(false)
}

fn observe<T: Scalar>(
    case: &Case,
    path: Path,
    value: impl Fn(usize) -> T + Send + Sync,
) -> Observed {
    let cells: usize = case.shape.iter().product();
    let sec = Section::new(case.dims.clone());
    let alloc_bytes = (cells * T::BYTES + case.skew).next_multiple_of(8);
    let caf = CafConfig::new(Backend::Shmem, case.platform)
        .with_strided(case.algo)
        .with_aggregation(CoalescePolicy::Off);
    let out = run_caf(machine(case.platform), caf, |img| {
        let shmem = img.shmem();
        let m = shmem.machine();
        let buf = shmem.shmalloc::<u8>(alloc_bytes).expect("array allocation");
        let ptr = SymPtr::<T>::from_raw_parts(buf.offset() + case.skew, cells);
        if img.this_image() == 2 {
            // The target starts from a recognisable pattern, and every third
            // word carries a far-future stamp: a put must not lower it, a
            // get that touches it must wait for it, and neither may notice
            // it from a gap.
            let pattern: Vec<u8> = (0..alloc_bytes).map(|b| (b * 7 + 3) as u8).collect();
            shmem.write_local(buf, &pattern);
            m.apply_and_notify(1, || {
                for w in (0..alloc_bytes / 8).filter(|w| w % 3 == 1) {
                    m.heap(1).stamp_range(buf.offset() + w * 8, 8, (1 << 40) + w as u64);
                }
            });
        }
        img.sync_all();
        let mut seen = (0, Vec::new());
        if img.this_image() == 1 {
            let data: Vec<T> = (0..sec.total()).map(&value).collect();
            let got = match (case.put, path) {
                (true, Path::Production) => {
                    put_section(shmem, case.algo, 1, ptr, &case.shape, &sec, &data);
                    Vec::new()
                }
                (true, Path::Reference) => {
                    reference::put_section(shmem, case.algo, 1, ptr, &case.shape, &sec, &data);
                    Vec::new()
                }
                (false, Path::Production) => {
                    get_section(shmem, case.algo, 1, ptr, &case.shape, &sec)
                }
                (false, Path::Reference) => {
                    reference::get_section(shmem, case.algo, 1, ptr, &case.shape, &sec)
                }
            };
            seen = (shmem.ctx().pe().now(), to_bytes(&got));
        }
        img.sync_all();
        let mut bytes = vec![0u8; alloc_bytes];
        m.heap(1).read_bytes(buf.offset(), &mut bytes);
        let stamps = (0..alloc_bytes / 8).map(|w| m.heap(1).max_stamp(buf.offset() + w * 8, 8));
        (seen, bytes, stamps.collect::<Vec<u64>>())
    });
    let ((issuer_clock, got), target_bytes, target_stamps) = out.results[0].clone();
    Observed {
        issuer_clock,
        got,
        target_bytes,
        target_stamps,
        puts: out.stats.puts,
        gets: out.stats.gets,
        bytes_put: out.stats.bytes_put,
        bytes_get: out.stats.bytes_get,
        nic_messages: out.nics.iter().map(|n| n.messages).collect(),
    }
}

fn both_paths<T: Scalar>(
    case: &Case,
    value: impl Fn(usize) -> T + Send + Sync + Copy,
) -> (Observed, Observed) {
    (observe(case, Path::Production, value), observe(case, Path::Reference, value))
}

fn cases() -> impl Strategy<Value = Case> {
    let dim = (0usize..3, 1usize..6, 1usize..5, 0usize..2);
    (prop::collection::vec(dim, 1..4), 0usize..5, any::<bool>(), any::<bool>(), 0usize..4).prop_map(
        |(dims, algo, put, native, skew)| Case {
            // Extent = the section's reach plus an optional unselected tail.
            shape: dims.iter().map(|&(s, c, st, tail)| s + (c - 1) * st + 1 + tail).collect(),
            dims: dims
                .iter()
                .map(|&(start, count, step, _)| DimRange { start, count, step })
                .collect(),
            algo: [
                StridedAlgorithm::Naive,
                StridedAlgorithm::OneDim,
                StridedAlgorithm::TwoDim,
                StridedAlgorithm::BestOfAll,
                StridedAlgorithm::AmPacked,
            ][algo],
            put,
            platform: if native { Platform::Titan } else { Platform::Stampede },
            skew: [0, 1, 4, 7][skew],
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn section_transfers_equal_the_per_element_reference(case in cases(), ty in 0usize..3) {
        let (production, reference) = match ty {
            0 => both_paths(&case, |i| 1000 + i as i32),
            1 => both_paths(&case, |i| 0.5 + i as f32),
            _ => both_paths(&case, |i| -7 - i as i64),
        };
        prop_assert_eq!(&production, &reference);
        // And the reference itself moved what the section selects.
        let moved = (Section::new(case.dims.clone()).total() * [4, 4, 8][ty]) as u64;
        let (counted, other) = if case.put {
            (production.bytes_put, production.bytes_get)
        } else {
            (production.bytes_get, production.bytes_put)
        };
        prop_assert!(counted >= moved && other < counted, "{production:?}");
    }
}

/// Sanitizer reports of a job in which PE 2 writes PE 1's heap with no
/// synchronisation PE 0 could know of, and PE 0 then runs strided ops over
/// the same words — through the conduit, or element by element.
fn racing_reports(path: Path) -> Vec<HazardReport> {
    // Six regions of PE 1's heap, 256 bytes apart: the racer dirties a few
    // bytes in each, PE 0 covers each with one op.
    const REGION: usize = 256;
    let cfg = pgas_machine::titan(3, 1)
        .with_heap_bytes(1 << 18)
        .with_sanitizer(SanitizerMode::Record)
        .with_faults(FaultPlan::none())
        .with_aggregation(false);
    let caf = CafConfig::new(Backend::Shmem, Platform::Titan).with_aggregation(CoalescePolicy::Off);
    let out = run_caf(cfg, caf, move |img| {
        let shmem = img.shmem();
        let (ctx, m) = (shmem.ctx(), shmem.machine());
        let flag = shmem.shmalloc::<u64>(1).expect("flag").offset();
        let arena = shmem.shmalloc::<u8>(6 * REGION).expect("regions").offset();
        let region = |r: usize| arena + r * REGION;
        img.sync_all();
        match img.this_image() {
            3 => {
                for r in 0..6 {
                    // From offset +4 of the region: elements 1 and 4 of
                    // the 4-byte stride-3 layout, element 3 of the unit one.
                    ctx.put(1, region(r) + 4 + 12, &[0xAA; 4]);
                    ctx.put(1, region(r) + 4 + 48, &[0xBB; 8]);
                }
                ctx.quiet();
                // A signal the sanitizer cannot see: no happens-before edge.
                m.apply_and_notify(0, || {
                    m.heap(0).atomic64(flag).store(1, std::sync::atomic::Ordering::Release)
                });
            }
            1 => {
                use std::sync::atomic::Ordering::Acquire;
                m.wait_on(0, || m.heap(0).atomic64(flag).load(Acquire) == 1);
                let src: Vec<u8> = (0..96).collect();
                // (region, target stride, local stride): strided then unit.
                let layouts = [(3usize, 2usize), (1, 1)];
                for (k, &(tst, lst)) in layouts.iter().enumerate() {
                    let (put_at, am_at, get_at) =
                        (region(k) + 4, region(2 + k) + 4, region(4 + k) + 4);
                    let elems = |base: usize| -> Vec<(usize, Vec<u8>)> {
                        (0..6)
                            .map(|i| (base + i * tst * 4, src[i * lst * 4..][..4].to_vec()))
                            .collect()
                    };
                    match path {
                        Path::Production => {
                            ctx.iput(1, put_at, tst, &src, 4, lst, 6);
                            let (regions, payload): (Vec<_>, Vec<_>) =
                                elems(am_at).into_iter().map(|(off, b)| ((off, 4), b)).unzip();
                            ctx.am_put_regions(1, &regions, &payload.concat());
                            ctx.iget(1, get_at, tst, &mut [0u8; 96], 4, lst, 6);
                        }
                        Path::Reference => {
                            reference::native_put(shmem, 1, &elems(put_at), false);
                            reference::native_put(shmem, 1, &elems(am_at), true);
                            let offs: Vec<usize> = (0..6).map(|i| get_at + i * tst * 4).collect();
                            reference::native_get(shmem, 1, &offs, 4);
                        }
                    }
                }
                ctx.quiet();
            }
            _ => {}
        }
        img.sync_all();
    });
    out.hazard_reports
}

#[test]
fn sanitizer_reports_stay_one_per_element() {
    let production = racing_reports(Path::Production);
    assert_eq!(production, racing_reports(Path::Reference));
    // Every op type reports the three elements it hit (two strided, one in
    // the unit-stride run), never the transfer as a whole.
    for op in ["iput", "am put", "iget"] {
        let mine: Vec<_> = production.iter().filter(|r| r.op == op).collect();
        assert_eq!(mine.len(), 3, "{op}: {mine:?}");
        assert!(
            mine.iter().all(|r| r.len == 4 && r.accessor == 0 && r.conflict_pe == 2),
            "{mine:?}"
        );
    }
}
