//! Collective operations: broadcast, reductions, collect, all-to-all.
//!
//! These are built from the same one-sided primitives the rest of the
//! library exposes — binomial trees of puts, remote atomics for signalling,
//! and `wait_until` on symmetric flag words — so their virtual-time cost
//! *emerges* from the message pattern rather than being scripted. This
//! matches the paper's note that UHCAF implements CAF reductions and
//! broadcasts with one-sided communication and remote atomics.
//!
//! Signalling discipline: flag values within one collective call are
//! monotonically increasing sequence numbers (`chunk + 1`), so no mid-call
//! resets are needed; every PE resets the flag words it consumed before
//! arriving at the closing barrier, which orders the resets before any
//! flag writes of the next collective.

use crate::active_set::ActiveSet;
use crate::data::{zero, Scalar, SymPtr};
use crate::shmem::{Cmp, Shmem, BCAST_FLAG_BASE, REDUCE_FLAG_BASE};
use pgas_machine::stats::Stats;
use pgas_machine::trace::{Span, SpanKind};

fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

impl<'m> Shmem<'m> {
    /// Run one collective under an enclosing `Collective` trace scope (the
    /// constituent puts/quiets/barriers nest as its children) and feed the
    /// metrics registry. Pure pass-through when observability is off.
    fn collective_op<R>(&self, f: impl FnOnce() -> R) -> R {
        let m = self.machine();
        Stats::bump(&m.stats().collectives);
        let pe = self.my_pe();
        let tracer = m.tracer();
        let traced = tracer.enabled();
        let begin = self.ctx().pe().now();
        if traced {
            tracer.begin_scope(pe);
        }
        let r = f();
        let end = self.ctx().pe().now();
        if traced {
            tracer.end_scope(pe, Span::op(pe, SpanKind::Collective, begin, end, None, 0));
        }
        let metrics = m.metrics();
        if metrics.enabled() {
            metrics.count(pe, "collective", None, 1);
            metrics.observe(pe, "collective_ns", None, end.saturating_sub(begin));
        }
        r
    }
    fn wait_flag_at_least(&self, slot: usize, min: u64) {
        self.wait_until(self.psync().at(slot), Cmp::Ge, min);
    }

    fn set_flag(&self, dest_pe: usize, slot: usize, value: u64) {
        self.atomic_set(self.psync().at(slot), value, dest_pe);
    }

    fn reset_flag_local(&self, slot: usize) {
        self.write_local_u64(self.psync().at(slot).offset(), 0);
    }

    /// Binomial broadcast of the byte region `[off, off+len)` (same offset on
    /// every member — symmetric) from the member with relative rank
    /// `root_rel`. The root reads from `src_off`, everyone else forwards
    /// from `off`. `seq` is the flag sequence number for this shipment.
    fn bcast_region(
        &self,
        set: &ActiveSet,
        root_rel: usize,
        src_off: usize,
        off: usize,
        len: usize,
        seq: u64,
    ) {
        let n = set.len();
        if n <= 1 || len == 0 {
            return;
        }
        let me_rel_abs = set.index_of(self.my_pe()).expect("caller must be in the active set");
        let rel = (me_rel_abs + n - root_rel) % n;
        let rounds = ceil_log2(n);
        let my_read_off = if rel == 0 {
            src_off
        } else {
            // Receive: round floor(log2(rel)) from rel - 2^round.
            let k = (usize::BITS - 1 - rel.leading_zeros()) as usize;
            self.wait_flag_at_least(BCAST_FLAG_BASE + k, seq);
            off
        };
        // Forward to rel + 2^j for every j with 2^j > rel.
        self.with_scratch(len, |payload| {
            self.read_local_bytes(my_read_off, payload, "broadcast read");
            for j in 0..rounds {
                if rel < (1 << j) && rel + (1 << j) < n {
                    let tgt_rel = (rel + (1 << j) + root_rel) % n;
                    let tgt = set.member(tgt_rel);
                    self.ctx().put(tgt, off, payload);
                    self.quiet();
                    // floor(log2(rel + 2^j)) == j because rel < 2^j.
                    self.set_flag(tgt, BCAST_FLAG_BASE + j, seq);
                }
            }
        });
    }

    fn reset_bcast_flags(&self, n: usize) {
        for k in 0..ceil_log2(n).max(1) {
            self.reset_flag_local(BCAST_FLAG_BASE + k);
        }
    }

    /// `shmem_broadcast`: replicate `nelems` elements of the root's `src`
    /// into every other member's `dest`. Per the OpenSHMEM spec, the root's
    /// own `dest` is *not* updated.
    pub fn broadcast<T: Scalar>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        pe_root: usize,
        set: &ActiveSet,
    ) {
        assert!(
            nelems <= dest.count() && nelems <= src.count(),
            "broadcast length overruns buffers"
        );
        assert!(pe_root < set.len(), "root rank {} outside active set of {}", pe_root, set.len());
        self.collective_op(|| {
            self.quiet();
            self.bcast_region(set, pe_root, src.offset(), dest.offset(), nelems * T::BYTES, 1);
            self.reset_bcast_flags(set.len());
            self.barrier(set);
        })
    }

    /// Generic all-reduce: combine `nelems` elements of `src` across the set
    /// with `op` (must be associative and agree on every PE) and leave the
    /// result in every member's `dest`. Deterministic combine order
    /// (binomial tree by relative rank), so floating-point results are
    /// reproducible run to run.
    pub fn reduce_to_all<T: Scalar>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
        op: impl Fn(T, T) -> T + Copy,
    ) {
        assert!(nelems <= dest.count() && nelems <= src.count(), "reduction overruns buffers");
        self.collective_op(|| self.reduce_to_all_inner(dest, src, nelems, set, op))
    }

    fn reduce_to_all_inner<T: Scalar>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
        op: impl Fn(T, T) -> T + Copy,
    ) {
        self.quiet();
        let n = set.len();
        let rel = set.index_of(self.my_pe()).expect("caller must be in the active set");
        let rounds = ceil_log2(n).max(1);
        // Per-round pWrk slots so senders of later rounds cannot clobber
        // un-consumed partials of earlier rounds.
        let slot_bytes = (self.pwrk().count() / rounds / T::BYTES * T::BYTES).max(T::BYTES);
        let cap = slot_bytes / T::BYTES;
        let mut chunk_start = 0;
        let mut seq = 1u64;
        while chunk_start < nelems || (nelems == 0 && chunk_start == 0) {
            let len = cap.min(nelems - chunk_start);
            if nelems == 0 {
                break;
            }
            let mut acc = vec![zero::<T>(); len];
            self.read_local(src.slice(chunk_start, len), &mut acc);
            // Binomial gather towards relative rank 0.
            for k in 0..rounds {
                let bit = 1usize << k;
                if rel & (bit - 1) != 0 {
                    continue; // already sent in an earlier round
                }
                if rel & bit != 0 {
                    // Sender: partial goes to rel - 2^k's pWrk slot k.
                    let tgt = set.member(rel - bit);
                    let slot_off = self.pwrk().offset() + k * slot_bytes;
                    self.with_ne_bytes(&acc, |bytes| self.ctx().put(tgt, slot_off, bytes));
                    self.quiet();
                    self.set_flag(tgt, REDUCE_FLAG_BASE + k, seq);
                    break; // done gathering this chunk
                } else if rel + bit < n {
                    // Receiver: combine partner's partial.
                    self.wait_flag_at_least(REDUCE_FLAG_BASE + k, seq);
                    let slot_off = self.pwrk().offset() + k * slot_bytes;
                    self.with_scratch(len * T::BYTES, |buf| {
                        self.read_local_bytes(slot_off, buf, "reduce read");
                        for (a, p) in acc.iter_mut().zip(buf.chunks_exact(T::BYTES)) {
                            *a = op(*a, T::load(p));
                        }
                    });
                    self.ctx().pe().compute_ops(len as u64);
                }
            }
            // Relative root holds the chunk result: store locally, broadcast.
            if rel == 0 {
                self.write_local(dest.slice(chunk_start, len), &acc);
            }
            self.bcast_region(
                set,
                0,
                dest.offset() + chunk_start * T::BYTES,
                dest.offset() + chunk_start * T::BYTES,
                len * T::BYTES,
                seq,
            );
            chunk_start += len;
            seq += 1;
        }
        for k in 0..rounds {
            self.reset_flag_local(REDUCE_FLAG_BASE + k);
        }
        self.reset_bcast_flags(n);
        self.barrier(set);
    }

    /// `shmem_*_sum_to_all`.
    pub fn sum_to_all<T: Scalar + std::ops::Add<Output = T>>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
    ) {
        self.reduce_to_all(dest, src, nelems, set, |a, b| a + b);
    }

    /// `shmem_*_prod_to_all`.
    pub fn prod_to_all<T: Scalar + std::ops::Mul<Output = T>>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
    ) {
        self.reduce_to_all(dest, src, nelems, set, |a, b| a * b);
    }

    /// `shmem_*_max_to_all`.
    pub fn max_to_all<T: Scalar + PartialOrd>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
    ) {
        self.reduce_to_all(dest, src, nelems, set, |a, b| if b > a { b } else { a });
    }

    /// `shmem_*_min_to_all`.
    pub fn min_to_all<T: Scalar + PartialOrd>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
    ) {
        self.reduce_to_all(dest, src, nelems, set, |a, b| if b < a { b } else { a });
    }

    /// `shmem_*_and_to_all`.
    pub fn and_to_all<T: Scalar + std::ops::BitAnd<Output = T>>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
    ) {
        self.reduce_to_all(dest, src, nelems, set, |a, b| a & b);
    }

    /// `shmem_*_or_to_all`.
    pub fn or_to_all<T: Scalar + std::ops::BitOr<Output = T>>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
    ) {
        self.reduce_to_all(dest, src, nelems, set, |a, b| a | b);
    }

    /// `shmem_*_xor_to_all`.
    pub fn xor_to_all<T: Scalar + std::ops::BitXor<Output = T>>(
        &self,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        set: &ActiveSet,
    ) {
        self.reduce_to_all(dest, src, nelems, set, |a, b| a ^ b);
    }

    /// `shmem_fcollect`: concatenate every member's fixed-size `src` block
    /// into every member's `dest`, ordered by relative rank.
    pub fn fcollect<T: Scalar>(&self, dest: SymPtr<T>, src: &[T], set: &ActiveSet) {
        assert!(
            set.len() * src.len() <= dest.count(),
            "fcollect needs {} elements, dest has {}",
            set.len() * src.len(),
            dest.count()
        );
        self.collective_op(|| {
            self.quiet();
            let rel = set.index_of(self.my_pe()).expect("caller must be in the active set");
            for k in 0..set.len() {
                let tgt = set.member(k);
                self.put(dest.slice(rel * src.len(), src.len()), src, tgt);
            }
            self.barrier(set);
        })
    }

    /// `shmem_collect`: like [`Self::fcollect`] but with per-PE block sizes.
    /// Returns the total number of elements collected.
    pub fn collect<T: Scalar>(&self, dest: SymPtr<T>, src: &[T], set: &ActiveSet) -> usize {
        self.collective_op(|| self.collect_inner(dest, src, set))
    }

    fn collect_inner<T: Scalar>(&self, dest: SymPtr<T>, src: &[T], set: &ActiveSet) -> usize {
        self.quiet();
        let n = set.len();
        let rel = set.index_of(self.my_pe()).expect("caller must be in the active set");
        // Round 1: exchange sizes through pWrk (first n u64 slots).
        assert!(n * 8 <= self.pwrk().count(), "active set too large for pWrk size exchange");
        let sizes_base = self.pwrk().offset();
        for k in 0..n {
            let tgt = set.member(k);
            let bytes = (src.len() as u64).to_ne_bytes();
            self.ctx().put(tgt, sizes_base + rel * 8, &bytes);
        }
        self.barrier(set);
        // One checked read of the whole size table (this also lifts the
        // clock past the peers' size puts, which the old raw read skipped).
        let mut size_bytes = vec![0u8; n * 8];
        self.read_local_bytes(sizes_base, &mut size_bytes, "collect read");
        let sizes: Vec<usize> = size_bytes
            .chunks_exact(8)
            .map(|b| u64::from_ne_bytes(b.try_into().unwrap()) as usize)
            .collect();
        let total: usize = sizes.iter().sum();
        assert!(total <= dest.count(), "collect needs {total} elements, dest has {}", dest.count());
        let my_off: usize = sizes[..rel].iter().sum();
        // Round 2: everyone places its block at its global offset.
        for k in 0..n {
            let tgt = set.member(k);
            if !src.is_empty() {
                self.put(dest.slice(my_off, src.len()), src, tgt);
            }
        }
        self.barrier(set);
        total
    }

    /// `shmem_alltoall`: member `i`'s `src[j*nelems..][..nelems]` lands in
    /// member `j`'s `dest[i*nelems..][..nelems]`.
    pub fn alltoall<T: Scalar>(&self, dest: SymPtr<T>, src: &[T], nelems: usize, set: &ActiveSet) {
        let n = set.len();
        assert_eq!(src.len(), n * nelems, "alltoall source must hold one block per member");
        assert!(n * nelems <= dest.count(), "alltoall destination too small");
        self.collective_op(|| {
            self.quiet();
            let rel = set.index_of(self.my_pe()).expect("caller must be in the active set");
            for j in 0..n {
                let tgt = set.member(j);
                self.put(dest.slice(rel * nelems, nelems), &src[j * nelems..(j + 1) * nelems], tgt);
            }
            self.barrier(set);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shmem::ShmemConfig;
    use pgas_conduit::ConduitProfile;
    use pgas_machine::{generic_smp, run, stampede, Platform};

    fn cfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 17)
    }

    fn mk(pe: pgas_machine::machine::Pe<'_>) -> Shmem<'_> {
        Shmem::new(pe, ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp)))
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..4 {
            let out = run(cfg(5), |pe| {
                let shmem = mk(pe);
                let src = shmem.shmalloc::<i64>(6).unwrap();
                let dest = shmem.shmalloc::<i64>(6).unwrap();
                let mine: Vec<i64> = (0..6).map(|i| (shmem.my_pe() * 100 + i) as i64).collect();
                shmem.write_local(src, &mine);
                shmem.write_local(dest, &[-1; 6]);
                shmem.barrier_all();
                let set = ActiveSet::new(0, 0, 4); // PEs 0..4; PE 4 sits out
                if shmem.my_pe() < 4 {
                    shmem.broadcast(dest, src, 6, root, &set);
                }
                let mut d = [0i64; 6];
                shmem.read_local(dest, &mut d);
                d
            });
            let expect: Vec<i64> = (0..6).map(|i| (root * 100 + i) as i64).collect();
            for (pe, r) in out.results.iter().enumerate() {
                if pe == root || pe == 4 {
                    assert_eq!(r, &[-1i64; 6], "root/outsider dest untouched (PE {pe})");
                } else {
                    assert_eq!(&r[..], &expect[..], "PE {pe}, root {root}");
                }
            }
        }
    }

    #[test]
    fn sum_to_all_is_correct_for_sizes_and_types() {
        for n in [1usize, 2, 3, 4, 7, 8] {
            let out = run(cfg(n), |pe| {
                let shmem = mk(pe);
                let src = shmem.shmalloc::<i64>(5).unwrap();
                let dest = shmem.shmalloc::<i64>(5).unwrap();
                let mine: Vec<i64> =
                    (0..5).map(|i| (shmem.my_pe() + 1) as i64 * (i + 1) as i64).collect();
                shmem.write_local(src, &mine);
                shmem.barrier_all();
                shmem.sum_to_all(dest, src, 5, &shmem.world());
                let mut d = [0i64; 5];
                shmem.read_local(dest, &mut d);
                d
            });
            let tot: i64 = (1..=n as i64).sum();
            for r in out.results {
                for (i, v) in r.iter().enumerate() {
                    assert_eq!(*v, tot * (i + 1) as i64, "n={n}");
                }
            }
        }
    }

    #[test]
    fn float_reduction_is_deterministic_and_correct() {
        let run_once = || {
            let out = run(cfg(6), |pe| {
                let shmem = mk(pe);
                let src = shmem.shmalloc::<f64>(3).unwrap();
                let dest = shmem.shmalloc::<f64>(3).unwrap();
                shmem.write_local(src, &[0.1 * (shmem.my_pe() as f64 + 1.0); 3]);
                shmem.barrier_all();
                shmem.sum_to_all(dest, src, 3, &shmem.world());
                let mut d = [0.0f64; 3];
                shmem.read_local(dest, &mut d);
                d
            });
            out.results
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "binomial order must make float sums bit-reproducible");
        for r in &a {
            for v in r {
                assert!((v - 2.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn min_max_prod_bitwise_reductions() {
        let out = run(cfg(4), |pe| {
            let shmem = mk(pe);
            let src = shmem.shmalloc::<u64>(1).unwrap();
            let dmax = shmem.shmalloc::<u64>(1).unwrap();
            let dmin = shmem.shmalloc::<u64>(1).unwrap();
            let dprod = shmem.shmalloc::<u64>(1).unwrap();
            let dand = shmem.shmalloc::<u64>(1).unwrap();
            let dor = shmem.shmalloc::<u64>(1).unwrap();
            let dxor = shmem.shmalloc::<u64>(1).unwrap();
            let me = shmem.my_pe() as u64 + 3; // 3,4,5,6
            shmem.write_local(src, &[me]);
            shmem.barrier_all();
            let w = shmem.world();
            shmem.max_to_all(dmax, src, 1, &w);
            shmem.min_to_all(dmin, src, 1, &w);
            shmem.prod_to_all(dprod, src, 1, &w);
            shmem.and_to_all(dand, src, 1, &w);
            shmem.or_to_all(dor, src, 1, &w);
            shmem.xor_to_all(dxor, src, 1, &w);
            (
                shmem.read_local_one(dmax),
                shmem.read_local_one(dmin),
                shmem.read_local_one(dprod),
                shmem.read_local_one(dand),
                shmem.read_local_one(dor),
                shmem.read_local_one(dxor),
            )
        });
        // Values 3,4,5,6: AND = 0b100 & ... = 0, OR = 0b111, XOR = 3^4^5^6 = 4.
        for r in out.results {
            assert_eq!(r, (6, 3, 360, 0, 7, 4));
        }
    }

    #[test]
    fn large_reduction_chunks_through_pwrk() {
        // pWrk of 256 bytes forces many chunks for 500 f64 elements.
        let out = run(cfg(4), |pe| {
            let shmem = Shmem::new(
                pe,
                ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp))
                    .with_pwrk_bytes(256),
            );
            let src = shmem.shmalloc::<f64>(500).unwrap();
            let dest = shmem.shmalloc::<f64>(500).unwrap();
            let mine: Vec<f64> = (0..500).map(|i| i as f64 + shmem.my_pe() as f64).collect();
            shmem.write_local(src, &mine);
            shmem.barrier_all();
            shmem.sum_to_all(dest, src, 500, &shmem.world());
            let mut d = vec![0.0f64; 500];
            shmem.read_local(dest, &mut d);
            d
        });
        for r in out.results {
            for (i, v) in r.iter().enumerate() {
                assert_eq!(*v, 4.0 * i as f64 + 6.0, "element {i}");
            }
        }
    }

    #[test]
    fn reduce_on_strided_active_set() {
        let out = run(cfg(8), |pe| {
            let shmem = mk(pe);
            let src = shmem.shmalloc::<i64>(1).unwrap();
            let dest = shmem.shmalloc::<i64>(1).unwrap();
            shmem.write_local(src, &[shmem.my_pe() as i64]);
            shmem.write_local(dest, &[-1]);
            shmem.barrier_all();
            let evens = ActiveSet::new(0, 1, 4); // 0,2,4,6
            if shmem.my_pe().is_multiple_of(2) {
                shmem.sum_to_all(dest, src, 1, &evens);
            }
            shmem.barrier_all();
            shmem.read_local_one(dest)
        });
        for (pe, r) in out.results.iter().enumerate() {
            if pe % 2 == 0 {
                assert_eq!(*r, 12);
            } else {
                assert_eq!(*r, -1);
            }
        }
    }

    #[test]
    fn fcollect_orders_blocks_by_rank() {
        let out = run(cfg(4), |pe| {
            let shmem = mk(pe);
            let dest = shmem.shmalloc::<i32>(8).unwrap();
            shmem.barrier_all();
            let src = [shmem.my_pe() as i32 * 10, shmem.my_pe() as i32 * 10 + 1];
            shmem.fcollect(dest, &src, &shmem.world());
            let mut d = [0i32; 8];
            shmem.read_local(dest, &mut d);
            d
        });
        for r in out.results {
            assert_eq!(r, [0, 1, 10, 11, 20, 21, 30, 31]);
        }
    }

    #[test]
    fn collect_handles_variable_sizes() {
        let out = run(cfg(4), |pe| {
            let shmem = mk(pe);
            let dest = shmem.shmalloc::<i32>(32).unwrap();
            shmem.barrier_all();
            // PE k contributes k+1 elements with value k.
            let src: Vec<i32> = vec![shmem.my_pe() as i32; shmem.my_pe() + 1];
            let total = shmem.collect(dest, &src, &shmem.world());
            let mut d = vec![0i32; total];
            shmem.read_local(dest.slice(0, total), &mut d);
            d
        });
        for r in out.results {
            assert_eq!(r, vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        let out = run(cfg(3), |pe| {
            let shmem = mk(pe);
            let dest = shmem.shmalloc::<i64>(6).unwrap();
            shmem.barrier_all();
            let me = shmem.my_pe() as i64;
            // Block j carries (me, j).
            let src: Vec<i64> = (0..3).flat_map(|j| [me * 10 + j, me * 10 + j]).collect();
            shmem.alltoall(dest, &src, 2, &shmem.world());
            let mut d = [0i64; 6];
            shmem.read_local(dest, &mut d);
            d
        });
        for (j, r) in out.results.iter().enumerate() {
            let expect: Vec<i64> = (0..3)
                .flat_map(|i| {
                    let v = (i * 10 + j) as i64;
                    [v, v]
                })
                .collect();
            assert_eq!(&r[..], &expect[..], "PE {j}");
        }
    }

    #[test]
    fn collectives_work_over_multiple_nodes() {
        let out = run(stampede(4, 2).with_heap_bytes(1 << 16), |pe| {
            let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()));
            let src = shmem.shmalloc::<i64>(1).unwrap();
            let dest = shmem.shmalloc::<i64>(1).unwrap();
            shmem.write_local(src, &[1]);
            shmem.barrier_all();
            shmem.sum_to_all(dest, src, 1, &shmem.world());
            shmem.read_local_one(dest)
        });
        for r in &out.results {
            assert_eq!(*r, 8);
        }
        // Reduction over 2 nodes must have cost at least one wire latency.
        assert!(out.makespan_ns() > 900);
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        // NOTE: each collective uses its own destination buffer — reading a
        // buffer locally while a peer's next collective targets it is a data
        // race under OpenSHMEM semantics (and this simulator faithfully
        // exhibits it).
        let out = run(cfg(4), |pe| {
            let shmem = mk(pe);
            let src = shmem.shmalloc::<i64>(1).unwrap();
            let dsum = shmem.shmalloc::<i64>(1).unwrap();
            let dbcast = shmem.shmalloc::<i64>(1).unwrap();
            let b = shmem.shmalloc::<i64>(1).unwrap();
            shmem.barrier_all();
            let mut results = Vec::new();
            for round in 0..5i64 {
                shmem.write_local(src, &[round + shmem.my_pe() as i64]);
                shmem.sum_to_all(dsum, src, 1, &shmem.world());
                results.push(shmem.read_local_one(dsum));
                shmem.write_local(b, &[round * 100 + shmem.my_pe() as i64]);
                shmem.broadcast(dbcast, b, 1, 2, &shmem.world());
                if shmem.my_pe() != 2 {
                    results.push(shmem.read_local_one(dbcast));
                }
                shmem.barrier_all();
            }
            results
        });
        for (pe, r) in out.results.iter().enumerate() {
            let mut k = 0;
            for round in 0..5i64 {
                assert_eq!(r[k], 4 * round + 6, "sum, PE {pe} round {round}");
                k += 1;
                if pe != 2 {
                    assert_eq!(r[k], round * 100 + 2, "bcast, PE {pe} round {round}");
                    k += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod repeated_reduction_tests {
    use super::*;
    use crate::shmem::ShmemConfig;
    use pgas_conduit::ConduitProfile;
    use pgas_machine::{generic_smp, run, Platform};

    #[test]
    fn two_sums_in_a_row() {
        let out = run(generic_smp(4).with_heap_bytes(1 << 17), |pe| {
            let shmem = Shmem::new(
                pe,
                ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp)),
            );
            let src = shmem.shmalloc::<i64>(1).unwrap();
            let dest = shmem.shmalloc::<i64>(1).unwrap();
            shmem.barrier_all();
            let mut v = Vec::new();
            for round in 0..10i64 {
                shmem.write_local(src, &[round + shmem.my_pe() as i64]);
                shmem.sum_to_all(dest, src, 1, &shmem.world());
                v.push(shmem.read_local_one(dest));
            }
            v
        });
        for (pe, r) in out.results.iter().enumerate() {
            for round in 0..10i64 {
                assert_eq!(r[round as usize], 4 * round + 6, "PE {pe} round {round}");
            }
        }
    }
}
