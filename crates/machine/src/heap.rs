//! Per-PE remotely accessible memory ("symmetric heap" storage).
//!
//! Any PE may read or write any other PE's heap at any time — that is the
//! whole point of a PGAS machine — so the backing store must tolerate
//! concurrent conflicting access without undefined behaviour. We store the
//! heap as a slice of `AtomicU64` words and perform all byte-granularity
//! access through word-level atomics (plain loads/stores for covered words,
//! CAS-merge for partial words). Racy PGAS programs thus map onto well-defined
//! relaxed-atomic races instead of UB.
//!
//! Alongside the data, every word carries a **shadow timestamp**: the maximum
//! virtual completion time of remote writes that touched it. Readers take the
//! max over the region they read and fold it into their own clock, which
//! propagates causality through memory (Lamport clocks through the heap).
//! Stamps are read lock-free but written by one thread at a time per heap —
//! the contract stated at [`Heap::stamp_range`].
//!
//! Out-of-bounds access panics: it is the simulator's analogue of a segfault
//! from a bad remote address.

use std::sync::atomic::{AtomicU64, Ordering};

/// Remotely accessible memory of one PE plus shadow timestamps.
pub struct Heap {
    words: Box<[AtomicU64]>,
    stamps: Box<[AtomicU64]>,
    len_bytes: usize,
    /// Set for the duration of a `stamp_range` call: detects a second,
    /// unserialized stamp writer (see the contract there).
    #[cfg(debug_assertions)]
    stamping: std::sync::atomic::AtomicBool,
}

impl Heap {
    /// Allocate a zeroed heap of at least `len_bytes` (rounded up to 8).
    pub fn new(len_bytes: usize) -> Self {
        let words = len_bytes.div_ceil(8);
        Heap {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            stamps: (0..words).map(|_| AtomicU64::new(0)).collect(),
            len_bytes: words * 8,
            #[cfg(debug_assertions)]
            stamping: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Usable size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_bytes
    }

    /// True when the heap has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_bytes == 0
    }

    #[inline]
    fn check(&self, off: usize, len: usize, what: &str) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len_bytes),
            "remote {what} out of bounds: offset {off} + len {len} > heap size {}",
            self.len_bytes
        );
    }

    /// Copy `src` into the heap at byte offset `off`.
    pub fn write_bytes(&self, off: usize, src: &[u8]) {
        self.check(off, src.len(), "write");
        self.store(off, src);
    }

    /// [`Self::write_bytes`] for a range the caller has already checked.
    /// Always inlined, so the copy loop is compiled next to its caller's
    /// bounds check as it was when the two were one function.
    #[inline(always)]
    fn store(&self, off: usize, src: &[u8]) {
        let mut pos = off;
        let mut rest = src;
        // Leading partial word.
        if !pos.is_multiple_of(8) {
            let in_word = pos % 8;
            let take = rest.len().min(8 - in_word);
            merge_word(&self.words[pos / 8], in_word, &rest[..take]);
            pos += take;
            rest = &rest[take..];
        }
        // Full words.
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            self.words[pos / 8].store(u64::from_ne_bytes(b), Ordering::Release);
            pos += 8;
        }
        // Trailing partial word.
        let tail = chunks.remainder();
        if !tail.is_empty() {
            merge_word(&self.words[pos / 8], 0, tail);
        }
    }

    /// Copy heap bytes at offset `off` into `dst`.
    pub fn read_bytes(&self, off: usize, dst: &mut [u8]) {
        self.check(off, dst.len(), "read");
        self.load(off, dst);
    }

    /// [`Self::read_bytes`] for a range the caller has already checked.
    /// Always inlined, like [`Self::store`]: left to the inliner's choice,
    /// a 4 KiB `read_bytes` measured 12 % slower.
    #[inline(always)]
    fn load(&self, off: usize, dst: &mut [u8]) {
        let mut pos = off;
        let mut rest = &mut dst[..];
        if !pos.is_multiple_of(8) {
            let in_word = pos % 8;
            let take = rest.len().min(8 - in_word);
            let w = self.words[pos / 8].load(Ordering::Acquire).to_ne_bytes();
            rest[..take].copy_from_slice(&w[in_word..in_word + take]);
            pos += take;
            rest = &mut rest[take..];
        }
        let mut chunks = rest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.words[pos / 8].load(Ordering::Acquire).to_ne_bytes());
            pos += 8;
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let w = self.words[pos / 8].load(Ordering::Acquire).to_ne_bytes();
            let n = tail.len();
            tail.copy_from_slice(&w[..n]);
        }
    }

    /// Direct access to the 8-byte atomic word at byte offset `off`
    /// (must be 8-aligned). This is the substrate for remote atomics and
    /// `wait_until`.
    #[inline]
    pub fn atomic64(&self, off: usize) -> &AtomicU64 {
        self.check(off, 8, "atomic");
        assert!(off.is_multiple_of(8), "atomic access requires 8-byte alignment, got offset {off}");
        &self.words[off / 8]
    }

    /// Record that a remote write covering `[off, off+len)` completed at
    /// virtual time `t`: every covered word's stamp becomes `max(stamp, t)`.
    ///
    /// **Writer contract:** stamp writers of one heap are serialized — every
    /// caller runs inside the owner's `Machine::apply_and_notify` critical
    /// section (its notify lock). That is what lets the max be a plain load,
    /// compare and store instead of one atomic read-modify-write per word:
    /// no other writer can slip between the load and the store, and the
    /// lock's release/acquire orders one stamper's stores before the next
    /// one's loads. Readers ([`Self::max_stamp`]) stay lock-free; the
    /// `Release` store pairs with their `Acquire` load. Debug builds check
    /// the contract.
    pub fn stamp_range(&self, off: usize, len: usize, t: u64) {
        if len == 0 {
            return;
        }
        self.check(off, len, "stamp");
        self.as_stamper(|| self.stamp_words(off, len, t));
    }

    /// Run `f`, the body of a stamp writer. Debug builds check the writer
    /// contract of [`Self::stamp_range`] around it.
    #[inline]
    fn as_stamper<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(debug_assertions)]
        assert!(
            !self.stamping.swap(true, Ordering::Acquire),
            "two concurrent stamp_range calls on one heap: stamp writers must run inside \
             Machine::apply_and_notify on the heap's owner"
        );
        let out = f();
        #[cfg(debug_assertions)]
        self.stamping.store(false, Ordering::Release);
        out
    }

    /// Raise the stamps of the words of an already checked range to `t`.
    #[inline]
    fn stamp_words(&self, off: usize, len: usize, t: u64) {
        for w in &self.stamps[off / 8..(off + len).div_ceil(8)] {
            if w.load(Ordering::Relaxed) < t {
                w.store(t, Ordering::Release);
            }
        }
    }

    /// Maximum remote-write completion time over `[off, off+len)`.
    pub fn max_stamp(&self, off: usize, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.check(off, len, "stamp read");
        self.max_stamp_words(off, len)
    }

    #[inline]
    fn max_stamp_words(&self, off: usize, len: usize) -> u64 {
        self.stamps[off / 8..(off + len).div_ceil(8)]
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Strided write: element `i` of `n` (`elem` bytes each) is taken from
    /// `src[i * src_step..]` and lands at byte offset `off + i * step`; the
    /// words it touches are stamped with `t`. Equal to one
    /// [`Self::write_bytes`] + [`Self::stamp_range`] per element — gaps
    /// between elements keep their bytes and their stamps — but the span
    /// from the first element to the last is bounds-checked once. The stamp
    /// writer contract of [`Self::stamp_range`] applies.
    #[allow(clippy::too_many_arguments)] // two (base, step) pairs plus the element geometry
    pub fn scatter(
        &self,
        off: usize,
        step: usize,
        src: &[u8],
        src_step: usize,
        elem: usize,
        n: usize,
        t: u64,
    ) {
        if n == 0 || elem == 0 {
            return;
        }
        self.check(off, strided_span(n, step, elem), "write");
        assert!(
            src.len() >= strided_span(n, src_step, elem),
            "scatter source too short: {n} elements of {elem} bytes at step {src_step} from {}",
            src.len()
        );
        self.as_stamper(|| {
            for i in 0..n {
                let at = off + i * step;
                self.store(at, &src[i * src_step..][..elem]);
                self.stamp_words(at, elem, t);
            }
        });
    }

    /// Strided read, the mirror of [`Self::scatter`]: element `i` is read
    /// from byte offset `off + i * step` into `out[i * out_step..]`. Returns
    /// the maximum stamp over the words the elements touch (not the gaps),
    /// as one [`Self::read_bytes`] + [`Self::max_stamp`] per element would.
    pub fn gather(
        &self,
        off: usize,
        step: usize,
        out: &mut [u8],
        out_step: usize,
        elem: usize,
        n: usize,
    ) -> u64 {
        if n == 0 || elem == 0 {
            return 0;
        }
        self.check(off, strided_span(n, step, elem), "read");
        assert!(
            out.len() >= strided_span(n, out_step, elem),
            "gather destination too short: {n} elements of {elem} bytes at step {out_step} into {}",
            out.len()
        );
        let mut stamp = 0;
        for i in 0..n {
            let at = off + i * step;
            self.load(at, &mut out[i * out_step..][..elem]);
            stamp = stamp.max(self.max_stamp_words(at, elem));
        }
        stamp
    }
}

/// Bytes from the start of the first to the end of the last of `n >= 1`
/// elements of `elem` bytes laid out every `step` bytes.
fn strided_span(n: usize, step: usize, elem: usize) -> usize {
    (n - 1)
        .checked_mul(step)
        .and_then(|gaps| gaps.checked_add(elem))
        .expect("strided span overflows the address space")
}

/// CAS-merge `src` into `word` starting at byte `in_word`.
fn merge_word(word: &AtomicU64, in_word: usize, src: &[u8]) {
    debug_assert!(in_word + src.len() <= 8);
    let mut cur = word.load(Ordering::Acquire);
    loop {
        let mut b = cur.to_ne_bytes();
        b[in_word..in_word + src.len()].copy_from_slice(src);
        match word.compare_exchange_weak(
            cur,
            u64::from_ne_bytes(b),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_aligned() {
        let h = Heap::new(64);
        let data: Vec<u8> = (0..32).collect();
        h.write_bytes(8, &data);
        let mut out = vec![0u8; 32];
        h.read_bytes(8, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_unaligned_offsets_and_lengths() {
        let h = Heap::new(128);
        for off in 0..16 {
            for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 23, 40] {
                let data: Vec<u8> =
                    (0..len as u8).map(|b| b.wrapping_mul(37).wrapping_add(off as u8)).collect();
                h.write_bytes(off, &data);
                let mut out = vec![0xAAu8; len];
                h.read_bytes(off, &mut out);
                assert_eq!(out, data, "off={off} len={len}");
            }
        }
    }

    #[test]
    fn partial_write_preserves_neighbours() {
        let h = Heap::new(32);
        h.write_bytes(0, &[0xFF; 24]);
        h.write_bytes(5, &[1, 2, 3, 4, 5, 6]); // crosses a word boundary
        let mut out = [0u8; 24];
        h.read_bytes(0, &mut out);
        assert_eq!(&out[..5], &[0xFF; 5]);
        assert_eq!(&out[5..11], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(&out[11..], &[0xFF; 13]);
    }

    #[test]
    fn atomic_word_shares_storage_with_bytes() {
        let h = Heap::new(64);
        h.atomic64(16).store(u64::from_ne_bytes(*b"ABCDEFGH"), Ordering::Release);
        let mut out = [0u8; 8];
        h.read_bytes(16, &mut out);
        assert_eq!(&out, b"ABCDEFGH");
    }

    #[test]
    fn stamps_take_max_over_region() {
        let h = Heap::new(64);
        assert_eq!(h.max_stamp(0, 64), 0);
        h.stamp_range(0, 8, 100);
        h.stamp_range(8, 8, 250);
        h.stamp_range(8, 8, 200); // older write must not regress the stamp
        assert_eq!(h.max_stamp(0, 8), 100);
        assert_eq!(h.max_stamp(8, 8), 250);
        assert_eq!(h.max_stamp(0, 16), 250);
        assert_eq!(h.max_stamp(16, 48), 0);
        // Unaligned span covering a stamped word sees its stamp.
        assert_eq!(h.max_stamp(7, 2), 250);
    }

    #[test]
    fn serialized_stampers_never_leave_a_word_below_its_largest_time() {
        // Eight threads stamp overlapping ranges of PE 0's heap with
        // increasing times, each call inside the owner's critical section.
        // Whatever the interleaving, every word ends at the largest time any
        // call covering it wrote.
        use crate::machine::Machine;
        const THREADS: usize = 8;
        const ROUNDS: u64 = 500;
        const WORDS: usize = 64;
        let m = &*Machine::new(crate::platforms::generic_smp(1));
        let span = |t: usize, r: u64| {
            let first = (t * 5 + r as usize * 3) % WORDS;
            (first, 1 + (t + r as usize) % (WORDS - first))
        };
        let time = |t: usize, r: u64| r * THREADS as u64 + t as u64 + 1;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        let (first, words) = span(t, r);
                        m.apply_and_notify(0, || {
                            m.heap(0).stamp_range(first * 8, words * 8, time(t, r))
                        });
                    }
                });
            }
        });
        let mut want = [0u64; WORDS];
        for t in 0..THREADS {
            for r in 0..ROUNDS {
                let (first, words) = span(t, r);
                for w in &mut want[first..first + words] {
                    *w = (*w).max(time(t, r));
                }
            }
        }
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(m.heap(0).max_stamp(i * 8, 8), w, "word {i}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn unserialized_stampers_trip_the_debug_detector() {
        // Two threads stamp the same heap with no lock between them. Each
        // call covers 4 MiB, so two calls started together overlap; the one
        // that finds the other inside its call panics.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        let h = &Heap::new(1 << 22);
        let tripped = &AtomicBool::new(false);
        let start = &std::sync::Barrier::new(2);
        let messages: Vec<String> = std::thread::scope(|scope| {
            let stampers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        start.wait();
                        for t in 1..=2000u64 {
                            if tripped.load(Ordering::Acquire) {
                                break;
                            }
                            let r = catch_unwind(AssertUnwindSafe(|| h.stamp_range(0, 1 << 22, t)));
                            if let Err(e) = r {
                                tripped.store(true, Ordering::Release);
                                return e.downcast_ref::<&str>().map(|msg| msg.to_string());
                            }
                        }
                        None
                    })
                })
                .collect();
            stampers.into_iter().filter_map(|s| s.join().unwrap()).collect()
        });
        assert!(!messages.is_empty(), "concurrent stampers went undetected");
        assert!(messages[0].contains("Machine::apply_and_notify"), "{}", messages[0]);
    }

    #[test]
    fn len_rounds_up_to_words() {
        assert_eq!(Heap::new(1).len(), 8);
        assert_eq!(Heap::new(8).len(), 8);
        assert_eq!(Heap::new(9).len(), 16);
        assert!(!Heap::new(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        Heap::new(16).write_bytes(12, &[0; 8]);
    }

    /// Every byte and every word stamp of a heap.
    fn image(h: &Heap) -> (Vec<u8>, Vec<u64>) {
        let mut bytes = vec![0u8; h.len()];
        h.read_bytes(0, &mut bytes);
        (bytes, (0..h.len() / 8).map(|w| h.max_stamp(w * 8, 8)).collect())
    }

    #[test]
    fn scatter_and_gather_equal_the_per_element_calls() {
        // Element sizes 1..=8 at odd and even offsets, steps that leave gaps,
        // touch, and (step < elem) overlap; source both packed and strided.
        for elem in [1usize, 2, 4, 8] {
            for off in [0usize, 3, 4, 8, 13] {
                for step in [elem, elem + 1, 2 * elem, 3 * elem + 4, elem.div_ceil(2)] {
                    for src_step in [elem, 2 * elem + 1] {
                        let n = 9;
                        let src: Vec<u8> =
                            (0..(n - 1) * src_step + elem).map(|b| b as u8 ^ 0x5A).collect();
                        let (fast, slow) = (Heap::new(512), Heap::new(512));
                        for h in [&fast, &slow] {
                            h.write_bytes(0, &[0xEE; 512]);
                            h.stamp_range(16, 8, 900); // a newer stamp must survive
                        }
                        fast.scatter(off, step, &src, src_step, elem, n, 700);
                        for i in 0..n {
                            slow.write_bytes(off + i * step, &src[i * src_step..][..elem]);
                            slow.stamp_range(off + i * step, elem, 700);
                        }
                        let case = format!("elem={elem} off={off} step={step} src_step={src_step}");
                        assert_eq!(image(&fast), image(&slow), "scatter {case}");

                        let mut got = vec![0xAAu8; src.len()];
                        let mut want = got.clone();
                        let stamp = fast.gather(off, step, &mut got, src_step, elem, n);
                        let mut want_stamp = 0;
                        for i in 0..n {
                            slow.read_bytes(off + i * step, &mut want[i * src_step..][..elem]);
                            want_stamp = want_stamp.max(slow.max_stamp(off + i * step, elem));
                        }
                        assert_eq!((got, stamp), (want, want_stamp), "gather {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_of_unaligned_words_preserves_the_gaps() {
        // 4-byte elements every 12 bytes from offset 6: the first straddles
        // words 0/1, the second sits inside word 2, the third straddles 3/4.
        let h = Heap::new(48);
        h.write_bytes(0, &[0xFF; 48]);
        h.scatter(6, 12, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], 4, 4, 3, 50);
        let (bytes, stamps) = image(&h);
        let mut want = [0xFFu8; 48];
        want[6..10].copy_from_slice(&[1, 2, 3, 4]);
        want[18..22].copy_from_slice(&[5, 6, 7, 8]);
        want[30..34].copy_from_slice(&[9, 10, 11, 12]);
        assert_eq!(bytes, want);
        assert_eq!(stamps, [50, 50, 50, 50, 50, 0], "word 5 is never touched");
        // A gather leaves the stamp of a word that lies wholly in a gap out
        // of its maximum: elements at 6 and 30, word 2 between them.
        h.stamp_range(16, 8, 99);
        let mut out = [0u8; 8];
        assert_eq!(h.gather(6, 24, &mut out, 4, 4, 2), 50);
        assert_eq!(out, [1, 2, 3, 4, 9, 10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "remote write out of bounds: offset 8 + len 20 > heap size 24")]
    fn scatter_checks_its_whole_span() {
        // Elements 0 and 1 fit; the third ends at byte 28 of a 24-byte heap.
        Heap::new(24).scatter(8, 8, &[0; 12], 4, 4, 3, 1);
    }

    #[test]
    #[should_panic(expected = "remote read out of bounds")]
    fn gather_checks_its_whole_span() {
        Heap::new(24).gather(8, 8, &mut [0; 12], 4, 4, 3);
    }

    #[test]
    #[should_panic(expected = "scatter source too short")]
    fn scatter_checks_its_source() {
        Heap::new(64).scatter(0, 8, &[0; 11], 4, 4, 3, 1);
    }

    #[test]
    #[should_panic(expected = "8-byte alignment")]
    fn misaligned_atomic_panics() {
        Heap::new(16).atomic64(4);
    }

    #[test]
    fn concurrent_adjacent_byte_writes_do_not_tear() {
        // Two threads hammer adjacent bytes within one word; both values
        // must survive (the CAS merge must not lose either).
        use std::sync::Arc;
        let h = Arc::new(Heap::new(8));
        let h1 = h.clone();
        let h2 = h.clone();
        let t1 = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                h1.write_bytes(1, &[(i % 251) as u8]);
            }
        });
        let t2 = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                h2.write_bytes(2, &[(i % 241) as u8]);
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let mut out = [0u8; 3];
        h.read_bytes(0, &mut out);
        assert_eq!(out[0], 0);
        assert_eq!(out[1], (9_999 % 251) as u8);
        assert_eq!(out[2], (9_999 % 241) as u8);
    }
}
