//! Per-PE remotely accessible memory ("symmetric heap" storage).
//!
//! Any PE may read or write any other PE's heap at any time — that is the
//! whole point of a PGAS machine — so the backing store must tolerate
//! concurrent conflicting access without undefined behaviour. The bytes are
//! kept in `AtomicU64` words and every byte-granularity access goes through
//! word-level atomics (plain loads/stores for covered words, CAS-merge for
//! partial words), so racy PGAS programs map onto well-defined relaxed-atomic
//! races instead of UB. Every machine is launched and runs one PE at a time,
//! on either carrier, but a `Heap` is `Sync` and a caller that builds one may
//! still share it between OS threads; the words can become plain bytes once
//! the machine's state is owned by its carrier.
//!
//! **Pages.** OpenSHMEM reserves a PE's whole symmetric heap up front, and
//! a program touches only what it allocates. So a heap is a table of 4 KiB
//! pages: [`Heap::new`] allocates the table and no page, a write
//! ([`Heap::write_bytes`], [`Heap::scatter`], [`Heap::atomic64`]) creates a
//! page the first time it touches it, and a read of a page that does not
//! exist yet yields zeros and creates nothing. Every copy and stamp loop
//! looks a page up once and then walks its words.
//!
//! **Stamps.** Every word carries a *shadow timestamp*: the maximum virtual
//! completion time of remote writes that touched it. Readers take the max
//! over the region they read and fold it into their own clock, which
//! propagates causality through memory (Lamport clocks through the heap).
//! A page keeps its stamps as a `floor` plus, once a stamp above the floor
//! covers only part of the page, a per-word array; a word's stamp is the
//! larger of the two. A stamp over a whole page raises just the floor.
//! Raising either side only where it grows keeps every word's stamp equal
//! to the per-word maximum of the times written over it. Stamps are read
//! lock-free but written by one thread at a time per heap — the contract
//! stated at [`Heap::stamp_range`].
//!
//! Out-of-bounds access panics: it is the simulator's analogue of a segfault
//! from a bad remote address.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bytes per heap page: the unit in which storage is created on first write
/// and in which stamps are summarised.
const PAGE_BYTES: usize = 4096;
const PAGE_WORDS: usize = PAGE_BYTES / 8;

/// The 8-byte words of one page.
type Words = [AtomicU64; PAGE_WORDS];

/// A fresh page of zero words, built on the heap.
fn zeroed() -> Box<Words> {
    let words: Box<[AtomicU64]> = (0..PAGE_WORDS).map(|_| AtomicU64::new(0)).collect();
    words.try_into().expect("PAGE_WORDS words")
}

/// One page of a heap.
#[derive(Default)]
struct Page {
    /// The bytes, created as zeros by the first write; until then the
    /// page reads as zeros.
    data: OnceLock<Box<Words>>,
    /// Stamp of every word of the page that `stamps` holds no larger one for.
    floor: AtomicU64,
    /// Per-word stamps, created by the first stamp above `floor` that covers
    /// only part of the page.
    stamps: OnceLock<Box<Words>>,
}

impl Page {
    /// The page's words, created on first use.
    #[inline]
    fn data(&self) -> &Words {
        self.data.get_or_init(zeroed)
    }

    /// The page's words if it has been written.
    #[inline]
    fn written(&self) -> Option<&Words> {
        self.data.get().map(|words| &**words)
    }

    /// Raise the stamps of the words covering bytes `[from, from + n)` of
    /// this page to `t`. Stamp writer only (see [`Heap::stamp_range`]).
    #[inline]
    fn stamp(&self, from: usize, n: usize, t: u64) {
        if self.floor.load(Ordering::Relaxed) >= t {
            return; // every word of the page is already at `t` or above
        }
        let words = from / 8..(from + n).div_ceil(8);
        if words.start == 0 && words.end == PAGE_WORDS {
            self.floor.store(t, Ordering::Release);
            return;
        }
        for w in &self.stamps.get_or_init(zeroed)[words] {
            if w.load(Ordering::Relaxed) < t {
                w.store(t, Ordering::Release);
            }
        }
    }

    /// Maximum stamp of the words covering bytes `[from, from + n)`.
    #[inline]
    fn max_stamp(&self, from: usize, n: usize) -> u64 {
        let floor = self.floor.load(Ordering::Acquire);
        match self.stamps.get() {
            None => floor,
            Some(stamps) => max_word(&stamps[from / 8..(from + n).div_ceil(8)]).max(floor),
        }
    }
}

/// Remotely accessible memory of one PE plus shadow timestamps.
pub struct Heap {
    pages: Box<[Page]>,
    len_bytes: usize,
    /// Set for the duration of a `stamp_range` call: detects a second,
    /// unserialized stamp writer (see the contract there).
    #[cfg(debug_assertions)]
    stamping: std::sync::atomic::AtomicBool,
}

impl Heap {
    /// A zeroed heap of at least `len_bytes` (rounded up to 8). No page
    /// exists until it is first written.
    pub fn new(len_bytes: usize) -> Self {
        let len_bytes = len_bytes.div_ceil(8) * 8;
        Heap {
            pages: (0..len_bytes.div_ceil(PAGE_BYTES)).map(|_| Page::default()).collect(),
            len_bytes,
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
        if off.checked_add(len).is_none_or(|end| end > self.len_bytes) {
            out_of_bounds(what, off, len, self.len_bytes);
        }
    }

    /// Call `f(page, from, n, done)` for each page the already checked range
    /// `[off, off + len)` touches, in order: bytes `[from, from + n)` of
    /// `page` are bytes `[done, done + n)` of the range.
    #[inline(always)]
    fn each_page(&self, off: usize, len: usize, mut f: impl FnMut(&Page, usize, usize, usize)) {
        let from = off % PAGE_BYTES;
        if from + len > PAGE_BYTES {
            self.each_of_pages(off, len, f);
        } else if len > 0 {
            // One page, as every access of up to 8 aligned bytes is.
            f(&self.pages[off / PAGE_BYTES], from, len, 0);
        }
    }

    /// [`Self::each_page`] for a range over more than one page, out of line
    /// so that the one-page case stays a few instructions.
    #[inline(never)]
    fn each_of_pages(&self, off: usize, len: usize, mut f: impl FnMut(&Page, usize, usize, usize)) {
        let mut pos = off;
        while pos < off + len {
            let from = pos % PAGE_BYTES;
            let n = (off + len - pos).min(PAGE_BYTES - from);
            f(&self.pages[pos / PAGE_BYTES], from, n, pos - off);
            pos += n;
        }
    }

    /// Group the `n` elements of `elem` bytes at `off + i * step` (an
    /// already checked span) by page: `f(Some((page, from)), i..k)` gets
    /// elements `i..k`, which lie wholly in `page`, the first at byte `from`
    /// and the others every `step` bytes after it; an element `i` that
    /// straddles two pages comes alone as `f(None, i..i + 1)`.
    #[inline(always)]
    fn runs(
        &self,
        off: usize,
        step: usize,
        elem: usize,
        n: usize,
        mut f: impl FnMut(Option<(&Page, usize)>, std::ops::Range<usize>),
    ) {
        let mut i = 0;
        while i < n {
            let at = off + i * step;
            let from = at % PAGE_BYTES;
            if from + elem > PAGE_BYTES {
                f(None, i..i + 1);
                i += 1;
            } else {
                let room = PAGE_BYTES - elem - from;
                let k = room.checked_div(step).map_or(n, |more| n.min(i + 1 + more));
                f(Some((&self.pages[at / PAGE_BYTES], from)), i..k);
                i = k;
            }
        }
    }

    /// Copy `src` into the heap at byte offset `off`.
    #[inline]
    pub fn write_bytes(&self, off: usize, src: &[u8]) {
        self.check(off, src.len(), "write");
        self.each_page(off, src.len(), |page, from, n, done| {
            store_words(page.data(), from, &src[done..done + n])
        });
    }

    /// Copy heap bytes at offset `off` into `dst`.
    #[inline]
    pub fn read_bytes(&self, off: usize, dst: &mut [u8]) {
        self.check(off, dst.len(), "read");
        self.each_page(off, dst.len(), |page, from, n, done| {
            load_words(page.written(), from, &mut dst[done..done + n])
        });
    }

    /// Direct access to the 8-byte atomic word at byte offset `off`
    /// (must be 8-aligned). This is the substrate for remote atomics and
    /// `wait_until`. Creates the word's page if it does not exist yet.
    #[inline]
    pub fn atomic64(&self, off: usize) -> &AtomicU64 {
        self.check(off, 8, "atomic");
        assert!(off.is_multiple_of(8), "atomic access requires 8-byte alignment, got offset {off}");
        &self.pages[off / PAGE_BYTES].data()[off % PAGE_BYTES / 8]
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
    #[inline]
    pub fn stamp_range(&self, off: usize, len: usize, t: u64) {
        if len == 0 {
            return;
        }
        self.check(off, len, "stamp");
        self.as_stamper(|| self.each_page(off, len, |page, from, n, _| page.stamp(from, n, t)));
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

    /// Maximum remote-write completion time over `[off, off+len)`.
    #[inline]
    pub fn max_stamp(&self, off: usize, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.check(off, len, "stamp read");
        let mut stamp = 0;
        self.each_page(off, len, |page, from, n, _| stamp = stamp.max(page.max_stamp(from, n)));
        stamp
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
            self.runs(off, step, elem, n, move |in_page, elems| match in_page {
                Some((page, from)) => {
                    let data = page.data();
                    for i in elems.clone() {
                        let from = from + (i - elems.start) * step;
                        store_words(data, from, &src[i * src_step..][..elem]);
                        page.stamp(from, elem, t);
                    }
                }
                None => {
                    let src = &src[elems.start * src_step..][..elem];
                    self.each_page(off + elems.start * step, elem, |page, from, n, done| {
                        store_words(page.data(), from, &src[done..done + n]);
                        page.stamp(from, n, t);
                    });
                }
            });
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
        self.runs(off, step, elem, n, |in_page, elems| match in_page {
            Some((page, from)) => {
                let (data, stamps) = (page.written(), page.stamps.get());
                stamp = stamp.max(page.floor.load(Ordering::Acquire));
                for i in elems.clone() {
                    let from = from + (i - elems.start) * step;
                    load_words(data, from, &mut out[i * out_step..][..elem]);
                    if let Some(stamps) = stamps {
                        stamp = stamp.max(max_word(&stamps[from / 8..(from + elem).div_ceil(8)]));
                    }
                }
            }
            None => {
                let out = &mut out[elems.start * out_step..][..elem];
                self.each_page(off + elems.start * step, elem, |page, from, n, done| {
                    load_words(page.written(), from, &mut out[done..done + n]);
                    stamp = stamp.max(page.max_stamp(from, n));
                });
            }
        });
        stamp
    }

    /// Pages whose bytes exist.
    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.data.get().is_some()).count()
    }
}

/// The panic of [`Heap::check`], out of line so that the check inlines as
/// one compare.
#[cold]
#[inline(never)]
fn out_of_bounds(what: &str, off: usize, len: usize, size: usize) -> ! {
    panic!("remote {what} out of bounds: offset {off} + len {len} > heap size {size}")
}

/// Bytes from the start of the first to the end of the last of `n >= 1`
/// elements of `elem` bytes laid out every `step` bytes.
fn strided_span(n: usize, step: usize, elem: usize) -> usize {
    (n - 1)
        .checked_mul(step)
        .and_then(|gaps| gaps.checked_add(elem))
        .expect("strided span overflows the address space")
}

/// Copy `src` into bytes `[from, from + src.len())` of one page.
#[inline(always)]
fn store_words(words: &Words, from: usize, src: &[u8]) {
    let mut words = &words[from / 8..(from + src.len()).div_ceil(8)];
    let mut rest = src;
    // Leading partial word.
    if !from.is_multiple_of(8) {
        let in_word = from % 8;
        let take = rest.len().min(8 - in_word);
        merge_word(&words[0], in_word, &rest[..take]);
        words = &words[1..];
        rest = &rest[take..];
    }
    // Full words, eight at a time: each batch is read from `src` before any
    // of it is stored. Word by word, the copy ran 2-4x slower at most
    // placements of `src` relative to the page (a load whose address equals
    // that of a recent store modulo 4 KiB waits for it).
    let full = rest.len() / 8;
    let (batched, single) = words[..full].split_at(full / 8 * 8);
    let (batch_bytes, rest) = rest.split_at(batched.len() * 8);
    for (batch, bytes) in batched.chunks_exact(8).zip(batch_bytes.chunks_exact(64)) {
        let values: [u64; 8] = std::array::from_fn(|k| word_of(&bytes[8 * k..8 * k + 8]));
        for (word, value) in batch.iter().zip(values) {
            word.store(value, Ordering::Release);
        }
    }
    let mut chunks = rest.chunks_exact(8);
    for (word, chunk) in single.iter().zip(&mut chunks) {
        word.store(word_of(chunk), Ordering::Release);
    }
    // Trailing partial word.
    let tail = chunks.remainder();
    if let (false, Some(word)) = (tail.is_empty(), words.last()) {
        merge_word(word, 0, tail);
    }
}

/// The native-endian word in 8 bytes.
#[inline(always)]
fn word_of(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_ne_bytes(b)
}

/// Copy bytes `[from, from + dst.len())` of one page into `dst`; a page
/// that does not exist reads as zeros.
#[inline(always)]
fn load_words(words: Option<&Words>, from: usize, dst: &mut [u8]) {
    let Some(words) = words else {
        dst.fill(0);
        return;
    };
    let mut words = &words[from / 8..(from + dst.len()).div_ceil(8)];
    let mut rest = dst;
    if !from.is_multiple_of(8) {
        let in_word = from % 8;
        let take = rest.len().min(8 - in_word);
        let w = words[0].load(Ordering::Acquire).to_ne_bytes();
        rest[..take].copy_from_slice(&w[in_word..in_word + take]);
        words = &words[1..];
        rest = &mut rest[take..];
    }
    // Full words, eight at a time, as `store_words` copies them.
    let full = rest.len() / 8;
    let (batched, single) = words[..full].split_at(full / 8 * 8);
    let (batch_bytes, rest) = rest.split_at_mut(batched.len() * 8);
    for (batch, bytes) in batched.chunks_exact(8).zip(batch_bytes.chunks_exact_mut(64)) {
        let values: [u64; 8] = std::array::from_fn(|k| batch[k].load(Ordering::Acquire));
        for (chunk, value) in bytes.chunks_exact_mut(8).zip(values) {
            chunk.copy_from_slice(&value.to_ne_bytes());
        }
    }
    let mut chunks = rest.chunks_exact_mut(8);
    for (word, chunk) in single.iter().zip(&mut chunks) {
        chunk.copy_from_slice(&word.load(Ordering::Acquire).to_ne_bytes());
    }
    let tail = chunks.into_remainder();
    if let (false, Some(word)) = (tail.is_empty(), words.last()) {
        let n = tail.len();
        tail.copy_from_slice(&word.load(Ordering::Acquire).to_ne_bytes()[..n]);
    }
}

/// The largest of `words`, 0 for none.
#[inline(always)]
fn max_word(words: &[AtomicU64]) -> u64 {
    words.iter().map(|w| w.load(Ordering::Acquire)).max().unwrap_or(0)
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

    #[test]
    fn reads_and_stamps_create_no_page() {
        let h = Heap::new(5 * PAGE_BYTES);
        let mut out = vec![0xAAu8; h.len()];
        h.read_bytes(0, &mut out);
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(h.gather(4090, 4096, &mut out, 8, 8, 4), 0);
        h.stamp_range(0, h.len(), 7);
        h.stamp_range(12, 40, 9);
        assert_eq!((h.max_stamp(0, h.len()), h.max_stamp(8, 8)), (9, 9));
        assert_eq!(h.resident_pages(), 0, "no byte was written");
        h.write_bytes(2 * PAGE_BYTES + 3, &[1]);
        h.atomic64(4 * PAGE_BYTES);
        assert_eq!(h.resident_pages(), 2);
        h.write_bytes(PAGE_BYTES - 4, &[2; 8]); // straddles pages 0 and 1
        assert_eq!(h.resident_pages(), 4);
    }

    #[test]
    fn a_launch_materialises_only_the_pages_its_pes_write() {
        // 32 PEs with 1 MiB heaps; each puts one word into its neighbour's
        // heap the way the conduit applies a put.
        use crate::platforms::generic_smp;
        let out = crate::launch::run(generic_smp(32).with_heap_bytes(1 << 20), |pe| {
            let (m, me) = (pe.machine(), pe.id());
            let next = (me + 1) % pe.n();
            m.apply_and_notify(next, || {
                m.heap(next).write_bytes(8 * me, &(me as u64).to_ne_bytes());
                m.heap(next).stamp_range(8 * me, 8, 1);
            });
            m.barrier_all(me, 0.0);
            m.heap(me).resident_pages()
        });
        assert_eq!(out.results, vec![1; 32], "one data page per PE");
    }

    /// A flat reference heap: every byte and every word's stamp.
    struct Flat {
        bytes: Vec<u8>,
        stamps: Vec<u64>,
        /// Pages a write has touched.
        written: Vec<bool>,
    }

    impl Flat {
        fn new(len: usize) -> Flat {
            let len = len.div_ceil(8) * 8;
            Flat {
                bytes: vec![0; len],
                stamps: vec![0; len / 8],
                written: vec![false; len.div_ceil(PAGE_BYTES)],
            }
        }

        fn write(&mut self, off: usize, src: &[u8]) {
            self.bytes[off..off + src.len()].copy_from_slice(src);
            if !src.is_empty() {
                self.written[off / PAGE_BYTES..=(off + src.len() - 1) / PAGE_BYTES].fill(true);
            }
        }

        fn stamp(&mut self, off: usize, len: usize, t: u64) {
            if len > 0 {
                self.stamps[off / 8..(off + len).div_ceil(8)]
                    .iter_mut()
                    .for_each(|w| *w = (*w).max(t));
            }
        }

        fn max_stamp(&self, off: usize, len: usize) -> u64 {
            if len == 0 {
                return 0;
            }
            self.stamps[off / 8..(off + len).div_ceil(8)].iter().copied().max().unwrap_or(0)
        }
    }

    /// Run a seed-drawn sequence of every heap operation on a heap of
    /// `len` bytes and on [`Flat`], comparing every result and, at the end,
    /// every byte, every word's stamp and which pages exist.
    fn against_flat(len: usize, seed: u64) -> Result<(), String> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (h, mut flat) = (Heap::new(len), Flat::new(len));
        let size = h.len();
        // An offset, half the time within 16 bytes of a page boundary.
        let place = |rng: &mut SmallRng| -> usize {
            if rng.gen_range(0..2) == 0 {
                let edge = rng.gen_range(0..=size / PAGE_BYTES) * PAGE_BYTES;
                (edge + rng.gen_range(0..32)).saturating_sub(16).min(size)
            } else {
                rng.gen_range(0..=size)
            }
        };
        let span = |rng: &mut SmallRng, off: usize| -> usize {
            let len = [0, 1, 3, 7, 8, 9, 16, 100, 4088, 4096, 4104, 9000][rng.gen_range(0..12)];
            len.min(size - off)
        };
        let bytes =
            |rng: &mut SmallRng, n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen()).collect() };
        for op in 0..rng.gen_range(1..120) {
            let at = place(&mut rng);
            let word = (at / 8 * 8).min(size - 8);
            let t = rng.gen_range(0..40u64);
            let case = format!("seed {seed} heap {len} op {op}");
            match rng.gen_range(0..9) {
                0 => {
                    let n = span(&mut rng, at);
                    let src = bytes(&mut rng, n);
                    h.write_bytes(at, &src);
                    flat.write(at, &src);
                }
                1 => {
                    let mut got = vec![0xAA; span(&mut rng, at)];
                    h.read_bytes(at, &mut got);
                    if got[..] != flat.bytes[at..at + got.len()] {
                        return Err(format!("{case}: read_bytes({at}, {}) differs", got.len()));
                    }
                }
                2 => {
                    let want = u64::from_ne_bytes(flat.bytes[word..word + 8].try_into().unwrap());
                    let got = match rng.gen_range(0..3) {
                        0 => h.atomic64(word).load(Ordering::Acquire),
                        1 => {
                            let v: u64 = rng.gen();
                            h.atomic64(word).store(v, Ordering::Release);
                            flat.write(word, &v.to_ne_bytes());
                            want
                        }
                        _ => {
                            let v: u64 = rng.gen();
                            let old = h.atomic64(word).fetch_add(v, Ordering::AcqRel);
                            flat.write(word, &want.wrapping_add(v).to_ne_bytes());
                            old
                        }
                    };
                    flat.written[word / PAGE_BYTES] = true;
                    if got != want {
                        return Err(format!("{case}: atomic64({word}) = {got}, want {want}"));
                    }
                }
                3 | 4 => {
                    let n = span(&mut rng, at);
                    h.stamp_range(at, n, t);
                    flat.stamp(at, n, t);
                }
                5 => {
                    let n = span(&mut rng, at);
                    let (got, want) = (h.max_stamp(at, n), flat.max_stamp(at, n));
                    if got != want {
                        return Err(format!("{case}: max_stamp({at}, {n}) = {got}, want {want}"));
                    }
                }
                _ => {
                    // A strided transfer: elements of 1..=16 bytes with gaps,
                    // touching, overlapping, repeating or a page apart.
                    let elem = rng.gen_range(1..=16usize);
                    let step = [0, elem / 2, elem, elem + 1, 2 * elem + 3, 4096 - 4, 4096 + 8]
                        [rng.gen_range(0..7)];
                    let data_step = [elem, elem + 3][rng.gen_range(0..2)];
                    let room = size.saturating_sub(at);
                    if room < elem {
                        continue;
                    }
                    let most = (room - elem).checked_div(step).map_or(40, |more| more + 1);
                    let n = rng.gen_range(1..=most.min(40));
                    let mut data = bytes(&mut rng, (n - 1) * data_step + elem);
                    if rng.gen_range(0..2) == 0 {
                        h.scatter(at, step, &data, data_step, elem, n, t);
                        for i in 0..n {
                            flat.write(at + i * step, &data[i * data_step..][..elem]);
                            flat.stamp(at + i * step, elem, t);
                        }
                    } else {
                        let mut want = data.clone();
                        let stamp = h.gather(at, step, &mut data, data_step, elem, n);
                        let mut want_stamp = 0;
                        for i in 0..n {
                            want[i * data_step..][..elem]
                                .copy_from_slice(&flat.bytes[at + i * step..][..elem]);
                            want_stamp = want_stamp.max(flat.max_stamp(at + i * step, elem));
                        }
                        if (&data, stamp) != (&want, want_stamp) {
                            return Err(format!(
                                "{case}: gather({at}, {step}, .., {data_step}, {elem}, {n}) differs"
                            ));
                        }
                    }
                }
            }
        }
        let (bytes, stamps) = image(&h);
        if bytes != flat.bytes {
            return Err(format!("seed {seed} heap {len}: final bytes differ"));
        }
        if let Some(w) = (0..stamps.len()).find(|&w| stamps[w] != flat.stamps[w]) {
            return Err(format!(
                "seed {seed} heap {len}: word {w} stamp {} want {}",
                stamps[w], flat.stamps[w]
            ));
        }
        let written = flat.written.iter().filter(|&&w| w).count();
        if h.resident_pages() != written {
            return Err(format!(
                "seed {seed} heap {len}: {} pages exist, {written} were written",
                h.resident_pages()
            ));
        }
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        // The larger count is CI's `--release` run of this crate.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 256 }))]

        #[test]
        fn pages_and_floors_equal_a_flat_heap(which in 0usize..7, seed in any::<u64>()) {
            let len = [8, 100, 4096, 4096 + 8, 2 * 4096, 3 * 4096 - 24, 5 * 4096 + 64][which];
            prop_assert_eq!(against_flat(len, seed), Ok(()));
        }
    }
}
