//! PGAS race & synchronization sanitizer.
//!
//! When enabled via [`crate::MachineConfig::with_sanitizer`], the machine keeps a
//! FastTrack-style shadow of every symmetric heap — per 8-byte word: the last
//! writer PE, its completion time, whether the access was atomic, and the
//! byte mask it touched, plus the analogous last-reader record — together
//! with one vector clock per PE. Happens-before edges come from the places a
//! CAF/OpenSHMEM program is *allowed* to synchronize:
//!
//! * barriers (`sync all` / `sync images` via `barrier_all`/`barrier_group`),
//! * `wait_until` observing a word (edge from the word's last writer),
//! * fetching atomics (edge from the fetched word's last writer — this is
//!   what makes an MCS lock handoff through `swap`/`compare_swap` visible).
//!
//! A non-atomic access that conflicts with a non-atomic access by another PE
//! *without* such an edge is a data race (`MissingSync`). Ordering hazards
//! found by the conduit's pending-put checker are funneled into the same
//! report sink, classified as `MissingQuiet` (stale but whole) or
//! `TornTransfer` (partial overlap with an outstanding put, so a mix of old
//! and new bytes may be observed).
//!
//! Precision notes, deliberate and documented:
//!
//! * Shadow granularity is one record per 8-byte word; the byte mask makes
//!   sub-word *disjoint* writes (e.g. two PEs filling adjacent `i32` slots of
//!   one word) conflict-free, but the shadow only remembers the most recent
//!   *writer* per word, so a third access can miss a conflict with the
//!   overwritten write record. Under-detection only — never a false positive.
//! * Reads use FastTrack's adaptive representation: a word keeps one scalar
//!   last-read epoch until two *concurrent* (unordered) readers touch it,
//!   then inflates to a per-PE read vector. A later write is checked against
//!   every recorded reader, so a racing read can no longer hide behind a
//!   subsequent synchronized read of the same word replacing its record.
//! * The `wait_until`/fetching-atomic edge joins with the writer's *live*
//!   clock row, which may be slightly ahead of the moment the flag was set.
//!   Again: can only suppress reports, never invent them.
//! * Accesses where either side is atomic are exempt from conflict checks
//!   (Fortran atomics carry no ordering obligation), but still create shadow
//!   records so sync edges can be derived from them.
//!
//! The shadow is paged like the heap it mirrors: one shadow page per 4 KiB
//! heap page, created by the first record in it. A page with no record yet
//! does not exist and reads as "no record", so a job pays for the shadow of
//! the words it accesses, not of every heap it could.

use crate::machine::PeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// How the sanitizer behaves, set in [`crate::MachineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizerMode {
    /// No shadow state, no checks, no overhead. The default.
    #[default]
    Off,
    /// Record every hazard in the simulation outcome; never panic.
    Record,
    /// Panic on the PE that triggers the first hazard (poisons the job, so
    /// `run_with_result` reports it as a `SimError`).
    Panic,
}

impl SanitizerMode {
    /// Parse a mode name as accepted by the `PGAS_SANITIZER` environment
    /// variable: `off`, `record`, or `panic` (case-insensitive, trimmed).
    pub fn parse(s: &str) -> Option<SanitizerMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(SanitizerMode::Off),
            "record" => Some(SanitizerMode::Record),
            "panic" => Some(SanitizerMode::Panic),
            _ => None,
        }
    }
}

/// Classification of a detected hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// Same-PE ordering bug: an access overlapped the PE's own un-quieted
    /// put covering the same bytes — a `shmem_quiet` (or `sync memory`) is
    /// missing between issue and reuse.
    MissingQuiet,
    /// An access *partially* overlapped an outstanding put, so it can
    /// observe a mix of old and new bytes even on a machine that delivers
    /// puts atomically at word grain.
    TornTransfer,
    /// Cross-PE data race: two non-atomic accesses from different PEs touch
    /// the same bytes with no happens-before edge (barrier, `wait_until`,
    /// or fetching atomic) between them.
    MissingSync,
    /// A lock-table entry outlived its lock variable: the symmetric words
    /// backing a *held* lock were deallocated (or reallocated to a new lock)
    /// before the holder released it, so the eventual unlock targets memory
    /// that no longer belongs to that lock.
    StaleLock,
}

impl HazardKind {
    pub fn label(self) -> &'static str {
        match self {
            HazardKind::MissingQuiet => "missing-quiet hazard",
            HazardKind::TornTransfer => "torn-transfer hazard",
            HazardKind::MissingSync => "missing-sync hazard",
            HazardKind::StaleLock => "stale-lock hazard",
        }
    }
}

/// One structured diagnostic from the sanitizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardReport {
    pub kind: HazardKind,
    /// Operation that tripped the check ("put", "get", "amo", "local read",
    /// ...).
    pub op: &'static str,
    /// PE performing the access.
    pub accessor: PeId,
    /// PE whose symmetric heap holds the conflicting bytes.
    pub target: PeId,
    /// PE on the other side of the conflict (for `MissingQuiet` /
    /// `TornTransfer` this is the accessor itself).
    pub conflict_pe: PeId,
    /// Byte range of the triggering access within the target heap.
    pub offset: usize,
    pub len: usize,
    /// Virtual time of the conflicting earlier access.
    pub t_conflict: u64,
    /// Latest time of `conflict_pe` the accessor had synchronized with
    /// (0 = never).
    pub t_known: u64,
}

impl std::fmt::Display for HazardReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.kind == HazardKind::StaleLock {
            return write!(
                f,
                "{}: lock held by PE {} at PE {}'s heap bytes [{}, {}) was \
                 deallocated or reallocated before release (acquired at t={})",
                self.kind.label(),
                self.accessor,
                self.target,
                self.offset,
                self.offset + self.len,
                self.t_conflict,
            );
        }
        write!(
            f,
            "{}: {} by PE {} on PE {}'s heap bytes [{}, {}) conflicts with an \
             access by PE {} at t={} (synchronized with PE {} only up to t={})",
            self.kind.label(),
            self.op,
            self.accessor,
            self.target,
            self.offset,
            self.offset + self.len,
            self.conflict_pe,
            self.t_conflict,
            self.conflict_pe,
            self.t_known,
        )
    }
}

// Shadow-word packing. Writer: `(pe + 1) << 9 | atomic << 8 | byte_mask`;
// reader: `(pe + 1) << 9 | byte_mask`. Zero = no record. A reader word with
// `VECTOR_FLAG` set holds no scalar record: the word has been *inflated* and
// its full per-PE read history lives in [`HeapShadow::read_vecs`].
const MASK_BITS: u64 = 0xFF;
const ATOMIC_BIT: u64 = 1 << 8;
const PE_SHIFT: u32 = 9;
const VECTOR_FLAG: u64 = 1 << 63;

#[derive(Debug, Clone, Copy)]
struct ShadowRec {
    pe: PeId,
    atomic: bool,
    mask: u8,
}

fn unpack(word: u64) -> Option<ShadowRec> {
    if word == 0 {
        return None;
    }
    Some(ShadowRec {
        pe: (word >> PE_SHIFT) as PeId - 1,
        atomic: word & ATOMIC_BIT != 0,
        mask: (word & MASK_BITS) as u8,
    })
}

fn pack(pe: PeId, atomic: bool, mask: u8) -> u64 {
    ((pe as u64 + 1) << PE_SHIFT) | if atomic { ATOMIC_BIT } else { 0 } | mask as u64
}

/// Byte mask of `[off, off+len)` restricted to word `w` (bit i = byte
/// `w * 8 + i`).
fn word_mask(off: usize, len: usize, w: usize) -> u8 {
    let lo = (w * 8).max(off) - w * 8;
    let hi = ((w * 8 + 8).min(off + len)).saturating_sub(w * 8);
    if hi <= lo {
        return 0;
    }
    (((1u16 << hi) - (1u16 << lo)) & 0xFF) as u8
}

/// Heap words per shadow page: one 4 KiB heap page.
const PAGE_WORDS: usize = 512;

/// The shadow of one heap word: its last write and last read records and
/// their times.
#[derive(Default)]
struct WordShadow {
    writer: AtomicU64,
    wtime: AtomicU64,
    reader: AtomicU64,
    rtime: AtomicU64,
}

/// A record-free shadow page, built on the heap.
fn fresh_page() -> Box<[WordShadow; PAGE_WORDS]> {
    let words: Box<[WordShadow]> = (0..PAGE_WORDS).map(|_| WordShadow::default()).collect();
    words.try_into().ok().expect("PAGE_WORDS words")
}

/// Shadow of one PE's heap.
struct HeapShadow {
    /// One slot per heap page, filled by the page's first record.
    pages: Box<[OnceLock<Box<[WordShadow; PAGE_WORDS]>>]>,
    /// Heap words shadowed.
    words: usize,
    /// FastTrack-style adaptive read representation: a word tracks its last
    /// read as a scalar epoch in `reader`/`rtime` until two *concurrent*
    /// (unordered) readers touch it, at which point it inflates to a full
    /// per-PE read vector here (`read_vecs[w][pe] = (byte mask, last read
    /// time)`, mask 0 = no read) and its `reader` carries `VECTOR_FLAG`.
    /// Most words only ever see one reader between writes, so the common
    /// case stays two atomic loads with no locking.
    read_vecs: Mutex<HashMap<usize, Vec<(u8, u64)>>>,
}

impl HeapShadow {
    fn new(heap_bytes: usize) -> Self {
        let words = heap_bytes.div_ceil(8);
        HeapShadow {
            pages: (0..words.div_ceil(PAGE_WORDS)).map(|_| OnceLock::new()).collect(),
            words,
            read_vecs: Mutex::new(HashMap::new()),
        }
    }

    /// The shadows of the heap words holding bytes `[off, off + len)`, with
    /// their indices, creating their pages on first use: one page lookup
    /// per page, not per word. Words past the heap's end are skipped.
    fn span(&self, off: usize, len: usize) -> impl Iterator<Item = (usize, &WordShadow)> {
        let end = (off + len).div_ceil(8).min(self.words);
        let words = (off / 8).min(end)..end;
        (words.start / PAGE_WORDS..words.end.div_ceil(PAGE_WORDS)).flat_map(move |p| {
            let base = p * PAGE_WORDS;
            let page = self.pages[p].get_or_init(fresh_page);
            let lo = words.start.max(base) - base;
            let hi = words.end.min(base + PAGE_WORDS) - base;
            page[lo..hi].iter().enumerate().map(move |(i, ws)| (base + lo + i, ws))
        })
    }

    /// Word `w`'s shadow if its page holds a record.
    #[inline]
    fn recorded(&self, w: usize) -> Option<&WordShadow> {
        Some(&self.pages[w / PAGE_WORDS].get()?[w % PAGE_WORDS])
    }
}

/// The sanitizer proper: shadow memory + vector clocks + report sink.
///
/// All checking methods are no-ops when the mode is `Off`; the shadow
/// page tables are not even allocated then.
pub struct Sanitizer {
    mode: SanitizerMode,
    n_pes: usize,
    shadows: Vec<HeapShadow>,
    /// `vc[p][q]`: latest virtual time of PE `q` that PE `p` has
    /// synchronized with. Row `p` is only written from PE `p`'s thread.
    vc: Vec<Box<[AtomicU64]>>,
    reports: Mutex<Vec<HazardReport>>,
}

fn zeroed(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Sanitizer {
    pub fn new(mode: SanitizerMode, n_pes: usize, heap_bytes: usize) -> Sanitizer {
        let (shadows, vc) = if mode == SanitizerMode::Off {
            (Vec::new(), Vec::new())
        } else {
            (
                (0..n_pes).map(|_| HeapShadow::new(heap_bytes)).collect(),
                (0..n_pes).map(|_| zeroed(n_pes)).collect(),
            )
        };
        Sanitizer { mode, n_pes, shadows, vc, reports: Mutex::new(Vec::new()) }
    }

    #[inline]
    pub fn mode(&self) -> SanitizerMode {
        self.mode
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.mode != SanitizerMode::Off
    }

    /// Latest time of `other` that `me` has synchronized with.
    fn known(&self, me: PeId, other: PeId) -> u64 {
        self.vc[me][other].load(Ordering::Acquire)
    }

    /// Check a write by `writer` to `[off, off+len)` of `owner`'s heap
    /// against the existing shadow, then install the new write record.
    /// `time` is the write's completion time in virtual ns. Returns the
    /// first conflict found, if any.
    #[allow(clippy::too_many_arguments)]
    pub fn record_write(
        &self,
        owner: PeId,
        off: usize,
        len: usize,
        writer: PeId,
        time: u64,
        atomic: bool,
        op: &'static str,
    ) -> Option<HazardReport> {
        if !self.is_on() || len == 0 {
            return None;
        }
        let sh = &self.shadows[owner];
        let mut conflict: Option<HazardReport> = None;
        for (w, ws) in sh.span(off, len) {
            let mask = word_mask(off, len, w);
            if conflict.is_none() && !atomic {
                // Write/write conflict with a different, non-atomic writer.
                if let Some(prev) = unpack(ws.writer.load(Ordering::Acquire)) {
                    let t_prev = ws.wtime.load(Ordering::Acquire);
                    if prev.pe != writer
                        && !prev.atomic
                        && prev.mask & mask != 0
                        && t_prev > self.known(writer, prev.pe)
                    {
                        conflict = Some(HazardReport {
                            kind: HazardKind::MissingSync,
                            op,
                            accessor: writer,
                            target: owner,
                            conflict_pe: prev.pe,
                            offset: off,
                            len,
                            t_conflict: t_prev,
                            t_known: self.known(writer, prev.pe),
                        });
                    }
                }
                // Write over an unsynchronized non-atomic read. An inflated
                // word checks *every* reader in its vector — the scalar
                // representation only remembers the most recent one, which
                // is exactly the record a racing read can hide behind.
                if conflict.is_none() {
                    let packed = ws.reader.load(Ordering::Acquire);
                    if packed & VECTOR_FLAG != 0 {
                        let vecs = sh.read_vecs.lock();
                        if let Some(v) = vecs.get(&w) {
                            for (p, &(rmask, rtime)) in v.iter().enumerate() {
                                if rmask & mask != 0 && p != writer && rtime > self.known(writer, p)
                                {
                                    conflict = Some(HazardReport {
                                        kind: HazardKind::MissingSync,
                                        op,
                                        accessor: writer,
                                        target: owner,
                                        conflict_pe: p,
                                        offset: off,
                                        len,
                                        t_conflict: rtime,
                                        t_known: self.known(writer, p),
                                    });
                                    break;
                                }
                            }
                        }
                    } else if let Some(prev) = unpack(packed) {
                        let t_prev = ws.rtime.load(Ordering::Acquire);
                        if prev.pe != writer
                            && prev.mask & mask != 0
                            && t_prev > self.known(writer, prev.pe)
                        {
                            conflict = Some(HazardReport {
                                kind: HazardKind::MissingSync,
                                op,
                                accessor: writer,
                                target: owner,
                                conflict_pe: prev.pe,
                                offset: off,
                                len,
                                t_conflict: t_prev,
                                t_known: self.known(writer, prev.pe),
                            });
                        }
                    }
                }
            }
            // Install the new record. Same writer extending within a word
            // merges the mask; a different writer replaces the record.
            let packed = pack(writer, atomic, mask);
            let prev = ws.writer.load(Ordering::Acquire);
            let merged = match unpack(prev) {
                Some(p) if p.pe == writer && p.atomic == atomic => {
                    pack(writer, atomic, p.mask | mask)
                }
                _ => packed,
            };
            ws.writer.store(merged, Ordering::Release);
            ws.wtime.fetch_max(time, Ordering::AcqRel);
        }
        conflict
    }

    /// Check a read by `reader` of `[off, off+len)` of `owner`'s heap
    /// against the write shadow, then install the read record (`now` is the
    /// reader's current virtual time).
    pub fn check_read(
        &self,
        owner: PeId,
        off: usize,
        len: usize,
        reader: PeId,
        now: u64,
        op: &'static str,
    ) -> Option<HazardReport> {
        if !self.is_on() || len == 0 {
            return None;
        }
        let sh = &self.shadows[owner];
        let mut conflict: Option<HazardReport> = None;
        for (w, ws) in sh.span(off, len) {
            let mask = word_mask(off, len, w);
            if conflict.is_none() {
                if let Some(prev) = unpack(ws.writer.load(Ordering::Acquire)) {
                    let t_prev = ws.wtime.load(Ordering::Acquire);
                    if prev.pe != reader
                        && !prev.atomic
                        && prev.mask & mask != 0
                        && t_prev > self.known(reader, prev.pe)
                    {
                        conflict = Some(HazardReport {
                            kind: HazardKind::MissingSync,
                            op,
                            accessor: reader,
                            target: owner,
                            conflict_pe: prev.pe,
                            offset: off,
                            len,
                            t_conflict: t_prev,
                            t_known: self.known(reader, prev.pe),
                        });
                    }
                }
            }
            // Install the read, FastTrack-style: one scalar epoch while the
            // word's reads stay totally ordered, a per-PE vector once two
            // concurrent readers are seen. A read that happens-after the
            // recorded one may safely *replace* it (any write racing the old
            // read also races the new one); an unordered read may not — the
            // scalar would silently forget a read a later write races with.
            let prev = ws.reader.load(Ordering::Acquire);
            if prev & VECTOR_FLAG != 0 {
                let mut vecs = sh.read_vecs.lock();
                let v = vecs.entry(w).or_insert_with(|| vec![(0, 0); self.n_pes]);
                v[reader].0 |= mask;
                v[reader].1 = v[reader].1.max(now);
            } else {
                match unpack(prev) {
                    Some(p) if p.pe == reader => {
                        ws.reader.store(pack(reader, false, p.mask | mask), Ordering::Release);
                        ws.rtime.fetch_max(now, Ordering::AcqRel);
                    }
                    Some(p) => {
                        let t_prev = ws.rtime.load(Ordering::Acquire);
                        if t_prev <= self.known(reader, p.pe) {
                            // Ordered before this read: keep the scalar.
                            ws.reader.store(pack(reader, false, mask), Ordering::Release);
                            ws.rtime.fetch_max(now, Ordering::AcqRel);
                        } else {
                            // Second concurrent reader: inflate.
                            let mut vecs = sh.read_vecs.lock();
                            let v = vecs.entry(w).or_insert_with(|| vec![(0, 0); self.n_pes]);
                            v[p.pe].0 |= p.mask;
                            v[p.pe].1 = v[p.pe].1.max(t_prev);
                            v[reader].0 |= mask;
                            v[reader].1 = v[reader].1.max(now);
                            ws.reader.store(VECTOR_FLAG, Ordering::Release);
                        }
                    }
                    None => {
                        ws.reader.store(pack(reader, false, mask), Ordering::Release);
                        ws.rtime.fetch_max(now, Ordering::AcqRel);
                    }
                }
            }
        }
        conflict
    }

    /// Last writer of the word holding `off` in `owner`'s heap, with its
    /// completion time.
    pub fn last_writer(&self, owner: PeId, off: usize) -> Option<(PeId, u64)> {
        if !self.is_on() {
            return None;
        }
        let sh = &self.shadows[owner];
        let w = off / 8;
        if w >= sh.words {
            return None;
        }
        let ws = sh.recorded(w)?;
        let rec = unpack(ws.writer.load(Ordering::Acquire))?;
        Some((rec.pe, ws.wtime.load(Ordering::Acquire)))
    }

    /// Join `me`'s vector clock with `other`'s row (element-wise max). Both
    /// rows may be read concurrently; only `me`'s is written, from `me`'s
    /// thread.
    pub fn join_rows(&self, me: PeId, other: PeId) {
        if !self.is_on() || me == other {
            return;
        }
        for q in 0..self.n_pes {
            let v = self.vc[other][q].load(Ordering::Acquire);
            self.vc[me][q].fetch_max(v, Ordering::AcqRel);
        }
    }

    /// Raise `me`'s knowledge of `other` to at least `t`.
    pub fn raise(&self, me: PeId, other: PeId, t: u64) {
        if !self.is_on() {
            return;
        }
        self.vc[me][other].fetch_max(t, Ordering::AcqRel);
    }

    /// Record a barrier among `group` completing at virtual time `t`, from
    /// the perspective of member `me`: afterwards `me` knows every member up
    /// to `t` and inherits everything each member knew.
    pub fn barrier_join(&self, me: PeId, group: impl Iterator<Item = PeId>, t: u64) {
        if !self.is_on() {
            return;
        }
        for q in group {
            self.raise(me, q, t);
            self.join_rows(me, q);
        }
    }

    /// Append a report to the sink.
    pub fn push(&self, report: HazardReport) {
        self.reports.lock().push(report);
    }

    /// Drain every accumulated report (ordered by detection).
    pub fn take_reports(&self) -> Vec<HazardReport> {
        std::mem::take(&mut *self.reports.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_mask_covers_partial_words() {
        assert_eq!(word_mask(0, 8, 0), 0xFF);
        assert_eq!(word_mask(0, 4, 0), 0x0F);
        assert_eq!(word_mask(4, 4, 0), 0xF0);
        assert_eq!(word_mask(6, 4, 0), 0xC0);
        assert_eq!(word_mask(6, 4, 1), 0x03);
        assert_eq!(word_mask(8, 8, 0), 0x00);
    }

    #[test]
    fn off_mode_allocates_nothing_and_reports_nothing() {
        let s = Sanitizer::new(SanitizerMode::Off, 4, 1 << 20);
        assert!(!s.is_on());
        assert!(s.record_write(0, 0, 64, 1, 100, false, "put").is_none());
        assert!(s.check_read(0, 0, 64, 2, 50, "get").is_none());
        assert!(s.take_reports().is_empty());
    }

    #[test]
    fn unsynchronized_read_after_remote_write_races() {
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        assert!(s.record_write(0, 64, 16, 1, 500, false, "put").is_none());
        let r = s.check_read(0, 64, 16, 2, 400, "get").expect("race detected");
        assert_eq!(r.kind, HazardKind::MissingSync);
        assert_eq!(r.conflict_pe, 1);
        assert_eq!(r.t_conflict, 500);
        assert_eq!(r.t_known, 0);
    }

    #[test]
    fn barrier_edge_suppresses_the_race() {
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        s.record_write(0, 64, 16, 1, 500, false, "put");
        s.barrier_join(2, 0..4, 600);
        assert!(s.check_read(0, 64, 16, 2, 700, "get").is_none());
    }

    #[test]
    fn owner_reading_its_own_write_is_fine() {
        let s = Sanitizer::new(SanitizerMode::Record, 2, 4096);
        s.record_write(0, 0, 8, 0, 10, false, "local write");
        assert!(s.check_read(0, 0, 8, 0, 20, "local read").is_none());
    }

    #[test]
    fn atomic_accesses_are_exempt_but_still_recorded() {
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        s.record_write(0, 0, 8, 1, 500, true, "amo");
        assert!(s.check_read(0, 0, 8, 2, 100, "get").is_none(), "atomic writer is exempt");
        assert_eq!(s.last_writer(0, 0), Some((1, 500)));
    }

    #[test]
    fn disjoint_subword_writes_do_not_conflict() {
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        // PE 1 writes bytes [0, 4), PE 2 writes bytes [4, 8) of word 0.
        assert!(s.record_write(0, 0, 4, 1, 500, false, "put").is_none());
        assert!(s.record_write(0, 4, 4, 2, 600, false, "put").is_none());
        // But an overlapping third write does conflict (with PE 2, the
        // surviving record).
        let r = s.record_write(0, 4, 4, 3, 700, false, "put").expect("conflict");
        assert_eq!(r.conflict_pe, 2);
    }

    #[test]
    fn write_over_unsynchronized_read_races() {
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        assert!(s.check_read(0, 0, 8, 2, 300, "get").is_none());
        let r = s.record_write(0, 0, 8, 1, 400, false, "put").expect("race");
        assert_eq!(r.kind, HazardKind::MissingSync);
        assert_eq!(r.conflict_pe, 2);
        assert_eq!(r.t_conflict, 300);
    }

    #[test]
    fn concurrent_reader_vector_catches_overwritten_read() {
        // Three-PE regression the scalar last-read record provably misses:
        // PE 2 and PE 3 read word 0 with no ordering between them, then PE 1
        // synchronizes with PE 3 only and writes. A single-record detector
        // forgot PE 2's read the moment PE 3's replaced it and reported the
        // write clean; the inflated vector still holds PE 2's read.
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        assert!(s.check_read(0, 0, 8, 2, 300, "get").is_none());
        assert!(s.check_read(0, 0, 8, 3, 350, "get").is_none());
        assert_ne!(
            s.shadows[0].recorded(0).unwrap().reader.load(Ordering::Acquire) & VECTOR_FLAG,
            0,
            "two unordered readers must inflate the word"
        );
        s.raise(1, 3, 360); // PE 1 knows PE 3 past its read — but not PE 2.
        let r = s.record_write(0, 0, 8, 1, 500, false, "put").expect("race with PE 2's read");
        assert_eq!(r.kind, HazardKind::MissingSync);
        assert_eq!(r.conflict_pe, 2);
        assert_eq!(r.t_conflict, 300);
        assert_eq!(r.t_known, 0);
    }

    #[test]
    fn ordered_readers_keep_the_scalar_representation() {
        // PE 3's read happens-after PE 2's (it synchronized past t=300), so
        // replacing the scalar record is sound and no vector is allocated.
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        assert!(s.check_read(0, 0, 8, 2, 300, "get").is_none());
        s.raise(3, 2, 310);
        assert!(s.check_read(0, 0, 8, 3, 350, "get").is_none());
        assert_eq!(
            s.shadows[0].recorded(0).unwrap().reader.load(Ordering::Acquire) & VECTOR_FLAG,
            0,
            "ordered readers stay on the scalar fast path"
        );
        assert!(s.shadows[0].read_vecs.lock().is_empty());
        // The surviving scalar record is PE 3's read, and it is checked.
        let r = s.record_write(0, 0, 8, 1, 500, false, "put").expect("race with PE 3's read");
        assert_eq!(r.conflict_pe, 3);
    }

    #[test]
    fn inflated_word_keeps_accumulating_readers() {
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        assert!(s.check_read(0, 0, 4, 1, 100, "get").is_none());
        assert!(s.check_read(0, 4, 4, 2, 110, "get").is_none()); // inflates
        assert!(s.check_read(0, 0, 2, 3, 120, "get").is_none()); // joins the vector
                                                                 // A writer synchronized with nobody conflicts with the *first*
                                                                 // still-racing reader in PE order; disjoint bytes are exempt.
        let r = s.record_write(0, 0, 4, 0, 200, false, "local write").expect("race");
        assert_eq!(r.conflict_pe, 1, "byte-overlap check applies per vector entry");
        s.raise(0, 1, 150);
        s.raise(0, 3, 150);
        assert!(
            s.record_write(0, 0, 4, 0, 210, false, "local write").is_none(),
            "PE 2's bytes [4,8) are disjoint from this write"
        );
    }

    #[test]
    fn wait_edge_via_last_writer_suppresses() {
        let s = Sanitizer::new(SanitizerMode::Record, 4, 4096);
        s.record_write(0, 128, 8, 3, 900, false, "put");
        let (w, t) = s.last_writer(0, 128).unwrap();
        s.raise(0, w, t);
        s.join_rows(0, w);
        assert!(s.check_read(0, 128, 8, 0, 950, "local read").is_none());
    }

    #[test]
    fn shadow_pages_exist_only_where_something_was_recorded() {
        let s = Sanitizer::new(SanitizerMode::Record, 2, 3 * 4096);
        let pages = |s: &Sanitizer| -> Vec<bool> {
            s.shadows[0].pages.iter().map(|p| p.get().is_some()).collect()
        };
        assert_eq!(s.last_writer(0, 5000), None, "an absent page reads as no record");
        assert_eq!(pages(&s), vec![false; 3], "and a lookup creates nothing");
        // Eight bytes either side of the first page boundary.
        assert!(s.record_write(0, 4088, 16, 1, 10, false, "put").is_none());
        assert_eq!(pages(&s), vec![true, true, false]);
        assert_eq!(s.last_writer(0, 4096), Some((1, 10)));
        // A read records too, and races the write across the boundary.
        let race = s.check_read(0, 4092, 8, 0, 20, "get").expect("unsynchronized read races");
        assert_eq!(race.conflict_pe, 1);
        assert!(s.check_read(0, 8192, 8, 0, 20, "get").is_none());
        assert_eq!(pages(&s), vec![true; 3]);
    }
}
