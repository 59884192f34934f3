//! Symmetric heap allocator.
//!
//! `shmalloc` in OpenSHMEM is a *symmetric* collective: every PE allocates
//! the same size in the same program order and receives a block at the same
//! offset of its own heap. We exploit the SPMD structure: each PE runs an
//! identical, deterministic allocator over its own heap, so offsets agree by
//! construction (debug builds can verify with
//! [`crate::Shmem::debug_assert_symmetric`]).
//!
//! The allocator is a classic address-ordered first-fit free list with
//! splitting and two-sided coalescing — simple, deterministic, and with
//! behaviour that is easy to property-test (no overlap, reuse after free,
//! coalescing restores full capacity).

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous symmetric memory.
    OutOfMemory { requested: usize, largest_free: usize },
    /// Free of an offset that is not an allocated block start.
    InvalidFree { offset: usize },
    /// Alignment must be a power of two.
    BadAlignment { align: usize },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { requested, largest_free } => write!(
                f,
                "symmetric heap exhausted: requested {requested} bytes, largest free block {largest_free}"
            ),
            AllocError::InvalidFree { offset } => {
                write!(f, "invalid symmetric free at offset {offset}")
            }
            AllocError::BadAlignment { align } => {
                write!(f, "alignment {align} is not a power of two")
            }
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    off: usize,
    len: usize,
}

/// Deterministic first-fit allocator over `[0, capacity)`.
#[derive(Debug, Clone)]
pub struct SymAlloc {
    capacity: usize,
    /// Free blocks sorted by offset, never adjacent (always coalesced).
    free: Vec<FreeBlock>,
    /// Live allocations: (offset, len) sorted by offset.
    live: Vec<(usize, usize)>,
}

/// Minimum alignment / granule of all blocks (matches the machine heap's
/// atomic word size).
pub const MIN_ALIGN: usize = 8;

impl SymAlloc {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity - capacity % MIN_ALIGN;
        SymAlloc { capacity, free: vec![FreeBlock { off: 0, len: capacity }], live: Vec::new() }
    }

    /// Total heap size managed.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> usize {
        self.live.iter().map(|&(_, l)| l).sum()
    }

    /// Largest free contiguous block.
    pub fn largest_free(&self) -> usize {
        self.free.iter().map(|b| b.len).max().unwrap_or(0)
    }

    /// Allocate `size` bytes aligned to `align` (power of two ≥ 8).
    /// Zero-size requests round up to one granule so every allocation has a
    /// distinct offset.
    pub fn alloc_aligned(&mut self, size: usize, align: usize) -> Result<usize, AllocError> {
        if !align.is_power_of_two() {
            return Err(AllocError::BadAlignment { align });
        }
        let align = align.max(MIN_ALIGN);
        let size = size.max(1).div_ceil(MIN_ALIGN) * MIN_ALIGN;
        for i in 0..self.free.len() {
            let b = self.free[i];
            let aligned = b.off.div_ceil(align) * align;
            let pad = aligned - b.off;
            if b.len >= pad + size {
                // Carve [aligned, aligned+size) out of b.
                let tail_off = aligned + size;
                let tail_len = b.off + b.len - tail_off;
                let mut replace = Vec::with_capacity(2);
                if pad > 0 {
                    replace.push(FreeBlock { off: b.off, len: pad });
                }
                if tail_len > 0 {
                    replace.push(FreeBlock { off: tail_off, len: tail_len });
                }
                self.free.splice(i..=i, replace);
                let pos = self.live.partition_point(|&(o, _)| o < aligned);
                self.live.insert(pos, (aligned, size));
                return Ok(aligned);
            }
        }
        Err(AllocError::OutOfMemory { requested: size, largest_free: self.largest_free() })
    }

    /// Allocate with the default granule alignment (`shmalloc`).
    pub fn alloc(&mut self, size: usize) -> Result<usize, AllocError> {
        self.alloc_aligned(size, MIN_ALIGN)
    }

    /// Release the block starting at `off` (`shfree`).
    pub fn free(&mut self, off: usize) -> Result<(), AllocError> {
        let pos = self.live.partition_point(|&(o, _)| o < off);
        if pos >= self.live.len() || self.live[pos].0 != off {
            return Err(AllocError::InvalidFree { offset: off });
        }
        let (_, len) = self.live.remove(pos);
        // Insert into the free list, coalescing with neighbours.
        let i = self.free.partition_point(|b| b.off < off);
        let mut blk = FreeBlock { off, len };
        // Coalesce with successor.
        if i < self.free.len() && blk.off + blk.len == self.free[i].off {
            blk.len += self.free[i].len;
            self.free.remove(i);
        }
        // Coalesce with predecessor.
        if i > 0 && self.free[i - 1].off + self.free[i - 1].len == blk.off {
            self.free[i - 1].len += blk.len;
        } else {
            self.free.insert(i, blk);
        }
        Ok(())
    }

    /// Size of the live block at `off`, if any.
    pub fn block_len(&self, off: usize) -> Option<usize> {
        let pos = self.live.partition_point(|&(o, _)| o < off);
        (pos < self.live.len() && self.live[pos].0 == off).then(|| self.live[pos].1)
    }

    /// Internal invariant check (used by tests): free list sorted, coalesced,
    /// disjoint from live blocks, and sizes account for the whole heap.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut regions: Vec<(usize, usize, bool)> = self
            .free
            .iter()
            .map(|b| (b.off, b.len, true))
            .chain(self.live.iter().map(|&(o, l)| (o, l, false)))
            .collect();
        regions.sort_by_key(|r| r.0);
        let mut cursor = 0;
        let mut prev_free = false;
        for (off, len, is_free) in regions {
            if off != cursor {
                return Err(format!("gap or overlap at offset {off}, expected {cursor}"));
            }
            if len == 0 {
                return Err(format!("zero-length region at {off}"));
            }
            if is_free && prev_free {
                return Err(format!("uncoalesced free blocks at {off}"));
            }
            prev_free = is_free;
            cursor = off + len;
        }
        if cursor != self.capacity {
            return Err(format!("regions cover {cursor} of {} bytes", self.capacity));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut a = SymAlloc::new(1024);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(200).unwrap();
        let z = a.alloc(50).unwrap();
        assert!(x < y && y < z);
        a.check_invariants().unwrap();
        a.free(y).unwrap();
        a.free(x).unwrap();
        a.free(z).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.largest_free(), a.capacity());
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn allocations_never_overlap() {
        let mut a = SymAlloc::new(4096);
        let mut blocks = Vec::new();
        for i in 1..=20 {
            let len = i * 16;
            let off = a.alloc(len).unwrap();
            blocks.push((off, len));
        }
        blocks.sort();
        for w in blocks.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "{w:?} overlap");
        }
        a.check_invariants().unwrap();
    }

    #[test]
    fn freed_space_is_reused() {
        let mut a = SymAlloc::new(256);
        let x = a.alloc(128).unwrap();
        assert!(a.alloc(256).is_err());
        a.free(x).unwrap();
        let y = a.alloc(256).unwrap();
        assert_eq!(y, 0, "coalesced heap should satisfy a full-size request");
    }

    #[test]
    fn alignment_respected() {
        let mut a = SymAlloc::new(4096);
        a.alloc(8).unwrap();
        let off = a.alloc_aligned(64, 256).unwrap();
        assert_eq!(off % 256, 0);
        a.check_invariants().unwrap();
        // The pad before the aligned block remains allocatable.
        let pad = a.alloc(8).unwrap();
        assert!(pad < off);
    }

    #[test]
    fn bad_alignment_rejected() {
        let mut a = SymAlloc::new(1024);
        assert_eq!(a.alloc_aligned(8, 24), Err(AllocError::BadAlignment { align: 24 }));
    }

    #[test]
    fn double_free_rejected() {
        let mut a = SymAlloc::new(1024);
        let x = a.alloc(64).unwrap();
        a.free(x).unwrap();
        assert_eq!(a.free(x), Err(AllocError::InvalidFree { offset: x }));
        assert_eq!(a.free(12345), Err(AllocError::InvalidFree { offset: 12345 }));
    }

    #[test]
    fn zero_size_allocations_get_distinct_offsets() {
        let mut a = SymAlloc::new(1024);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn oom_reports_largest_block() {
        let mut a = SymAlloc::new(256);
        let x = a.alloc(96).unwrap();
        let _y = a.alloc(96).unwrap();
        a.free(x).unwrap();
        // 96 free at front, 64 at back: a 128-byte request cannot fit.
        match a.alloc(128) {
            Err(AllocError::OutOfMemory { requested: 128, largest_free: 96 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn block_len_tracks_granule_rounding() {
        let mut a = SymAlloc::new(1024);
        let x = a.alloc(13).unwrap();
        assert_eq!(a.block_len(x), Some(16));
        assert_eq!(a.block_len(x + 8), None);
        a.free(x).unwrap();
        assert_eq!(a.block_len(x), None);
    }

    #[test]
    fn identical_sequences_give_identical_offsets() {
        // The property the symmetric heap rests on.
        let run = || {
            let mut a = SymAlloc::new(8192);
            let mut offs = Vec::new();
            let mut held = Vec::new();
            for i in 1..=30 {
                let off = a.alloc(i * 8).unwrap();
                offs.push(off);
                held.push(off);
                if i % 3 == 0 {
                    let victim = held.remove(held.len() / 2);
                    a.free(victim).unwrap();
                }
            }
            offs
        };
        assert_eq!(run(), run());
    }
}
