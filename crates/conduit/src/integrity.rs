//! End-to-end payload checksums: CRC32 (IEEE 802.3) over the bytes an
//! operation lands, computed once per transfer and verified when its
//! payload is applied at the target heap.
//!
//! The polynomial and table layout are the standard reflected CRC-32
//! (`0xEDB88320`), so values match every other IEEE CRC32 implementation —
//! useful when a test wants to cross-check a digest by hand. Hashing is
//! slicing-by-16: sixteen tables, built at compile time, fold sixteen bytes
//! per step into the state (sixteen lookups, no dependency between them but
//! the final XOR); the tail takes the byte-at-a-time table.
//!
//! Checksums deliberately charge **no virtual time**: a verified transfer
//! costs exactly what an unverified one does, so enabling `PGAS_CHECKSUM`
//! changes no run digest. What verification buys is *typed detection*: an
//! injected `FaultKind::Corrupt` that would otherwise surface as a generic
//! link-level reject is caught by the CRC mismatch and reported as
//! `ConduitError::PayloadCorrupt` when the retry budget runs out.

/// Bytes folded per step.
const SLICES: usize = 16;

/// The slicing tables: `TABLES[0]` is the byte-at-a-time table of the
/// reflected CRC-32 (IEEE), and `TABLES[k][b]` is the state contribution of
/// byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; SLICES] = tables();

const fn tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE) of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC32 hasher for payloads assembled from multiple slices
/// (region scatter-puts, coalesced flush buffers).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut steps = data.chunks_exact(SLICES);
        for step in &mut steps {
            let word =
                |i: usize| u32::from_le_bytes([step[i], step[i + 1], step[i + 2], step[i + 3]]);
            let words = [crc ^ word(0), word(4), word(8), word(12)];
            // Byte `i` of the step is followed by `SLICES - 1 - i` more.
            crc = 0;
            for (i, w) in words.into_iter().enumerate() {
                for (k, b) in w.to_le_bytes().into_iter().enumerate() {
                    crc ^= t[SLICES - 1 - 4 * i - k][b as usize];
                }
            }
        }
        for &b in steps.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC the slicing one replaced: one table lookup
    /// per byte, from a table computed bit by bit.
    fn bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            let mut c = (state ^ b as u32) & 0xFF;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            state = c ^ (state >> 8);
        }
        state
    }

    proptest! {
        #[test]
        fn slicing_equals_the_bytewise_crc_at_every_split(
            data in prop::collection::vec(any::<u8>(), 0..300),
            split in any::<u64>(),
            split2 in any::<u64>(),
        ) {
            let want = bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
            prop_assert_eq!(crc32(&data), want);
            // Two `update` split points anywhere, aligned to 8 or not.
            let a = split as usize % (data.len() + 1);
            let b = a + split2 as usize % (data.len() - a + 1);
            let mut h = Crc32::new();
            for part in [&data[..a], &data[a..b], &data[b..]] {
                h.update(part);
            }
            prop_assert_eq!(h.finish(), want);
        }
    }

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC-32/IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_the_digest() {
        let mut data = vec![0xA5u8; 512];
        let clean = crc32(&data);
        for i in [0usize, 255, 511] {
            data[i] ^= 0x01;
            assert_ne!(crc32(&data), clean, "flip at byte {i} must be detected");
            data[i] ^= 0x01;
        }
        assert_eq!(crc32(&data), clean);
    }
}
