//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! framing the campaign write-ahead journal, and the detecting code behind
//! [`crate::ecc::Crc32`].
//!
//! Hand-rolled (the workspace takes no external dependencies) with the
//! standard 256-entry lookup table, built once at first use. The variant is
//! the ubiquitous one used by zlib, PNG, and Ethernet: initial value
//! `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`, bit-reflected in and out — so
//! `crc32(b"123456789") == 0xCBF4_3926` per the canonical check value.

use std::sync::OnceLock;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    })
}

/// A streaming CRC-32 hasher for incremental input.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = table();
        for &b in bytes {
            self.state = t[((self.state ^ u32::from(b)) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// Finish and return the checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_check_value() {
        // The universal CRC-32/IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_and_single_byte() {
        assert_eq!(crc32(b""), 0);
        // crc32 of a single zero byte, per zlib.
        assert_eq!(crc32(&[0u8]), 0xD202_EF8D);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"frame payload under test";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for pos in 0..copy.len() {
            for bit in 0..8 {
                copy[pos] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "missed flip at byte {pos} bit {bit}");
                copy[pos] ^= 1 << bit;
            }
        }
    }
}
