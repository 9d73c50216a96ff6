//! Real error-coding implementations: even parity, extended-Hamming SEC-DED,
//! BCH-based DEC-TED, and CRCs.
//!
//! The MB-AVF analysis itself consumes only the abstract
//! [`ProtectionKind::action`](crate::protection::ProtectionKind::action)
//! model (corrected / detected / undetected as a function of the flipped-bit
//! count). These codecs exist to *ground* that model: property tests check
//! that each code's behaviour under 1-, 2-, 3-, ... bit flips matches the
//! abstract ladder, including parity's guaranteed detection of odd-weight
//! faults that lets it out-detect SEC-DED for large fault modes
//! (Section VIII).

use std::fmt;

/// The result of decoding a possibly-corrupted codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded<T> {
    /// The codeword was consistent; data extracted unchanged.
    Ok(T),
    /// Errors were found and corrected.
    Corrected {
        /// The corrected data.
        data: T,
        /// How many bits were flipped back.
        bits: u32,
    },
    /// An uncorrectable error was detected. (A DUE, in AVF terms.)
    Detected,
}

impl<T> Decoded<T> {
    /// The decoded data, if the decoder produced any (possibly miscorrected
    /// for over-weight errors).
    pub fn data(self) -> Option<T> {
        match self {
            Decoded::Ok(d) | Decoded::Corrected { data: d, .. } => Some(d),
            Decoded::Detected => None,
        }
    }
}

impl<T: fmt::Debug> fmt::Display for Decoded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decoded::Ok(_) => f.write_str("ok"),
            Decoded::Corrected { bits, .. } => write!(f, "corrected {bits} bit(s)"),
            Decoded::Detected => f.write_str("detected"),
        }
    }
}

// ---------------------------------------------------------------------------
// Parity
// ---------------------------------------------------------------------------

/// Even parity over a data word: detects every odd-weight error, corrects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Parity;

impl Parity {
    /// Compute the even-parity check bit for `data`.
    pub fn encode(&self, data: u64) -> bool {
        data.count_ones() % 2 == 1
    }

    /// Check a received `(data, parity)` pair.
    pub fn decode(&self, data: u64, parity: bool) -> Decoded<u64> {
        if self.encode(data) == parity {
            Decoded::Ok(data)
        } else {
            Decoded::Detected
        }
    }
}

// ---------------------------------------------------------------------------
// SEC-DED (extended Hamming)
// ---------------------------------------------------------------------------

/// Single-error-correct, double-error-detect code: an extended Hamming code
/// with one overall parity bit, for data widths up to 64 bits. A (39,32)
/// instance protects a 32-bit word with 7 check bits; (72,64) protects a
/// 64-bit word with 8.
///
/// ```
/// use mbavf_core::ecc::{Decoded, SecDed};
///
/// let code = SecDed::new(32);
/// let cw = code.encode(0xDEAD_BEEF);
/// assert_eq!(code.decode(cw), Decoded::Ok(0xDEAD_BEEF));
/// // Any single flipped bit is corrected:
/// assert_eq!(code.decode(cw ^ (1 << 17)), Decoded::Corrected { data: 0xDEAD_BEEF, bits: 1 });
/// // Any double flip is detected:
/// assert_eq!(code.decode(cw ^ 0b101), Decoded::Detected);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecDed {
    data_bits: u32,
    hamming_parity: u32,
}

impl SecDed {
    /// A SEC-DED code for `data_bits`-bit words (1–64).
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is 0 or greater than 64.
    pub fn new(data_bits: u32) -> Self {
        assert!((1..=64).contains(&data_bits), "data width must be 1..=64");
        let mut r = 1u32;
        while (1u64 << r) < u64::from(data_bits) + u64::from(r) + 1 {
            r += 1;
        }
        Self { data_bits, hamming_parity: r }
    }

    /// Codeword length in bits, including the overall parity bit.
    pub fn codeword_bits(&self) -> u32 {
        // Hamming positions 1..=data+r, plus position 0 for overall parity.
        self.data_bits + self.hamming_parity + 1
    }

    /// Number of check bits (Hamming + overall parity).
    pub fn check_bits(&self) -> u32 {
        self.hamming_parity + 1
    }

    fn is_parity_position(&self, pos: u32) -> bool {
        pos.is_power_of_two()
    }

    /// Encode `data` into a codeword. Bit 0 of the returned value is the
    /// overall parity; bits `1..=n` are the Hamming positions.
    ///
    /// # Panics
    ///
    /// Panics if `data` has bits set above the configured width.
    pub fn encode(&self, data: u64) -> u128 {
        if self.data_bits < 64 {
            assert!(data < (1u64 << self.data_bits), "data wider than the code");
        }
        let n = self.data_bits + self.hamming_parity;
        let mut cw: u128 = 0;
        // Place data bits at non-power-of-two positions.
        let mut d = 0;
        for pos in 1..=n {
            if !self.is_parity_position(pos) {
                if data >> d & 1 == 1 {
                    cw |= 1u128 << pos;
                }
                d += 1;
            }
        }
        // Hamming parity bits: parity bit at 2^i covers positions with bit i
        // set in their index.
        for i in 0..self.hamming_parity {
            let p = 1u32 << i;
            let mut acc = 0u32;
            for pos in 1..=n {
                if pos & p != 0 && cw >> pos & 1 == 1 {
                    acc ^= 1;
                }
            }
            if acc == 1 {
                cw |= 1u128 << p;
            }
        }
        // Overall parity at position 0 makes total weight even.
        if cw.count_ones() % 2 == 1 {
            cw |= 1;
        }
        cw
    }

    fn extract(&self, cw: u128) -> u64 {
        let n = self.data_bits + self.hamming_parity;
        let mut data = 0u64;
        let mut d = 0;
        for pos in 1..=n {
            if !self.is_parity_position(pos) {
                if cw >> pos & 1 == 1 {
                    data |= 1u64 << d;
                }
                d += 1;
            }
        }
        data
    }

    /// Decode a received codeword: corrects any single-bit error, detects any
    /// double-bit error. Errors of three or more bits may silently alias to
    /// a correction of the wrong data (the NoDetect case of the abstract
    /// model).
    pub fn decode(&self, cw: u128) -> Decoded<u64> {
        let n = self.data_bits + self.hamming_parity;
        let mut syndrome = 0u32;
        for pos in 1..=n {
            if cw >> pos & 1 == 1 {
                syndrome ^= pos;
            }
        }
        let parity_ok = cw.count_ones().is_multiple_of(2);
        match (syndrome, parity_ok) {
            (0, true) => Decoded::Ok(self.extract(cw)),
            (0, false) => {
                // Only the overall parity bit is wrong.
                Decoded::Corrected { data: self.extract(cw), bits: 1 }
            }
            (s, false) => {
                // Odd number of errors; assume one, at position s.
                if s <= n {
                    let fixed = cw ^ (1u128 << s);
                    Decoded::Corrected { data: self.extract(fixed), bits: 1 }
                } else {
                    // Syndrome points outside the code: >= 3 errors.
                    Decoded::Detected
                }
            }
            (_, true) => Decoded::Detected, // even, nonzero syndrome: 2 errors
        }
    }
}

// ---------------------------------------------------------------------------
// GF(2^6) arithmetic for the BCH DEC-TED code
// ---------------------------------------------------------------------------

/// The field GF(2^6) generated by the primitive polynomial `x^6 + x + 1`,
/// with exp/log tables for fast multiplication. Element 0 is the additive
/// identity; nonzero elements are powers of the primitive element `α`.
#[derive(Debug, Clone)]
pub struct Gf64 {
    exp: [u8; 126],
    log: [u8; 64],
}

impl Gf64 {
    /// Field order minus one: the multiplicative group size.
    pub const N: u32 = 63;
    const POLY: u16 = 0b100_0011; // x^6 + x + 1

    /// Build the exp/log tables.
    pub fn new() -> Self {
        let mut exp = [0u8; 126];
        let mut log = [0u8; 64];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(63) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x40 != 0 {
                x ^= Self::POLY;
            }
        }
        // Duplicate for overflow-free exponent addition.
        for i in 63..126 {
            exp[i] = exp[i - 63];
        }
        Self { exp, log }
    }

    /// `α^i` for `i` in `0..63`.
    pub fn alpha_pow(&self, i: u32) -> u8 {
        self.exp[(i % Self::N) as usize]
    }

    /// Discrete log base `α` of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics on zero, which has no logarithm.
    pub fn log(&self, a: u8) -> u32 {
        assert!(a != 0 && a < 64, "log of zero or out-of-field element");
        u32::from(self.log[a as usize])
    }

    /// Field multiplication.
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] as usize) + (self.log[b as usize] as usize)]
        }
    }

    /// Multiplicative inverse of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "zero has no inverse");
        self.exp[(Self::N - u32::from(self.log[a as usize])) as usize]
    }

    /// `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    pub fn div(&self, a: u8, b: u8) -> u8 {
        self.mul(a, self.inv(b))
    }

    /// `a^3`, used for the BCH `S3` syndrome identity.
    pub fn cube(&self, a: u8) -> u8 {
        self.mul(a, self.mul(a, a))
    }
}

impl Default for Gf64 {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// DEC-TED (shortened BCH(63,51,t=2) + overall parity)
// ---------------------------------------------------------------------------

/// Double-error-correct, triple-error-detect code for 32-bit words: a
/// BCH(63, 51, t=2) code shortened to 32 data bits (12 BCH check bits,
/// codeword positions 0..44) plus an overall parity bit at position 44,
/// for a (45, 32) code.
///
/// ```
/// use mbavf_core::ecc::{Decoded, DecTed};
///
/// let code = DecTed::new();
/// let cw = code.encode(0xCAFE_F00D);
/// // Any two flipped bits are corrected:
/// assert_eq!(
///     code.decode(cw ^ (1 << 3) ^ (1 << 40)),
///     Decoded::Corrected { data: 0xCAFE_F00D, bits: 2 }
/// );
/// ```
#[derive(Debug, Clone)]
pub struct DecTed {
    gf: Gf64,
    /// Generator polynomial `g(x) = m1(x) · m3(x)`, degree 12, as a bitmask.
    generator: u64,
}

/// BCH positions 0..=43 carry the code; bit 44 is the overall parity.
const DECTED_BCH_BITS: u32 = 44;
/// Check-bit count of the underlying BCH code (degree of the generator).
const DECTED_BCH_CHECK: u32 = 12;

impl DecTed {
    /// Construct the code, deriving the generator polynomial from the field.
    pub fn new() -> Self {
        let gf = Gf64::new();
        let m1 = Self::minimal_poly(&gf, 1);
        let m3 = Self::minimal_poly(&gf, 3);
        let generator = Self::poly_mul_gf2(m1, m3);
        debug_assert_eq!(64 - generator.leading_zeros() - 1, DECTED_BCH_CHECK);
        Self { gf, generator }
    }

    /// Minimal polynomial over GF(2) of `α^e`: `Π (x - α^(e·2^i))` over the
    /// conjugacy class of `e`.
    fn minimal_poly(gf: &Gf64, e: u32) -> u64 {
        // Collect the conjugacy class e, 2e, 4e, ... mod 63.
        let mut class = vec![];
        let mut c = e % Gf64::N;
        loop {
            class.push(c);
            c = (c * 2) % Gf64::N;
            if c == e % Gf64::N {
                break;
            }
        }
        // Multiply out (x + α^c) over GF(64); coefficients end up in GF(2).
        let mut poly: Vec<u8> = vec![1]; // constant 1 == x^0 coefficient list, low first
        for &c in &class {
            let root = gf.alpha_pow(c);
            let mut next = vec![0u8; poly.len() + 1];
            for (i, &coef) in poly.iter().enumerate() {
                next[i + 1] ^= coef; // x * coef
                next[i] ^= gf.mul(coef, root); // root * coef
            }
            poly = next;
        }
        let mut bits = 0u64;
        for (i, &coef) in poly.iter().enumerate() {
            debug_assert!(coef <= 1, "minimal polynomial must have GF(2) coefficients");
            if coef == 1 {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// Carry-less multiplication of GF(2) polynomials.
    fn poly_mul_gf2(a: u64, b: u64) -> u64 {
        let mut out = 0u64;
        for i in 0..64 {
            if a >> i & 1 == 1 {
                out ^= b << i;
            }
        }
        out
    }

    /// Remainder of `a(x)` modulo the generator.
    fn poly_rem(&self, mut a: u64) -> u64 {
        let gdeg = DECTED_BCH_CHECK;
        while a >> gdeg != 0 {
            let shift = 63 - a.leading_zeros() - gdeg;
            a ^= self.generator << shift;
        }
        a
    }

    /// Codeword length including the overall parity bit.
    pub fn codeword_bits(&self) -> u32 {
        DECTED_BCH_BITS + 1
    }

    /// Encode a 32-bit word: systematic BCH (check bits in positions 0..12,
    /// data in 12..44) plus overall parity in bit 44.
    pub fn encode(&self, data: u32) -> u64 {
        let shifted = u64::from(data) << DECTED_BCH_CHECK;
        let mut cw = shifted | self.poly_rem(shifted);
        if cw.count_ones() % 2 == 1 {
            cw |= 1 << DECTED_BCH_BITS;
        }
        cw
    }

    fn extract(cw: u64) -> u32 {
        (cw >> DECTED_BCH_CHECK) as u32
    }

    /// Evaluate the received polynomial at `α^power`: `Σ_{i: r_i = 1} α^(i·power)`.
    fn syndrome(&self, r: u64, power: u32) -> u8 {
        let mut acc = 0u8;
        for i in 0..DECTED_BCH_BITS {
            if r >> i & 1 == 1 {
                acc ^= self.gf.alpha_pow(i * power);
            }
        }
        acc
    }

    /// Decode: corrects one or two flipped bits, detects three. Four or more
    /// flips may alias (NoDetect in the abstract model).
    pub fn decode(&self, cw: u64) -> Decoded<u32> {
        let r = cw & ((1 << DECTED_BCH_BITS) - 1);
        let parity_even = cw.count_ones().is_multiple_of(2);
        let s1 = self.syndrome(r, 1);
        let s3 = self.syndrome(r, 3);

        if s1 == 0 && s3 == 0 {
            return if parity_even {
                Decoded::Ok(Self::extract(cw))
            } else {
                // Only the parity bit itself flipped.
                Decoded::Corrected { data: Self::extract(cw), bits: 1 }
            };
        }

        if s1 != 0 && self.gf.cube(s1) == s3 {
            // Single BCH-positions error at log(s1).
            let pos = self.gf.log(s1);
            if pos >= DECTED_BCH_BITS {
                return Decoded::Detected; // outside the shortened code
            }
            let fixed = r ^ (1 << pos);
            return if parity_even {
                // Even total weight change with one code error means the
                // parity bit flipped too: two errors, both corrected.
                Decoded::Corrected { data: Self::extract(fixed), bits: 2 }
            } else {
                Decoded::Corrected { data: Self::extract(fixed), bits: 1 }
            };
        }

        if s1 != 0 {
            // Two-error hypothesis: roots of z^2 + s1·z + e2, with
            // e2 = (s1^3 + s3) / s1.
            let e2 = self.gf.div(self.gf.cube(s1) ^ s3, s1);
            let mut roots = [0u32; 2];
            let mut nroots = 0;
            for i in 0..DECTED_BCH_BITS {
                let z = self.gf.alpha_pow(i);
                let val = self.gf.mul(z, z) ^ self.gf.mul(s1, z) ^ e2;
                if val == 0 {
                    if nroots == 2 {
                        nroots = 3; // impossible for a quadratic; defensive
                        break;
                    }
                    roots[nroots] = i;
                    nroots += 1;
                }
            }
            if nroots == 2 {
                return if parity_even {
                    let fixed = r ^ (1 << roots[0]) ^ (1 << roots[1]);
                    Decoded::Corrected { data: Self::extract(fixed), bits: 2 }
                } else {
                    // Two code errors plus inconsistent parity: 3 errors.
                    Decoded::Detected
                };
            }
        }
        // s1 == 0 with s3 != 0, or no locator roots: >= 3 errors.
        Decoded::Detected
    }
}

impl Default for DecTed {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// CRC
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) as an error
/// detecting code: the journal's checksum, [`crate::crc::crc32`].
/// Guarantees detection of any error burst of 32 bits or fewer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc32;

impl Crc32 {
    /// The code (stateless; the lookup table is shared).
    pub fn new() -> Self {
        Self
    }

    /// Checksum of `data`.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        crate::crc::crc32(data)
    }

    /// Verify a `(data, checksum)` pair.
    pub fn decode<'d>(&self, data: &'d [u8], checksum: u32) -> Decoded<&'d [u8]> {
        if self.checksum(data) == checksum {
            Decoded::Ok(data)
        } else {
            Decoded::Detected
        }
    }
}

/// CRC-8 (polynomial `x^8 + x^2 + x + 1`, MSB-first), bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc8;

impl Crc8 {
    /// Checksum of `data`.
    pub fn checksum(&self, data: &[u8]) -> u8 {
        let mut c = 0u8;
        for &b in data {
            c ^= b;
            for _ in 0..8 {
                c = if c & 0x80 != 0 { (c << 1) ^ 0x07 } else { c << 1 };
            }
        }
        c
    }

    /// Verify a `(data, checksum)` pair.
    pub fn decode<'d>(&self, data: &'d [u8], checksum: u8) -> Decoded<&'d [u8]> {
        if self.checksum(data) == checksum {
            Decoded::Ok(data)
        } else {
            Decoded::Detected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn parity_detects_odd_misses_even() {
        let p = Parity;
        let data = 0b1011_0110u64;
        let bit = p.encode(data);
        assert_eq!(p.decode(data, bit), Decoded::Ok(data));
        assert_eq!(p.decode(data ^ 0b1, bit), Decoded::Detected);
        // Even-weight error aliases to a valid word (the NoDetect case).
        assert_eq!(p.decode(data ^ 0b11, bit), Decoded::Ok(data ^ 0b11));
    }

    #[test]
    fn secded_sizes() {
        assert_eq!(SecDed::new(32).codeword_bits(), 39);
        assert_eq!(SecDed::new(32).check_bits(), 7);
        assert_eq!(SecDed::new(64).codeword_bits(), 72);
        assert_eq!(SecDed::new(64).check_bits(), 8);
        assert_eq!(SecDed::new(8).codeword_bits(), 13);
    }

    #[test]
    fn secded_roundtrip() {
        let code = SecDed::new(32);
        for data in [0u64, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
            assert_eq!(code.decode(code.encode(data)), Decoded::Ok(data));
        }
    }

    #[test]
    fn secded_corrects_every_single_bit() {
        let code = SecDed::new(32);
        let data = 0xA5A5_5A5Au64;
        let cw = code.encode(data);
        for pos in 0..code.codeword_bits() {
            let out = code.decode(cw ^ (1u128 << pos));
            assert_eq!(out, Decoded::Corrected { data, bits: 1 }, "pos {pos}");
        }
    }

    #[test]
    fn secded_detects_every_double_bit() {
        let code = SecDed::new(16);
        let data = 0x3C7;
        let cw = code.encode(data);
        let n = code.codeword_bits();
        for i in 0..n {
            for j in (i + 1)..n {
                let out = code.decode(cw ^ (1u128 << i) ^ (1u128 << j));
                assert_eq!(out, Decoded::Detected, "bits {i},{j}");
            }
        }
    }

    #[test]
    fn secded_triple_errors_mostly_alias() {
        // The abstract model calls 3+ flips NoDetect; check that a
        // significant share of triples decode (mis-correct) silently.
        let code = SecDed::new(32);
        let data = 0x1234_5678u64;
        let cw = code.encode(data);
        let mut rng = SplitMix64::new(11);
        let n = code.codeword_bits();
        let mut aliased = 0;
        let trials = 500;
        for _ in 0..trials {
            let mut bad = cw;
            let mut picked = std::collections::HashSet::new();
            while picked.len() < 3 {
                picked.insert(rng.below_u32(n));
            }
            for p in &picked {
                bad ^= 1u128 << p;
            }
            match code.decode(bad) {
                Decoded::Corrected { data: d, .. } => {
                    assert_ne!(d, data, "a triple cannot correct back to the original");
                    aliased += 1;
                }
                Decoded::Detected => {}
                Decoded::Ok(_) => {
                    panic!("triple error cannot yield a zero syndrome with bad parity")
                }
            }
        }
        assert!(aliased > trials / 2, "only {aliased}/{trials} triples aliased");
    }

    #[test]
    fn gf64_basics() {
        let gf = Gf64::new();
        assert_eq!(gf.alpha_pow(0), 1);
        assert_eq!(gf.alpha_pow(63), 1); // α^63 = 1
        for a in 1..64u8 {
            assert_eq!(gf.mul(a, gf.inv(a)), 1, "a={a}");
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.mul(a, 0), 0);
        }
        // log/exp are inverses.
        for i in 0..63 {
            assert_eq!(gf.log(gf.alpha_pow(i)), i);
        }
    }

    #[test]
    fn gf64_mul_is_commutative_and_associative() {
        let gf = Gf64::new();
        let mut rng = SplitMix64::new(3);
        for _ in 0..200 {
            let (a, b, c) = (rng.below(64) as u8, rng.below(64) as u8, rng.below(64) as u8);
            assert_eq!(gf.mul(a, b), gf.mul(b, a));
            assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
        }
    }

    #[test]
    fn dected_generator_is_degree_12() {
        let code = DecTed::new();
        assert_eq!(code.codeword_bits(), 45);
        assert_eq!(64 - code.generator.leading_zeros() - 1, 12);
    }

    #[test]
    fn dected_roundtrip() {
        let code = DecTed::new();
        for data in [0u32, 1, u32::MAX, 0xCAFE_F00D, 0x8000_0001] {
            assert_eq!(code.decode(code.encode(data)), Decoded::Ok(data), "{data:#x}");
        }
    }

    #[test]
    fn dected_corrects_every_single_bit() {
        let code = DecTed::new();
        let data = 0xF0E1_D2C3u32;
        let cw = code.encode(data);
        for pos in 0..45 {
            match code.decode(cw ^ (1u64 << pos)) {
                Decoded::Corrected { data: d, bits: 1 } => assert_eq!(d, data, "pos {pos}"),
                other => panic!("pos {pos}: {other:?}"),
            }
        }
    }

    #[test]
    fn dected_corrects_every_double_bit() {
        let code = DecTed::new();
        let data = 0x0BAD_C0DEu32;
        let cw = code.encode(data);
        for i in 0..45u32 {
            for j in (i + 1)..45 {
                match code.decode(cw ^ (1u64 << i) ^ (1u64 << j)) {
                    Decoded::Corrected { data: d, bits: 2 } => {
                        assert_eq!(d, data, "bits {i},{j}")
                    }
                    other => panic!("bits {i},{j}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn dected_detects_triples() {
        let code = DecTed::new();
        let data = 0x5555_AAAAu32;
        let cw = code.encode(data);
        let mut rng = SplitMix64::new(17);
        let mut detected = 0;
        let trials = 300;
        for _ in 0..trials {
            let mut bad = cw;
            let mut picked = std::collections::HashSet::new();
            while picked.len() < 3 {
                picked.insert(rng.below_u32(45));
            }
            for p in &picked {
                bad ^= 1u64 << p;
            }
            match code.decode(bad) {
                Decoded::Detected => detected += 1,
                Decoded::Corrected { data: d, .. } => {
                    assert_ne!(d, data, "triple must not restore the original")
                }
                Decoded::Ok(_) => panic!("triple error decoded as clean"),
            }
        }
        // DEC-TED guarantees triple detection within the unshortened code.
        assert_eq!(detected, trials, "all triples must be detected");
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical test vector: CRC32("123456789") = 0xCBF43926.
        let crc = Crc32::new();
        assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_detects_any_short_burst() {
        let crc = Crc32::new();
        let mut rng = SplitMix64::new(29);
        let data: Vec<u8> = (0..64).map(|_| rng.next_u32() as u8).collect();
        let sum = crc.checksum(&data);
        for _ in 0..200 {
            let mut bad = data.clone();
            let start = rng.below(64 * 8 - 32) as usize;
            let len = rng.range_u64(1, 33) as usize;
            for b in start..start + len {
                if rng.bool() || b == start || b == start + len - 1 {
                    bad[b / 8] ^= 1 << (b % 8);
                }
            }
            assert_eq!(crc.decode(&bad, sum), Decoded::Detected);
        }
    }

    #[test]
    fn crc8_roundtrip_and_detection() {
        let crc = Crc8;
        let data = b"hello world";
        let sum = crc.checksum(data);
        assert_eq!(crc.decode(data, sum), Decoded::Ok(&data[..]));
        let mut bad = data.to_vec();
        bad[3] ^= 0x10;
        assert_eq!(crc.decode(&bad, sum), Decoded::Detected);
    }

    /// Cross-validation: each codec's measured ladder matches the abstract
    /// `ProtectionKind::action` model used by the analysis.
    #[test]
    fn codecs_match_abstract_action_model() {
        use crate::protection::{Action, ProtectionKind};
        let secded = SecDed::new(32);
        let dected = DecTed::new();
        let data = 0x0F1E_2D3Cu32;
        let mut rng = SplitMix64::new(41);
        for k in 1..=3u32 {
            for _ in 0..50 {
                // SEC-DED
                let cw = secded.encode(u64::from(data));
                let mut bad = cw;
                let mut picked = std::collections::HashSet::new();
                while picked.len() < k as usize {
                    picked.insert(rng.below_u32(secded.codeword_bits()));
                }
                for p in &picked {
                    bad ^= 1u128 << p;
                }
                let expect = ProtectionKind::SecDed.action(k);
                match (expect, secded.decode(bad)) {
                    (Action::Correct, Decoded::Corrected { data: d, .. }) => {
                        assert_eq!(d, u64::from(data))
                    }
                    (Action::Detect, Decoded::Detected) => {}
                    // NoDetect: silent aliasing *or* lucky detection both
                    // consistent with a conservative model.
                    (Action::NoDetect, _) => {}
                    (e, got) => panic!("SEC-DED k={k}: expected {e:?}, got {got:?}"),
                }

                // DEC-TED
                let cw = dected.encode(data);
                let mut bad = cw;
                let mut picked = std::collections::HashSet::new();
                while picked.len() < k as usize {
                    picked.insert(rng.below_u32(dected.codeword_bits()));
                }
                for p in &picked {
                    bad ^= 1u64 << p;
                }
                let expect = ProtectionKind::DecTed.action(k);
                match (expect, dected.decode(bad)) {
                    (Action::Correct, Decoded::Corrected { data: d, .. }) => assert_eq!(d, data),
                    (Action::Detect, Decoded::Detected) => {}
                    (Action::NoDetect, _) => {}
                    (e, got) => panic!("DEC-TED k={k}: expected {e:?}, got {got:?}"),
                }
            }
        }
    }
}
