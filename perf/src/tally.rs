//! Correctness accounting: operations attempted and failed, and a digest
//! of everything the operations produced, so a performance change can show
//! that its simulated results did not move.

use mbavf_core::rng::fnv1a;

/// Operations attempted and failed by one pass, plus the bytes digested.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    bytes: Vec<u8>,
}

impl Tally {
    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one operation that produced `values`: it fails when `ok` is
    /// false or any value is not finite. The values join the digest.
    pub fn cell(&mut self, ok: bool, values: &[f64]) {
        let finite = values.iter().all(|v| v.is_finite());
        self.ops(1, u64::from(!(ok && finite)));
        for v in values {
            self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Add `bytes` to the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// FNV-1a digest of everything fed so far.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_values_fail_their_cell() {
        let mut t = Tally::default();
        t.cell(true, &[1.0, 2.0]);
        t.cell(true, &[f64::NAN]);
        t.cell(false, &[3.0]);
        assert_eq!((t.attempted, t.failed), (3, 2));
    }

    #[test]
    fn digest_depends_on_every_value() {
        let mut a = Tally::default();
        a.cell(true, &[1.0, 2.0]);
        let mut b = Tally::default();
        b.cell(true, &[1.0, 2.000_000_1]);
        assert_ne!(a.digest(), b.digest());
        let mut c = Tally::default();
        c.cell(true, &[1.0, 2.0]);
        assert_eq!(a.digest(), c.digest());
    }
}
