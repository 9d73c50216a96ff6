//! Mean-time-to-failure models for temporal vs. spatial multi-bit faults
//! (paper Section IV-B, Figure 2).
//!
//! The paper justifies focusing on *spatial* MBFs by showing that, at
//! realistic raw fault rates, a 32MB cache fails from spatial MBFs six to
//! eight orders of magnitude sooner than from *temporal* MBFs (two
//! independent strikes accumulating in one protection domain), even assuming
//! data lives in the cache forever.
//!
//! The temporal model follows Saleh et al. \[28\]: with `W` protection domains
//! (words), a per-word strike rate `μ`, and a data lifetime (or scrub
//! interval) `L`, a temporal double-bit failure needs two strikes in the same
//! word within `L`.

/// Hours per billion hours — FIT rates are failures per 1e9 device-hours.
const FIT_HOURS: f64 = 1e9;

/// Parameters of a memory structure for MTTF modeling.
///
/// ```
/// use mbavf_core::mttf::MemoryModel;
///
/// let cache = MemoryModel::cache_32mb(1e-4);
/// // A realistic spatial-MBF share fails the cache orders of magnitude
/// // sooner than temporal fault accumulation does.
/// assert!(cache.spatial_mttf_hours(0.001) < cache.temporal_mttf_hours(None));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Total data bits.
    pub bits: u64,
    /// Bits per protection domain (ECC/parity word).
    pub word_bits: u32,
    /// Raw single-bit transient fault rate, FIT per bit.
    pub fit_per_bit: f64,
}

impl MemoryModel {
    /// A 32MB cache with 64-bit ECC words — the Figure 2 configuration.
    pub fn cache_32mb(fit_per_bit: f64) -> Self {
        Self { bits: 32 * 1024 * 1024 * 8, word_bits: 64, fit_per_bit }
    }

    /// Number of protection domains.
    pub fn words(&self) -> f64 {
        self.bits as f64 / f64::from(self.word_bits)
    }

    /// Per-word strike rate in faults per hour.
    pub fn word_rate_per_hour(&self) -> f64 {
        f64::from(self.word_bits) * self.fit_per_bit / FIT_HOURS
    }

    /// Whole-structure strike rate in faults per hour.
    pub fn total_rate_per_hour(&self) -> f64 {
        self.bits as f64 * self.fit_per_bit / FIT_HOURS
    }

    /// MTTF (hours) from *temporal* multi-bit faults: two independent strikes
    /// landing in the same word while the first is still resident.
    ///
    /// With a finite data lifetime `L` hours (`lifetime_hours = Some(L)`),
    /// the failure rate is `W · μ² · L` (each word accumulates pairs at rate
    /// `μ · (μL)`), so `MTTF = 1 / (W μ² L)`.
    ///
    /// With an infinite lifetime (`None`), faults accumulate forever and the
    /// first collision is a birthday problem over `W` words: the expected
    /// number of strikes before two share a word is `√(πW/2)`, arriving at
    /// rate `W·μ`, so `MTTF ≈ √(πW/2) / (W·μ)`.
    pub fn temporal_mttf_hours(&self, lifetime_hours: Option<f64>) -> f64 {
        let w = self.words();
        let mu = self.word_rate_per_hour();
        match lifetime_hours {
            Some(l) => {
                assert!(l > 0.0, "lifetime must be positive");
                1.0 / (w * mu * mu * l)
            }
            None => (std::f64::consts::PI * w / 2.0).sqrt() / (w * mu),
        }
    }

    /// MTTF (hours) from *spatial* multi-bit faults: a single strike flips
    /// enough adjacent bits to defeat the protection. `smbf_fraction` is the
    /// fraction of strikes that do so (e.g. 0.001 for the Ibe 22nm
    /// measurement that 0.1% of strikes affect more than 8 bits).
    pub fn spatial_mttf_hours(&self, smbf_fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&smbf_fraction), "fraction must be in [0,1]");
        if smbf_fraction == 0.0 {
            return f64::INFINITY;
        }
        1.0 / (self.total_rate_per_hour() * smbf_fraction)
    }
}

/// One row of the Figure 2 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure2Row {
    /// Raw fault rate, FIT per bit.
    pub fit_per_bit: f64,
    /// MTTF from spatial MBFs at the 0.1% (>8-bit) rate, hours.
    pub smbf_0p1_hours: f64,
    /// MTTF from spatial MBFs at a 5% rate, hours.
    pub smbf_5_hours: f64,
    /// MTTF from temporal MBFs with infinite cache-line lifetime, hours.
    pub tmbf_infinite_hours: f64,
    /// MTTF from temporal MBFs with a 100-year line lifetime, hours.
    pub tmbf_100y_hours: f64,
}

/// Generate the Figure 2 curves for a 32MB cache across a sweep of raw fault
/// rates (FIT per bit).
pub fn figure2(rates_fit_per_bit: &[f64]) -> Vec<Figure2Row> {
    const HOURS_100Y: f64 = 100.0 * 365.25 * 24.0;
    rates_fit_per_bit
        .iter()
        .map(|&r| {
            let m = MemoryModel::cache_32mb(r);
            Figure2Row {
                fit_per_bit: r,
                smbf_0p1_hours: m.spatial_mttf_hours(0.001),
                smbf_5_hours: m.spatial_mttf_hours(0.05),
                tmbf_infinite_hours: m.temporal_mttf_hours(None),
                tmbf_100y_hours: m.temporal_mttf_hours(Some(HOURS_100Y)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MemoryModel {
        MemoryModel::cache_32mb(1e-4)
    }

    #[test]
    fn rates_scale_with_size() {
        let m = model();
        assert_eq!(m.words(), 32.0 * 1024.0 * 1024.0 * 8.0 / 64.0);
        assert!((m.total_rate_per_hour() - m.words() * m.word_rate_per_hour()).abs() < 1e-18);
    }

    #[test]
    fn paper_headline_smbf_dominates_tmbf() {
        // Figure 2: smbf MTTF sits below tmbf MTTF across the sweep. The gap
        // versus the 100-year-lifetime tmbf curve reaches 6+ orders of
        // magnitude at the low end of the rate sweep (tmbf failure rate falls
        // with the square of the raw rate, smbf only linearly).
        let m = MemoryModel::cache_32mb(1e-8);
        let smbf = m.spatial_mttf_hours(0.001);
        let tmbf_100y = m.temporal_mttf_hours(Some(100.0 * 8766.0));
        let orders = (tmbf_100y / smbf).log10();
        assert!(orders > 6.0, "expected 6+ orders of magnitude, got {orders}");
        // Even with the conservative infinite-lifetime accumulation model,
        // smbf MTTF stays below tmbf MTTF at every rate.
        for r in [1e-8, 1e-6, 1e-4, 1e-2] {
            let m = MemoryModel::cache_32mb(r);
            assert!(m.spatial_mttf_hours(0.001) < m.temporal_mttf_hours(None), "rate {r}");
        }
    }

    #[test]
    fn five_percent_smbf_is_fifty_times_worse_than_0p1() {
        // Section IV-B: a 5% rate of smbfs decreases MTTF by ~2 orders of
        // magnitude relative to 0.1%.
        let m = model();
        let ratio = m.spatial_mttf_hours(0.001) / m.spatial_mttf_hours(0.05);
        assert!((ratio - 50.0).abs() < 1e-6);
    }

    #[test]
    fn temporal_mttf_decreases_with_lifetime() {
        let m = model();
        assert!(m.temporal_mttf_hours(Some(1000.0)) > m.temporal_mttf_hours(Some(100000.0)));
    }

    #[test]
    fn temporal_mttf_scales_inverse_square_with_rate() {
        let a = MemoryModel::cache_32mb(1e-4).temporal_mttf_hours(Some(1000.0));
        let b = MemoryModel::cache_32mb(1e-3).temporal_mttf_hours(Some(1000.0));
        assert!((a / b - 100.0).abs() < 1e-6);
    }

    #[test]
    fn spatial_mttf_scales_inverse_with_rate() {
        let a = MemoryModel::cache_32mb(1e-4).spatial_mttf_hours(0.001);
        let b = MemoryModel::cache_32mb(1e-3).spatial_mttf_hours(0.001);
        assert!((a / b - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_smbf_fraction_never_fails() {
        assert_eq!(model().spatial_mttf_hours(0.0), f64::INFINITY);
    }

    #[test]
    fn figure2_rows_cover_sweep() {
        let rows = figure2(&[1e-7, 1e-5, 1e-3]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.smbf_0p1_hours < r.tmbf_infinite_hours);
            assert!(r.smbf_5_hours < r.smbf_0p1_hours);
            assert!(r.tmbf_100y_hours > r.tmbf_infinite_hours);
        }
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0,1]")]
    fn invalid_fraction_panics() {
        model().spatial_mttf_hours(1.5);
    }
}
