//! Binomial uncertainty for fault-injection campaigns: confidence
//! intervals and agreement tests — pure, dependency-free, deterministic
//! `f64` arithmetic.
//!
//! Every rate this repo measures is a binomial proportion (k SDC outcomes
//! out of n trials), so a 5000-trial estimate and a 50-trial estimate must
//! not print identically: the statistical fault-injection literature (and
//! the paper's own Section VII-A validation against multi2sim) only
//! compares rates *with* their uncertainty. Every interval is the
//! [`wilson`] score interval: good coverage at all `k`, never escapes
//! `[0, 1]`, cheap.
//!
//! [`two_proportion_test`] is the agreement test the ACE-vs-injection
//! validation gate uses to decide whether two measured rates are consistent
//! with a common underlying probability.
//!
//! All routines are total: `n == 0` yields the vacuous estimate
//! (`estimate = 0`, interval `[0, 1]`) rather than NaN.

/// A binomial proportion with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimate {
    /// Number of successes observed.
    pub successes: u64,
    /// Number of trials.
    pub n: u64,
    /// Point estimate `successes / n` (0 when `n == 0`).
    pub estimate: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Confidence level of `[lo, hi]` (e.g. 0.95).
    pub confidence: f64,
}

impl RateEstimate {
    /// The vacuous estimate for an empty sample: point 0, interval `[0, 1]`.
    pub fn vacuous(confidence: f64) -> Self {
        Self { successes: 0, n: 0, estimate: 0.0, lo: 0.0, hi: 1.0, confidence }
    }

    /// Half the interval width — the precision target adaptive campaigns
    /// drive down.
    pub fn halfwidth(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Whether `p` lies inside the interval (inclusive).
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }

    /// Render as `"0.123 [0.100, 0.150]"` with the given precision.
    pub fn display(&self, decimals: usize) -> String {
        format!("{:.d$} [{:.d$}, {:.d$}]", self.estimate, self.lo, self.hi, d = decimals)
    }
}

/// The error function, via the Abramowitz & Stegun 7.1.26 rational
/// approximation (absolute error < 1.5e-7) — accurate far beyond what
/// campaign sample sizes can resolve, and exactly reproducible.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// The standard normal CDF Φ(x).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x * std::f64::consts::FRAC_1_SQRT_2))
}

/// The two-sided critical value `z` with `Φ(z) - Φ(-z) = confidence`,
/// found by bisection on [`std_normal_cdf`] (self-consistent with the
/// p-values reported by [`two_proportion_test`]).
///
/// # Panics
///
/// Panics unless `0 < confidence < 1`.
pub fn z_for_confidence(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence level must be in (0, 1), got {confidence}"
    );
    let target = 0.5 + confidence / 2.0;
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if std_normal_cdf(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The Wilson score interval for `successes` out of `n` at the given
/// confidence level.
///
/// ```
/// use mbavf_core::stats::wilson;
/// let r = wilson(81, 263, 0.95); // Newcombe (1998) worked example
/// assert!((r.lo - 0.2553).abs() < 5e-4 && (r.hi - 0.3662).abs() < 5e-4);
/// ```
///
/// # Panics
///
/// Panics if `successes > n` or `confidence` is outside `(0, 1)`.
pub fn wilson(successes: u64, n: u64, confidence: f64) -> RateEstimate {
    assert!(successes <= n, "successes {successes} > trials {n}");
    let z = z_for_confidence(confidence);
    if n == 0 {
        return RateEstimate::vacuous(confidence);
    }
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let hw = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    // At the extremes the analytic bound is exactly p, but the sqrt above
    // reproduces it only to rounding error — pin it so the interval always
    // contains its own point estimate.
    let lo = if successes == 0 { 0.0 } else { (center - hw).max(0.0) };
    let hi = if successes == n { 1.0 } else { (center + hw).min(1.0) };
    RateEstimate { successes, n, estimate: p, lo, hi, confidence }
}

/// Outcome of a two-proportion agreement test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgreementTest {
    /// The pooled two-proportion z statistic (0 when degenerate).
    pub z: f64,
    /// Two-sided p-value under the null of a common rate.
    pub p_value: f64,
    /// Whether the two rates are statistically consistent at the given
    /// confidence (i.e. the null is *not* rejected).
    pub agree: bool,
    /// Confidence level the verdict used.
    pub confidence: f64,
}

/// Pooled two-proportion z-test of `k1/n1` against `k2/n2`: are the two
/// measured rates consistent with one underlying probability?
///
/// Degenerate inputs (an empty sample, or a pooled rate of exactly 0 or 1 —
/// meaning the samples are literally identical in outcome) report `z = 0`,
/// `p_value = 1`, `agree = true`.
///
/// # Panics
///
/// Panics if a success count exceeds its trial count or `confidence` is
/// outside `(0, 1)`.
pub fn two_proportion_test(k1: u64, n1: u64, k2: u64, n2: u64, confidence: f64) -> AgreementTest {
    assert!(k1 <= n1 && k2 <= n2, "successes exceed trials");
    let z_crit = z_for_confidence(confidence);
    if n1 == 0 || n2 == 0 {
        return AgreementTest { z: 0.0, p_value: 1.0, agree: true, confidence };
    }
    let p1 = k1 as f64 / n1 as f64;
    let p2 = k2 as f64 / n2 as f64;
    let pooled = (k1 + k2) as f64 / (n1 + n2) as f64;
    let var = pooled * (1.0 - pooled) * (1.0 / n1 as f64 + 1.0 / n2 as f64);
    if var <= 0.0 {
        return AgreementTest { z: 0.0, p_value: 1.0, agree: true, confidence };
    }
    let z = (p1 - p2) / var.sqrt();
    let p_value = 2.0 * (1.0 - std_normal_cdf(z.abs()));
    AgreementTest { z, p_value, agree: z.abs() <= z_crit, confidence }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_and_critical_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.959_963_985) - 0.975).abs() < 1e-6);
        assert!((z_for_confidence(0.95) - 1.959_964).abs() < 1e-4);
        assert!((z_for_confidence(0.99) - 2.575_829).abs() < 1e-4);
        assert!((z_for_confidence(0.6827) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn wilson_reference_values() {
        // Newcombe (1998), example: 81/263 at 95%.
        let r = wilson(81, 263, 0.95);
        assert!((r.lo - 0.255_289).abs() < 1e-4, "lo {}", r.lo);
        assert!((r.hi - 0.366_210).abs() < 1e-4, "hi {}", r.hi);
        // 10/40 at 95% (closed-form hand computation).
        let r = wilson(10, 40, 0.95);
        assert!((r.lo - 0.141_871).abs() < 1e-4);
        assert!((r.hi - 0.401_940).abs() < 1e-4);
        // k = 0: lower bound exactly 0, upper z^2/(n+z^2).
        let r = wilson(0, 10, 0.95);
        assert_eq!(r.lo, 0.0);
        assert!((r.hi - 0.277_533).abs() < 1e-4);
        // Symmetry: interval for k mirrors n-k.
        let a = wilson(3, 20, 0.95);
        let b = wilson(17, 20, 0.95);
        assert!((a.lo - (1.0 - b.hi)).abs() < 1e-12);
        assert!((a.hi - (1.0 - b.lo)).abs() < 1e-12);
    }

    #[test]
    fn wilson_contains_its_estimate() {
        for &(k, n) in &[(0u64, 50u64), (1, 50), (12, 50), (50, 50), (499, 1000)] {
            let w = wilson(k, n, 0.95);
            assert!(w.contains(w.estimate));
            assert!(w.halfwidth() > 0.0);
        }
    }

    #[test]
    fn intervals_shrink_with_n() {
        let mut last = f64::INFINITY;
        for n in [10u64, 100, 1000, 10000] {
            let r = wilson(n / 5, n, 0.95);
            assert!(r.halfwidth() < last, "n={n}");
            last = r.halfwidth();
        }
    }

    #[test]
    fn empty_sample_is_vacuous_not_nan() {
        let r = wilson(0, 0, 0.95);
        assert_eq!(r.estimate, 0.0);
        assert_eq!((r.lo, r.hi), (0.0, 1.0));
        assert!(!r.estimate.is_nan() && !r.lo.is_nan() && !r.hi.is_nan());
    }

    #[test]
    fn two_proportion_test_behaves() {
        // Identical samples agree trivially.
        let t = two_proportion_test(10, 100, 10, 100, 0.95);
        assert!(t.agree);
        assert_eq!(t.z, 0.0);
        // Wildly different, well-sampled rates are a confirmed divergence.
        let t = two_proportion_test(10, 1000, 100, 1000, 0.95);
        assert!(!t.agree);
        assert!(t.p_value < 1e-6);
        // The same gap with tiny samples is inconclusive: no rejection.
        let t = two_proportion_test(0, 5, 1, 5, 0.95);
        assert!(t.agree);
        // Degenerate pools never reject.
        assert!(two_proportion_test(0, 50, 0, 50, 0.95).agree);
        assert!(two_proportion_test(50, 50, 50, 50, 0.95).agree);
        assert!(two_proportion_test(0, 0, 3, 5, 0.95).agree);
    }

    #[test]
    fn display_formats() {
        let r = wilson(1, 10, 0.95);
        let s = r.display(3);
        assert!(s.starts_with("0.100 ["), "{s}");
        assert!(s.contains(", "));
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn bad_confidence_panics() {
        z_for_confidence(1.5);
    }
}
