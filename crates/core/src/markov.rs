//! A MACAU-style Markov-chain MTTF baseline (Suh et al. \[35\], the paper's
//! closest related work).
//!
//! MACAU computes the *intrinsic* mean time to failure of a protection
//! domain under accumulating faults: states count resident flipped bits, a
//! strike moves the chain up by the strike's width, periodic scrubbing
//! resets correctable states, and the chain absorbs when the accumulated
//! weight exceeds what the code corrects. Section III of the paper explains
//! why this is *not* a substitute for MB-AVF analysis — it mixes technology
//! and architecture effects, and cannot model faults that straddle
//! interleaved domains — but it is the natural baseline to compare against,
//! so we implement it.
//!
//! The model: one protection domain of `word_bits` bits; single-bit strikes
//! arrive per-bit at `fit_per_bit`; spatial multi-bit strikes deposit `m`
//! bits at rates `rate_fraction[m]` of the total; a scrub every
//! `scrub_hours` repairs the word if the accumulated weight is within the
//! code's correction capability. Failure = accumulated weight exceeds the
//! correction capability at any instant (detected-but-uncorrectable states
//! count as failures for DUE-intolerant systems, which is MACAU's MTTI
//! flavour).

use crate::protection::ProtectionKind;

/// Parameters of the Markov MTTF computation for one protection domain.
///
/// ```
/// use mbavf_core::markov::MarkovModel;
///
/// // A SEC-DED word dies on its second strike: MTTF = 2/lambda.
/// let m = MarkovModel::secded64(1e-4, None);
/// let lambda = 64.0 * 1e-4 / 1e9;
/// assert!((m.mttf_hours() - 2.0 / lambda).abs() / (2.0 / lambda) < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovModel {
    /// Bits per protection domain.
    pub word_bits: u32,
    /// Raw single-strike rate per bit, FIT.
    pub fit_per_bit: f64,
    /// `fraction[k]` = fraction of strikes flipping exactly `k+1` bits
    /// inside this domain (must sum to at most 1).
    pub width_fractions: Vec<f64>,
    /// Scrub interval in hours (`None` = no scrubbing).
    pub scrub_hours: Option<f64>,
    /// The protection scheme (decides the absorbing threshold).
    pub scheme: ProtectionKind,
}

impl MarkovModel {
    /// A SEC-DED protected 64-bit word with single-bit strikes only.
    pub fn secded64(fit_per_bit: f64, scrub_hours: Option<f64>) -> Self {
        Self {
            word_bits: 64,
            fit_per_bit,
            width_fractions: vec![1.0],
            scrub_hours,
            scheme: ProtectionKind::SecDed,
        }
    }

    /// Strike arrival rate for the whole word, per hour.
    fn word_rate_per_hour(&self) -> f64 {
        f64::from(self.word_bits) * self.fit_per_bit / 1e9
    }

    /// Largest accumulated weight that is still survivable.
    fn safe_states(&self) -> usize {
        self.scheme.correct_capability() as usize
    }

    /// Mean time to failure in hours, by uniformized discrete stepping of
    /// the continuous-time chain.
    ///
    /// States `0..=c` (accumulated flipped bits within correction capability
    /// `c`) are transient; anything above `c` is absorbing. Between scrubs
    /// the chain only moves up; a scrub resets any transient state to 0, so
    /// the survival probability per scrub interval is the probability of
    /// staying within `c` for `scrub_hours`. With scrubbing the MTTF follows
    /// a geometric number of survived intervals; without scrubbing we
    /// integrate the survival function directly.
    pub fn mttf_hours(&self) -> f64 {
        let c = self.safe_states();
        let lambda = self.word_rate_per_hour();
        if lambda <= 0.0 {
            return f64::INFINITY;
        }
        match self.scrub_hours {
            Some(t_scrub) => {
                assert!(t_scrub > 0.0, "scrub interval must be positive");
                let p_survive = self.survival_probability(t_scrub, c);
                if p_survive >= 1.0 {
                    return f64::INFINITY;
                }
                // Expected whole intervals survived + mean time-to-failure
                // within the failing interval (approximated as half).
                let intervals = p_survive / (1.0 - p_survive);
                (intervals + 0.5) * t_scrub
            }
            None => {
                // MTTF = ∫ survival(t) dt. Each Poisson term integrates to
                // 1/λ_eff, so MTTF = Σ_{n=0..c} P(W_1+…+W_n <= c) / λ_eff.
                let covered: f64 = self.width_fractions.iter().sum();
                let lambda_eff = lambda * covered;
                if lambda_eff <= 0.0 {
                    return f64::INFINITY;
                }
                self.p_le_series(c).iter().sum::<f64>() / lambda_eff
            }
        }
    }

    /// Probability that the accumulated weight stays `<= c` for `t` hours,
    /// starting from zero faults.
    ///
    /// Exact: strikes form a Poisson process of rate `λ·covered` (strikes
    /// outside the modelled widths are benign); every strike has width `>=
    /// 1`, so at most `c` strikes can be survived, giving the closed form
    ///
    /// ```text
    /// survival(t) = Σ_{n=0..c} Pois(n; λ_eff t) · P(W_1 + … + W_n <= c)
    /// ```
    fn survival_probability(&self, t: f64, c: usize) -> f64 {
        let covered: f64 = self.width_fractions.iter().sum();
        let lambda_eff = self.word_rate_per_hour() * covered;
        if lambda_eff <= 0.0 {
            return 1.0;
        }
        let p_le = self.p_le_series(c);
        let mut survival = 0.0;
        let mut pois = (-lambda_eff * t).exp(); // Pois(0)
        for (n, p) in p_le.iter().enumerate() {
            survival += pois * p;
            pois *= lambda_eff * t / (n as f64 + 1.0);
        }
        survival.clamp(0.0, 1.0)
    }

    /// `p_le[n] = P(W_1 + … + W_n <= c)` for `n = 0..=c`, by iterated
    /// convolution of the (normalized) width distribution truncated at `c`.
    fn p_le_series(&self, c: usize) -> Vec<f64> {
        let covered: f64 = self.width_fractions.iter().sum();
        assert!(covered <= 1.0 + 1e-9, "width fractions must sum to at most 1");
        let q: Vec<f64> = self.width_fractions.iter().map(|f| f / covered.max(1e-300)).collect();
        let mut sum_dist = vec![0.0f64; c + 1];
        sum_dist[0] = 1.0; // zero strikes: weight 0
        let mut out = Vec::with_capacity(c + 1);
        for _ in 0..=c {
            out.push(sum_dist.iter().sum());
            let mut next = vec![0.0f64; c + 1];
            for (w, &mass) in sum_dist.iter().enumerate() {
                for (k, &qk) in q.iter().enumerate() {
                    let dest = w + k + 1;
                    if dest <= c {
                        next[dest] += mass * qk;
                    }
                }
            }
            sum_dist = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbing_extends_mttf() {
        // Use an artificially high rate so per-interval failure
        // probabilities stay representable in f64.
        let no_scrub = MarkovModel::secded64(1e3, None).mttf_hours();
        let daily = MarkovModel::secded64(1e3, Some(24.0)).mttf_hours();
        let hourly = MarkovModel::secded64(1e3, Some(1.0)).mttf_hours();
        assert!(daily > no_scrub, "daily {daily} vs none {no_scrub}");
        assert!(hourly > daily, "hourly {hourly} vs daily {daily}");
        // At realistic rates a scrubbed word effectively never fails.
        assert!(MarkovModel::secded64(1e-4, Some(24.0)).mttf_hours() > 1e15);
    }

    #[test]
    fn no_scrub_matches_two_strike_closed_form() {
        // SEC-DED corrects one bit: failure needs the second strike. The
        // pure-birth MTTF is the time of the second arrival, 2/lambda.
        let m = MarkovModel::secded64(1e-4, None);
        let lambda = 64.0 * 1e-4 / 1e9;
        let expect = 2.0 / lambda;
        let got = m.mttf_hours();
        assert!((got / expect - 1.0).abs() < 0.05, "markov {got:.3e} vs closed form {expect:.3e}");
    }

    #[test]
    fn stronger_code_survives_longer() {
        let secded = MarkovModel::secded64(1e-4, None).mttf_hours();
        let dected =
            MarkovModel { scheme: ProtectionKind::DecTed, ..MarkovModel::secded64(1e-4, None) }
                .mttf_hours();
        let parity =
            MarkovModel { scheme: ProtectionKind::Parity, ..MarkovModel::secded64(1e-4, None) }
                .mttf_hours();
        assert!(dected > secded * 1.3);
        assert!(parity < secded, "parity corrects nothing: first strike kills");
    }

    #[test]
    fn multibit_strikes_shorten_mttf() {
        // With DEC-TED (corrects 2), adding double-bit strikes makes each
        // strike deadlier.
        let single_only =
            MarkovModel { scheme: ProtectionKind::DecTed, ..MarkovModel::secded64(1e-4, None) };
        let with_doubles = MarkovModel { width_fractions: vec![0.9, 0.1], ..single_only.clone() };
        assert!(with_doubles.mttf_hours() < single_only.mttf_hours());
    }

    #[test]
    fn zero_rate_never_fails() {
        assert_eq!(MarkovModel::secded64(0.0, None).mttf_hours(), f64::INFINITY);
    }

    #[test]
    fn survival_is_monotone_in_time() {
        let m = MarkovModel::secded64(1e-3, None);
        let s1 = m.survival_probability(1e6, 1);
        let s2 = m.survival_probability(1e8, 1);
        assert!((0.0..=1.0).contains(&s1));
        assert!(s2 <= s1 + 1e-9);
    }
}
