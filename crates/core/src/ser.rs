//! Soft-error-rate composition (equation 3) and published fault-rate data
//! (paper Tables I and III, from Ibe et al. \[17\]).
//!
//! Given a raw fault rate per fault mode (from accelerated testing, in FIT —
//! failures per billion device-hours) and the MB-AVF of a structure for that
//! mode, the structure's soft error rate is:
//!
//! ```text
//! SER(H) = Σ_modes FIT_mode · MB-AVF(H, mode)
//! ```
//!
//! Summing over all structures gives the chip's SER from all single- and
//! multi-bit transient faults.

use std::fmt;

/// The raw fault rate of one fault mode.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRate {
    /// Number of bits flipped by the mode (`M` of an `Mx1` fault).
    pub mode_bits: u32,
    /// Raw rate of faults of this mode, in FIT (arbitrary units are fine as
    /// long as they are consistent across modes).
    pub rate_fit: f64,
}

/// Per-mode fault rates used in the paper's Section VIII case study
/// (Table III): a total rate of 100, split across 1x1 through 8x1 modes
/// according to the Ibe et al. 22nm wordline measurements.
///
/// The printed Table III in the paper scan is garbled; this decomposition
/// follows the constraints stated in the text: 3.9% of faults are multi-bit
/// at 22nm, 3.6% are multi-bit along a wordline, 0.1% of strikes affect more
/// than 8 bits, and per-width rates decrease with width.
pub fn paper_table3() -> Vec<FaultRate> {
    [(1, 96.1), (2, 2.40), (3, 0.55), (4, 0.40), (5, 0.20), (6, 0.15), (7, 0.10), (8, 0.10)]
        .into_iter()
        .map(|(mode_bits, rate_fit)| FaultRate { mode_bits, rate_fit })
        .collect()
}

/// One row of Ibe et al.'s technology-scaling study (Table I): the percentage
/// of all SRAM transient faults that are multi-bit, by fault width along a
/// wordline, for one design rule.
#[derive(Debug, Clone, PartialEq)]
pub struct IbeNode {
    /// Design rule in nanometers.
    pub nm: u32,
    /// Percent of all faults with wordline width exactly 2..=8 bits
    /// (index 0 is width 2).
    pub pct_by_width: [f64; 7],
    /// Percent of all faults affecting more than 8 bits.
    pub pct_over_8: f64,
}

impl IbeNode {
    /// Total percentage of faults that are (wordline) multi-bit.
    pub fn total_multibit_pct(&self) -> f64 {
        self.pct_by_width.iter().sum::<f64>() + self.pct_over_8
    }
}

/// Table I, reproduced from Ibe et al. \[17\]: multi-bit faults grow from
/// about 0.5% of all SRAM faults at 180nm to 3.9% at 22nm, and both the rate
/// and the width increase as feature size shrinks.
pub fn ibe_table1() -> Vec<IbeNode> {
    // Per-width percentages follow the constraints quoted in the paper:
    //  - 180nm: < 0.6% of faults affect more than one bit along a wordline;
    //  - 22nm: 3.6% multi-bit along a wordline, 3.9% in total, and 0.1% of
    //    strikes affect more than 8 bits;
    //  - monotone growth in both rate and width between those endpoints.
    vec![
        IbeNode { nm: 180, pct_by_width: [0.45, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0], pct_over_8: 0.0 },
        IbeNode { nm: 130, pct_by_width: [0.78, 0.13, 0.05, 0.0, 0.0, 0.0, 0.0], pct_over_8: 0.0 },
        IbeNode { nm: 90, pct_by_width: [1.05, 0.22, 0.10, 0.04, 0.0, 0.0, 0.0], pct_over_8: 0.0 },
        IbeNode {
            nm: 65,
            pct_by_width: [1.30, 0.31, 0.16, 0.08, 0.03, 0.0, 0.0],
            pct_over_8: 0.01,
        },
        IbeNode {
            nm: 45,
            pct_by_width: [1.75, 0.42, 0.25, 0.14, 0.07, 0.04, 0.02],
            pct_over_8: 0.03,
        },
        IbeNode {
            nm: 32,
            pct_by_width: [2.10, 0.50, 0.33, 0.20, 0.11, 0.07, 0.04],
            pct_over_8: 0.06,
        },
        IbeNode {
            nm: 22,
            pct_by_width: [2.40, 0.55, 0.40, 0.20, 0.15, 0.10, 0.10],
            pct_over_8: 0.10,
        },
    ]
}

/// One mode's contribution to a structure's SER.
#[derive(Debug, Clone, PartialEq)]
pub struct SerContribution {
    /// The fault mode's flipped-bit count.
    pub mode_bits: u32,
    /// Raw rate of the mode, FIT.
    pub rate_fit: f64,
    /// The AVF applied (SDC or DUE MB-AVF, caller's choice).
    pub avf: f64,
}

impl SerContribution {
    /// `rate × AVF`, in FIT.
    pub fn fit(&self) -> f64 {
        self.rate_fit * self.avf
    }
}

/// A structure's total SER and its per-mode breakdown (equation 3).
///
/// ```
/// use mbavf_core::ser::{paper_table3, SerBreakdown};
///
/// // A structure whose MB-AVF is 0.5 for every mode has half the raw rate
/// // as its soft error rate.
/// let b = SerBreakdown::new(paper_table3().into_iter().map(|r| (r, 0.5)));
/// assert!((b.total_fit() - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SerBreakdown {
    /// Per-mode contributions, in the order provided.
    pub contributions: Vec<SerContribution>,
}

impl SerBreakdown {
    /// Compose per-mode `(rate, AVF)` pairs into a breakdown.
    pub fn new(pairs: impl IntoIterator<Item = (FaultRate, f64)>) -> Self {
        Self {
            contributions: pairs
                .into_iter()
                .map(|(r, avf)| SerContribution {
                    mode_bits: r.mode_bits,
                    rate_fit: r.rate_fit,
                    avf,
                })
                .collect(),
        }
    }

    /// Total SER in FIT: `Σ rate_mode × AVF_mode`.
    pub fn total_fit(&self) -> f64 {
        self.contributions.iter().map(SerContribution::fit).sum()
    }
}

impl fmt::Display for SerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.contributions {
            writeln!(
                f,
                "  {:>2}x1: rate {:8.3} x AVF {:6.4} = {:8.4} FIT",
                c.mode_bits,
                c.rate_fit,
                c.avf,
                c.fit()
            )?;
        }
        write!(f, "  total: {:.4} FIT", self.total_fit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_totals_100() {
        let rates = paper_table3();
        let total: f64 = rates.iter().map(|r| r.rate_fit).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(rates.len(), 8);
        assert_eq!(rates[0].mode_bits, 1);
    }

    #[test]
    fn table3_multibit_fraction_matches_ibe_22nm() {
        let rates = paper_table3();
        let multi: f64 = rates.iter().filter(|r| r.mode_bits > 1).map(|r| r.rate_fit).sum();
        // 3.6% multi-bit along a wordline + 0.1% >8-bit lumped into 8x1 ≈ 3.9.
        assert!((multi - 3.9).abs() < 0.2, "multi = {multi}");
    }

    #[test]
    fn ibe_trend_monotone() {
        let nodes = ibe_table1();
        let totals: Vec<f64> = nodes.iter().map(IbeNode::total_multibit_pct).collect();
        for w in totals.windows(2) {
            assert!(w[1] > w[0], "multi-bit share must grow as nodes shrink: {totals:?}");
        }
        // Endpoints from the paper's abstract: 0.5% at 180nm, 3.9% at 22nm.
        assert!((totals[0] - 0.5).abs() < 0.05);
        assert!((totals.last().unwrap() - 3.9).abs() < 0.15);
    }

    #[test]
    fn ibe_22nm_over_8_is_tenth_percent() {
        let n22 = ibe_table1().pop().unwrap();
        assert_eq!(n22.nm, 22);
        assert!((n22.pct_over_8 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn ser_composition() {
        let rates = vec![
            FaultRate { mode_bits: 1, rate_fit: 90.0 },
            FaultRate { mode_bits: 2, rate_fit: 10.0 },
        ];
        let b = SerBreakdown::new(rates.into_iter().zip([0.1, 0.5]));
        assert!((b.total_fit() - (9.0 + 5.0)).abs() < 1e-12);
        assert!(!b.to_string().is_empty());
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(SerBreakdown::default().total_fit(), 0.0);
    }
}
