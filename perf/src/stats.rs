//! Order statistics for timings: medians, quartiles computed the way
//! Python's `statistics.quantiles(values, n=4)` computes them, and the
//! highest nearest-rank percentile that still has at least ten samples
//! beyond it.

/// Percentiles considered for the tail report, highest first, in tenths of
/// a percent so ranks are exact integer arithmetic.
const TAIL_CANDIDATES: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie strictly beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Median and spread of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (exclusive method).
    pub q1: f64,
    /// Third quartile (exclusive method).
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, and its
    /// value; `None` when the sample is too small for any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `values`. Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        let tail = tail_percentile(v.len()).map(|p| (p as f64 / 10.0, v[rank(v.len(), p) - 1]));
        Some(Summary { n: v.len(), median: median(&v), q1, q3, tail })
    }
}

/// Median of an ascending sample.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median_of(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// Nearest-rank percentile `per_mille` (tenths of a percent) of an
/// unsorted sample, or 0 for an empty one.
pub fn percentile(values: &[f64], per_mille: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), per_mille) - 1]
}

/// First and third quartile of an ascending sample, exactly as Python's
/// `statistics.quantiles(data, n=4)` (method `"exclusive"`) gives them; a
/// single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest candidate percentile (in tenths of a percent) whose nearest
/// rank leaves at least [`MIN_BEYOND`] samples strictly above it.
fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_CANDIDATES.into_iter().find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` (tenths of a percent) in a
/// sample of `n`.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(1000).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median_of(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the cut
        // points clamp, then extrapolate past the sample.
        let s = Summary::of(&[7.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.q3), (4.5, 7.5));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // Too small for any candidate: p75 of 39 leaves 9 beyond.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn tail_value_is_the_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(percentile(&values, 990), 99.0);
        assert_eq!(percentile(&values, 500), 50.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile(&[], 990), 0.0);
    }
}
