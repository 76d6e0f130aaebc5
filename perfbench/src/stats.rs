//! Percentile reporting: a median plus the highest tail percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it.

/// Samples that must lie strictly above a tail percentile's rank before
/// that percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail quantiles tried from the highest down.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// 1-based nearest rank of quantile `q` in `n` sorted samples:
/// `ceil(q * n)`, clamped to `1..=n`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    // Round before the ceiling so 0.9 * 100 (= 90.00000000000001) ranks 90.
    let exact = (q * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest rank of quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Value at quantile `q` of ascending `sorted` (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// A timing distribution: median, tail and sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// `(quantile, value)` of the highest reportable tail, if any.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS
            .iter()
            .find(|&&q| beyond(n, q) >= MIN_BEYOND)
            .map(|&q| (q, quantile(&sorted, q)));
        Some(Self {
            n,
            p50: quantile(&sorted, 0.5),
            tail,
            sorted,
        })
    }

    /// The value at quantile `q` if the tail rule allows reporting it.
    pub fn at(&self, q: f64) -> Option<f64> {
        (q <= 0.5 || beyond(self.n, q) >= MIN_BEYOND).then(|| quantile(&self.sorted, q))
    }

    /// One human-readable line: `name p50 .. p99 .. (n=..)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!("  p{}={v:.4}{unit}", q * 100.0),
            None => "  (no tail: fewer than 10 samples beyond p90)".to_string(),
        };
        format!("# {name}: p50={:.4}{unit}{tail}  (n={})", self.p50, self.n)
    }
}

/// Median of `samples` (nearest rank); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.p50)
}

/// Arithmetic mean of `samples`; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Mean of the middle 80 % of `samples` (a tenth of them, rounded down,
/// dropped from each end); NaN when empty. Unlike the median it does not
/// jump between the modes of a mixed distribution, and unlike the mean it
/// ignores a rare stall.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    mean(&sorted[cut..sorted.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_arithmetic() {
        assert_eq!(rank(1, 0.5), 1);
        assert_eq!(rank(2, 0.5), 1);
        assert_eq!(rank(3, 0.5), 2);
        assert_eq!(rank(100, 0.5), 50);
        assert_eq!(rank(100, 0.9), 90);
        assert_eq!(rank(100, 0.99), 99);
        assert_eq!(rank(101, 0.9), 91);
        assert_eq!(rank(1000, 0.999), 999);
        assert_eq!(rank(5, 0.0), 1);
        assert_eq!(rank(5, 1.0), 5);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn quantiles_pick_the_ranked_sample() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.9), 90.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: p90's rank is 90, only 9 beyond -> no tail at all.
        let s: Vec<f64> = (1..=99).rev().map(f64::from).collect();
        let sum = Summary::of(&s).unwrap();
        assert_eq!(sum.n, 99);
        assert_eq!(sum.p50, 50.0);
        assert_eq!(sum.tail, None);
        assert_eq!(sum.at(0.9), None);
        // 100 samples: p90 qualifies (10 beyond), p99 does not.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum = Summary::of(&s).unwrap();
        assert_eq!(sum.tail, Some((0.9, 90.0)));
        assert_eq!(sum.at(0.9), Some(90.0));
        // 1000 samples: p99 qualifies (10 beyond), p99.9 does not.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&s).unwrap().tail, Some((0.99, 990.0)));
        // 10000 samples: p99.9 qualifies.
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&s).unwrap().tail, Some((0.999, 9990.0)));
    }

    #[test]
    fn empty_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
        assert!(median(&[]).is_nan());
        assert!(trimmed_mean(&[]).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        // 20 samples: the lowest two and the highest two are dropped.
        let mut s: Vec<f64> = (1..=20).map(f64::from).collect();
        s[19] = 1e6;
        assert_eq!(
            trimmed_mean(&s),
            mean(&(3..=18).map(f64::from).collect::<Vec<_>>())
        );
        // Fewer than 10 samples: nothing is dropped.
        assert_eq!(trimmed_mean(&[4.0, 1.0, 1.0]), 2.0);
    }
}
