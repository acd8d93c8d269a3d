//! Order statistics and regression-bound arithmetic.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the spreads this crate reports are the
//! ones an outside check computes from the same values.

/// Median, quartiles, extremes and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        let (q1, median, q3) = quartiles_sorted(&sorted)?;
        Some(Summary {
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` of already sorted values, by Python's exclusive
/// method; a single value is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> Option<(f64, f64, f64)> {
    let len = v.len();
    match len {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), median(v)?, cut(3)))
        }
    }
}

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of `n` samples that has at least ten samples
/// beyond it, or `None` when even the 75th percentile has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| (n as f64 * (100.0 - p) / 100.0).floor() >= 10.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, bytes).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of a `BENCHMARK.json` metric.
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How far a metric may move in the worse direction from `base` before it
/// counts as a regression: `bound` as a share of `base`, but never less
/// than `floor` in the metric's own unit.
pub fn allowance(base: f64, bound: f64, floor: f64) -> f64 {
    (bound * base.abs()).max(floor)
}

/// `true` when `new` is worse than `base` by more than the allowance.
pub fn regressed(better: Better, base: f64, new: f64, bound: f64, floor: f64) -> bool {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse_by > allowance(base, bound, floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
        Summary::of(values).map(|s| (s.q1, s.median, s.q3))
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
        // the index clamped, two points extrapolate.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[10.0, 9.0, 11.0, 10.0, 10.0]).unwrap();
        assert_eq!((s.min, s.max, s.n), (9.0, 11.0, 5));
        assert_eq!(s.median, 10.0);
        assert!((s.spread() - (s.q3 - s.q1) / 10.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(32_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(4_000), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(5), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn bounds_are_a_share_of_the_base() {
        // 10% on a lower-is-better metric: 110 is the last passing value.
        assert!(!regressed(Better::Lower, 100.0, 110.0, 0.10, 0.0));
        assert!(regressed(Better::Lower, 100.0, 110.5, 0.10, 0.0));
        // Improvements never regress.
        assert!(!regressed(Better::Lower, 100.0, 50.0, 0.10, 0.0));
        // Higher-is-better flips the direction.
        assert!(!regressed(Better::Higher, 100.0, 90.0, 0.10, 0.0));
        assert!(regressed(Better::Higher, 100.0, 89.0, 0.10, 0.0));
        assert!(!regressed(Better::Higher, 100.0, 500.0, 0.10, 0.0));
        // A zero bound fails any worsening.
        assert!(regressed(Better::Lower, 0.2, 0.2001, 0.0, 0.0));
        assert!(!regressed(Better::Lower, 0.2, 0.2, 0.0, 0.0));
    }

    #[test]
    fn setup_floor_widens_small_bases() {
        let floor = crate::compare::SETUP_FLOOR_S;
        // 25% of 0.8 ms is 0.2 ms, but the 0.25 ms floor wins.
        assert_eq!(allowance(0.0008, 0.25, floor), floor);
        assert!(!regressed(Better::Lower, 0.0008, 0.00104, 0.25, floor));
        assert!(regressed(Better::Lower, 0.0008, 0.00106, 0.25, floor));
        // From 1 ms up the share dominates again.
        assert_eq!(allowance(0.002, 0.25, floor), 0.0005);
        assert!(!regressed(Better::Lower, 0.002, 0.00249, 0.25, floor));
        assert!(regressed(Better::Lower, 0.002, 0.00251, 0.25, floor));
    }

    #[test]
    fn better_parses_benchmark_json_values() {
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("sideways"), None);
    }
}
