//! Order statistics for the benchmark's timings.
//!
//! A tail percentile is only as good as the samples beyond it: a p99 of
//! 200 samples rests on two values. [`Summary::of`] therefore reports the
//! highest standard percentile that has at least [`MIN_BEYOND`] samples
//! beyond it, and [`percentile_checked`] refuses a requested percentile
//! the sample cannot support.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles considered, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9% of 10_000 at rank 9990, not 9991.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile `p` (0–100] of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Percentile `p` of an ascending sample, or an error naming the shortfall
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile_checked(sorted: &[f64], p: f64) -> Result<f64, String> {
    let b = beyond(sorted.len(), p);
    if b < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {} samples leave {b}",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// Median of an ascending sample (mean of the middle pair when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    median_sorted(&sorted(values))
}

/// Geometric mean of positive values (the mean of ratios such as
/// stretches; NaN for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// An ascending copy, ordering NaN last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median plus the highest supported tail percentile of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The highest of p99.9/p99/p90/p75/p50 with [`MIN_BEYOND`] samples
    /// beyond it; `None` when even the median has fewer.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let n = s.len();
        let tail = TAILS
            .iter()
            .find(|&&p| beyond(n, p) >= MIN_BEYOND)
            .map(|&p| (p, percentile(&s, p)));
        Summary {
            n,
            p50: if n == 0 { f64::NAN } else { median_sorted(&s) },
            tail,
        }
    }

    /// One report line: `p50 …, p99 … (n = …)`.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.4} {unit}, p{p} {v:.4} {unit} (n = {})",
                self.p50, self.n
            ),
            None => format!(
                "p50 {:.4} {unit} (n = {}, no tail supported)",
                self.p50, self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median_sorted(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile_checked(&v, 99.0).is_err());
        assert_eq!(percentile_checked(&v, 90.0).unwrap(), 899.0);
        let w: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile_checked(&w, 99.0).unwrap(), 989.0);
        assert!(percentile_checked(&[], 50.0).is_err());
    }

    #[test]
    fn summary_picks_highest_supported_tail() {
        let at = |n: usize| Summary::of(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(at(10_000).tail.unwrap().0, 99.9);
        assert_eq!(at(1_000).tail.unwrap().0, 99.0);
        assert_eq!(at(999).tail.unwrap().0, 90.0);
        assert_eq!(at(100).tail.unwrap().0, 90.0);
        assert_eq!(at(99).tail.unwrap().0, 75.0);
        assert_eq!(at(20).tail.unwrap().0, 50.0);
        assert_eq!(at(19).tail, None);
        let s = at(1_000);
        assert_eq!(s.n, 1_000);
        assert!(s.describe("ms").contains("p99"));
        assert!(at(19).describe("ms").contains("no tail"));
    }

    #[test]
    fn order_does_not_matter() {
        let a = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, b);
        assert_eq!(a.p50, 3.0);
    }
}
