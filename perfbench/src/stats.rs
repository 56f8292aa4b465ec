//! Sample summaries: nearest-rank percentiles that carry their sample
//! count, and the highest reportable tail percentile.

/// The tail percentiles considered for a report, ascending.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A sorted sample.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `values` into a distribution. NaNs are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Dist {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in a sample");
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the
    /// smallest sample with at least `p`% of the sample at or below it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(self.sorted[rank(n, p) - 1])
    }

    /// The median (nearest rank).
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The highest percentile of the ladder 50/90/99/99.9/99.99 that
    /// has at least ten samples beyond it, with its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.sorted.len())?;
        Some((p, self.percentile(p)?))
    }

    /// The largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

/// 1-based nearest rank of the `p`-th percentile in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon absorbs the binary rounding of decimal percentiles
    // (99.9 · 10000 / 100 must rank 9990, not 9991).
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder with at least ten of `n`
/// samples strictly beyond its rank (`None` below eleven samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
}

/// Median of a set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 50.0)
}

/// The fast quartile of repeated timings of identical work: the
/// nearest-rank 25th percentile. On a shared host, interference only
/// ever slows identical work down, so the fast quartile tracks the
/// code's cost and moves little with the neighbours' load.
pub fn fast_quartile(times: &[f64]) -> f64 {
    quantile(times, 25.0)
}

fn quantile(values: &[f64], p: f64) -> f64 {
    Dist::new(values.to_vec())
        .percentile(p)
        .expect("quantile of an empty set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.len(), 100);
        assert_eq!(d.p50(), Some(50.0));
        assert_eq!(d.percentile(99.0), Some(99.0));
        assert_eq!(d.percentile(100.0), Some(100.0));
        assert_eq!(d.percentile(0.5), Some(1.0));
        let odd = Dist::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.p50(), Some(2.0));
        assert_eq!(Dist::new(Vec::new()).p50(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.tail(), Some((99.0, 990.0)));
    }

    #[test]
    fn median_and_fast_quartile_of_repeats() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
        assert_eq!(
            fast_quartile(&[8.0, 1.0, 2.0, 9.0, 5.0, 7.0, 3.0, 4.0]),
            2.0
        );
    }
}
