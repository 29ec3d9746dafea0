//! Summary statistics over f64 samples.

/// Linear-interpolated percentile of a sample, `p` in `[0, 100]`.
///
/// Uses the standard "linear interpolation between closest ranks" definition
/// (the same definition NumPy's default uses), so `percentile(&v, 50.0)` is
/// the median.
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// let v = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(tacc_metrics::percentile(&v, 0.0), 1.0);
/// assert_eq!(tacc_metrics::percentile(&v, 100.0), 4.0);
/// assert_eq!(tacc_metrics::percentile(&v, 50.0), 2.5);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0,100]");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_of_sorted(&sorted, p)
}

/// Percentile over an already ascending-sorted slice (no copy, no sort).
pub(crate) fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Immutable summary of a sample: count, mean, population std-dev, min/max
/// and the percentiles experiments report (p50, p90, p95, p99).
///
/// Built once from a sample with [`Summary::from_samples`]; all accessors are
/// O(1) afterwards. The default is the summary of no samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
    p50: f64,
    p90: f64,
    p95: f64,
    p99: f64,
}

impl Summary {
    /// Computes a summary of `samples`.
    ///
    /// Returns an all-zero summary when `samples` is empty, so callers
    /// reporting on an experiment that produced no events (e.g. zero
    /// preemptions) don't need a special case.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Summary {
            count: sorted.len(),
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: *sorted.last().expect("nonempty"),
            p50: percentile_of_sorted(&sorted, 50.0),
            p90: percentile_of_sorted(&sorted, 90.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            p99: percentile_of_sorted(&sorted, 99.0),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean (0 for an empty sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.p50
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.p90
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.p95
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.p99
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints() {
        let v = vec![5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![0.0, 10.0];
        assert!((percentile(&v, 25.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 75.0) - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.p50(), 2.5);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99(), 0.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.p50(), 7.0);
        assert_eq!(s.p99(), 7.0);
        assert_eq!(s.std_dev(), 0.0);
    }
}
