//! Empirical CDFs and histograms for trace characterization (experiment F1).

/// An empirical cumulative distribution function over f64 samples.
///
/// Built once, then queried for `F(x)` or for quantiles.
///
/// # Example
///
/// ```
/// use tacc_metrics::Cdf;
/// let cdf = Cdf::from_samples(&[1.0, 2.0, 2.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
/// assert_eq!(cdf.quantile(1.0), 4.0);
/// // Between ranks the quantile interpolates: 3.4 is not a sample.
/// assert!((cdf.quantile(0.9) - 3.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from an unordered sample.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        Cdf { sorted }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (the empirical `F(x)`); 0 for an empty CDF.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
    /// closest ranks: the value at fractional rank `q * (len - 1)` of the
    /// sorted sample, which need not be a sample itself.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        crate::stats::percentile_of_sorted(&self.sorted, q * 100.0)
    }
}

/// One bucket of a [`Histogram`]: the half-open range `[lo, hi)` and its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket.
    pub lo: f64,
    /// Exclusive upper bound of the bucket.
    pub hi: f64,
    /// Number of samples that fell in `[lo, hi)`.
    pub count: u64,
}

/// A fixed-bucket histogram of equal-width buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `lo >= hi`.
    pub fn linear(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(lo < hi, "histogram range must be nonempty");
        let width = (hi - lo) / buckets as f64;
        let edges = (0..=buckets).map(|i| lo + width * i as f64).collect();
        Histogram {
            edges,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample. Samples below/above the range are counted in
    /// dedicated under/overflow tallies rather than dropped.
    pub fn record(&mut self, x: f64) {
        let first = self.edges[0];
        let last = *self.edges.last().expect("edges nonempty");
        if x < first {
            self.underflow += 1;
        } else if x >= last {
            self.overflow += 1;
        } else {
            // partition_point returns the first edge > x; bucket is that - 1.
            let idx = self.edges.partition_point(|&e| e <= x) - 1;
            self.counts[idx] += 1;
        }
    }

    /// Total samples recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Samples that fell below the first bucket.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at or above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterates over the buckets in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = HistogramBucket> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &count)| HistogramBucket {
                lo: self.edges[i],
                hi: self.edges[i + 1],
                count,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fraction_and_quantile() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(3.0), 0.6);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
        assert_eq!(cdf.quantile(0.5), 3.0);
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    fn linear_histogram_buckets() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 55.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        let counts: Vec<u64> = h.buckets().map(|b| b.count).collect();
        assert_eq!(counts, vec![2, 1, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn linear_histogram_rejects_bad_range() {
        let _ = Histogram::linear(5.0, 5.0, 3);
    }
}
