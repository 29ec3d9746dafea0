//! Distribution samplers used by the workload generator.
//!
//! Shared GPU-cluster traces have well-documented shapes: Poisson-ish
//! arrivals modulated by a diurnal cycle, heavy-tailed (log-normal)
//! job durations, and power-of-two GPU demands. This module
//! implements exactly the samplers those shapes need, from first principles.
//!
//! All samplers draw from a [`DetRng`], which is what the labelled streams
//! of [`crate::SeedStream`] hand out.

use crate::prng::DetRng;
use crate::rng::unit_uniform;

/// Samples `Exp(rate)` (mean `1/rate`) by inverse transform.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential(rng: &mut DetRng, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u = unit_uniform(rng);
    // u in [0,1); 1-u in (0,1] so ln is finite.
    -(1.0 - u).ln() / rate
}

/// Samples a standard normal via Box–Muller.
pub fn standard_normal(rng: &mut DetRng) -> f64 {
    // Draw u1 in (0,1] to keep ln finite.
    let u1 = 1.0 - unit_uniform(rng);
    let u2 = unit_uniform(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `Normal(mean, std_dev)`.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
pub fn normal(rng: &mut DetRng, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "std_dev must be nonnegative");
    mean + std_dev * standard_normal(rng)
}

/// Samples `LogNormal(mu, sigma)` — i.e. `exp(Normal(mu, sigma))`.
///
/// This is the canonical heavy-tailed model for ML job durations: most jobs
/// are minutes, a long tail runs for days.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn log_normal(rng: &mut DetRng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples a uniform f64 in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    assert!(lo < hi, "empty uniform range");
    lo + (hi - lo) * unit_uniform(rng)
}

/// Samples an index from a discrete distribution given by nonnegative
/// weights (they need not sum to 1).
///
/// # Panics
///
/// Panics if `weights` is empty, contains a negative value, or sums to zero.
pub fn weighted_index(rng: &mut DetRng, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weighted_index needs weights");
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "weights must be nonnegative"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let mut target = unit_uniform(rng) * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1 // numerical fallthrough lands on the final bucket
}

/// Bernoulli draw with probability `p` of `true`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn coin(rng: &mut DetRng, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
    unit_uniform(rng) < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;

    fn rng() -> crate::DetRng {
        SeedStream::new(1234).stream("dist-tests")
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} far from 2.0");
    }

    #[test]
    fn exponential_nonnegative() {
        let mut r = rng();
        assert!((0..1000).all(|_| exponential(&mut r, 3.0) >= 0.0));
    }

    #[test]
    fn normal_moments_close() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var.sqrt() - 3.0).abs() < 0.1);
    }

    #[test]
    fn log_normal_median_close() {
        let mut r = rng();
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| log_normal(&mut r, 2.0, 1.0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = samples[n / 2];
        // Median of LogNormal(mu, sigma) is exp(mu).
        assert!((median - 2.0f64.exp()).abs() / 2.0f64.exp() < 0.07);
    }

    #[test]
    fn uniform_in_range_and_spread() {
        let mut r = rng();
        let samples: Vec<f64> = (0..1000).map(|_| uniform(&mut r, 5.0, 6.0)).collect();
        assert!(samples.iter().all(|&x| (5.0..6.0).contains(&x)));
        let mean = samples.iter().sum::<f64>() / 1000.0;
        assert!((mean - 5.5).abs() < 0.05);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng();
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn coin_is_calibrated() {
        let mut r = rng();
        let heads = (0..10_000).filter(|_| coin(&mut r, 0.25)).count();
        assert!((heads as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        exponential(&mut rng(), 0.0);
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn weighted_index_rejects_empty() {
        weighted_index(&mut rng(), &[]);
    }
}
