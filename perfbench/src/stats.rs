//! Order statistics. Every reported figure is a median over laps; latency
//! percentiles are nearest-rank, taken inside a lap and then medianed.

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. `0.0` for an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Laps with fewer samples than this have no percentile of their own; their
/// samples are pooled across the run instead (`svc-recover`: one per lap).
const MIN_SAMPLES_PER_LAP: usize = 10;

/// Median over laps of each lap's nearest-rank `q` quantile, or the pooled
/// quantile when laps are too short to have one.
pub fn quantile_over_laps(laps: &[&[f64]], q: f64) -> f64 {
    if laps.iter().any(|lap| lap.len() < MIN_SAMPLES_PER_LAP) {
        let pooled: Vec<f64> = laps.iter().flat_map(|lap| lap.iter().copied()).collect();
        return nearest_rank(&pooled, q);
    }
    let per_lap: Vec<f64> = laps.iter().map(|lap| nearest_rank(lap, q)).collect();
    median(&per_lap)
}

/// Standard deviation ÷ mean (population form); `0.0` when undefined.
pub fn coefficient_of_variation(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    var.sqrt() / mean
}

/// FNV-1a, 64 bit: a transition log is compared by this hash so that the
/// reference lap's 20 MB string need not stay resident.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.99), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        // Order of arrival does not matter.
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_middle_two() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_are_taken_per_lap_then_medianed() {
        let fast: Vec<f64> = (1..=10).map(f64::from).collect();
        let slow: Vec<f64> = (1..=10).map(|x| f64::from(x) * 10.0).collect();
        let mid: Vec<f64> = (1..=10).map(|x| f64::from(x) * 2.0).collect();
        let laps: Vec<&[f64]> = vec![&fast, &slow, &mid];
        // Per-lap p90s are 9, 90 and 18; one slow lap does not move the median.
        assert_eq!(quantile_over_laps(&laps, 0.9), 18.0);
    }

    #[test]
    fn single_sample_laps_are_pooled() {
        let laps: Vec<Vec<f64>> = (1..=20).map(|x| vec![f64::from(x)]).collect();
        let refs: Vec<&[f64]> = laps.iter().map(Vec::as_slice).collect();
        assert_eq!(quantile_over_laps(&refs, 0.5), 10.0);
        assert_eq!(quantile_over_laps(&refs, 0.9), 18.0);
    }

    #[test]
    fn cv_of_a_constant_is_zero() {
        assert_eq!(coefficient_of_variation(&[2.0, 2.0, 2.0]), 0.0);
        let cv = coefficient_of_variation(&[9.0, 11.0]);
        assert!((cv - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_its_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
