//! Fairness indices for multi-tenant experiments (F3).

/// Jain's fairness index over per-tenant allocations.
///
/// Returns a value in `(0, 1]`: 1.0 when every tenant receives an equal
/// share, approaching `1/n` when a single tenant receives everything.
/// Returns 1.0 for an empty input or an all-zero allocation (a vacuously
/// fair outcome), so load sweeps that include an idle point don't divide
/// by zero.
///
/// # Example
///
/// ```
/// assert_eq!(tacc_metrics::jain_index(&[1.0, 1.0, 1.0]), 1.0);
/// let skewed = tacc_metrics::jain_index(&[10.0, 0.0, 0.0]);
/// assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (allocations.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_is_one() {
        assert!((jain_index(&[5.0; 7]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let idx = jain_index(&[0.0, 0.0, 0.0, 4.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_degenerate_inputs() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = jain_index(&[1.0, 2.0, 3.0]);
        let b = jain_index(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
