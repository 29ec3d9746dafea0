//! Time-weighted series for utilization accounting (experiments F2, F4, T1).

/// A right-continuous step function of time: the value set at time `t`
/// holds until the next sample.
///
/// Used to record quantities like "GPUs busy" that change only at discrete
/// simulation events; the time-weighted mean over a window is then exact,
/// not an approximation from periodic sampling.
///
/// # Example
///
/// ```
/// use tacc_metrics::StepSeries;
/// let mut s = StepSeries::new();
/// s.set(0.0, 4.0);
/// s.set(10.0, 8.0);
/// // 4.0 for 10s then 8.0 for 10s => mean 6.0 over [0, 20).
/// assert!((s.time_weighted_mean(0.0, 20.0) - 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepSeries {
    /// (time, value) change-points, strictly increasing in time.
    points: Vec<(f64, f64)>,
}

impl StepSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        StepSeries { points: Vec::new() }
    }

    /// Records that the value becomes `value` at time `t`.
    ///
    /// Setting the same time twice overwrites the previous value at that
    /// time; consecutive equal values are coalesced.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last recorded change-point.
    pub fn set(&mut self, t: f64, value: f64) {
        if let Some(&mut (last_t, ref mut last_v)) = self.points.last_mut() {
            assert!(
                t >= last_t,
                "StepSeries::set time {t} precedes last change-point {last_t}"
            );
            if t == last_t {
                *last_v = value;
                return;
            }
            if *last_v == value {
                return; // coalesce no-op changes
            }
        }
        self.points.push((t, value));
    }

    /// Number of retained change-points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no change-point has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value in effect at time `t` (`None` before the first change-point).
    fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].1)
        }
    }

    /// Exact time-weighted mean over the window `[from, to)`.
    ///
    /// Time before the first change-point contributes value 0.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn time_weighted_mean(&self, from: f64, to: f64) -> f64 {
        assert!(from < to, "empty averaging window [{from}, {to})");
        let mut acc = 0.0;
        let mut cursor = from;
        let mut current = self.value_at(from).unwrap_or(0.0);
        let start = self.points.partition_point(|&(pt, _)| pt <= from);
        for &(pt, v) in &self.points[start..] {
            if pt >= to {
                break;
            }
            acc += current * (pt - cursor);
            cursor = pt;
            current = v;
        }
        acc += current * (to - cursor);
        acc / (to - from)
    }

    /// Iterates over the raw `(time, value)` change-points.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().copied()
    }
}

/// Tracks utilization of a capacity-bounded resource pool over simulated time.
///
/// Feed it `acquire`/`release` deltas as scheduling events happen; read back
/// the busy-fraction series and window means. This is the object behind every
/// "cluster GPU utilization" number in the experiment suite.
///
/// # Example
///
/// ```
/// use tacc_metrics::UtilizationTracker;
/// let mut u = UtilizationTracker::new(10.0);
/// u.acquire(0.0, 5.0);
/// u.release(50.0, 5.0);
/// // Busy 5/10 for 50s then idle for 50s => 25% over [0, 100).
/// assert!((u.mean_utilization(0.0, 100.0) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTracker {
    capacity: f64,
    in_use: f64,
    series: StepSeries,
}

impl UtilizationTracker {
    /// Creates a tracker for a pool with the given total capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        UtilizationTracker {
            capacity,
            in_use: 0.0,
            series: StepSeries::new(),
        }
    }

    /// Total capacity of the pool.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Marks `amount` additional units busy at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if this would exceed capacity (beyond f64 rounding slack).
    pub fn acquire(&mut self, t: f64, amount: f64) {
        assert!(amount >= 0.0, "negative acquire");
        assert!(
            self.in_use + amount <= self.capacity + 1e-9,
            "acquire overflows capacity: {} + {} > {}",
            self.in_use,
            amount,
            self.capacity
        );
        self.in_use += amount;
        self.series.set(t, self.in_use);
    }

    /// Returns `amount` units to the pool at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if more is released than is in use (beyond rounding slack).
    pub fn release(&mut self, t: f64, amount: f64) {
        assert!(amount >= 0.0, "negative release");
        assert!(
            self.in_use - amount >= -1e-9,
            "release underflows: {} - {}",
            self.in_use,
            amount
        );
        self.in_use = (self.in_use - amount).max(0.0);
        self.series.set(t, self.in_use);
    }

    /// Mean busy fraction (0..=1) over `[from, to)`.
    pub fn mean_utilization(&self, from: f64, to: f64) -> f64 {
        self.series.time_weighted_mean(from, to) / self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_series_value_lookup() {
        let mut s = StepSeries::new();
        assert_eq!(s.value_at(5.0), None);
        s.set(1.0, 10.0);
        s.set(3.0, 20.0);
        assert_eq!(s.value_at(0.5), None);
        assert_eq!(s.value_at(1.0), Some(10.0));
        assert_eq!(s.value_at(2.9), Some(10.0));
        assert_eq!(s.value_at(3.0), Some(20.0));
        assert_eq!(s.value_at(99.0), Some(20.0));
    }

    #[test]
    fn step_series_coalesces_and_overwrites() {
        let mut s = StepSeries::new();
        s.set(0.0, 1.0);
        s.set(1.0, 1.0); // coalesced away
        assert_eq!(s.len(), 1);
        s.set(2.0, 5.0);
        s.set(2.0, 7.0); // overwrite at same instant
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(2.0), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn step_series_rejects_time_travel() {
        let mut s = StepSeries::new();
        s.set(5.0, 1.0);
        s.set(4.0, 2.0);
    }

    #[test]
    fn time_weighted_mean_partial_window() {
        let mut s = StepSeries::new();
        s.set(0.0, 2.0);
        s.set(10.0, 4.0);
        s.set(20.0, 0.0);
        // Window [5, 15): 2.0 for 5s then 4.0 for 5s => 3.0.
        assert!((s.time_weighted_mean(5.0, 15.0) - 3.0).abs() < 1e-12);
        // Window entirely after final point.
        assert!((s.time_weighted_mean(30.0, 40.0) - 0.0).abs() < 1e-12);
        // Window before the first point counts as zero.
        let mut late = StepSeries::new();
        late.set(10.0, 6.0);
        assert!((late.time_weighted_mean(0.0, 20.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_accounts_busy_time() {
        let mut u = UtilizationTracker::new(8.0);
        u.acquire(0.0, 8.0);
        u.release(25.0, 4.0);
        u.release(75.0, 4.0);
        // 8 busy for 25s, 4 busy for 50s, 0 for 25s => (200+200)/8/100 = 0.5
        assert!((u.mean_utilization(0.0, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn tracker_rejects_overcommit() {
        let mut u = UtilizationTracker::new(2.0);
        u.acquire(0.0, 3.0);
    }
}
