//! Time-weighted utilization accounting (experiments F2, F4, T1).

/// Tracks utilization of a capacity-bounded resource pool over simulated time.
///
/// Feed it `acquire`/`release` deltas as scheduling events happen; read back
/// the mean busy fraction. The busy level is a right-continuous step function
/// of time, integrated as it changes: the tracker keeps its last change-point
/// and the area before it, so the mean is exact, not sampled from periodic
/// readings, and the tracker's size does not grow with the run. This is the
/// object behind every "cluster GPU utilization" number in the experiment
/// suite.
///
/// # Example
///
/// ```
/// use tacc_metrics::UtilizationTracker;
/// let mut u = UtilizationTracker::new(10.0);
/// u.acquire(0.0, 5.0);
/// u.release(50.0, 5.0);
/// // Busy 5/10 for 50s then idle for 50s => 25% over [0, 100).
/// assert!((u.mean_utilization(100.0) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTracker {
    capacity: f64,
    /// The busy level since `since`.
    in_use: f64,
    /// The last change-point: a change at the same instant overwrites its
    /// level, and a change to the level already in effect is none.
    since: f64,
    /// Busy units × seconds over `[0, since)`, summed change-point by
    /// change-point in time order.
    area: f64,
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
            since: 0.0,
            area: 0.0,
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
    /// Panics if this would exceed capacity (beyond f64 rounding slack), or
    /// if `t` precedes the last change-point.
    pub fn acquire(&mut self, t: f64, amount: f64) {
        assert!(amount >= 0.0, "negative acquire");
        assert!(
            self.in_use + amount <= self.capacity + 1e-9,
            "acquire overflows capacity: {} + {} > {}",
            self.in_use,
            amount,
            self.capacity
        );
        self.step(t, self.in_use + amount);
    }

    /// Returns `amount` units to the pool at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if more is released than is in use (beyond rounding slack),
    /// or if `t` precedes the last change-point.
    pub fn release(&mut self, t: f64, amount: f64) {
        assert!(amount >= 0.0, "negative release");
        assert!(
            self.in_use - amount >= -1e-9,
            "release underflows: {} - {}",
            self.in_use,
            amount
        );
        self.step(t, (self.in_use - amount).max(0.0));
    }

    /// Moves the busy level to `in_use` at time `t`.
    fn step(&mut self, t: f64, in_use: f64) {
        assert!(
            t >= self.since,
            "time {t} precedes last change-point {}",
            self.since
        );
        if t > self.since && in_use != self.in_use {
            self.area += self.in_use * (t - self.since);
            self.since = t;
        }
        self.in_use = in_use;
    }

    /// Mean busy fraction (0..=1) over `[0, until)`; `until` is at or
    /// after the last change-point.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last change-point or is not positive.
    pub fn mean_utilization(&self, until: f64) -> f64 {
        assert!(
            until >= self.since && until > 0.0,
            "averaging window [0, {until}) ends before the last change-point {}",
            self.since
        );
        (self.area + self.in_use * (until - self.since)) / until / self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accounts_busy_time() {
        let mut u = UtilizationTracker::new(8.0);
        u.acquire(0.0, 8.0);
        u.release(25.0, 4.0);
        u.release(75.0, 4.0);
        // 8 busy for 25s, 4 busy for 50s, 0 for 25s => (200+200)/8/100 = 0.5
        assert!((u.mean_utilization(100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracker_coalesces_and_overwrites() {
        let mut u = UtilizationTracker::new(8.0);
        u.acquire(0.0, 1.0);
        u.acquire(1.0, 0.0); // no change: not a change-point
        assert_eq!(u.since, 0.0);
        u.acquire(2.0, 4.0);
        u.release(2.0, 2.0); // same instant: overwrites the level there
        assert_eq!((u.since, u.in_use, u.area), (2.0, 3.0, 2.0));
        // 1 busy for 2s, then 3 for 2s => 8 / 4 / 8.
        assert_eq!(u.mean_utilization(4.0), 0.25);
    }

    #[test]
    fn tracker_mean_up_to_any_horizon() {
        let mut u = UtilizationTracker::new(4.0);
        // Idle until the first change-point: the leading zero counts.
        u.acquire(10.0, 2.0);
        u.acquire(20.0, 2.0);
        // Up to the last change-point only the time before it counts.
        assert!((u.mean_utilization(20.0) - 0.25).abs() < 1e-12);
        // 0 for 10s, 2 for 10s, 4 for 20s => 100 / 40 / 4.
        assert!((u.mean_utilization(40.0) - 0.625).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn tracker_rejects_time_travel() {
        let mut u = UtilizationTracker::new(2.0);
        u.acquire(5.0, 1.0);
        u.release(4.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn tracker_rejects_overcommit() {
        let mut u = UtilizationTracker::new(2.0);
        u.acquire(0.0, 3.0);
    }
}
