//! Virtual time: typed seconds that cannot be confused with wall-clock time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, measured in seconds since simulation start.
///
/// `SimTime` is a newtype over `f64` seconds ([C-NEWTYPE]): arithmetic with
/// plain floats or with wall-clock types is a compile error, which prevents
/// an entire class of unit bugs in scheduling code.
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant `secs` seconds after the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid sim time {secs}");
        SimTime(secs)
    }

    /// Creates an instant `hours` hours after the epoch.
    pub fn from_hours(hours: f64) -> Self {
        SimTime::from_secs(hours * 3600.0)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Hours since the epoch.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Duration from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: {earlier} is after {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

// SimTime intentionally implements Eq/Ord via a helper rather than deriving:
// the inner f64 is guaranteed finite by construction, so total ordering is
// well-defined.
impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is always finite")
    }
}

/// A span of simulated time in seconds. Always nonnegative and finite.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration(secs)
    }

    /// Creates a duration of `hours` hours.
    pub fn from_hours(hours: f64) -> Self {
        SimDuration::from_secs(hours * 3600.0)
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Length in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is longer.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }

    /// The longer of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Eq for SimDuration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is always finite")
    }
}

/// A monotonic virtual clock.
///
/// The simulation driver advances the clock to each event's timestamp before
/// handling it; attempts to move backwards panic, surfacing ordering bugs at
/// the moment they happen instead of as corrupted results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// Creates a clock at the epoch.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t`.
    ///
    /// Advancing to the current time is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "clock moved backwards: {} -> {}",
            self.now,
            t
        );
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t, SimTime::from_secs(15.0));
        assert_eq!(t - SimTime::from_secs(10.0), SimDuration::from_secs(5.0));
        assert_eq!(SimTime::from_hours(1.0).as_secs(), 3600.0);
        assert_eq!(SimDuration::from_secs(172_800.0).as_hours(), 48.0);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "is after")]
    fn duration_since_rejects_reversed() {
        let _ = SimTime::from_secs(1.0).duration_since(SimTime::from_secs(2.0));
    }

    #[test]
    fn duration_ops() {
        let d = SimDuration::from_secs(120.0);
        assert_eq!(d.as_secs(), 120.0);
        assert_eq!((d * 2.0).as_secs(), 240.0);
        assert_eq!((d / 4.0).as_secs(), 30.0);
        assert_eq!(
            d.saturating_sub(SimDuration::from_secs(300.0)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(5.0).max(SimDuration::from_secs(3.0)),
            SimDuration::from_secs(5.0)
        );
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_secs(3.0));
        c.advance_to(SimTime::from_secs(3.0)); // same time OK
        assert_eq!(c.now(), SimTime::from_secs(3.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_reversal() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_secs(3.0));
        c.advance_to(SimTime::from_secs(2.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::from_secs(1.0));
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }
}
