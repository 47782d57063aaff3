//! Virtual time.
//!
//! The whole repository measures "execution time" on a virtual axis: each
//! simulated cluster node owns a clock that is advanced by cost models
//! (CPU work / node speed, disk block transfers, network messages). Virtual
//! time is represented as `f64` seconds wrapped in newtypes so that instants
//! ([`SimTime`]) and durations ([`SimDuration`]) cannot be confused.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point on the virtual time axis, in seconds since the simulation epoch.
///
/// `SimTime` is totally ordered (NaN is forbidden by construction: every
/// constructor asserts finiteness), so it can be used directly as a Lamport
/// timestamp for the message-passing layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of virtual time, in seconds. Always non-negative and finite.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `secs` seconds past the epoch.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Lamport merge: the later of two instants.
    #[must_use]
    pub fn merge(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid SimDuration: {secs}"
        );
        SimDuration(secs)
    }

    /// Creates a duration of `ms` milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a duration of `us` microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Creates a duration of `ns` nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Self::from_secs(ns * 1e-9)
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Scales the duration by a non-negative factor (e.g. a jitter multiplier
    /// or an inverse speed factor).
    #[must_use]
    pub fn scale(self, factor: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * factor)
    }
}

impl Eq for SimTime {}
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Constructors guarantee finiteness, so partial_cmp never fails.
        self.0.partial_cmp(&other.0).expect("SimTime is finite")
    }
}
impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}
impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("SimDuration is finite")
    }
}
impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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
        self.since(rhs)
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

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        self.scale(rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        assert!(rhs > 0.0, "division of SimDuration by non-positive {rhs}");
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_secs(1.5) + SimDuration::from_secs(0.5);
        assert_eq!(t, SimTime::from_secs(2.0));
    }

    #[test]
    fn merge_takes_later() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.merge(b), b);
        assert_eq!(b.merge(a), b);
        assert_eq!(a.merge(a), a);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(b.since(a), SimDuration::from_secs(2.0));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_sub_saturates() {
        let d = SimDuration::from_secs(1.0) - SimDuration::from_secs(5.0);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1.0), SimDuration::from_secs(1e-3));
        assert_eq!(SimDuration::from_micros(1.0), SimDuration::from_secs(1e-6));
        assert_eq!(SimDuration::from_nanos(1.0), SimDuration::from_secs(1e-9));
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_secs(2.0);
        assert_eq!(d.scale(2.5), SimDuration::from_secs(5.0));
        assert_eq!(d * 0.5, SimDuration::from_secs(1.0));
        assert_eq!(d / 4.0, SimDuration::from_secs(0.5));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::from_secs(1.0),
                SimTime::from_secs(2.0),
                SimTime::from_secs(3.0)
            ]
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total, SimDuration::from_secs(10.0));
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid SimDuration")]
    fn nan_duration_rejected() {
        let _ = SimDuration::from_secs(f64::NAN);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_secs(1.5).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(2.25).to_string(), "2.250ms");
        assert_eq!(SimDuration::from_micros(7.0).to_string(), "7.000us");
    }
}
