//! Simulated time: integer-nanosecond timestamps and durations.
//!
//! The simulator keeps time as unsigned integer nanoseconds so that event
//! ordering is exact and runs are bit-for-bit reproducible. Floating-point
//! seconds are used only at the edges (rates, availabilities, reporting);
//! conversions round to the nearest nanosecond.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// Number of nanoseconds in one second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime seconds must be finite and non-negative, got {secs}"
        );
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// The instant as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition that saturates at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds, saturating at
    /// [`SimDuration::MAX`] (a "practically forever" horizon such as
    /// `from_secs(1 << 40)` must not wrap into a short one).
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(NANOS_PER_SEC))
    }

    /// Builds a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// A wall-clock [`Duration`], exactly: its whole nanoseconds, with
    /// no float round trip. Saturates at [`SimDuration::MAX`] (about
    /// 584 years).
    pub const fn from_duration(d: Duration) -> Self {
        SimDuration(
            d.as_secs()
                .saturating_mul(NANOS_PER_SEC)
                .saturating_add(d.subsec_nanos() as u64),
        )
    }

    /// The duration as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative factor, saturating.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(scaled.round() as u64)
        }
    }

    /// Saturating duration addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulation ran past u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow: rhs is later than lhs"),
        )
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trips_within_a_nanosecond() {
        for &s in &[0.0, 0.001, 1.0, 3.25, 1e4] {
            let t = SimTime::from_secs_f64(s);
            assert!((t.as_secs_f64() - s).abs() < 1e-9, "round trip {s}");
        }
    }

    #[test]
    fn arithmetic_is_exact_in_nanos() {
        let t = SimTime::from_nanos(5);
        let d = SimDuration::from_nanos(7);
        assert_eq!((t + d).as_nanos(), 12);
        assert_eq!(((t + d) - t).as_nanos(), 7);
    }

    #[test]
    fn ordering_follows_nanos() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs_f64(1.0)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
        // 2^40 s is past u64 nanoseconds: it must clamp, not wrap to
        // ~1.1e10 s.
        assert_eq!(SimDuration::from_secs(1 << 40), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs(u64::MAX / NANOS_PER_SEC).as_nanos(),
            u64::MAX / NANOS_PER_SEC * NANOS_PER_SEC
        );
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn clock_overflow_still_panics() {
        let _ = SimTime::MAX + SimDuration::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    /// The integer conversion is `Duration::as_nanos` exactly, and
    /// within a nanosecond of the float round trip it replaces.
    #[test]
    fn durations_convert_to_their_exact_nanoseconds() {
        let spans = [
            Duration::ZERO,
            Duration::from_nanos(1),
            Duration::from_nanos(999_999_999),
            Duration::new(3, 141_592_653),
            Duration::new(86_400 * 365, 7),
            Duration::from_secs_f64(0.123_456_789),
        ];
        for d in spans {
            let exact = SimDuration::from_duration(d).as_nanos();
            assert_eq!(u128::from(exact), d.as_nanos(), "{d:?}");
            let rounded = SimDuration::from_secs_f64(d.as_secs_f64()).as_nanos();
            assert!(exact.abs_diff(rounded) <= 1, "{d:?}: {exact} vs {rounded}");
        }
        assert_eq!(SimDuration::from_duration(Duration::MAX), SimDuration::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.5)), "1.500000");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250000");
    }
}
