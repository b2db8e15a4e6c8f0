//! Integer simulation time.
//!
//! All scheduling decisions in the paper are expressed in integer "time
//! units" (see Fig. 2: task durations 1..12, Gantt charts on a 0..20 axis).
//! Using integers keeps the discrete-event simulation exactly reproducible:
//! there is no floating-point drift in event ordering.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in abstract ticks since simulation
/// start.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Adding a
/// [`SimDuration`] produces a later `SimTime`.
///
/// # Examples
///
/// ```
/// use gridsched_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_ticks(5);
/// assert_eq!(t.ticks(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in ticks.
///
/// # Examples
///
/// ```
/// use gridsched_sim::time::SimDuration;
///
/// let d = SimDuration::from_ticks(3) + SimDuration::from_ticks(4);
/// assert_eq!(d.ticks(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "unreachable" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the duration elapsed since `earlier`, or zero if `earlier`
    /// is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[must_use]
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    #[inline]
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One tick.
    pub const TICK: SimDuration = SimDuration(1);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whether the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by an integer factor, saturating on overflow.
    #[must_use]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales the duration by a non-negative real factor, rounding up to the
    /// nearest whole tick ("nearest not-smaller integer", as the paper rounds
    /// all derived times).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, NaN or infinite.
    #[must_use]
    #[inline]
    pub fn scale_ceil(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale_ceil: factor must be finite and non-negative, got {factor}"
        );
        SimDuration(ceil_u64(self.0 as f64 * factor))
    }

    /// Returns the ratio of two durations as `f64`.
    ///
    /// Returns 0.0 when `other` is zero.
    #[must_use]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

/// `x.ceil() as u64`, without the floating-point `ceil`.
///
/// Baseline x86-64 has no rounding instruction, so `f64::ceil` is a
/// library call; the derived-time and cost roundings sit on the
/// scheduler's hottest path. The truncating cast saturates exactly as the
/// `as` cast of the ceiling does (NaN and negatives to 0, anything at or
/// above 2^64 to `u64::MAX`), and it loses no fraction above 2^53, where
/// every `f64` is an integer. So adding one exactly when the
/// truncation fell short of `x` reproduces `x.ceil() as u64` for every
/// `f64`.
#[must_use]
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime addition overflowed"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflowed"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration addition overflowed"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflowed"),
        )
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}d", self.0)
    }
}

impl From<u64> for SimDuration {
    fn from(ticks: u64) -> Self {
        SimDuration(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_and_arithmetic() {
        let a = SimTime::from_ticks(3);
        let b = a + SimDuration::from_ticks(4);
        assert_eq!(b.ticks(), 7);
        assert!(b > a);
        assert_eq!(b.since(a), SimDuration::from_ticks(4));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_ticks(3);
        let b = SimTime::from_ticks(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_ticks(6));
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_reversed() {
        let a = SimTime::from_ticks(3);
        let b = SimTime::from_ticks(9);
        let _ = a.since(b);
    }

    #[test]
    fn scale_ceil_rounds_up() {
        let d = SimDuration::from_ticks(10);
        assert_eq!(d.scale_ceil(0.33).ticks(), 4); // 3.3 -> 4
        assert_eq!(d.scale_ceil(1.0).ticks(), 10);
        assert_eq!(d.scale_ceil(0.0).ticks(), 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scale_ceil_rejects_nan() {
        let _ = SimDuration::from_ticks(1).scale_ceil(f64::NAN);
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_ticks(3);
        let b = SimDuration::from_ticks(4);
        assert!((a.ratio(b) - 0.75).abs() < 1e-12);
        assert_eq!(a.ratio(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3].into_iter().map(SimDuration::from_ticks).sum();
        assert_eq!(total.ticks(), 6);
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert_eq!(SimTime::from_ticks(5).to_string(), "t5");
        assert_eq!(SimDuration::from_ticks(5).to_string(), "5d");
    }

    #[test]
    fn max_of_picks_later() {
        let a = SimTime::from_ticks(2);
        let b = SimTime::from_ticks(7);
        assert_eq!(a.max_of(b), b);
        assert_eq!(b.max_of(a), b);
    }
}
