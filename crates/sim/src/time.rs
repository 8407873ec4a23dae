//! Virtual time.
//!
//! The simulation measures time in seconds of simulated wall clock, stored as
//! `f64`. All arithmetic is deterministic because every evaluation order in
//! the simulator is deterministic; no host clock is ever consulted.
//!
//! [`VTime`] is a point on the virtual timeline, [`VDur`] a span between two
//! points. The distinction catches unit bugs at compile time (you cannot add
//! two instants, only an instant and a duration).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct VTime(pub f64);

/// A span of virtual time, in seconds. May never be negative (construction
/// clamps; subtraction that would underflow saturates to zero via
/// [`VDur::saturating_sub`], while `-` panics in debug builds on underflow).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct VDur(pub f64);

impl VTime {
    pub const ZERO: VTime = VTime(0.0);

    /// Seconds since simulation start.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: VTime) -> VTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// Span from `earlier` to `self`; zero if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: VTime) -> VDur {
        VDur((self.0 - earlier.0).max(0.0))
    }
}

impl VDur {
    pub const ZERO: VDur = VDur(0.0);

    /// Construct from seconds. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs(s: f64) -> VDur {
        VDur(s.max(0.0))
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: f64) -> VDur {
        VDur((ns * 1e-9).max(0.0))
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: f64) -> VDur {
        VDur((us * 1e-6).max(0.0))
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> VDur {
        VDur((ms * 1e-3).max(0.0))
    }

    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }

    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    #[inline]
    pub fn max(self, other: VDur) -> VDur {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    #[inline]
    pub fn min(self, other: VDur) -> VDur {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: VDur) -> VDur {
        VDur((self.0 - other.0).max(0.0))
    }

    /// Ratio `self / other`; returns 0 when `other` is zero.
    #[inline]
    pub fn ratio(self, other: VDur) -> f64 {
        if other.0 == 0.0 {
            0.0
        } else {
            self.0 / other.0
        }
    }
}

impl Add<VDur> for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VDur) -> VTime {
        VTime(self.0 + rhs.0)
    }
}

impl AddAssign<VDur> for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VDur) {
        self.0 += rhs.0;
    }
}

impl Sub<VTime> for VTime {
    type Output = VDur;
    #[inline]
    fn sub(self, rhs: VTime) -> VDur {
        debug_assert!(
            self.0 >= rhs.0,
            "VTime subtraction underflow: {} - {}",
            self.0,
            rhs.0
        );
        VDur((self.0 - rhs.0).max(0.0))
    }
}

impl Add for VDur {
    type Output = VDur;
    #[inline]
    fn add(self, rhs: VDur) -> VDur {
        VDur(self.0 + rhs.0)
    }
}

impl AddAssign for VDur {
    #[inline]
    fn add_assign(&mut self, rhs: VDur) {
        self.0 += rhs.0;
    }
}

impl Sub for VDur {
    type Output = VDur;
    #[inline]
    fn sub(self, rhs: VDur) -> VDur {
        debug_assert!(
            self.0 >= rhs.0,
            "VDur subtraction underflow: {} - {}",
            self.0,
            rhs.0
        );
        VDur((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for VDur {
    #[inline]
    fn sub_assign(&mut self, rhs: VDur) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for VDur {
    type Output = VDur;
    #[inline]
    fn mul(self, rhs: f64) -> VDur {
        VDur((self.0 * rhs).max(0.0))
    }
}

impl Div<f64> for VDur {
    type Output = VDur;
    #[inline]
    fn div(self, rhs: f64) -> VDur {
        VDur((self.0 / rhs).max(0.0))
    }
}

impl Sum for VDur {
    fn sum<I: Iterator<Item = VDur>>(iter: I) -> VDur {
        iter.fold(VDur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for VDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3}us", s * 1e6)
        } else {
            write!(f, "{:.1}ns", s * 1e9)
        }
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_plus_duration() {
        let t = VTime(1.0) + VDur(0.5);
        assert_eq!(t, VTime(1.5));
    }

    #[test]
    fn instant_difference_is_duration() {
        assert_eq!(VTime(2.0) - VTime(0.5), VDur(1.5));
    }

    #[test]
    fn since_clamps_future() {
        assert_eq!(VTime(1.0).since(VTime(2.0)), VDur::ZERO);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(VDur(1.0).saturating_sub(VDur(2.0)), VDur::ZERO);
        assert_eq!(VDur(2.0).saturating_sub(VDur(0.5)), VDur(1.5));
    }

    #[test]
    fn conversions_round_trip() {
        let d = VDur::from_nanos(1500.0);
        assert!((d.nanos() - 1500.0).abs() < 1e-9);
        assert!((VDur::from_millis(2.0).secs() - 0.002).abs() < 1e-12);
        assert!((VDur::from_micros(3.0).secs() - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn negative_construction_clamps() {
        assert_eq!(VDur::from_secs(-1.0), VDur::ZERO);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(VDur(1.0).ratio(VDur::ZERO), 0.0);
        assert!((VDur(1.0).ratio(VDur(4.0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_min() {
        assert_eq!(VTime(1.0).max(VTime(2.0)), VTime(2.0));
        assert_eq!(VTime(1.0).min(VTime(2.0)), VTime(1.0));
        assert_eq!(VDur(1.0).max(VDur(2.0)), VDur(2.0));
        assert_eq!(VDur(1.0).min(VDur(2.0)), VDur(1.0));
    }

    #[test]
    fn sum_of_durations() {
        let total: VDur = [VDur(0.25); 4].into_iter().sum();
        assert!((total.secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", VDur(2.5)), "2.500s");
        assert_eq!(format!("{}", VDur(2.5e-3)), "2.500ms");
        assert_eq!(format!("{}", VDur(2.5e-6)), "2.500us");
        assert_eq!(format!("{}", VDur(25e-9)), "25.0ns");
    }
}
