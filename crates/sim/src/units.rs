//! Byte quantities, bandwidths and latencies.
//!
//! These newtypes make the timing formulas in the HMS model read like the
//! paper's equations: `bytes / bandwidth` yields a [`VDur`], a [`Latency`]
//! is a [`VDur`] with a named role, and scaling a tier ("½ DRAM bandwidth",
//! "4× DRAM latency") is explicit.

use crate::time::VDur;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

/// Memory or link bandwidth in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(pub f64);

/// A fixed per-access latency.
pub type Latency = VDur;

pub const KIB: u64 = 1 << 10;
pub const MIB: u64 = 1 << 20;
pub const GIB: u64 = 1 << 30;

/// Cache line size used throughout the reproduction (matches the paper's
/// `cacheline_size` in Eq. 1/2).
pub const CACHE_LINE: Bytes = Bytes(64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    #[inline]
    pub fn kib(n: u64) -> Bytes {
        Bytes(n * KIB)
    }

    #[inline]
    pub fn mib(n: u64) -> Bytes {
        Bytes(n * MIB)
    }

    #[inline]
    pub fn gib(n: u64) -> Bytes {
        Bytes(n * GIB)
    }

    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    #[inline]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    #[inline]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "Bytes underflow: {} - {}", self.0, rhs.0);
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl Div<Bandwidth> for Bytes {
    type Output = VDur;
    /// Transfer time of this many bytes at the given bandwidth.
    #[inline]
    fn div(self, bw: Bandwidth) -> VDur {
        debug_assert!(bw.0 > 0.0, "division by zero bandwidth");
        VDur::from_secs(self.0 as f64 / bw.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2}GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2}MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2}KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b}B")
        }
    }
}

impl Bandwidth {
    /// Bandwidth from MB/s (decimal, as in the paper's Table 1).
    #[inline]
    pub fn mb_per_s(mb: f64) -> Bandwidth {
        Bandwidth(mb * 1e6)
    }

    /// Bandwidth from GB/s (decimal).
    #[inline]
    pub const fn gb_per_s(gb: f64) -> Bandwidth {
        Bandwidth(gb * 1e9)
    }

    #[inline]
    pub fn bytes_per_s(self) -> f64 {
        self.0
    }

    /// Scale, e.g. `dram_bw.scaled(0.5)` for the paper's "½ DRAM bandwidth".
    #[inline]
    pub fn scaled(self, factor: f64) -> Bandwidth {
        debug_assert!(factor > 0.0);
        Bandwidth(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}GB/s", self.0 / 1e9)
        } else {
            write!(f, "{:.1}MB/s", self.0 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::kib(2).get(), 2048);
        assert_eq!(Bytes::mib(1).get(), 1 << 20);
        assert_eq!(Bytes::gib(1).get(), 1 << 30);
    }

    #[test]
    fn transfer_time() {
        // 1 GB over 1 GB/s is one second.
        let t = Bytes(1_000_000_000) / Bandwidth::gb_per_s(1.0);
        assert!((t.secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_scaling() {
        let half = Bandwidth::gb_per_s(10.0).scaled(0.5);
        assert_eq!(half.bytes_per_s(), 5e9);
    }

    #[test]
    fn saturating_sub() {
        assert_eq!(Bytes(5).saturating_sub(Bytes(10)), Bytes::ZERO);
        assert_eq!(Bytes(10).saturating_sub(Bytes(4)), Bytes(6));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Bytes(512)), "512B");
        assert_eq!(format!("{}", Bytes::mib(256)), "256.00MiB");
        assert_eq!(format!("{}", Bandwidth::gb_per_s(12.8)), "12.80GB/s");
    }

    #[test]
    fn sum_bytes() {
        let total: Bytes = [Bytes(1), Bytes(2), Bytes(3)].into_iter().sum();
        assert_eq!(total, Bytes(6));
    }
}
