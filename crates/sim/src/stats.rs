//! Streaming statistics.
//!
//! [`OnlineStats`] keeps the running mean the Unimem runtime's
//! phase-variation detector judges against: the paper re-profiles when a
//! phase's time deviates more than 10% from its running mean.

/// The running mean of a stream of observations.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
}

impl OnlineStats {
    pub fn new() -> OnlineStats {
        OnlineStats::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean so far; 0 before the first observation.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Relative deviation of `x` from the running mean, |x-μ|/μ.
    /// Returns 0 when no observations or zero mean (nothing to deviate from).
    pub fn relative_deviation(&self, x: f64) -> f64 {
        let m = self.mean();
        if self.n == 0 || m == 0.0 {
            0.0
        } else {
            (x - m).abs() / m.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn relative_deviation() {
        let mut s = OnlineStats::new();
        s.push(10.0);
        s.push(10.0);
        assert!((s.relative_deviation(11.0) - 0.1).abs() < 1e-12);
        assert_eq!(OnlineStats::new().relative_deviation(5.0), 0.0);
    }
}
