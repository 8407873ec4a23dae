//! Workload-variation monitor (§3.2).
//!
//! "Unimem monitors the performance of each phase after data movement. If
//! there is obvious performance variation (larger than 10%), then the
//! runtime will activate phase profiling again and adjust the data
//! placement decision."

use crate::comm::PhaseId;
use unimem_sim::{OnlineStats, VDur};

/// Per-phase running statistics with a relative-deviation trigger.
#[derive(Debug, Clone)]
pub struct VariationMonitor {
    threshold: f64,
    per_phase: Vec<OnlineStats>,
    /// Number of times the monitor demanded re-profiling.
    triggers: u64,
}

impl VariationMonitor {
    /// `threshold` is relative (paper: 0.10).
    pub fn new(n_phases: usize, threshold: f64) -> VariationMonitor {
        VariationMonitor {
            threshold,
            per_phase: vec![OnlineStats::new(); n_phases],
            triggers: 0,
        }
    }

    pub fn paper_default(n_phases: usize) -> VariationMonitor {
        VariationMonitor::new(n_phases, 0.10)
    }

    /// Record a phase execution; returns true when the deviation from the
    /// running mean exceeds the threshold (re-profile now). The deviating
    /// observation still enters the statistics, so a persistent shift
    /// re-centres the mean instead of triggering forever.
    pub fn observe(&mut self, phase: PhaseId, time: VDur) -> bool {
        let stats = &mut self.per_phase[phase.0 as usize];
        // Need a baseline of at least two observations before judging.
        let fire = stats.count() >= 2 && stats.relative_deviation(time.secs()) > self.threshold;
        stats.push(time.secs());
        if fire {
            self.triggers += 1;
            // Reset this phase's history: the regime changed.
            *stats = OnlineStats::new();
            stats.push(time.secs());
        }
        fire
    }

    pub fn triggers(&self) -> u64 {
        self.triggers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> VDur {
        VDur::from_millis(x)
    }

    #[test]
    fn stable_phases_never_trigger() {
        let mut m = VariationMonitor::paper_default(1);
        for _ in 0..50 {
            assert!(!m.observe(PhaseId(0), ms(10.0)));
        }
        assert_eq!(m.triggers(), 0);
    }

    #[test]
    fn small_jitter_below_threshold_is_tolerated() {
        let mut m = VariationMonitor::paper_default(1);
        for i in 0..50 {
            let t = 10.0 + if i % 2 == 0 { 0.5 } else { -0.5 }; // ±5%
            assert!(!m.observe(PhaseId(0), ms(t)));
        }
    }

    #[test]
    fn regime_change_triggers_once_then_recentres() {
        let mut m = VariationMonitor::paper_default(1);
        for _ in 0..10 {
            m.observe(PhaseId(0), ms(10.0));
        }
        assert!(m.observe(PhaseId(0), ms(15.0)), "50% jump must trigger");
        // After the reset the new level becomes the baseline.
        m.observe(PhaseId(0), ms(15.0));
        for _ in 0..10 {
            assert!(!m.observe(PhaseId(0), ms(15.0)));
        }
        assert_eq!(m.triggers(), 1);
    }

    #[test]
    fn needs_baseline_before_judging() {
        let mut m = VariationMonitor::paper_default(1);
        assert!(!m.observe(PhaseId(0), ms(10.0)));
        assert!(
            !m.observe(PhaseId(0), ms(100.0)),
            "second sample is baseline"
        );
    }

    #[test]
    fn phases_are_independent() {
        let mut m = VariationMonitor::paper_default(2);
        for _ in 0..5 {
            m.observe(PhaseId(0), ms(10.0));
            m.observe(PhaseId(1), ms(20.0));
        }
        assert!(m.observe(PhaseId(1), ms(40.0)));
        assert!(!m.observe(PhaseId(0), ms(10.0)));
    }
}
