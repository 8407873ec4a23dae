//! The lightweight performance models: Equations 1–5.
//!
//! Everything here operates on *sampled* quantities from the profiler —
//! deliberately crude, as the paper argues: "the performance models are
//! rather lightweight, and only capture the critical impacts of memory
//! bandwidth or memory latency", with the calibration constants `CF_bw` and
//! `CF_lat` absorbing sampling undercount and ignored effects.

use unimem_hms::tier::TierParams;
use unimem_perf::eq1::eq1_bandwidth;
use unimem_perf::Calibration;
use unimem_sim::units::CACHE_LINE;
use unimem_sim::{Bandwidth, Bytes, VDur};

/// Sensitivity classification of a data object in a phase (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sensitivity {
    /// `BW_obj ≥ t1% · BW_peak`: benefit dominated by bandwidth (Eq. 2).
    Bandwidth,
    /// `BW_obj < t2% · BW_peak`: benefit dominated by latency (Eq. 3).
    Latency,
    /// In between: take `max(BFT_bw, BFT_lat)`.
    Either,
}

/// Model parameters: tier characteristics, calibration, and thresholds.
///
/// Under the node-level shared-bandwidth model the tier parameters here
/// are the rank's *share* of the node (node bandwidth over occupancy) and
/// `copy_bw` is the helper's fair slice of the node copy path, so every
/// equation reasons about the bandwidth this rank can actually get.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    pub dram: TierParams,
    pub nvm: TierParams,
    pub copy_bw: Bandwidth,
    pub cal: Calibration,
    /// Bandwidth-sensitive threshold, percent of `BW_peak` (paper: 80).
    pub t1_pct: f64,
    /// Latency-sensitive threshold, percent of `BW_peak` (paper: 10).
    pub t2_pct: f64,
    /// Eq. 4 contention term for NVM→DRAM admissions: the slowdown one
    /// second of in-flight copy induces on overlapping compute — the
    /// copy's rate over the tightest of the two pools an admission
    /// actually draws from (NVM read, DRAM write). The local search
    /// charges it on the hidden part of a copy train; zero unless
    /// [`ModelParams::with_contention_penalties`] sets it.
    pub contention_penalty_in: f64,
    /// Same, for DRAM→NVM evictions (DRAM read, NVM write pools — on
    /// write-asymmetric technologies this can be far harsher than the
    /// admission direction, and charging admits at the eviction rate
    /// would wrongly freeze placement).
    pub contention_penalty_out: f64,
}

impl ModelParams {
    pub fn new(dram: TierParams, nvm: TierParams, copy_bw: Bandwidth, cal: Calibration) -> Self {
        ModelParams {
            dram,
            nvm,
            copy_bw,
            cal,
            t1_pct: 80.0,
            t2_pct: 10.0,
            contention_penalty_in: 0.0,
            contention_penalty_out: 0.0,
        }
    }

    /// Set the per-direction Eq. 4 contention terms
    /// ([`ModelParams::contention_penalty_in`] and
    /// [`ModelParams::contention_penalty_out`]).
    pub fn with_contention_penalties(mut self, inbound: f64, outbound: f64) -> Self {
        self.contention_penalty_in = inbound.max(0.0);
        self.contention_penalty_out = outbound.max(0.0);
        self
    }

    /// Eq. 1 + thresholds: classify an object's phase behaviour.
    pub fn classify(
        &self,
        recorded: u64,
        windows_hit: u64,
        windows: u64,
        phase_time: VDur,
    ) -> Sensitivity {
        let bw = eq1_bandwidth(recorded, windows_hit, windows, phase_time);
        let peak = self.cal.bw_peak_sampled;
        if peak <= 0.0 {
            return Sensitivity::Either;
        }
        let pct = 100.0 * bw / peak;
        if pct >= self.t1_pct {
            Sensitivity::Bandwidth
        } else if pct < self.t2_pct {
            Sensitivity::Latency
        } else {
            Sensitivity::Either
        }
    }

    /// Eq. 2: benefit of moving a bandwidth-sensitive object NVM→DRAM.
    pub fn bft_bw(&self, recorded: u64) -> VDur {
        let bytes = recorded as f64 * CACHE_LINE.as_f64();
        let nvm_t = bytes / self.nvm.read_bw.bytes_per_s();
        let dram_t = bytes / self.dram.read_bw.bytes_per_s();
        VDur::from_secs((nvm_t - dram_t).max(0.0) * self.cal.cf_bw)
    }

    /// Eq. 3: benefit of moving a latency-sensitive object NVM→DRAM.
    pub fn bft_lat(&self, recorded: u64) -> VDur {
        let nvm_t = recorded as f64 * self.nvm.read_lat.secs();
        let dram_t = recorded as f64 * self.dram.read_lat.secs();
        VDur::from_secs((nvm_t - dram_t).max(0.0) * self.cal.cf_lat)
    }

    /// Benefit under a classification (the `max` rule for `Either`).
    pub fn benefit(&self, sens: Sensitivity, recorded: u64) -> VDur {
        match sens {
            Sensitivity::Bandwidth => self.bft_bw(recorded),
            Sensitivity::Latency => self.bft_lat(recorded),
            Sensitivity::Either => self.bft_bw(recorded).max(self.bft_lat(recorded)),
        }
    }

    /// Raw copy time `size / mem_copy_bw`.
    pub fn copy_time(&self, size: Bytes) -> VDur {
        size / self.copy_bw
    }

    /// Eq. 5: the knapsack weight.
    /// Positive only when the benefit outweighs all movement costs.
    pub fn weight(&self, benefit: VDur, cost: VDur, extra_cost: VDur) -> f64 {
        benefit.secs() - cost.secs() - extra_cost.secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::profiles::{copy_bw_between, sim_dram};

    fn params() -> ModelParams {
        let dram = sim_dram();
        let nvm = dram.with_bw_fraction(0.5);
        ModelParams::new(
            dram,
            nvm,
            copy_bw_between(dram, nvm),
            Calibration {
                cf_bw: 1000.0,
                cf_lat: 1000.0,
                bw_peak_sampled: 6e6, // 6 MB/s in sampled units
            },
        )
    }

    #[test]
    fn classification_thresholds() {
        let p = params();
        let t = VDur::from_secs(1.0);
        // Dense traffic: recorded such that BW ≈ peak → bandwidth.
        // duty = 1.0 → bw = recorded·64. peak = 6e6 → recorded 93750 → 100%.
        assert_eq!(
            p.classify(93_750, 1_000_000, 1_000_000, t),
            Sensitivity::Bandwidth
        );
        // 5% of peak → latency.
        assert_eq!(
            p.classify(4_688, 1_000_000, 1_000_000, t),
            Sensitivity::Latency
        );
        // 40% of peak → either.
        assert_eq!(
            p.classify(37_500, 1_000_000, 1_000_000, t),
            Sensitivity::Either
        );
    }

    #[test]
    fn bft_bw_scales_with_bandwidth_gap() {
        let p = params();
        // NVM at half bandwidth: NVM time = 2× DRAM time → benefit = DRAM time.
        let rec = 100_000;
        let bytes = rec as f64 * 64.0;
        let dram_t = bytes / p.dram.read_bw.bytes_per_s();
        let bft = p.bft_bw(rec);
        assert!((bft.secs() - dram_t * 1000.0).abs() < 1e-9);
    }

    #[test]
    fn bft_lat_zero_when_tiers_match() {
        let dram = sim_dram();
        let p = ModelParams::new(
            dram,
            dram, // same latency
            Bandwidth::gb_per_s(5.0),
            Calibration {
                cf_bw: 1.0,
                cf_lat: 1.0,
                bw_peak_sampled: 1e6,
            },
        );
        assert_eq!(p.bft_lat(1_000_000), VDur::ZERO);
    }

    #[test]
    fn either_takes_max() {
        let p = params();
        let rec = 50_000;
        let expect = p.bft_bw(rec).max(p.bft_lat(rec));
        assert_eq!(p.benefit(Sensitivity::Either, rec), expect);
    }

    #[test]
    fn weight_subtracts_costs() {
        let p = params();
        let w = p.weight(
            VDur::from_millis(10.0),
            VDur::from_millis(3.0),
            VDur::from_millis(2.0),
        );
        assert!((w - 0.005).abs() < 1e-12);
        let neg = p.weight(VDur::from_millis(1.0), VDur::from_millis(3.0), VDur::ZERO);
        assert!(neg < 0.0);
    }

    #[test]
    fn unseen_object_classifies_either_on_degenerate_peak() {
        let mut p = params();
        p.cal.bw_peak_sampled = 0.0;
        assert_eq!(
            p.classify(10, 10, 100, VDur::from_secs(1.0)),
            Sensitivity::Either
        );
    }
}
