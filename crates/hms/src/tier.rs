//! Memory tiers and the ground-truth access-time model.
//!
//! A tier is described by read/write latency and read/write bandwidth. The
//! simulation's ground truth for the memory time a phase spends on one data
//! object is a roofline-style maximum of a bandwidth term and a latency
//! term (ARCHITECTURE.md, "Dataflow", shows where it sits):
//!
//! ```text
//! T_mem(obj) = max( miss_bytes / bw(tier),  misses · lat(tier) / mlp )
//! ```
//!
//! `mlp` is the access pattern's memory-level parallelism: streaming code
//! keeps many cache-line fetches in flight (high `mlp`, bandwidth-bound)
//! while pointer chasing serializes them (`mlp ≈ 1`, latency-bound). This
//! single formula produces the paper's Observation 3 — different objects are
//! sensitive to different tier parameters — from the workload structure.

use unimem_sim::{Bandwidth, Bytes, Latency, VDur};

/// Which tier a data object resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierKind {
    Dram,
    Nvm,
}

impl TierKind {
    pub fn other(self) -> TierKind {
        match self {
            TierKind::Dram => TierKind::Nvm,
            TierKind::Nvm => TierKind::Dram,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TierKind::Dram => "DRAM",
            TierKind::Nvm => "NVM",
        }
    }
}

/// Read/write fractions of an access stream. Writes matter because NVM is
/// strongly read/write asymmetric (Table 1: PCRAM writes up to 50× slower).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessMix {
    /// Fraction of accesses that are reads, in `[0, 1]`.
    pub read_frac: f64,
}

impl AccessMix {
    pub const READ_ONLY: AccessMix = AccessMix { read_frac: 1.0 };

    pub fn new(read_frac: f64) -> AccessMix {
        AccessMix {
            read_frac: read_frac.clamp(0.0, 1.0),
        }
    }
}

/// Timing parameters of one memory tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierParams {
    pub read_lat: Latency,
    pub write_lat: Latency,
    pub read_bw: Bandwidth,
    pub write_bw: Bandwidth,
}

impl TierParams {
    /// Effective latency for a given read/write mix.
    #[inline]
    pub fn latency(&self, mix: AccessMix) -> Latency {
        self.read_lat * mix.read_frac + self.write_lat * (1.0 - mix.read_frac)
    }

    /// Effective bandwidth for a given read/write mix (harmonic blend:
    /// a byte stream alternating read/write moves at the rate set by the
    /// time per byte, which adds, not the bandwidths themselves).
    #[inline]
    pub fn bandwidth(&self, mix: AccessMix) -> Bandwidth {
        let r = mix.read_frac;
        let w = 1.0 - r;
        let time_per_byte = r / self.read_bw.bytes_per_s() + w / self.write_bw.bytes_per_s();
        Bandwidth(1.0 / time_per_byte)
    }

    /// Scale bandwidth by `f` (the paper's "NVM with ½ DRAM bandwidth").
    pub fn with_bw_fraction(&self, f: f64) -> TierParams {
        TierParams {
            read_bw: self.read_bw.scaled(f),
            write_bw: self.write_bw.scaled(f),
            ..*self
        }
    }

    /// Scale latency by `m` (the paper's "NVM with 4× DRAM latency").
    pub fn with_lat_multiple(&self, m: f64) -> TierParams {
        TierParams {
            read_lat: self.read_lat * m,
            write_lat: self.write_lat * m,
            ..*self
        }
    }

    /// Ground-truth memory time for `misses` main-memory accesses touching
    /// `miss_bytes`, with memory-level parallelism `mlp`.
    pub fn access_time(&self, misses: u64, miss_bytes: Bytes, mlp: f64, mix: AccessMix) -> VDur {
        if misses == 0 || miss_bytes.is_zero() {
            return VDur::ZERO;
        }
        let mlp = mlp.max(1.0);
        let bw_term = miss_bytes / self.bandwidth(mix);
        let lat_term = self.latency(mix) * (misses as f64) / mlp;
        bw_term.max(lat_term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_sim::units::MIB;

    fn dram() -> TierParams {
        TierParams {
            read_lat: VDur::from_nanos(80.0),
            write_lat: VDur::from_nanos(80.0),
            read_bw: Bandwidth::gb_per_s(12.0),
            write_bw: Bandwidth::gb_per_s(12.0),
        }
    }

    #[test]
    fn read_only_mix_uses_read_params() {
        let t = dram();
        assert_eq!(t.latency(AccessMix::READ_ONLY), t.read_lat);
        let bw = t.bandwidth(AccessMix::READ_ONLY);
        assert!((bw.bytes_per_s() - t.read_bw.bytes_per_s()).abs() < 1.0);
    }

    #[test]
    fn mixed_bandwidth_is_harmonic() {
        let t = TierParams {
            read_bw: Bandwidth::gb_per_s(10.0),
            write_bw: Bandwidth::gb_per_s(2.0),
            ..dram()
        };
        // 50/50 mix: time per byte = 0.5/10 + 0.5/2 GB⁻¹s = 0.3ns/B → 3.33GB/s
        let bw = t.bandwidth(AccessMix::new(0.5));
        assert!((bw.bytes_per_s() - 10e9 / 3.0).abs() < 1.0);
    }

    #[test]
    fn streaming_is_bandwidth_bound() {
        let t = dram();
        // 1M misses, 64 MiB, huge mlp: bw term = 64MiB/12GB/s ≈ 5.6ms,
        // lat term = 1e6·80ns/16 = 5ms → bw wins.
        let misses = 1_000_000;
        let bytes = Bytes(64 * MIB);
        let time = t.access_time(misses, bytes, 16.0, AccessMix::READ_ONLY);
        let bw_term = bytes / t.read_bw;
        assert!((time.secs() - bw_term.secs()).abs() < 1e-12);
    }

    #[test]
    fn pointer_chase_is_latency_bound() {
        let t = dram();
        let misses = 1_000_000;
        let bytes = Bytes(misses * 64);
        let time = t.access_time(misses, bytes, 1.0, AccessMix::READ_ONLY);
        let lat_term = misses as f64 * 80e-9;
        assert!((time.secs() - lat_term).abs() < 1e-9, "time={}", time);
    }

    #[test]
    fn halving_bandwidth_doubles_streaming_time() {
        let t = dram();
        let slow = t.with_bw_fraction(0.5);
        let bytes = Bytes(128 * MIB);
        let fast_t = t.access_time(2_000_000, bytes, 64.0, AccessMix::READ_ONLY);
        let slow_t = slow.access_time(2_000_000, bytes, 64.0, AccessMix::READ_ONLY);
        assert!((slow_t.secs() / fast_t.secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_multiple_leaves_bandwidth_alone() {
        let t = dram().with_lat_multiple(4.0);
        assert_eq!(t.read_bw, dram().read_bw);
        assert!((t.read_lat.nanos() - 320.0).abs() < 1e-9);
    }

    #[test]
    fn zero_access_is_zero_time() {
        let t = dram();
        assert_eq!(
            t.access_time(0, Bytes(1024), 4.0, AccessMix::READ_ONLY),
            VDur::ZERO
        );
        assert_eq!(
            t.access_time(10, Bytes::ZERO, 4.0, AccessMix::READ_ONLY),
            VDur::ZERO
        );
    }

    #[test]
    fn mlp_below_one_clamps() {
        let t = dram();
        let a = t.access_time(1000, Bytes(64_000), 0.1, AccessMix::READ_ONLY);
        let b = t.access_time(1000, Bytes(64_000), 1.0, AccessMix::READ_ONLY);
        assert_eq!(a, b);
    }

    #[test]
    fn tier_other_flips() {
        assert_eq!(TierKind::Dram.other(), TierKind::Nvm);
        assert_eq!(TierKind::Nvm.other(), TierKind::Dram);
    }
}
