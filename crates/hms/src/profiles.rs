//! Machine configurations: Table-1 NVM presets and the paper's parametric
//! evaluation configurations.
//!
//! The paper's experiments never use the absolute Table-1 numbers directly;
//! they configure NVM *relative* to DRAM ("½ DRAM bandwidth", "4× DRAM
//! latency") via the Quartz emulator, or emulate NVM with a remote NUMA node
//! (Edison: 60% of DRAM bandwidth, 1.89× latency). We provide both forms.

use crate::tier::TierParams;
use unimem_sim::{Bandwidth, Bytes, VDur};

/// A complete HMS machine description for one node.
///
/// The tier parameters describe the **node**: `ranks_per_node` ranks
/// share each tier's bandwidth (and the node copy path) through the
/// shared-bandwidth model in [`crate::contention`], in addition to
/// sharing the DRAM capacity through the per-node service. At the
/// default `ranks_per_node = 1` the node-level and per-rank views
/// coincide.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    pub dram: TierParams,
    pub nvm: TierParams,
    /// DRAM capacity available to target data objects (per node). NVM
    /// capacity has no field: it never binds in the experiments.
    pub dram_capacity: Bytes,
    /// Node-level memory-copy bandwidth between NVM and DRAM
    /// (`mem_copy_bw` in Eq. 4). Dominated by the slower medium; each
    /// rank's helper thread gets a fair `1/ranks_per_node` slice.
    pub copy_bw: Bandwidth,
    /// MPI ranks sharing one node: its DRAM allowance (per-node service),
    /// its tier bandwidth, and its copy path.
    pub ranks_per_node: usize,
    /// Human-readable label for harness output.
    pub label: String,
}

/// NVM bandwidth fraction behind the `bw-half` emulation anchor
/// (Figs. 2/9 and the sweep's `bw-half` profile).
pub const ANCHOR_BW_FRACTION: f64 = 0.5;

/// NVM latency multiple behind the `lat-4x` emulation anchor
/// (Figs. 3/10 and the sweep's `lat-4x` profile).
pub const ANCHOR_LAT_MULTIPLE: f64 = 4.0;

/// Figure 2's NVM-only bandwidth sweep: ½, ¼, ⅛ of DRAM bandwidth.
pub const FIG2_BW_FRACTIONS: [f64; 3] = [ANCHOR_BW_FRACTION, 0.25, 0.125];

/// Figure 3's NVM-only latency sweep: 2×, 4×, 8× DRAM latency.
pub const FIG3_LAT_MULTIPLES: [f64; 3] = [2.0, ANCHOR_LAT_MULTIPLE, 8.0];

/// Simulation baseline DRAM: 80 ns loaded latency, 12 GB/s *node* stream
/// bandwidth (the whole rank's share at the default 1 rank per node;
/// co-located ranks split it). Only the *ratios* to NVM matter for every
/// figure.
pub fn sim_dram() -> TierParams {
    TierParams {
        read_lat: VDur::from_nanos(80.0),
        write_lat: VDur::from_nanos(80.0),
        read_bw: Bandwidth::gb_per_s(12.0),
        write_bw: Bandwidth::gb_per_s(10.0),
    }
}

/// Table 1, DRAM row (10 ns, 1000/900 MB/s random BW).
pub fn table1_dram() -> TierParams {
    TierParams {
        read_lat: VDur::from_nanos(10.0),
        write_lat: VDur::from_nanos(10.0),
        read_bw: Bandwidth::mb_per_s(1000.0),
        write_bw: Bandwidth::mb_per_s(900.0),
    }
}

/// Table 1, STT-RAM row (ITRS'13): 60/80 ns, 800/600 MB/s.
pub fn table1_stt_ram() -> TierParams {
    TierParams {
        read_lat: VDur::from_nanos(60.0),
        write_lat: VDur::from_nanos(80.0),
        read_bw: Bandwidth::mb_per_s(800.0),
        write_bw: Bandwidth::mb_per_s(600.0),
    }
}

/// Table 1, PCRAM row, midpoints of the published ranges:
/// 20–200 ns read → 110 ns, 80–10 000 ns write → 5 040 ns,
/// 200–800 MB/s read → 500, 100–800 MB/s write → 450.
pub fn table1_pcram() -> TierParams {
    TierParams {
        read_lat: VDur::from_nanos(110.0),
        write_lat: VDur::from_nanos(5040.0),
        read_bw: Bandwidth::mb_per_s(500.0),
        write_bw: Bandwidth::mb_per_s(450.0),
    }
}

/// Table 1, ReRAM row, midpoints: 10–1000 ns read → 505 ns,
/// 10–10 000 ns write → 5 005 ns, 20–100 MB/s read → 60, 1–8 MB/s write → 4.5.
pub fn table1_reram() -> TierParams {
    TierParams {
        read_lat: VDur::from_nanos(505.0),
        write_lat: VDur::from_nanos(5005.0),
        read_bw: Bandwidth::mb_per_s(60.0),
        write_bw: Bandwidth::mb_per_s(4.5),
    }
}

impl MachineConfig {
    fn base(nvm: TierParams, label: String) -> MachineConfig {
        let dram = sim_dram();
        MachineConfig {
            dram,
            nvm,
            // Paper §5 basic tests: DRAM 256 MB per node.
            dram_capacity: Bytes::mib(256),
            copy_bw: copy_bw_between(dram, nvm),
            ranks_per_node: 1,
            label,
        }
    }

    /// NVM configured with a fraction of DRAM bandwidth, same latency
    /// (the paper's Figure 2 / 9 configuration; Quartz can vary only one
    /// dimension at a time).
    pub fn nvm_bw_fraction(f: f64) -> MachineConfig {
        MachineConfig::base(
            sim_dram().with_bw_fraction(f),
            format!("NVM {}x DRAM bandwidth", f),
        )
    }

    /// NVM configured with a multiple of DRAM latency, same bandwidth
    /// (Figures 3 / 10).
    pub fn nvm_lat_multiple(m: f64) -> MachineConfig {
        MachineConfig::base(
            sim_dram().with_lat_multiple(m),
            format!("NVM {}x DRAM latency", m),
        )
    }

    /// Edison strong-scaling emulation (§4): remote NUMA node as NVM with
    /// 60% of DRAM bandwidth and 1.89× DRAM latency.
    pub fn edison_numa() -> MachineConfig {
        let nvm = sim_dram().with_bw_fraction(0.6).with_lat_multiple(1.89);
        MachineConfig::base(nvm, "Edison NUMA emulation".into())
    }

    /// A Table-1 technology preset paired with the simulation DRAM.
    pub fn technology(nvm: TierParams, label: &str) -> MachineConfig {
        MachineConfig::base(nvm, label.to_string())
    }

    /// Replace the DRAM capacity (Figure 13 sweeps 128/256/512 MB).
    pub fn with_dram_capacity(mut self, cap: Bytes) -> MachineConfig {
        self.dram_capacity = cap;
        self
    }

    /// Pack `r` ranks onto each node: they share the node's DRAM
    /// allowance, its tier bandwidth, and its copy path.
    pub fn with_ranks_per_node(mut self, r: usize) -> MachineConfig {
        assert!(r >= 1);
        self.ranks_per_node = r;
        self
    }

    /// One rank's baseline share of the node's tier bandwidth when
    /// `occupancy` ranks are packed on the node (latency is per-access
    /// and not divided). The contention-aware runs use this as the
    /// uncontended reference the performance models calibrate against.
    pub fn rank_share(&self, kind: crate::tier::TierKind, occupancy: usize) -> TierParams {
        assert!(occupancy >= 1);
        self.tier(kind).with_bw_fraction(1.0 / occupancy as f64)
    }

    /// Tier parameters by kind.
    pub fn tier(&self, kind: crate::tier::TierKind) -> &TierParams {
        match kind {
            crate::tier::TierKind::Dram => &self.dram,
            crate::tier::TierKind::Nvm => &self.nvm,
        }
    }
}

/// NVM↔DRAM copy bandwidth: a large memcpy streams through both media, so
/// the end-to-end rate is the harmonic combination, dominated by the slower
/// side (reading from NVM and writing to DRAM or vice versa).
pub fn copy_bw_between(a: TierParams, b: TierParams) -> Bandwidth {
    let per_byte = 1.0 / a.read_bw.bytes_per_s().min(a.write_bw.bytes_per_s())
        + 1.0 / b.read_bw.bytes_per_s().min(b.write_bw.bytes_per_s());
    Bandwidth(1.0 / per_byte)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierKind;

    #[test]
    fn bw_fraction_halves_bandwidth_only() {
        let cfg = MachineConfig::nvm_bw_fraction(0.5);
        assert!((cfg.nvm.read_bw.bytes_per_s() - cfg.dram.read_bw.bytes_per_s() / 2.0).abs() < 1.0);
        assert_eq!(cfg.nvm.read_lat, cfg.dram.read_lat);
    }

    #[test]
    fn lat_multiple_scales_latency_only() {
        let cfg = MachineConfig::nvm_lat_multiple(4.0);
        assert!((cfg.nvm.read_lat.nanos() - 4.0 * cfg.dram.read_lat.nanos()).abs() < 1e-9);
        assert_eq!(cfg.nvm.read_bw, cfg.dram.read_bw);
    }

    #[test]
    fn edison_profile_matches_paper() {
        let cfg = MachineConfig::edison_numa();
        assert!(
            (cfg.nvm.read_bw.bytes_per_s() / cfg.dram.read_bw.bytes_per_s() - 0.6).abs() < 1e-9
        );
        assert!((cfg.nvm.read_lat.secs() / cfg.dram.read_lat.secs() - 1.89).abs() < 1e-9);
    }

    #[test]
    fn default_capacities_match_section5() {
        let cfg = MachineConfig::nvm_bw_fraction(0.5);
        assert_eq!(cfg.dram_capacity, Bytes::mib(256));
    }

    #[test]
    fn copy_bw_slower_than_both() {
        let cfg = MachineConfig::nvm_bw_fraction(0.5);
        assert!(cfg.copy_bw.bytes_per_s() < cfg.nvm.read_bw.bytes_per_s());
        assert!(cfg.copy_bw.bytes_per_s() < cfg.dram.read_bw.bytes_per_s());
    }

    #[test]
    fn tier_lookup() {
        let cfg = MachineConfig::nvm_bw_fraction(0.25);
        assert_eq!(cfg.tier(TierKind::Dram), &cfg.dram);
        assert_eq!(cfg.tier(TierKind::Nvm), &cfg.nvm);
    }

    #[test]
    fn table1_rows_are_ordered_as_published() {
        // DRAM faster than STT-RAM faster than PCRAM faster than ReRAM (read BW).
        let d = table1_dram().read_bw.bytes_per_s();
        let s = table1_stt_ram().read_bw.bytes_per_s();
        let p = table1_pcram().read_bw.bytes_per_s();
        let r = table1_reram().read_bw.bytes_per_s();
        assert!(d > s && s > p && p > r);
    }

    #[test]
    fn dram_capacity_override() {
        let cfg = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(128));
        assert_eq!(cfg.dram_capacity, Bytes::mib(128));
    }

    #[test]
    fn figure_sweeps_include_the_emulation_anchors() {
        // The Fig. 2/3 harnesses and the sweep's bw-half / lat-4x
        // profiles must agree on the anchor configurations.
        assert!(FIG2_BW_FRACTIONS.contains(&ANCHOR_BW_FRACTION));
        assert!(FIG3_LAT_MULTIPLES.contains(&ANCHOR_LAT_MULTIPLE));
        assert_eq!(ANCHOR_BW_FRACTION, 0.5);
        assert_eq!(ANCHOR_LAT_MULTIPLE, 4.0);
    }

    #[test]
    fn contention_knobs_default_on_single_rank_nodes() {
        let cfg = MachineConfig::nvm_bw_fraction(0.5);
        assert_eq!(cfg.ranks_per_node, 1);
        assert_eq!(cfg.copy_bw, copy_bw_between(cfg.dram, cfg.nvm));
    }

    #[test]
    fn rank_share_divides_bandwidth_not_latency() {
        let cfg = MachineConfig::nvm_bw_fraction(0.5);
        let share = cfg.rank_share(TierKind::Nvm, 4);
        assert!((share.read_bw.bytes_per_s() - cfg.nvm.read_bw.bytes_per_s() / 4.0).abs() < 1.0);
        assert_eq!(share.read_lat, cfg.nvm.read_lat);
        assert_eq!(cfg.rank_share(TierKind::Dram, 1), cfg.dram);
    }
}
