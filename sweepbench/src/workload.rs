//! The benchmark's workloads: which sweep matrix an op runs, and the
//! per-node DRAM capacity a seed selects.

use unimem_bench::sweep::{NvmProfile, SweepConfig, TopologySpec};
use unimem_sim::{Bytes, Fnv64};

/// Sweep worker count of every workload. The host has two CPUs and
/// `rooms` already puts its rank pool on both; one sweep worker keeps
/// every workload within two busy threads.
pub const JOBS: usize = 1;

/// DRAM capacities (MiB) a seed picks from: a small set around the
/// paper's 256 MB per node, so a claim can be re-checked on placement
/// inputs that were not used for tuning.
const DRAM_MIB: [u64; 5] = [192, 224, 256, 288, 320];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full matrix, cold: placement-heavy, with co-runs and X-Mem
    /// training.
    FullCold,
    /// 256 ranks in a 64-node room: per-rank execution, ledger,
    /// resolver, collectives and the rank pool.
    Rooms,
    /// The full matrix against a primed on-disk cell cache: cache reads
    /// and report assembly only.
    WarmRerun,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FullCold, Workload::Rooms, Workload::WarmRerun];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullCold => "full-cold",
            Workload::Rooms => "rooms",
            Workload::WarmRerun => "warm-rerun",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether ops read a cell cache primed during set-up.
    pub fn cached(self) -> bool {
        self == Workload::WarmRerun
    }

    /// The matrix one op sweeps.
    pub fn config(self, dram_capacity: Bytes) -> SweepConfig {
        let cfg = match self {
            Workload::FullCold | Workload::WarmRerun => SweepConfig::full(),
            Workload::Rooms => SweepConfig {
                profiles: vec![NvmProfile::BwHalf],
                ranks: vec![256],
                ranks_per_node: vec![1],
                topologies: vec![TopologySpec::Nodes { count: 64 }],
                coruns: vec![],
                arbiters: vec![],
                ..SweepConfig::reduced()
            },
        };
        SweepConfig {
            dram_capacity: Some(dram_capacity),
            ..cfg
        }
    }

    /// A miniature of [`Workload::config`] with the same layer mix
    /// (co-runs on the full matrix, a clustered room with a pooled rank
    /// set for `rooms`), small enough for the benchmark's own tests.
    #[cfg(test)]
    pub fn shrunk_config(self, dram_capacity: Bytes) -> SweepConfig {
        let mut cfg = self.config(dram_capacity);
        cfg.class = unimem_workloads::Class::S;
        cfg.workloads = vec!["CG".into(), "MG".into()];
        match self {
            Workload::FullCold | Workload::WarmRerun => {
                cfg.profiles = vec![NvmProfile::BwHalf];
                cfg.ranks = vec![1, 4];
                cfg.ranks_per_node = vec![1, 2];
                cfg.coruns = unimem_workloads::parse_mixes(&["CG+MG"]).expect("mix parses");
            }
            Workload::Rooms => {
                cfg.ranks = vec![16];
                cfg.topologies = vec![TopologySpec::Nodes { count: 4 }];
            }
        }
        cfg
    }
}

/// The per-node DRAM capacity a seed selects.
pub fn dram_capacity(seed: u64) -> Bytes {
    let h = Fnv64::new().update(&seed.to_le_bytes()).finish();
    Bytes(DRAM_MIB[(h % DRAM_MIB.len() as u64) as usize] << 20)
}

/// Rank-pool width the executor picks for the widest cell: serial up to
/// 8 ranks, the host pool above.
pub fn rank_pool_width(cfg: &SweepConfig) -> usize {
    let widest = cfg.ranks.iter().copied().max().unwrap_or(1);
    if widest <= 8 {
        1
    } else {
        unimem_sim::default_workers().min(widest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hot"), None);
    }

    #[test]
    fn seeds_pick_capacities_from_the_fixed_set() {
        let picked: Vec<u64> = (0..64).map(|s| dram_capacity(s).0 >> 20).collect();
        assert!(picked.iter().all(|m| DRAM_MIB.contains(m)));
        assert_eq!(dram_capacity(7), dram_capacity(7));
        for m in DRAM_MIB {
            assert!(picked.contains(&m), "{m} MiB is never picked");
        }
    }

    #[test]
    fn matrices_have_the_documented_sizes() {
        let cap = Bytes(256 << 20);
        let full = Workload::FullCold.config(cap);
        assert_eq!((full.n_cells(), full.n_corun_cells()), (1470, 105));
        let rooms = Workload::Rooms.config(cap);
        assert_eq!((rooms.n_cells(), rooms.n_corun_cells()), (42, 0));
        assert_eq!(rank_pool_width(&full), 1);
    }
}
