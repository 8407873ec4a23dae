//! The sweep's axes: policies, NVM profiles, co-run mixes, arbitration
//! policies, and the matrix configuration.

pub use unimem_hms::arbiter::ArbiterPolicy;

/// Placement policy axis: the canonical registry from
/// `unimem::policy`. The sweep, the `--policies` CLI, and the JSON
/// report all use [`PolicyKind::name`] / [`PolicyKind::from_name`] —
/// there is no second name table to keep in sync. `Xmem` is
/// materialized per (workload, machine) by the offline training
/// profile; the runner's exhaustive match maps each other entry to its
/// `unimem::exec::Policy` value.
pub use unimem::policy::PolicyId as PolicyKind;

use unimem_hms::{profiles, MachineConfig};
use unimem_sim::Bytes;
use unimem_workloads::corun::CorunMix;
use unimem_workloads::{corun, Class, SUITE_NAMES};

/// NVM profile axis: the paper's two emulation anchors plus the Table-1
/// technology rows paired with the simulation DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmProfile {
    /// NVM at ½ DRAM bandwidth, same latency (Fig. 2/9 configuration).
    BwHalf,
    /// NVM at 4× DRAM latency, same bandwidth (Fig. 3/10 configuration).
    Lat4x,
    /// Table 1, STT-RAM row.
    SttRam,
    /// Table 1, PCRAM row (range midpoints).
    Pcram,
    /// Table 1, ReRAM row (range midpoints).
    ReRam,
}

impl NvmProfile {
    /// Every profile, in report order.
    pub const ALL: [NvmProfile; 5] = [
        NvmProfile::BwHalf,
        NvmProfile::Lat4x,
        NvmProfile::SttRam,
        NvmProfile::Pcram,
        NvmProfile::ReRam,
    ];

    /// Stable lower-case name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            NvmProfile::BwHalf => "bw-half",
            NvmProfile::Lat4x => "lat-4x",
            NvmProfile::SttRam => "stt-ram",
            NvmProfile::Pcram => "pcram",
            NvmProfile::ReRam => "reram",
        }
    }

    /// Inverse of [`NvmProfile::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<NvmProfile> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s.to_ascii_lowercase())
    }

    /// The machine this profile describes (paper §5 capacities: DRAM
    /// 256 MB, NVM 16 GB per node, 1 rank per node). The emulation
    /// anchors come from the canonical constants in
    /// `unimem_hms::profiles`, shared with the Fig. 2/3 harnesses so the
    /// sweep and the benches cannot drift apart.
    pub fn machine(self) -> MachineConfig {
        match self {
            NvmProfile::BwHalf => MachineConfig::nvm_bw_fraction(profiles::ANCHOR_BW_FRACTION),
            NvmProfile::Lat4x => MachineConfig::nvm_lat_multiple(profiles::ANCHOR_LAT_MULTIPLE),
            NvmProfile::SttRam => {
                MachineConfig::technology(profiles::table1_stt_ram(), "Table-1 STT-RAM")
            }
            NvmProfile::Pcram => {
                MachineConfig::technology(profiles::table1_pcram(), "Table-1 PCRAM")
            }
            NvmProfile::ReRam => {
                MachineConfig::technology(profiles::table1_reram(), "Table-1 ReRAM")
            }
        }
    }

    /// True for the profiles behind Figs. 9/10, where the paper claims
    /// Unimem stays within a small tolerance of DRAM-only. The Table-1
    /// technology rows are far slower than the emulated NVM (ReRAM writes
    /// at 4.5 MB/s), so the claim does not extend to them.
    pub fn tracks_dram(self) -> bool {
        matches!(self, NvmProfile::BwHalf | NvmProfile::Lat4x)
    }

    /// True where the X-Mem comparison on Nek5000's drifting pattern is
    /// meaningful: migration must be affordable. On ReRAM the NVM↔DRAM
    /// copy bandwidth is so low that any online movement loses to a frozen
    /// placement, and on `Lat4x` both policies reach DRAM-only time (tie).
    pub fn supports_drift_win(self) -> bool {
        !matches!(self, NvmProfile::ReRam)
    }
}

/// Cluster-topology axis: how the machine room a cell runs in is laid
/// out. The default, [`TopologySpec::Flat`], is the paper's world — one
/// kind of node, single-level collectives, node packing governed by the
/// `ranks_per_node` axis — and reproduces the historical report bytes.
/// The other variants route the cell through
/// `unimem::exec::run_workload_clustered`: explicit nodes, hierarchical
/// collectives, inter-node traffic charged on the per-node link channels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// The legacy flat world (single-level collectives).
    Flat,
    /// `count` homogeneous nodes of the row's NVM profile; ranks spread
    /// contiguously, `⌈nranks / count⌉` per node.
    Nodes {
        /// Number of nodes in the simulated machine room.
        count: usize,
    },
    /// A heterogeneous machine room: one node per listed profile, in
    /// order. To avoid duplicate cells the mixed room attaches only to
    /// rows of its *first* listed profile (the room already names every
    /// machine in it; the row's profile axis would otherwise multiply
    /// identical runs).
    Mixed {
        /// The per-node NVM profiles, node-id order.
        profiles: Vec<NvmProfile>,
    },
}

impl TopologySpec {
    /// Stable name used in reports, coordinates, and on the CLI:
    /// `flat`, `nodes4`, `mixed:bw-half+pcram`.
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Flat => "flat".into(),
            TopologySpec::Nodes { count } => format!("nodes{count}"),
            TopologySpec::Mixed { profiles } => {
                let names: Vec<&str> = profiles.iter().map(|p| p.name()).collect();
                format!("mixed:{}", names.join("+"))
            }
        }
    }

    /// Inverse of [`TopologySpec::name`].
    pub fn parse(s: &str) -> Option<TopologySpec> {
        let s = s.trim().to_ascii_lowercase();
        if s == "flat" {
            return Some(TopologySpec::Flat);
        }
        if let Some(count) = s.strip_prefix("nodes") {
            let count: usize = count.parse().ok()?;
            return (count >= 1).then_some(TopologySpec::Nodes { count });
        }
        if let Some(list) = s.strip_prefix("mixed:") {
            let profiles: Option<Vec<NvmProfile>> =
                list.split('+').map(NvmProfile::parse).collect();
            let profiles = profiles?;
            return (!profiles.is_empty()).then_some(TopologySpec::Mixed { profiles });
        }
        None
    }

    /// Number of nodes this topology lays out for an `nranks`-rank job.
    pub fn n_nodes(&self) -> usize {
        match self {
            TopologySpec::Flat => 1,
            TopologySpec::Nodes { count } => *count,
            TopologySpec::Mixed { profiles } => profiles.len(),
        }
    }

    /// Ranks each node holds when `nranks` spread contiguously.
    pub fn slots_for(&self, nranks: usize) -> usize {
        nranks.div_ceil(self.n_nodes())
    }

    /// Whether this topology generates a cell on the given matrix row.
    /// Flat rides every row. Clustered topologies attach only to the
    /// canonical one-rank-per-node rows (their own node layout decides
    /// packing), need at least one rank per node, and a mixed room
    /// attaches only to its first profile's rows (see [`TopologySpec::Mixed`]).
    pub fn applies_to(&self, profile: NvmProfile, nranks: usize, ranks_per_node: usize) -> bool {
        match self {
            TopologySpec::Flat => true,
            TopologySpec::Nodes { count } => ranks_per_node == 1 && *count <= nranks,
            TopologySpec::Mixed { profiles } => {
                ranks_per_node == 1
                    && profiles.len() <= nranks
                    && profiles.first() == Some(&profile)
            }
        }
    }
}

/// The matrix to sweep. Axes multiply: every workload runs under every
/// policy on every (profile, rank count, ranks-per-node) machine —
/// `ranks_per_node` values above a cell's rank count are skipped (a node
/// cannot hold more ranks than the job has), so the layout axis is the
/// set of valid (ranks, ranks_per_node) pairs. The co-run axes multiply
/// separately: every mix runs under every arbitration policy on every
/// profile, at the matrix's largest rank count (see
/// [`SweepConfig::corun_ranks`]), one rank per node.
///
/// # Example — a miniature custom slice
///
/// ```
/// use unimem_bench::sweep::{
///     default_workers, run_sweep_cached, NvmProfile, PolicyKind, SweepConfig, TopologySpec,
/// };
/// use unimem_workloads::Class;
///
/// let cfg = SweepConfig {
///     class: Class::S, // miniature inputs: the slice runs in milliseconds
///     workloads: vec!["CG".into()],
///     policies: vec![PolicyKind::DramOnly, PolicyKind::NvmOnly],
///     profiles: vec![NvmProfile::BwHalf],
///     ranks: vec![2],
///     ranks_per_node: vec![1],
///     topologies: vec![TopologySpec::Flat],
///     dram_capacity: None,
///     coruns: vec![],
///     arbiters: vec![],
/// };
/// assert_eq!(cfg.n_cells(), 2);
/// let report = run_sweep_cached(&cfg, default_workers(), None).unwrap();
/// assert_eq!(report.cells.len(), 2);
/// // Cells come back in canonical order, normalized to the row's
/// // DRAM-only baseline. (At CLASS S the arrays fit the LLC, so
/// // NVM-only merely ties rather than losing.)
/// assert_eq!(report.cells[0].policy, PolicyKind::DramOnly);
/// assert!(report.cells[1].normalized_to_dram >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// NPB problem class every cell runs at.
    pub class: Class,
    /// Suite member names (canonicalized by the runner).
    pub workloads: Vec<String>,
    /// Placement policies to run per workload.
    pub policies: Vec<PolicyKind>,
    /// NVM profiles (machines) to run on.
    pub profiles: Vec<NvmProfile>,
    /// MPI rank counts to run at.
    pub ranks: Vec<usize>,
    /// Ranks packed per node (Fig. 12-style scaling at fixed total
    /// ranks): co-located ranks share the node's DRAM allowance, its tier
    /// bandwidth, and its copy path, so values ≥ 2 exercise the
    /// shared-bandwidth contention model. Values above a cell's rank
    /// count are skipped.
    pub ranks_per_node: Vec<usize>,
    /// Cluster topologies to run each row in. `[TopologySpec::Flat]`
    /// (the default) is the paper's single-level world. Clustered
    /// entries add cells on the one-rank-per-node rows only — the
    /// topology itself decides packing (see
    /// [`TopologySpec::applies_to`]).
    pub topologies: Vec<TopologySpec>,
    /// Override the per-node DRAM capacity (None = profile default 256 MB).
    pub dram_capacity: Option<Bytes>,
    /// Co-run mixes for the multi-tenant arbitration cells (empty = no
    /// co-run cells).
    pub coruns: Vec<CorunMix>,
    /// DRAM arbitration policies each mix runs under.
    pub arbiters: Vec<ArbiterPolicy>,
}

impl SweepConfig {
    /// The reduced matrix the tier-1 conformance suite and the default CLI
    /// invocation run: paper basic setup (CLASS C, 4 ranks) on both
    /// emulation anchors, all 7 workloads, all 6 policies, at 1 and 2
    /// ranks per node so migration-vs-compute contention is exercised on
    /// every push.
    pub fn reduced() -> SweepConfig {
        SweepConfig {
            class: Class::C,
            workloads: SUITE_NAMES.iter().map(|s| s.to_string()).collect(),
            policies: PolicyKind::ALL.to_vec(),
            profiles: vec![NvmProfile::BwHalf, NvmProfile::Lat4x],
            ranks: vec![4],
            ranks_per_node: vec![1, 2],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: corun::reduced_mixes(),
            arbiters: ArbiterPolicy::ALL.to_vec(),
        }
    }

    /// The full matrix: all 7 workloads × 6 policies × 5 NVM profiles ×
    /// rank counts {1, 4, 8} × ranks-per-node {1, 2, 4}, plus the
    /// standard co-run mixes.
    pub fn full() -> SweepConfig {
        SweepConfig {
            profiles: NvmProfile::ALL.to_vec(),
            ranks: vec![1, 4, 8],
            ranks_per_node: vec![1, 2, 4],
            coruns: corun::standard_mixes(),
            ..SweepConfig::reduced()
        }
    }

    /// The machine a cell on `profile` runs on: the profile's node with
    /// `ranks_per_node` ranks packed onto it and the matrix's DRAM
    /// capacity override, if any.
    pub(crate) fn machine(&self, profile: NvmProfile, ranks_per_node: usize) -> MachineConfig {
        let m = profile.machine().with_ranks_per_node(ranks_per_node);
        match self.dram_capacity {
            Some(cap) => m.with_dram_capacity(cap),
            None => m,
        }
    }

    /// The valid (ranks, ranks_per_node) pairs, in canonical (ranks
    /// outer, ranks_per_node inner) order: pairs where a node would hold
    /// more ranks than the job has are skipped.
    pub fn rank_layouts(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for &r in &self.ranks {
            for &rpn in &self.ranks_per_node {
                if rpn <= r {
                    out.push((r, rpn));
                }
            }
        }
        out
    }

    /// The (ranks, ranks_per_node) pairs a topology contributes on one
    /// profile's rows, in canonical order: [`SweepConfig::rank_layouts`]
    /// filtered through [`TopologySpec::applies_to`].
    pub fn layouts_for(&self, profile: NvmProfile, topology: &TopologySpec) -> Vec<(usize, usize)> {
        self.rank_layouts()
            .into_iter()
            .filter(|&(r, rpn)| topology.applies_to(profile, r, rpn))
            .collect()
    }

    /// Number of single-tenant cells this matrix produces.
    pub fn n_cells(&self) -> usize {
        let mut rows = 0;
        for &profile in &self.profiles {
            for t in &self.topologies {
                rows += self.layouts_for(profile, t).len();
            }
        }
        self.workloads.len() * self.policies.len() * rows
    }

    /// The rank count the co-run cells execute at: the matrix's largest
    /// (co-runs model the contended production node, so they take the
    /// biggest configured job size). `None` when the ranks axis is empty.
    pub fn corun_ranks(&self) -> Option<usize> {
        self.ranks.iter().copied().max()
    }

    /// Number of per-tenant co-run cells this matrix produces.
    pub fn n_corun_cells(&self) -> usize {
        if self.corun_ranks().is_none() {
            return 0;
        }
        let tenants: usize = self.coruns.iter().map(|m| m.members.len()).sum();
        tenants * self.arbiters.len() * self.profiles.len()
    }

    /// Collapse duplicate policy/profile/rank values in place
    /// (order-preserving), so a duplicated axis entry cannot double-count
    /// cells. Workload names are canonicalized separately (they need the
    /// alias table; see `unimem_workloads::canonicalize_names`).
    pub fn normalize_axes(&mut self) {
        fn dedup<T: PartialEq + Copy>(values: &mut Vec<T>) {
            let mut out = Vec::with_capacity(values.len());
            for &v in values.iter() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            *values = out;
        }
        dedup(&mut self.policies);
        dedup(&mut self.profiles);
        dedup(&mut self.ranks);
        dedup(&mut self.ranks_per_node);
        dedup(&mut self.arbiters);
        // Topologies hold a Vec (not Copy): dedup by equality in place.
        let mut topologies = Vec::with_capacity(self.topologies.len());
        for t in self.topologies.drain(..) {
            if !topologies.contains(&t) {
                topologies.push(t);
            }
        }
        self.topologies = topologies;
        self.coruns = corun::dedup_mixes(std::mem::take(&mut self.coruns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(p.name()), Some(p));
        }
        for p in NvmProfile::ALL {
            assert_eq!(NvmProfile::parse(p.name()), Some(p));
        }
        assert_eq!(PolicyKind::from_name("quartz"), None);
        assert_eq!(NvmProfile::parse("flash"), None);
    }

    #[test]
    fn reduced_matrix_covers_the_whole_policy_registry() {
        // Registry exhaustiveness: a policy added to `unimem::policy`
        // without sweep wiring must fail loudly, not vanish from the
        // matrix. (The runner's exhaustive match is the compile-time
        // half of this guard.)
        assert_eq!(SweepConfig::reduced().policies, PolicyKind::ALL.to_vec());
        assert_eq!(SweepConfig::full().policies, PolicyKind::ALL.to_vec());
    }

    #[test]
    fn matrix_sizes() {
        // Reduced: 4 ranks at 1 and 2 ranks per node.
        assert_eq!(SweepConfig::reduced().n_cells(), 7 * 6 * 2 * 2);
        // Full: layouts = r1×{1} + r4×{1,2,4} + r8×{1,2,4} = 7 pairs.
        assert_eq!(SweepConfig::full().n_cells(), 7 * 6 * 5 * 7);
        // Co-run cells: tenants × arbitration policies × profiles.
        assert_eq!(SweepConfig::reduced().n_corun_cells(), 2 * 3 * 2);
        assert_eq!(SweepConfig::full().n_corun_cells(), (2 + 2 + 3) * 3 * 5);
    }

    #[test]
    fn topology_names_round_trip() {
        let specs = [
            TopologySpec::Flat,
            TopologySpec::Nodes { count: 16 },
            TopologySpec::Mixed {
                profiles: vec![NvmProfile::BwHalf, NvmProfile::Pcram],
            },
        ];
        for t in specs {
            assert_eq!(
                TopologySpec::parse(&t.name()),
                Some(t.clone()),
                "{}",
                t.name()
            );
        }
        assert_eq!(
            TopologySpec::Nodes { count: 16 }.name(),
            "nodes16".to_string()
        );
        assert_eq!(
            TopologySpec::Mixed {
                profiles: vec![NvmProfile::BwHalf, NvmProfile::Pcram]
            }
            .name(),
            "mixed:bw-half+pcram".to_string()
        );
        assert_eq!(TopologySpec::parse("nodes0"), None);
        assert_eq!(TopologySpec::parse("torus"), None);
        assert_eq!(TopologySpec::parse("mixed:flash"), None);
    }

    #[test]
    fn clustered_topologies_attach_to_one_rank_per_node_rows_only() {
        let four_nodes = TopologySpec::Nodes { count: 4 };
        assert!(four_nodes.applies_to(NvmProfile::BwHalf, 8, 1));
        assert!(!four_nodes.applies_to(NvmProfile::BwHalf, 8, 2));
        // A room with more nodes than ranks would leave nodes empty: skip.
        assert!(!four_nodes.applies_to(NvmProfile::BwHalf, 2, 1));
        // Mixed rooms ride only their first profile's rows.
        let mixed = TopologySpec::Mixed {
            profiles: vec![NvmProfile::BwHalf, NvmProfile::Pcram],
        };
        assert!(mixed.applies_to(NvmProfile::BwHalf, 4, 1));
        assert!(!mixed.applies_to(NvmProfile::Pcram, 4, 1));
        assert_eq!(mixed.slots_for(5), 3);
        assert_eq!(four_nodes.slots_for(8), 2);
    }

    #[test]
    fn topology_axis_multiplies_only_applicable_rows() {
        let mut cfg = SweepConfig::reduced();
        let flat_cells = cfg.n_cells();
        cfg.topologies.push(TopologySpec::Nodes { count: 4 });
        // The 4-node room attaches to the (4, 1) layout only, on both
        // profiles: + workloads × policies × profiles cells.
        assert_eq!(cfg.n_cells(), flat_cells + 7 * 6 * 2);
        cfg.topologies.push(TopologySpec::Mixed {
            profiles: vec![NvmProfile::BwHalf, NvmProfile::Lat4x],
        });
        // The mixed room rides bw-half rows only: one more (4, 1) row.
        assert_eq!(cfg.n_cells(), flat_cells + 7 * 6 * 2 + 7 * 6);
        // Dedup removes repeated rooms.
        cfg.topologies.push(TopologySpec::Nodes { count: 4 });
        cfg.normalize_axes();
        assert_eq!(cfg.topologies.len(), 3);
        assert_eq!(cfg.n_cells(), flat_cells + 7 * 6 * 2 + 7 * 6);
    }

    #[test]
    fn rank_layouts_skip_overfull_nodes() {
        let mut cfg = SweepConfig::reduced();
        cfg.ranks = vec![1, 4];
        cfg.ranks_per_node = vec![1, 2, 8];
        assert_eq!(cfg.rank_layouts(), [(1, 1), (4, 1), (4, 2)]);
    }

    #[test]
    fn corun_runs_at_the_largest_rank_count() {
        assert_eq!(SweepConfig::reduced().corun_ranks(), Some(4));
        assert_eq!(SweepConfig::full().corun_ranks(), Some(8));
        let mut cfg = SweepConfig::reduced();
        cfg.ranks.clear();
        assert_eq!(cfg.corun_ranks(), None);
        assert_eq!(cfg.n_corun_cells(), 0);
    }

    #[test]
    fn normalize_axes_dedups_coruns_and_arbiters() {
        let mut cfg = SweepConfig::reduced();
        cfg.coruns.extend(cfg.coruns.clone());
        cfg.arbiters.push(ArbiterPolicy::FairShare);
        cfg.normalize_axes();
        assert_eq!(cfg.coruns.len(), 1);
        assert_eq!(cfg.arbiters.len(), 3);
    }

    #[test]
    fn anchor_profiles_track_dram_technology_rows_do_not() {
        assert!(NvmProfile::BwHalf.tracks_dram());
        assert!(NvmProfile::Lat4x.tracks_dram());
        assert!(!NvmProfile::Pcram.tracks_dram());
        assert!(!NvmProfile::ReRam.supports_drift_win());
    }

    #[test]
    fn machines_differ_from_dram() {
        for p in NvmProfile::ALL {
            let m = p.machine();
            assert!(
                m.nvm != m.dram,
                "{}: NVM must be distinguishable from DRAM",
                p.name()
            );
        }
    }
}
