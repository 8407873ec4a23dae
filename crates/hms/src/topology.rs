//! Explicit cluster topology: possibly-heterogeneous nodes, an
//! inter-node link, and deterministic rank→node placement.
//!
//! Every layer below this module historically assumed one implicit node
//! shape: a single [`MachineConfig`] described every rank's surroundings
//! and `ranks_per_node` carved it into identical nodes. Real NVM fleets
//! are heterogeneous — STT-RAM, PCRAM and ReRAM have incompatible
//! bandwidth/latency/write-asymmetry profiles, so a machine room mixes
//! them — and placement across such nodes is a runtime decision, not a
//! constant. A [`ClusterSpec`] makes the machine room a first-class
//! value: a list of [`NodeSpec`]s (NVM profile + rank slots + copy
//! path, one per node), joined by one kind of inter-node link
//! ([`LINK_BW`], [`LINK_LATENCY`]); a [`ClusterTopology`] adds the
//! rank→node assignment: ranks fill the nodes' slots in node order.
//!
//! Everything here is an immutable value computed before any rank runs,
//! so placement is trivially deterministic; the shared-bandwidth model
//! ([`crate::contention`]) and the DRAM service consume per-node specs
//! from it, and the executor prices collectives on the same assignment.

use crate::profiles::MachineConfig;
use unimem_sim::{Bandwidth, VDur};

/// One node of the machine room: its memory system and how many rank
/// slots it offers.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// The node's memory system (tiers, capacities, copy path). The
    /// config's own `ranks_per_node` is ignored here — `slots` is
    /// authoritative for this node.
    pub machine: MachineConfig,
    /// Rank slots this node offers.
    pub slots: usize,
}

/// The machine room: its nodes, joined by the inter-node link.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The nodes, in node-id order. Heterogeneity is per-node: mixed
    /// NVM technologies in one spec are expected, not special.
    pub nodes: Vec<NodeSpec>,
}

/// Per-direction bandwidth of one node's link to the interconnect (the
/// resource the `LinkUp`/`LinkDown` ledger channels meter): 2.5 GB/s,
/// deliberately slower than the intra-node fabric
/// (`unimem::comm::NetParams::NODE`: 5 GB/s, 2 µs) and than any node's
/// DRAM, so crossing a link costs more than staying inside a node and
/// the link is worth metering.
pub const LINK_BW: Bandwidth = Bandwidth::gb_per_s(2.5);

/// One-hop link latency (the inter-node collective alpha). See
/// [`LINK_BW`].
pub const LINK_LATENCY: VDur = VDur::from_micros(5.0);

impl ClusterSpec {
    /// `n_nodes` identical nodes with `slots` rank slots each.
    pub fn homogeneous(machine: MachineConfig, n_nodes: usize, slots: usize) -> ClusterSpec {
        assert!(n_nodes >= 1 && slots >= 1);
        ClusterSpec {
            nodes: (0..n_nodes)
                .map(|_| NodeSpec {
                    machine: machine.clone(),
                    slots,
                })
                .collect(),
        }
    }

    /// One node per machine, `slots` rank slots each — the
    /// mixed-profile layout the heterogeneous sweeps use.
    pub fn mixed(machines: Vec<MachineConfig>, slots: usize) -> ClusterSpec {
        assert!(!machines.is_empty() && slots >= 1);
        ClusterSpec {
            nodes: machines
                .into_iter()
                .map(|machine| NodeSpec { machine, slots })
                .collect(),
        }
    }

    /// Total rank slots across the room.
    pub fn total_slots(&self) -> usize {
        self.nodes.iter().map(|n| n.slots).sum()
    }
}

/// A machine room plus a concrete rank→node assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTopology {
    spec: ClusterSpec,
    /// `node_of[r]` = node of rank `r`. Dense rank ids, immutable.
    node_of: Vec<usize>,
}

impl ClusterTopology {
    /// Contiguous assignment: ranks fill node 0's slots, then node 1's,
    /// … Panics if the room has fewer slots than ranks.
    pub fn contiguous(spec: ClusterSpec, nranks: usize) -> ClusterTopology {
        assert!(nranks >= 1);
        assert!(
            spec.total_slots() >= nranks,
            "{nranks} ranks into {} slots",
            spec.total_slots()
        );
        let mut node_of = Vec::with_capacity(nranks);
        'fill: for (n, node) in spec.nodes.iter().enumerate() {
            for _ in 0..node.slots {
                if node_of.len() == nranks {
                    break 'fill;
                }
                node_of.push(n);
            }
        }
        ClusterTopology { spec, node_of }
    }

    /// The legacy single-profile layout: `machine.ranks_per_node` ranks
    /// per node, `nranks.div_ceil(ranks_per_node)` identical nodes —
    /// the node structure a flat `MachineConfig` has always implied, as
    /// an explicit topology. Every flat run's DRAM service and bandwidth
    /// ledgers are built over this room.
    pub fn homogeneous(machine: &MachineConfig, nranks: usize) -> ClusterTopology {
        assert!(nranks >= 1);
        let rpn = machine.ranks_per_node;
        let n_nodes = nranks.div_ceil(rpn);
        ClusterTopology::contiguous(
            ClusterSpec::homogeneous(machine.clone(), n_nodes, rpn),
            nranks,
        )
    }

    pub fn nranks(&self) -> usize {
        self.node_of.len()
    }

    pub fn n_nodes(&self) -> usize {
        self.spec.nodes.len()
    }

    /// The node rank `rank` is assigned to.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// The full rank→node assignment.
    pub fn node_assignment(&self) -> &[usize] {
        &self.node_of
    }

    /// The node spec of node `n`.
    pub fn node(&self, n: usize) -> &NodeSpec {
        &self.spec.nodes[n]
    }

    /// The machine surrounding `rank`.
    pub fn machine_of(&self, rank: usize) -> &MachineConfig {
        &self.spec.nodes[self.node_of[rank]].machine
    }

    /// Ranks actually assigned to node `n` (≤ its slots).
    pub fn occupancy(&self, n: usize) -> usize {
        self.node_of.iter().filter(|&&x| x == n).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{table1_pcram, table1_stt_ram};

    fn fast() -> MachineConfig {
        MachineConfig::technology(table1_stt_ram(), "stt-ram")
    }

    fn slow() -> MachineConfig {
        MachineConfig::technology(table1_pcram(), "pcram")
    }

    #[test]
    fn homogeneous_matches_legacy_div_ceil_layout() {
        let m = MachineConfig::nvm_bw_fraction(0.5).with_ranks_per_node(4);
        let t = ClusterTopology::homogeneous(&m, 6);
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.occupancy(0), 4);
        assert_eq!(t.occupancy(1), 2);
    }

    #[test]
    fn mixed_rooms_give_each_rank_its_nodes_machine() {
        let spec = ClusterSpec::mixed(vec![fast(), slow(), fast()], 2);
        let t = ClusterTopology::contiguous(spec, 6);
        assert_eq!(t.machine_of(0), t.machine_of(5));
        assert_ne!(t.machine_of(0).nvm, t.machine_of(2).nvm);
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn overcommitted_rooms_are_rejected() {
        ClusterTopology::contiguous(ClusterSpec::homogeneous(fast(), 1, 2), 3);
    }
}
