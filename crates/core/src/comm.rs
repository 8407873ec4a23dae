//! Virtual-clock communication timing.
//!
//! The paper targets MPI programs on a small cluster. Unimem sees such a
//! job only through the phases its PMPI wrapper delimits, so the
//! executor models communication by *time*, never by values: every rank
//! owns a virtual clock (`exec::RankTime`), and the executor resolves
//! each communication point centrally from the ranks' entry clocks:
//!
//! * collectives — everyone leaves at `max(entry clocks) + collective
//!   cost` (log-tree latency plus a size-dependent term, [`NetParams`]),
//!   priced over two levels when ranks span the nodes of a
//!   [`ClusterTopology`] ([`collective_timing`]);
//! * point-to-point — a message lands `alpha + bytes/beta` after its
//!   send, and the receiver leaves at
//!   `max(local + overhead, arrival)`.
//!
//! Collectives carry byte counts, never values, so the timeline is a
//! pure function of the entry clocks and independent of host
//! scheduling.
//!
//! A phase is named by its [`PhaseId`]: the step index of the script
//! the executor walks, which is the "global counter" the paper's PMPI
//! wrapper keeps per iteration (§3.3).

use std::fmt;
use unimem_hms::topology::{ClusterTopology, LINK_BW, LINK_LATENCY};
use unimem_sim::{Bandwidth, Bytes, VDur, VTime};

/// Collective operation shapes with distinct cost structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    Barrier,
    /// Reduce + broadcast of `n` bytes.
    Allreduce,
    Bcast,
    /// Personalized all-to-all exchange of `n` bytes per pair.
    Alltoall,
}

/// Interconnect parameters, with standard LogP-flavoured costs: a
/// point-to-point message of `n` bytes takes `alpha + n/beta`; a
/// collective over `p` ranks costs `ceil(log2 p) · alpha` plus a size
/// term depending on its shape. [`NetParams::NODE`] prices traffic inside
/// a node, [`NetParams::LINK`] traffic between nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Per-message latency.
    pub alpha: VDur,
    /// Link bandwidth.
    pub beta: Bandwidth,
    /// Software overhead charged on the sender/receiver per call.
    pub overhead: VDur,
}

/// Software overhead per call, on the intra-node fabric and the link.
const OVERHEAD: VDur = VDur::from_nanos(400.0);

impl NetParams {
    /// The intra-node fabric, a modest FDR-class network (only relative
    /// magnitudes matter for the figures).
    pub const NODE: NetParams = NetParams {
        alpha: VDur::from_micros(2.0),
        beta: Bandwidth::gb_per_s(5.0),
        overhead: OVERHEAD,
    };

    /// The inter-node link of every machine room, with the default
    /// software overhead.
    pub const LINK: NetParams = NetParams {
        alpha: LINK_LATENCY,
        beta: LINK_BW,
        overhead: OVERHEAD,
    };

    /// Wire time of a point-to-point message.
    pub fn p2p_time(&self, bytes: Bytes) -> VDur {
        self.alpha + bytes / self.beta
    }

    /// Cost of a collective over `p` ranks moving `bytes` per rank.
    pub fn collective_time(&self, kind: CollectiveKind, p: usize, bytes: Bytes) -> VDur {
        let log_p = (p.max(1) as f64).log2().ceil().max(1.0);
        let latency = self.alpha * log_p;
        match kind {
            CollectiveKind::Barrier => latency,
            CollectiveKind::Allreduce => latency * 2.0 + (bytes / self.beta) * 2.0,
            CollectiveKind::Bcast => latency + bytes / self.beta,
            CollectiveKind::Alltoall => {
                // p-1 pairwise exchanges of `bytes` each.
                latency + (bytes / self.beta) * ((p.saturating_sub(1)) as f64)
            }
        }
    }
}

/// Stable identifier of a program phase within the main loop: the index
/// of its step in the per-iteration script, so phase *k* of every
/// iteration denotes the same program region (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhaseId(pub u32);

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase{}", self.0)
    }
}

/// The timing decomposition of one two-level collective.
#[derive(Debug, Clone, PartialEq)]
pub struct HierTiming {
    /// When every node's intra-node phase has finished: the instant the
    /// inter-node phase starts. Equals `leave` in a flat world.
    pub t_meet: VTime,
    /// Duration of the inter-node phase over the cluster link
    /// ([`VDur::ZERO`] in a flat world).
    pub inter: VDur,
    /// Synchronized departure time (`t_meet + inter`), before any link
    /// contention penalty the caller may add.
    pub leave: VTime,
    /// Each occupied node's leader, its lowest rank, in node order
    /// (empty in a flat world): the ranks whose links carry the
    /// inter-node phase.
    pub leaders: Vec<usize>,
}

/// Price one collective over `clocks` (per-rank entry times, indexed by
/// rank), in `room` or, for `None`, in the flat world.
///
/// * **Flat (no room, or every rank on one node):** `leave = max(clocks)
///   + NODE.collective_time(kind, nranks, bytes)`.
/// * **Multi-node:** each node finishes its intra-node phase at
///   `max(clocks on node) + NODE.collective_time(kind, ranks on node,
///   bytes)` (a node with one rank has no intra phase); the inter-node
///   phase starts when the slowest node is ready (`t_meet`) and costs
///   the room link's `collective_time(kind, occupied nodes, bytes)`
///   among the leaders. The `collective_time` kind already prices both
///   the up and down legs for `Allreduce`, so the node-local term covers
///   the leader's rebroadcast too.
///
/// One pass over the ranks gathers every node's latest clock, rank count
/// and leader; nodes without ranks take no part.
pub fn collective_timing(
    clocks: &[VTime],
    kind: CollectiveKind,
    bytes: Bytes,
    room: Option<&ClusterTopology>,
) -> HierTiming {
    let flat = || {
        let max_clock = clocks.iter().fold(VTime::ZERO, |acc, &c| acc.max(c));
        let leave = max_clock + NetParams::NODE.collective_time(kind, clocks.len(), bytes);
        HierTiming {
            t_meet: leave,
            inter: VDur::ZERO,
            leave,
            leaders: Vec::new(),
        }
    };
    let Some(room) = room else {
        return flat();
    };
    assert_eq!(clocks.len(), room.nranks());
    // Per node: (latest entry clock, ranks, lowest rank).
    let mut nodes = vec![(VTime::ZERO, 0usize, 0usize); room.n_nodes()];
    for (rank, &c) in clocks.iter().enumerate() {
        let node = &mut nodes[room.node_of(rank)];
        if node.1 == 0 {
            node.2 = rank;
        }
        node.0 = node.0.max(c);
        node.1 += 1;
    }
    nodes.retain(|&(_, ranks, _)| ranks > 0);
    if nodes.len() == 1 {
        return flat();
    }
    let mut t_meet = VTime::ZERO;
    for &(node_max, ranks, _) in &nodes {
        let t_leader = if ranks > 1 {
            node_max + NetParams::NODE.collective_time(kind, ranks, bytes)
        } else {
            node_max
        };
        t_meet = t_meet.max(t_leader);
    }
    let inter = NetParams::LINK.collective_time(kind, nodes.len(), bytes);
    HierTiming {
        t_meet,
        inter,
        leave: t_meet + inter,
        leaders: nodes.iter().map(|&(_, _, leader)| leader).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::topology::ClusterSpec;
    use unimem_hms::MachineConfig;

    fn t(s: f64) -> VTime {
        VTime(s)
    }

    /// `n_nodes` nodes of `slots` rank slots, filled by `nranks` ranks.
    fn room(n_nodes: usize, slots: usize, nranks: usize) -> ClusterTopology {
        let machine = MachineConfig::nvm_bw_fraction(0.5);
        ClusterTopology::contiguous(ClusterSpec::homogeneous(machine, n_nodes, slots), nranks)
    }

    #[test]
    fn p2p_cost_has_latency_and_bandwidth_terms() {
        let n = NetParams::NODE;
        let small = n.p2p_time(Bytes(8));
        let big = n.p2p_time(Bytes::mib(10));
        assert!(small.secs() >= n.alpha.secs());
        // 10 MiB at 5 GB/s ≈ 2.1 ms ≫ alpha.
        assert!(big.secs() > 2e-3);
    }

    #[test]
    fn collective_scales_logarithmically() {
        let n = NetParams::NODE;
        let b4 = n.collective_time(CollectiveKind::Barrier, 4, Bytes::ZERO);
        let b16 = n.collective_time(CollectiveKind::Barrier, 16, Bytes::ZERO);
        assert!((b16.secs() / b4.secs() - 2.0).abs() < 1e-9); // log 16 / log 4
    }

    #[test]
    fn allreduce_costs_more_than_bcast() {
        let n = NetParams::NODE;
        let bytes = Bytes::kib(64);
        assert!(
            n.collective_time(CollectiveKind::Allreduce, 8, bytes)
                > n.collective_time(CollectiveKind::Bcast, 8, bytes)
        );
    }

    #[test]
    fn alltoall_grows_with_ranks() {
        let n = NetParams::NODE;
        let bytes = Bytes::mib(1);
        let a4 = n.collective_time(CollectiveKind::Alltoall, 4, bytes);
        let a8 = n.collective_time(CollectiveKind::Alltoall, 8, bytes);
        assert!(a8 > a4);
    }

    #[test]
    fn single_rank_collective_is_cheap_but_positive() {
        let n = NetParams::NODE;
        let t = n.collective_time(CollectiveKind::Barrier, 1, Bytes::ZERO);
        assert!(t > VDur::ZERO);
    }

    #[test]
    fn flat_timing_matches_legacy_formula() {
        let clocks = [t(1.0), t(3.0), t(2.0), t(0.5)];
        let expect =
            t(3.0) + NetParams::NODE.collective_time(CollectiveKind::Allreduce, 4, Bytes(1024));
        // The flat world, and a room whose ranks all share one node.
        for room in [None, Some(&room(2, 4, 4))] {
            let ht = collective_timing(&clocks, CollectiveKind::Allreduce, Bytes(1024), room);
            assert_eq!(ht.leave, expect);
            assert_eq!(ht.t_meet, expect);
            assert!(ht.inter.is_zero());
            assert!(ht.leaders.is_empty());
        }
    }

    #[test]
    fn two_level_timing_decomposes() {
        let clocks = [t(1.0), t(2.0), t(4.0), t(3.0)];
        let room = room(2, 2, 4);
        let ht = collective_timing(&clocks, CollectiveKind::Barrier, Bytes(0), Some(&room));
        // Node 0 leader ready at 2.0 + intra(2), node 1 at 4.0 + intra(2).
        let intra_dur = NetParams::NODE.collective_time(CollectiveKind::Barrier, 2, Bytes(0));
        assert_eq!(ht.t_meet, t(4.0) + intra_dur);
        assert_eq!(
            ht.inter,
            NetParams::LINK.collective_time(CollectiveKind::Barrier, 2, Bytes(0))
        );
        assert_eq!(ht.leave, ht.t_meet + ht.inter);
        assert_eq!(ht.leaders, [0, 2]);
    }

    #[test]
    fn lone_rank_nodes_skip_the_intra_phase() {
        let clocks = [t(1.0), t(2.0)];
        // Three one-slot nodes, the last left empty: it takes no part.
        let room = room(3, 1, 2);
        let ht = collective_timing(&clocks, CollectiveKind::Allreduce, Bytes(64), Some(&room));
        assert_eq!(ht.t_meet, t(2.0), "no intra phase on 1-rank nodes");
        assert_eq!(
            ht.inter,
            NetParams::LINK.collective_time(CollectiveKind::Allreduce, 2, Bytes(64))
        );
        assert_eq!(ht.leaders, [0, 1]);
    }
}
