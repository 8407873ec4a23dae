//! Rank→node placement and two-level collective timing.
//!
//! A flat node prices every collective as
//! `collective_time(kind, nranks, bytes)` over the whole world. A
//! [`RankPlacement`] makes the node boundary explicit, and
//! [`collective_timing`] prices the two-level schedule the paper's
//! cluster runs would use — an intra-node phase per node (leader
//! election is implicit: the lowest rank on each node is its leader),
//! then an inter-node phase among leaders over the cluster link.
//!
//! Placement moves only *timing*, and a single-node placement collapses
//! exactly to the flat formula. The executor charges the inter-node
//! phase against the per-node `LinkUp`/`LinkDown` ledger channels so
//! link contention composes with tier contention.

use crate::net::{CollectiveKind, NetParams};
use unimem_sim::{Bytes, VDur, VTime};

/// Which node each rank lives on. Node ids are dense (`0..n_nodes`) and
/// placements are immutable once built, so timing derived from one is a
/// pure function of rank clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlacement {
    node_of: Vec<usize>,
    n_nodes: usize,
}

impl RankPlacement {
    /// All ranks on one node — the legacy flat world.
    pub fn single(nranks: usize) -> RankPlacement {
        assert!(nranks >= 1);
        RankPlacement {
            node_of: vec![0; nranks],
            n_nodes: 1,
        }
    }

    /// Contiguous blocks of `ranks_per_node` ranks per node (the last
    /// node may be short) — the same layout the shared-bandwidth model
    /// has always used for `ranks_per_node`.
    pub fn blocks(nranks: usize, ranks_per_node: usize) -> RankPlacement {
        assert!(nranks >= 1 && ranks_per_node >= 1);
        let node_of: Vec<usize> = (0..nranks).map(|r| r / ranks_per_node).collect();
        let n_nodes = nranks.div_ceil(ranks_per_node);
        RankPlacement { node_of, n_nodes }
    }

    /// Explicit placement: `node_of[r]` is rank `r`'s node. Node ids
    /// must be dense (every id in `0..max+1` occupied).
    pub fn from_node_of(node_of: Vec<usize>) -> RankPlacement {
        assert!(!node_of.is_empty());
        let n_nodes = node_of.iter().max().copied().unwrap_or(0) + 1;
        for node in 0..n_nodes {
            assert!(
                node_of.contains(&node),
                "node {node} has no ranks (ids must be dense)"
            );
        }
        RankPlacement { node_of, n_nodes }
    }

    pub fn nranks(&self) -> usize {
        self.node_of.len()
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The node rank `rank` lives on.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Number of ranks on `node`.
    pub fn slots(&self, node: usize) -> usize {
        self.node_of.iter().filter(|&&n| n == node).count()
    }

    /// The node's leader: its lowest rank.
    pub fn leader(&self, node: usize) -> usize {
        self.node_of
            .iter()
            .position(|&n| n == node)
            .expect("dense node ids")
    }

    /// Whether two ranks share a node (their traffic never touches the
    /// inter-node link).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }

    /// A single-node placement prices collectives exactly like the flat
    /// world.
    pub fn is_flat(&self) -> bool {
        self.n_nodes == 1
    }
}

/// The timing decomposition of one two-level collective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierTiming {
    /// When every node's intra-node phase has finished: the instant the
    /// inter-node phase starts. Equals `leave` on a flat placement.
    pub t_meet: VTime,
    /// Duration of the inter-node phase over the cluster link
    /// ([`VDur::ZERO`] on a flat placement).
    pub inter: VDur,
    /// Synchronized departure time (`t_meet + inter`), before any link
    /// contention penalty the caller may add.
    pub leave: VTime,
}

/// Price one collective over `clocks` (per-rank entry times, indexed by
/// rank) under `placement`.
///
/// * **Flat (1 node):** `leave = max(clocks) + intra.collective_time(kind,
///   nranks, bytes)` — bit-identical to the historical formula.
/// * **Multi-node:** each node finishes its intra-node phase at
///   `max(clocks on node) + intra.collective_time(kind, slots, bytes)`
///   (a node with one rank has no intra phase); the inter-node phase
///   starts when the slowest node is ready (`t_meet`) and costs
///   `link.collective_time(kind, n_nodes, bytes)` among the leaders.
///   The `collective_time` kind already prices both the up and down
///   legs for `Allreduce`, so the node-local term covers the leader's
///   rebroadcast too.
pub fn collective_timing(
    clocks: &[VTime],
    kind: CollectiveKind,
    bytes: Bytes,
    intra: &NetParams,
    placement: &RankPlacement,
    link: &NetParams,
) -> HierTiming {
    assert_eq!(clocks.len(), placement.nranks());
    if placement.is_flat() {
        let max_clock = clocks.iter().fold(VTime::ZERO, |acc, &c| acc.max(c));
        let leave = max_clock + intra.collective_time(kind, clocks.len(), bytes);
        return HierTiming {
            t_meet: leave,
            inter: VDur::ZERO,
            leave,
        };
    }
    let mut t_meet = VTime::ZERO;
    for node in 0..placement.n_nodes() {
        let mut node_max = VTime::ZERO;
        let mut slots = 0usize;
        for (rank, &c) in clocks.iter().enumerate() {
            if placement.node_of(rank) == node {
                node_max = node_max.max(c);
                slots += 1;
            }
        }
        let t_leader = if slots > 1 {
            node_max + intra.collective_time(kind, slots, bytes)
        } else {
            node_max
        };
        t_meet = t_meet.max(t_leader);
    }
    let inter = link.collective_time(kind, placement.n_nodes(), bytes);
    HierTiming {
        t_meet,
        inter,
        leave: t_meet + inter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VTime {
        VTime(s)
    }

    #[test]
    fn single_placement_is_flat() {
        let p = RankPlacement::single(4);
        assert!(p.is_flat());
        assert_eq!(p.n_nodes(), 1);
        assert_eq!(p.slots(0), 4);
        assert_eq!(p.leader(0), 0);
        assert!(p.same_node(0, 3));
    }

    #[test]
    fn blocks_layout_matches_div_ceil() {
        let p = RankPlacement::blocks(6, 4);
        assert_eq!(p.n_nodes(), 2);
        assert_eq!(p.node_of(3), 0);
        assert_eq!(p.node_of(4), 1);
        assert_eq!(p.slots(0), 4);
        assert_eq!(p.slots(1), 2);
        assert_eq!(p.leader(1), 4);
        assert!(!p.same_node(3, 4));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_node_ids_rejected() {
        RankPlacement::from_node_of(vec![0, 2]);
    }

    #[test]
    fn flat_timing_matches_legacy_formula() {
        let net = NetParams::default();
        let clocks = [t(1.0), t(3.0), t(2.0), t(0.5)];
        let ht = collective_timing(
            &clocks,
            CollectiveKind::Allreduce,
            Bytes(1024),
            &net,
            &RankPlacement::single(4),
            &net,
        );
        let expect = t(3.0) + net.collective_time(CollectiveKind::Allreduce, 4, Bytes(1024));
        assert_eq!(ht.leave, expect);
        assert_eq!(ht.t_meet, expect);
        assert!(ht.inter.is_zero());
    }

    #[test]
    fn two_level_timing_decomposes() {
        let intra = NetParams::default();
        let link = NetParams::default();
        let clocks = [t(1.0), t(2.0), t(4.0), t(3.0)];
        let p = RankPlacement::blocks(4, 2);
        let ht = collective_timing(
            &clocks,
            CollectiveKind::Barrier,
            Bytes(0),
            &intra,
            &p,
            &link,
        );
        // Node 0 leader ready at 2.0 + intra(2), node 1 at 4.0 + intra(2).
        let intra_dur = intra.collective_time(CollectiveKind::Barrier, 2, Bytes(0));
        assert_eq!(ht.t_meet, t(4.0) + intra_dur);
        assert_eq!(
            ht.inter,
            link.collective_time(CollectiveKind::Barrier, 2, Bytes(0))
        );
        assert_eq!(ht.leave, ht.t_meet + ht.inter);
    }

    #[test]
    fn lone_rank_nodes_skip_the_intra_phase() {
        let net = NetParams::default();
        let clocks = [t(1.0), t(2.0)];
        let p = RankPlacement::blocks(2, 1);
        let ht = collective_timing(
            &clocks,
            CollectiveKind::Allreduce,
            Bytes(64),
            &net,
            &p,
            &net,
        );
        assert_eq!(ht.t_meet, t(2.0), "no intra phase on 1-rank nodes");
        assert_eq!(
            ht.inter,
            net.collective_time(CollectiveKind::Allreduce, 2, Bytes(64))
        );
    }
}
