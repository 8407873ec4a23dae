//! Per-node user-level DRAM space service.
//!
//! "Each node runs an instance of such service. The service coordinates the
//! DRAM allocation from multiple MPI processes on the same node" (§3.3).
//! The coordination is a **static equal split**: each of a node's rank
//! slots owns `node_dram / slots` of that node's allowance, served by its
//! own [`SpaceAllocator`]. Requests never block — a rank that cannot get
//! space keeps its object in NVM, exactly as the runtime's knapsack
//! assumes (the knapsack's capacity input *is* this per-rank share, so
//! planner and service agree by construction). Nodes may be
//! heterogeneous: [`DramService::from_nodes`] takes each node's DRAM
//! allowance and slot count from its spec in the [`ClusterTopology`], so
//! ranks on a big-memory node get bigger shares than ranks on a small
//! one.
//!
//! Why not one first-fit pool per node? The planner. Each rank's
//! knapsack plans against its per-rank share, so the service serves
//! exactly that share: a rank never borrows an idle neighbour's space,
//! and its admissions are a pure function of its own program order, not
//! of how its node's ranks interleave (one node's ranks alternate within
//! every round the executor advances). Region offsets are rebased per
//! (node, slot) with node bases laid out by prefix sums of node
//! capacities, so regions across the whole job remain pairwise disjoint
//! addresses.

use crate::alloc::{Region, SpaceAllocator};
use crate::topology::ClusterTopology;
use std::cell::{RefCell, RefMut};
use unimem_sim::Bytes;

/// The DRAM services of every node in the job, shared by reference
/// among the run's rank tasks.
#[derive(Debug)]
pub struct DramService {
    /// One allocator per rank (its slot's share of its node's allowance).
    slots: Vec<RefCell<SpaceAllocator>>,
    /// Rank → node.
    node_of: Vec<usize>,
    /// Rank → base address of its slot in the job address space.
    bases: Vec<u64>,
    /// Node → its rank slots.
    node_slots: Vec<usize>,
}

impl DramService {
    /// One allocator per rank over an explicit (possibly heterogeneous)
    /// machine room: node `n`'s allowance is its spec's `dram_capacity`,
    /// split statically among its `slots` rank slots.
    pub fn from_nodes(topo: &ClusterTopology) -> DramService {
        let caps = (0..topo.n_nodes())
            .map(|n| {
                let node = topo.node(n);
                (node.machine.dram_capacity, node.slots)
            })
            .collect();
        DramService::build(caps, topo.node_assignment().to_vec())
    }

    /// `caps[n]` = (node allowance, slot count) for node `n`; `node_of`
    /// maps each rank to its node. Node address bases are prefix sums of
    /// the allowances; slot offsets within a node follow rank order.
    fn build(caps: Vec<(Bytes, usize)>, node_of: Vec<usize>) -> DramService {
        assert!(!node_of.is_empty());
        let n_nodes = caps.len();
        let mut node_base = Vec::with_capacity(n_nodes);
        let mut acc = 0u64;
        for &(cap, slots) in &caps {
            assert!(slots >= 1);
            node_base.push(acc);
            acc += cap.get();
        }
        let mut seen = vec![0usize; n_nodes];
        let mut bases = Vec::with_capacity(node_of.len());
        let mut shares = Vec::with_capacity(node_of.len());
        for &n in &node_of {
            let (cap, slots) = caps[n];
            let share = Bytes(cap.get() / slots as u64);
            let slot = seen[n];
            assert!(slot < slots, "node {n} overcommitted");
            seen[n] += 1;
            bases.push(node_base[n] + slot as u64 * share.get());
            shares.push(share);
        }
        DramService {
            slots: shares
                .iter()
                .map(|&s| RefCell::new(SpaceAllocator::new(s)))
                .collect(),
            node_of,
            bases,
            node_slots: caps.iter().map(|&(_, slots)| slots).collect(),
        }
    }

    /// `rank`'s allocator: only that rank's program order takes it.
    fn slot(&self, rank: usize) -> RefMut<'_, SpaceAllocator> {
        self.slots[rank].borrow_mut()
    }

    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Try to reserve `size` bytes of DRAM for `rank` from its static
    /// share. Non-blocking.
    pub fn reserve(&self, rank: usize, size: Bytes) -> Option<Region> {
        let mut region = self.slot(rank).alloc(size)?;
        region.offset += self.bases[rank];
        Some(region)
    }

    /// Return a region previously granted to `rank`.
    pub fn release(&self, rank: usize, mut region: Region) {
        region.offset -= self.bases[rank];
        self.slot(rank).free(region);
    }

    /// Free DRAM in `rank`'s share right now.
    pub fn available(&self, rank: usize) -> Bytes {
        self.slot(rank).available()
    }

    /// `rank`'s slice of a node-level byte budget (a DRAM lease): the
    /// budget split among the rank's node slots, as the allowance is.
    /// The planner's knapsack capacity, so planner and service agree.
    pub fn per_rank(&self, rank: usize, node_budget: Bytes) -> Bytes {
        Bytes(node_budget.get() / self.node_slots[self.node_of[rank]] as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{table1_pcram, table1_stt_ram, MachineConfig};
    use crate::topology::ClusterSpec;

    /// The service of `ranks` ranks packed `ranks_per_node` per node of
    /// `dram_per_node` each (the last node may be partially filled).
    fn service(ranks: usize, ranks_per_node: usize, dram_per_node: Bytes) -> DramService {
        let m = MachineConfig::nvm_bw_fraction(0.5)
            .with_ranks_per_node(ranks_per_node)
            .with_dram_capacity(dram_per_node);
        DramService::from_nodes(&ClusterTopology::homogeneous(&m, ranks))
    }

    #[test]
    fn ranks_map_to_nodes() {
        let s = service(8, 4, Bytes::mib(256));
        assert_eq!(s.node_of(0), 0);
        assert_eq!(s.node_of(3), 0);
        assert_eq!(s.node_of(4), 1);
        assert_eq!(s.node_of(7), 1);
    }

    #[test]
    fn uneven_last_node() {
        let s = service(5, 4, Bytes::mib(1));
        assert_eq!(s.node_of(3), 0);
        assert_eq!(s.node_of(4), 1);
        // The straggler keeps a slot-sized share, not the whole node.
        assert_eq!(s.available(4), s.available(0));
    }

    #[test]
    fn node_allowance_splits_statically_per_rank() {
        let s = service(2, 2, Bytes(100));
        assert_eq!(s.available(0), Bytes(50));
        // A lease is sliced by the same slot count the allowance is.
        assert_eq!(s.per_rank(1, Bytes(100)), s.available(1));
        assert_eq!(s.per_rank(1, Bytes(60)), Bytes(30));
        // A rank cannot exceed its share even while the neighbor is idle:
        // the planner's capacity input is the share, and borrowing would
        // make admission depend on host scheduling.
        assert!(s.reserve(0, Bytes(80)).is_none());
        let r = s.reserve(0, Bytes(50)).unwrap();
        // The neighbor's share is untouched either way.
        assert_eq!(s.available(1), Bytes(50));
        assert!(s.reserve(1, Bytes(40)).is_some());
        s.release(0, r);
        assert_eq!(s.available(0), Bytes(50));
    }

    #[test]
    fn colocated_regions_never_alias() {
        let s = service(4, 2, Bytes(100));
        // Ranks 0/1 share node 0, ranks 2/3 node 1; same-shaped
        // reservations must land on pairwise disjoint addresses.
        let regions: Vec<Region> = (0..4).map(|r| s.reserve(r, Bytes(30)).unwrap()).collect();
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                assert!(
                    a.offset + a.len <= b.offset || b.offset + b.len <= a.offset,
                    "overlap: {a:?} vs {b:?}"
                );
            }
        }
        // Release round-trips through the rebasing.
        for (r, region) in regions.into_iter().enumerate() {
            s.release(r, region);
            assert_eq!(s.available(r), Bytes(50));
        }
    }

    #[test]
    fn ranks_on_different_nodes_are_independent() {
        let s = service(2, 1, Bytes(100));
        let _ = s.reserve(0, Bytes(100)).unwrap();
        assert!(s.reserve(1, Bytes(100)).is_some());
    }

    #[test]
    fn reservations_are_order_independent_across_ranks() {
        // The allocation outcome for one rank is a pure function of its
        // own request history — co-located activity cannot change it.
        let solo = service(2, 2, Bytes(1000));
        let busy = service(2, 2, Bytes(1000));
        for _ in 0..30 {
            let _ = busy.reserve(1, Bytes(17));
        }
        for i in 0..20 {
            let a = solo.reserve(0, Bytes(7 * (i % 3) + 1));
            let b = busy.reserve(0, Bytes(7 * (i % 3) + 1));
            assert_eq!(a.map(|r| r.len), b.map(|r| r.len));
        }
        assert_eq!(solo.available(0), busy.available(0));
    }

    #[test]
    fn concurrent_reservations_never_overcommit() {
        // Four co-located ranks reserve in turn, 50 times each: their
        // concurrency is virtual, interleaved as the executor advances
        // one node's ranks within a round.
        let s = service(4, 4, Bytes(1000));
        let mut grants: Vec<Vec<Region>> = vec![Vec::new(); 4];
        for _ in 0..50 {
            for (rank, mine) in grants.iter_mut().enumerate() {
                mine.extend(s.reserve(rank, Bytes(7)));
            }
        }
        let total: u64 = grants.iter().flatten().map(|r| r.len).sum();
        assert!(total <= 1000, "overcommitted: {total}");
        // Regions must be pairwise disjoint.
        let mut all: Vec<_> = grants.into_iter().flatten().collect();
        all.sort_by_key(|r| r.offset);
        for w in all.windows(2) {
            assert!(w[0].offset + w[0].len <= w[1].offset, "overlap: {w:?}");
        }
    }

    #[test]
    fn heterogeneous_nodes_grant_their_own_shares() {
        let big =
            MachineConfig::technology(table1_stt_ram(), "stt-ram").with_dram_capacity(Bytes(400));
        let small =
            MachineConfig::technology(table1_pcram(), "pcram").with_dram_capacity(Bytes(100));
        let topo = ClusterTopology::contiguous(ClusterSpec::mixed(vec![big, small], 2), 4);
        let s = DramService::from_nodes(&topo);
        assert_eq!(s.available(0), Bytes(200), "big-memory node share");
        assert_eq!(s.available(2), Bytes(50), "small-memory node share");
        // Shares stay disjoint across the heterogeneous bases.
        let regions: Vec<Region> = (0..4).map(|r| s.reserve(r, Bytes(40)).unwrap()).collect();
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                assert!(
                    a.offset + a.len <= b.offset || b.offset + b.len <= a.offset,
                    "overlap: {a:?} vs {b:?}"
                );
            }
        }
    }
}
