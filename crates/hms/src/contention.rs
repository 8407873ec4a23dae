//! Node-level shared-bandwidth model: co-located ranks and the helper
//! thread's migration traffic fight for the same tier pools.
//!
//! Each node of the [`ClusterTopology`] carries its own tier parameters —
//! nodes in a heterogeneous machine room do not share an NVM profile.
//! This module owns the ways that per-node bandwidth gets divided:
//!
//! 1. **Compute vs. compute** — the ranks packed on a node are symmetric
//!    SPMD streams running the same phase concurrently, so each rank's
//!    baseline share of a direction's bandwidth is `node_bw / occupancy`
//!    (occupancy = ranks actually placed on the node).
//! 2. **Compute vs. helper** — a DRAM←→NVM copy draws from *both* tiers'
//!    pools (read on the source, write on the destination). Copies are
//!    posted as flows on a per-node [`BwLedger`]; a compute phase that
//!    overlaps them loses bandwidth proportionally:
//!
//!    ```text
//!    avail_dir = node_bw_dir / (occupancy × (1 + L_dir))
//!    L_dir     = flow_rate_dir / node_bw_dir
//!    ```
//!
//!    which is the proportional split between `occupancy` saturating
//!    compute streams and helper flows at aggregate rate
//!    `flow_rate_dir`. The helper's own slice is reserved (its copy rate
//!    is the node copy path divided by occupancy, fixed at enqueue);
//!    compute absorbs the slowdown — the paper's premise that migration
//!    steals the bandwidth the application needs.
//! 3. **Comm vs. comm** — inter-node traffic is posted on the node's
//!    [`Channel::LinkUp`]/[`Channel::LinkDown`] lanes and charged by
//!    [`BwClient::effective_link`], so link contention composes with
//!    tier contention through the same fence protocol. Single-node runs
//!    never post any, which keeps all legacy timing untouched.
//!
//! Determinism: flow visibility follows the ledger's fence protocol (see
//! `unimem_sim::ledger`) — own flows are interval-exact, and neighbor
//! flows are charged at the rate the last fence published. The
//! executor's resolver calls [`SharedBandwidth::fence`] once per
//! MPI collective, closing the epoch on every node at once while every
//! rank task is paused, so everything is a pure function of virtual
//! program order. Each neighbor's rate is capped at the node's per-helper
//! copy rate. Every copy and write flow is posted and charged. A run
//! without migrations, cache fills or journal flushes posts none and so
//! pays no contention, which the `migration-contention` conformance
//! check asserts on every migration-free cell of a sweep report.

use crate::tier::{TierKind, TierParams};
use crate::topology::{ClusterTopology, LINK_BW};
use std::rc::Rc;
use unimem_sim::{Bandwidth, BwLedger, Bytes, Channel, LoadSplit, VTime};

fn channels_of(tier: TierKind) -> (Channel, Channel) {
    match tier {
        TierKind::Dram => (Channel::DramRead, Channel::DramWrite),
        TierKind::Nvm => (Channel::NvmRead, Channel::NvmWrite),
    }
}

/// Which helper flows a bandwidth query charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowScope {
    /// No helper flows: the rank's plain compute share of the node.
    None,
    /// Only the querying rank's own helper traffic.
    Own,
    /// Own traffic plus fenced-visible neighbor traffic.
    All,
}

/// The helper load on the four tier channels over one window, indexed
/// by [`Channel::index`] ([`BwClient::tier_loads`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierLoads([LoadSplit; 4]);

impl TierLoads {
    /// True when no flow loads any tier channel: every [`FlowScope`]
    /// then prices bit for bit as [`FlowScope::None`].
    pub fn is_quiet(&self) -> bool {
        self.0.iter().all(|s| s.own == 0.0 && s.neighbors == 0.0)
    }
}

#[derive(Debug)]
struct Node {
    ledger: BwLedger,
    occupancy: usize,
    /// Fair per-helper copy rate on this node: node copy path / occupancy.
    copy_rate: Bandwidth,
    /// This node's tier parameters (per-node: heterogeneous rooms differ).
    dram: TierParams,
    nvm: TierParams,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Node>,
    /// Rank → node.
    node_of: Vec<usize>,
    /// Rank → ledger owner slot within its node.
    owner_of: Vec<usize>,
}

/// The job-wide shared-bandwidth state: one ledger per node, shared by
/// the node's rank tasks through clone-cheap handles. Like the ledgers
/// it holds, it stays on the thread that runs the run.
#[derive(Debug, Clone)]
pub struct SharedBandwidth {
    inner: Rc<Inner>,
}

impl SharedBandwidth {
    /// Per-node ledgers for an explicit (possibly heterogeneous) machine
    /// room. Every node gets its own tier parameters and copy path from
    /// its [`crate::topology::NodeSpec`].
    pub fn from_topology(topo: &ClusterTopology) -> SharedBandwidth {
        let nranks = topo.nranks();
        assert!(nranks >= 1);
        let nodes = (0..topo.n_nodes())
            .map(|n| {
                let machine = &topo.node(n).machine;
                let occupancy = topo.occupancy(n);
                let copy_rate = machine.copy_bw.scaled(1.0 / occupancy.max(1) as f64);
                Node {
                    // An unoccupied node keeps an inert 1-owner ledger
                    // rather than a 0-owner one; no client ever reaches it.
                    // A neighbor helper cannot copy faster than its path.
                    ledger: BwLedger::new(occupancy.max(1), copy_rate.bytes_per_s()),
                    occupancy,
                    copy_rate,
                    dram: machine.dram,
                    nvm: machine.nvm,
                }
            })
            .collect();
        let node_of: Vec<usize> = topo.node_assignment().to_vec();
        let mut owner_of = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let owner = node_of[..r].iter().filter(|&&n| n == node_of[r]).count();
            owner_of.push(owner);
        }
        SharedBandwidth {
            inner: Rc::new(Inner {
                nodes,
                node_of,
                owner_of,
            }),
        }
    }

    /// Record passage of a globally synchronizing MPI collective at the
    /// synchronized instant `now`: close the epoch on every node, making
    /// the traffic posted since the last fence visible to neighbors.
    /// Call it only while no rank task runs (the executor's resolver).
    pub fn fence(&self, now: VTime) {
        for node in &self.inner.nodes {
            node.ledger.fence(now);
        }
    }

    /// The per-rank handle used by the execution driver and the
    /// migration engine.
    pub fn client(&self, rank: usize) -> BwClient {
        assert!(
            rank < self.inner.node_of.len(),
            "rank {rank} beyond the job"
        );
        BwClient {
            shared: self.clone(),
            node: self.inner.node_of[rank],
            owner: self.inner.owner_of[rank],
        }
    }
}

/// One rank's view of its node's shared bandwidth.
#[derive(Debug, Clone)]
pub struct BwClient {
    shared: SharedBandwidth,
    node: usize,
    owner: usize,
}

impl BwClient {
    fn node(&self) -> &Node {
        &self.shared.inner.nodes[self.node]
    }

    fn node_tier(&self, tier: TierKind) -> &TierParams {
        match tier {
            TierKind::Dram => &self.node().dram,
            TierKind::Nvm => &self.node().nvm,
        }
    }

    /// Ranks actually sharing this rank's node.
    pub fn occupancy(&self) -> usize {
        self.node().occupancy
    }

    /// This rank's helper copy rate: the node's DRAM↔NVM copy path split
    /// fairly among the node's helpers.
    pub fn copy_rate(&self) -> Bandwidth {
        self.node().copy_rate
    }

    /// Fences passed so far — the epoch the placement journal stamps on
    /// the commit record it appends after each collective.
    pub fn gen(&self) -> u64 {
        self.node().ledger.gen()
    }

    /// Post one helper copy: `bytes` moved to `to` over `[start, end]`,
    /// drawing read bandwidth from the source tier and write bandwidth
    /// from the destination tier.
    pub fn post_copy(&self, to: TierKind, start: VTime, end: VTime, bytes: Bytes) {
        let (src_read, _) = channels_of(to.other());
        self.node()
            .ledger
            .post(self.owner, src_read, start, end, bytes.as_f64());
        self.post_write(to, start, end, bytes);
    }

    /// Post one write-only flow: `bytes` written to `tier` over
    /// `[start, end]`, drawing from its write pool alone. A journal flush
    /// writes NVM; a hardware-cache fill writes DRAM, and the NVM read
    /// behind it is the demand miss the timing model already priced.
    /// Overlapping compute pays for either as it pays for migration
    /// copies.
    pub fn post_write(&self, tier: TierKind, start: VTime, end: VTime, bytes: Bytes) {
        let (_, write) = channels_of(tier);
        self.node()
            .ledger
            .post(self.owner, write, start, end, bytes.as_f64());
    }

    /// Post inter-node traffic crossing this node's link over
    /// `[start, end]`: `up` bytes leaving the node, `down` bytes
    /// arriving. Single-node runs never cross a link and post nothing.
    pub fn post_link(&self, start: VTime, end: VTime, up: Bytes, down: Bytes) {
        let ledger = &self.node().ledger;
        if up.get() > 0 {
            ledger.post(self.owner, Channel::LinkUp, start, end, up.as_f64());
        }
        if down.get() > 0 {
            ledger.post(self.owner, Channel::LinkDown, start, end, down.as_f64());
        }
    }

    /// Effective link bandwidth in `dir` over `[w0, w1]` under the own
    /// and fenced-visible neighbor link flows: `LINK_BW / (1 + load /
    /// LINK_BW)` — the same proportional-share form as tier contention,
    /// but **without** the occupancy divisor (compute streams do not
    /// saturate the NIC; only posted link flows contend).
    pub fn effective_link(&self, dir: Channel, w0: VTime, w1: VTime) -> Bandwidth {
        debug_assert!(matches!(dir, Channel::LinkUp | Channel::LinkDown));
        let bw = LINK_BW.bytes_per_s();
        let load = self.node().ledger.load(self.owner, dir, w0, w1).total();
        Bandwidth(bw / (1.0 + load / bw))
    }

    /// This rank's effective tier parameters over the window `[w0, w1]`:
    /// node bandwidth divided among the node's compute streams and the
    /// helper flows `scope` selects. Latency is left at the node value —
    /// bandwidth is the contended resource (paper Fig. 2).
    pub fn effective(&self, tier: TierKind, w0: VTime, w1: VTime, scope: FlowScope) -> TierParams {
        self.effective_under(tier, &self.tier_loads(w0, w1), scope)
    }

    /// The helper load on the four tier channels over `[w0, w1]`, in one
    /// ledger read: what [`BwClient::effective`] charges, for both
    /// tiers and every scope at once.
    pub fn tier_loads(&self, w0: VTime, w1: VTime) -> TierLoads {
        TierLoads(self.node().ledger.loads(self.owner, w0, w1))
    }

    /// [`BwClient::effective`] under loads [`BwClient::tier_loads`] has
    /// already read.
    pub fn effective_under(
        &self,
        tier: TierKind,
        loads: &TierLoads,
        scope: FlowScope,
    ) -> TierParams {
        let node = self.node();
        let params = self.node_tier(tier);
        let occ = node.occupancy as f64;
        let avail = |channel: Channel, bw: Bandwidth| -> Bandwidth {
            let split = loads.0[channel.index()];
            let load = match scope {
                FlowScope::None => 0.0,
                FlowScope::Own => split.own,
                FlowScope::All => split.total(),
            };
            let l = load / bw.bytes_per_s();
            Bandwidth(bw.bytes_per_s() / (occ * (1.0 + l)))
        };
        let (ch_r, ch_w) = channels_of(tier);
        TierParams {
            read_lat: params.read_lat,
            write_lat: params.write_lat,
            read_bw: avail(ch_r, params.read_bw),
            write_bw: avail(ch_w, params.write_bw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{table1_pcram, table1_stt_ram, MachineConfig};
    use crate::tier::AccessMix;
    use crate::topology::ClusterSpec;

    fn machine() -> MachineConfig {
        MachineConfig::nvm_bw_fraction(0.5)
    }

    /// Ledgers for `nranks` ranks of `m`, `m.ranks_per_node` per node.
    fn room(m: &MachineConfig, nranks: usize) -> SharedBandwidth {
        SharedBandwidth::from_topology(&ClusterTopology::homogeneous(m, nranks))
    }

    #[test]
    fn occupancy_splits_by_node_with_straggler() {
        let m = machine().with_ranks_per_node(4);
        let s = room(&m, 6);
        assert_eq!(s.client(0).occupancy(), 4);
        assert_eq!(s.client(3).occupancy(), 4);
        assert_eq!(s.client(4).occupancy(), 2);
        assert_eq!(s.client(5).occupancy(), 2);
    }

    #[test]
    fn single_rank_gets_full_node_bandwidth() {
        let m = machine();
        let s = room(&m, 1);
        let eff = s
            .client(0)
            .effective(TierKind::Dram, VTime::ZERO, VTime(1.0), FlowScope::All);
        assert_eq!(eff, m.dram, "no co-location, no flows: node params");
    }

    #[test]
    fn colocated_ranks_split_bandwidth_evenly() {
        let m = machine().with_ranks_per_node(2);
        let s = room(&m, 2);
        let eff = s
            .client(0)
            .effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::None);
        assert!((eff.read_bw.bytes_per_s() - m.nvm.read_bw.bytes_per_s() / 2.0).abs() < 1.0);
        assert_eq!(eff.read_lat, m.nvm.read_lat, "latency is not shared");
    }

    #[test]
    fn copy_rate_is_fair_share_of_the_copy_path() {
        let m = machine().with_ranks_per_node(2);
        let s = room(&m, 2);
        assert!(
            (s.client(0).copy_rate().bytes_per_s() - m.copy_bw.bytes_per_s() / 2.0).abs() < 1.0
        );
    }

    #[test]
    fn own_copy_slows_overlapping_compute_on_both_tiers() {
        let m = machine();
        let s = room(&m, 1);
        let c = s.client(0);
        // A 1 s NVM->DRAM copy: NVM read + DRAM write pools both loaded.
        let bytes = Bytes((c.copy_rate().bytes_per_s()) as u64);
        c.post_copy(TierKind::Dram, VTime::ZERO, VTime(1.0), bytes);
        let base = c.effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::None);
        let eff = c.effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::Own);
        assert!(
            eff.read_bw.bytes_per_s() < base.read_bw.bytes_per_s(),
            "NVM read pool not charged"
        );
        let eff_d = c.effective(TierKind::Dram, VTime::ZERO, VTime(1.0), FlowScope::Own);
        assert!(
            eff_d.write_bw.bytes_per_s() < m.dram.write_bw.bytes_per_s(),
            "DRAM write pool not charged"
        );
        // Read side of the destination is untouched.
        assert!((eff_d.read_bw.bytes_per_s() - m.dram.read_bw.bytes_per_s()).abs() < 1.0);
    }

    #[test]
    fn proportional_split_matches_formula() {
        let m = machine();
        let s = room(&m, 1);
        let c = s.client(0);
        let rate = c.copy_rate().bytes_per_s();
        c.post_copy(TierKind::Dram, VTime::ZERO, VTime(1.0), Bytes(rate as u64));
        let eff = c.effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::Own);
        let l = rate / m.nvm.read_bw.bytes_per_s();
        let expect = m.nvm.read_bw.bytes_per_s() / (1.0 + l);
        assert!((eff.read_bw.bytes_per_s() - expect).abs() < 1.0);
    }

    #[test]
    fn neighbor_copy_invisible_until_fence_then_charged() {
        let m = machine().with_ranks_per_node(2);
        let s = room(&m, 2);
        let (a, b) = (s.client(0), s.client(1));
        let bytes = Bytes(b.copy_rate().bytes_per_s() as u64);
        b.post_copy(TierKind::Dram, VTime::ZERO, VTime(1.0), bytes);
        let before = a.effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::All);
        let own_only = a.effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::Own);
        assert_eq!(before, own_only, "unfenced neighbor traffic leaked");
        s.fence(VTime(1.0));
        assert_eq!(a.gen(), 1);
        let after = a.effective(TierKind::Nvm, VTime(1.0), VTime(2.0), FlowScope::All);
        assert!(
            after.read_bw.bytes_per_s() < own_only.read_bw.bytes_per_s(),
            "fenced neighbor traffic not charged"
        );
    }

    #[test]
    fn access_time_slows_under_shared_load() {
        let m = machine().with_ranks_per_node(2);
        let s = room(&m, 2);
        let c = s.client(0);
        let base = m
            .nvm
            .access_time(1_000_000, Bytes::mib(64), 16.0, AccessMix::READ_ONLY);
        let eff = c.effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::None);
        let shared = eff.access_time(1_000_000, Bytes::mib(64), 16.0, AccessMix::READ_ONLY);
        assert!(
            (shared.secs() / base.secs() - 2.0).abs() < 1e-6,
            "two co-located streams should double a bandwidth-bound phase"
        );
    }

    #[test]
    fn heterogeneous_nodes_serve_their_own_tier_params() {
        let stt = MachineConfig::technology(table1_stt_ram(), "stt-ram");
        let pcm = MachineConfig::technology(table1_pcram(), "pcram");
        let spec = ClusterSpec::mixed(vec![stt.clone(), pcm.clone()], 1);
        let topo = ClusterTopology::contiguous(spec, 2);
        let s = SharedBandwidth::from_topology(&topo);
        let on_stt = s
            .client(0)
            .effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::None);
        let on_pcm = s
            .client(1)
            .effective(TierKind::Nvm, VTime::ZERO, VTime(1.0), FlowScope::None);
        assert_eq!(on_stt, stt.nvm);
        assert_eq!(on_pcm, pcm.nvm);
    }

    #[test]
    fn link_flows_contend_per_direction() {
        let s = room(&machine(), 2);
        let c = s.client(0);
        let bw = LINK_BW;
        let clean = c.effective_link(Channel::LinkUp, VTime::ZERO, VTime(1.0));
        assert_eq!(clean, bw, "idle link at full bandwidth");
        // Saturate the up direction for 1 s.
        c.post_link(
            VTime::ZERO,
            VTime(1.0),
            Bytes(bw.bytes_per_s() as u64),
            Bytes(0),
        );
        let loaded = c.effective_link(Channel::LinkUp, VTime::ZERO, VTime(1.0));
        assert!(
            (loaded.bytes_per_s() - bw.bytes_per_s() / 2.0).abs() < 1.0,
            "one saturating flow should halve the proportional share"
        );
        // The down direction is a separate lane.
        let down = c.effective_link(Channel::LinkDown, VTime::ZERO, VTime(1.0));
        assert_eq!(down, bw);
    }
}
