//! Deterministic per-channel bandwidth ledger.
//!
//! The timing core historically handed every rank a private copy of each
//! tier's bandwidth, so helper-thread migration traffic was free from the
//! application's point of view. This ledger is the shared-resource
//! replacement: flows (migration copies) are posted against *channels*
//! (one per tier × direction at the HMS layer), and a consumer asks how
//! much of a channel's bandwidth is already spoken for during a virtual
//! time window. Concurrent flows on a channel split its bandwidth
//! proportionally — see `unimem_hms::contention` for the split formula;
//! this module only does the deterministic bookkeeping.
//!
//! # Determinism under pooled rank tasks
//!
//! Within a bulk-synchronous round, rank tasks advance concurrently on
//! the rank pool's workers ([`crate::run_pool_mut`]) in *host* time,
//! each on its own virtual clock, and one node's ranks may sit on
//! different workers. A naive shared structure would therefore answer
//! queries differently depending on which worker the OS ran first. The
//! ledger keeps two kinds of accounting:
//!
//! * **Own flows** are visible to their owner immediately and charged by
//!   exact interval overlap — a rank's own helper traffic is in its own
//!   program order, so this is trivially deterministic.
//! * **Neighbor flows** become visible only at **fences**. A fence is a
//!   globally synchronizing point (in this repo: every MPI collective,
//!   which ends a round: every rank task pauses on it, the serial
//!   resolver sets the departure clocks, and each rank fences as it
//!   resumes in the next round). A flow posted by owner `o` between its
//!   `k`-th and `k+1`-th fences is tagged `visible_from = k+1`; a reader
//!   that has passed `g` fences sees exactly the flows tagged `≤ g`.
//!   Because no rank can pass its `g`-th fence before every other rank
//!   has *entered* it, every such flow is guaranteed posted before any
//!   reader can observe generation `g` — the visible set is a pure
//!   function of virtual program order, never of host scheduling.
//!
//! Neighbor traffic is charged as a **rate** over the reader's last
//! completed fence epoch rather than by interval overlap: by the time a
//! fence makes neighbor flows visible, the fence has also synchronized
//! clocks past their intervals, so exact overlap would systematically
//! read zero. The epoch rate models the steady cyclic traffic the
//! enforcer actually generates (the same copies re-fire every
//! iteration). Readers use their *own* fence timestamps for epoch
//! lengths — fences are globally synchronized, so every rank records the
//! identical instants.
//!
//! # Sharding (PR 9)
//!
//! The ledger is sharded per owner, and the cross-owner read path is
//! lock-free. The observation that makes this work: a neighbor query
//! only ever reads another owner's *epoch byte totals at the reader's
//! own generation* — never its flow list, fence timestamps, or even its
//! generation counter. So each shard keeps
//!
//! * **owner-private state** (own flows, generation, last two fences)
//!   behind a per-owner mutex that only the owning rank's task ever
//!   takes — posts, fences, and own-overlap queries from different
//!   owners touch different mutexes and never contend; and
//! * a **fixed 4-deep epoch ring** of per-channel atomic byte counters
//!   (`f64` bits in `AtomicU64`) that neighbors read directly. Four
//!   slots suffice because the visibility lag is at most one
//!   generation: with the owner at generation `G`, posts accumulate
//!   into slot `G+1`, readers touch slots `G-1 ..= G+1`, and the fence
//!   clears slot `G-2` — four distinct residues mod 4.
//!
//! Each ring slot is written by exactly one rank task (its owner: posts
//! accumulate, the fence clears), so a plain load/store pair is enough;
//! stores are `Release` and reads `Acquire`, and the round boundary that
//! advances generations (the pool's scoped join, then the next round's
//! spawn) provides the happens-before edge that makes the values a
//! reader observes a pure function of
//! virtual program order — byte-identical for any worker count, exactly
//! as the old whole-owner-mutex design behaved, minus the cross-owner
//! lock convoy in `load()`.

use crate::time::{VDur, VTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Named ledger channels: the four intra-node tier × direction lanes
/// plus the two inter-node link directions the cluster topology adds.
///
/// `Channel as usize` is the ledger index, so a typed post can never
/// name a lane the channel map does not contain — the bare-`usize`
/// out-of-range assert becomes unrepresentable at typed call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Channel {
    /// DRAM reads (intra-node).
    DramRead = 0,
    /// DRAM writes (intra-node).
    DramWrite = 1,
    /// NVM reads (intra-node).
    NvmRead = 2,
    /// NVM writes (intra-node, including journal appends).
    NvmWrite = 3,
    /// Inter-node link, egress from this node.
    LinkUp = 4,
    /// Inter-node link, ingress to this node.
    LinkDown = 5,
}

impl Channel {
    /// Every named channel, in ledger-index order.
    pub const ALL: [Channel; 6] = [
        Channel::DramRead,
        Channel::DramWrite,
        Channel::NvmRead,
        Channel::NvmWrite,
        Channel::LinkUp,
        Channel::LinkDown,
    ];

    /// The ledger index this channel occupies.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name (report/debug output).
    pub fn name(self) -> &'static str {
        match self {
            Channel::DramRead => "dram-read",
            Channel::DramWrite => "dram-write",
            Channel::NvmRead => "nvm-read",
            Channel::NvmWrite => "nvm-write",
            Channel::LinkUp => "link-up",
            Channel::LinkDown => "link-down",
        }
    }
}

/// The set of channels a ledger is built with, derived from the
/// topology: a lone node only has the four tier lanes; a clustered node
/// adds the two link directions. Constructing a [`BwLedger`] through a
/// map (instead of a bare channel count) ties every typed post to a
/// lane that exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelMap {
    n: usize,
}

impl ChannelMap {
    /// The four intra-node lanes (`DramRead` … `NvmWrite`).
    pub fn intra_node() -> ChannelMap {
        ChannelMap { n: 4 }
    }

    /// All six lanes, link directions included.
    pub fn cluster() -> ChannelMap {
        ChannelMap { n: 6 }
    }

    /// The map for a topology of `n_nodes`: a single node needs no link
    /// lanes, anything larger does.
    pub fn for_nodes(n_nodes: usize) -> ChannelMap {
        if n_nodes > 1 {
            ChannelMap::cluster()
        } else {
            ChannelMap::intra_node()
        }
    }

    /// Number of ledger channels in the map.
    pub fn len(&self) -> usize {
        self.n
    }

    /// A map is never empty, but clippy insists `len` has a partner.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the map includes `ch`.
    pub fn contains(&self, ch: Channel) -> bool {
        ch.index() < self.n
    }

    /// The named channels in the map, in index order.
    pub fn channels(&self) -> &'static [Channel] {
        &Channel::ALL[..self.n]
    }
}

/// One posted flow: `bytes` moved on `channel` over `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Flow {
    channel: usize,
    start: VTime,
    end: VTime,
    bytes: f64,
    visible_from: u64,
}

/// Depth of the per-shard epoch ring. Visibility lag is at most one
/// generation, so the live slots at owner generation `G` are `G+1`
/// (accumulating), `G-1 ..= G+1` (readable) and `G-2` (being cleared)
/// — four distinct residues.
const GEN_RING: usize = 4;

#[derive(Debug, Default)]
struct OwnerState {
    /// Fences passed so far (the owner's visibility generation).
    gen: u64,
    /// Timestamps of the last two fences (`[previous, latest]`) — all
    /// the fence history the epoch-rate math ever needs.
    last_fences: [VTime; 2],
    /// Flows posted by this owner, in program order. Pruned at fences:
    /// own queries only ever look at windows starting at the rank's
    /// current clock, which is past the fence instant from then on, so
    /// flows ending before the fence can never be read again.
    flows: Vec<Flow>,
}

/// One owner's shard: private state behind its own (uncontended) mutex,
/// plus the lock-free epoch ring neighbors read.
#[derive(Debug)]
struct Shard {
    /// Owner-private state. Only the owning rank's task locks this, and
    /// a task runs on one pool worker at a time, so the lock is never
    /// contended — it exists to keep the API `&self` and the
    /// single-threaded tests sound.
    own: Mutex<OwnerState>,
    /// Bytes posted per (visibility generation, channel), as a ring:
    /// slot `(g % GEN_RING) * channels + c` sums the flows tagged
    /// `visible_from == g`, stored as `f64` bits. Written only by the
    /// owner (posts accumulate, fences clear the slot aging out of the
    /// visibility window); read lock-free by every neighbor. A cleared
    /// (or never-posted) slot reads as zero.
    epoch_bytes: Vec<AtomicU64>,
}

impl Shard {
    fn new(channels: usize) -> Shard {
        Shard {
            own: Mutex::new(OwnerState::default()),
            epoch_bytes: (0..GEN_RING * channels)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// The ring slot for generation `gen`, channel `channel`.
    fn slot(&self, gen: u64, channel: usize, channels: usize) -> &AtomicU64 {
        &self.epoch_bytes[(gen % GEN_RING as u64) as usize * channels + channel]
    }
}

/// How much of a channel's bandwidth existing flows consume over a
/// window, split by provenance (bytes per second).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadSplit {
    /// Rate consumed by the querying owner's own flows (exact interval
    /// overlap with the window).
    pub own: f64,
    /// Rate consumed by every other owner's flows (last-epoch rate,
    /// capped per owner).
    pub neighbors: f64,
}

impl LoadSplit {
    /// Combined consumption rate.
    pub fn total(&self) -> f64 {
        self.own + self.neighbors
    }
}

/// The shared ledger: `owners` posting flows against `channels`.
///
/// All methods take `&self`; internal state is sharded per owner (see
/// the module docs): owner-private state behind a per-owner mutex that
/// only the owning rank's task takes, neighbor-visible epoch totals in
/// lock-free atomic rings. Readers iterate owners in index order, so
/// float accumulation order is deterministic.
#[derive(Debug)]
pub struct BwLedger {
    channels: usize,
    shards: Vec<Shard>,
}

impl BwLedger {
    /// A ledger for `owners` concurrent posters over `channels` channels.
    pub fn new(owners: usize, channels: usize) -> BwLedger {
        assert!(owners >= 1 && channels >= 1);
        BwLedger {
            channels,
            shards: (0..owners).map(|_| Shard::new(channels)).collect(),
        }
    }

    /// A ledger whose channels are the named lanes of `map` — the typed
    /// constructor the topology layer uses so [`BwLedger::post_named`]
    /// call sites cannot name a lane that does not exist.
    pub fn with_channels(owners: usize, map: ChannelMap) -> BwLedger {
        BwLedger::new(owners, map.len())
    }

    /// Typed [`BwLedger::post`]: the channel index comes from the named
    /// lane, so it is in range by construction on a
    /// [`ChannelMap::cluster`] ledger.
    pub fn post_named(&self, owner: usize, ch: Channel, start: VTime, end: VTime, bytes: f64) {
        self.post(owner, ch.index(), start, end, bytes);
    }

    /// Typed [`BwLedger::load`].
    pub fn load_named(
        &self,
        owner: usize,
        ch: Channel,
        w0: VTime,
        w1: VTime,
        neighbor_rate_cap: f64,
    ) -> LoadSplit {
        self.load(owner, ch.index(), w0, w1, neighbor_rate_cap)
    }

    pub fn n_channels(&self) -> usize {
        self.channels
    }

    fn state(&self, owner: usize) -> std::sync::MutexGuard<'_, OwnerState> {
        self.shards[owner]
            .own
            .lock()
            .expect("ledger mutex poisoned")
    }

    /// Post a flow: `owner` moves `bytes` on `channel` over `[start, end]`.
    /// Visible to the owner immediately, to neighbors after their next
    /// fence beyond the owner's current generation.
    pub fn post(&self, owner: usize, channel: usize, start: VTime, end: VTime, bytes: f64) {
        assert!(channel < self.channels, "channel {channel} out of range");
        let shard = &self.shards[owner];
        let mut st = shard.own.lock().expect("ledger mutex poisoned");
        let visible_from = st.gen + 1;
        // Single-writer accumulate: only the owner posts to its ring, so
        // a load/store pair is race-free; Release pairs with readers'
        // Acquire (the collective rendezvous orders the generations).
        let slot = shard.slot(visible_from, channel, self.channels);
        let sum = f64::from_bits(slot.load(Ordering::Relaxed)) + bytes;
        slot.store(sum.to_bits(), Ordering::Release);
        st.flows.push(Flow {
            channel,
            start,
            end,
            bytes,
            visible_from,
        });
    }

    /// Record that `owner` passed a globally synchronizing point at the
    /// synchronized instant `now`. Every owner must fence at the same
    /// points with the same timestamps (the caller's collectives
    /// guarantee this); the fence count is the owner's visibility
    /// generation. Fences also retire accounting that can no longer be
    /// read — flows already finished (own queries only look forward from
    /// the rank's clock) and epoch entries beyond the one-generation
    /// visibility lag — keeping per-query cost bounded by the traffic of
    /// the current epoch instead of the whole run. Returns the owner's
    /// new visibility generation — the epoch identity the placement
    /// journal stamps on its commit records.
    pub fn fence(&self, owner: usize, now: VTime) -> u64 {
        let shard = &self.shards[owner];
        let mut st = shard.own.lock().expect("ledger mutex poisoned");
        st.gen += 1;
        st.last_fences = [st.last_fences[1], now];
        st.flows.retain(|f| f.end >= now);
        // Clear the ring slot aging out of the visibility window (no
        // reader can be more than one generation behind, so generation
        // `gen - 2` is dead); its slot is next written for generation
        // `gen + 2`, two fences from now.
        if let Some(stale) = st.gen.checked_sub(2) {
            for ch in 0..self.channels {
                shard
                    .slot(stale, ch, self.channels)
                    .store(0, Ordering::Release);
            }
        }
        st.gen
    }

    /// The number of fences `owner` has passed.
    pub fn gen(&self, owner: usize) -> u64 {
        self.state(owner).gen
    }

    /// Bandwidth already consumed on `channel` over `[w0, w1]` as seen by
    /// `owner`: own flows by exact interval overlap, neighbor flows by
    /// their last-completed-epoch average rate (each neighbor capped at
    /// `neighbor_rate_cap` bytes/s — a helper thread cannot physically
    /// copy faster than its copy path).
    pub fn load(
        &self,
        owner: usize,
        channel: usize,
        w0: VTime,
        w1: VTime,
        neighbor_rate_cap: f64,
    ) -> LoadSplit {
        assert!(channel < self.channels, "channel {channel} out of range");
        let window = w1.since(w0);
        if window.is_zero() {
            return LoadSplit::default();
        }

        // One visit to the reader's own (uncontended) shard covers the
        // generation, the epoch length, and the own-flow overlap.
        let (gen, epoch_len, own_bytes) = {
            let st = self.state(owner);
            let mut own = 0.0;
            for f in st.flows.iter().filter(|f| f.channel == channel) {
                own += overlap_bytes(f, w0, w1);
            }
            (st.gen, epoch_len(st.gen, st.last_fences), own)
        };

        // Neighbors: bytes they posted during the reader's last completed
        // epoch, turned into a rate over that epoch's length. Lock-free:
        // each neighbor's epoch total is one Acquire load from its ring —
        // no neighbor mutex is ever taken, so concurrent rank queries
        // and posts do not convoy through each other's shards.
        let mut neighbors = 0.0;
        if gen >= 1 {
            for (o, shard) in self.shards.iter().enumerate() {
                if o == owner {
                    continue;
                }
                // Fence-cleared (or never-posted) slots read as zero.
                let bytes = f64::from_bits(
                    shard
                        .slot(gen, channel, self.channels)
                        .load(Ordering::Acquire),
                );
                if bytes <= 0.0 {
                    continue;
                }
                let rate = if epoch_len.is_zero() {
                    neighbor_rate_cap
                } else {
                    (bytes / epoch_len.secs()).min(neighbor_rate_cap)
                };
                neighbors += rate;
            }
        }

        LoadSplit {
            own: own_bytes / window.secs(),
            neighbors,
        }
    }
}

/// Length of the reader's last completed fence epoch `[T_{g-1}, T_g]`
/// (`T_0` = simulation start; `last_fences` holds `[T_{g-1}, T_g]`,
/// zero-padded below two fences).
fn epoch_len(gen: u64, last_fences: [VTime; 2]) -> VDur {
    match gen {
        0 => VDur::ZERO,
        1 => last_fences[1].since(VTime::ZERO),
        _ => last_fences[1].since(last_fences[0]),
    }
}

/// Bytes of `f` that land inside `[w0, w1]`, assuming a constant rate
/// over the flow's interval. Zero-duration flows deposit all their bytes
/// at `start` if it falls inside the window.
fn overlap_bytes(f: &Flow, w0: VTime, w1: VTime) -> f64 {
    let dur = f.end.since(f.start);
    if dur.is_zero() {
        if f.start >= w0 && f.start <= w1 {
            f.bytes
        } else {
            0.0
        }
    } else {
        let lo = f.start.max(w0);
        let hi = f.end.min(w1);
        let ov = hi.since(lo);
        f.bytes * (ov.secs() / dur.secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VTime {
        VTime(s)
    }

    #[test]
    fn empty_ledger_has_no_load() {
        let l = BwLedger::new(2, 4);
        let split = l.load(0, 1, t(0.0), t(1.0), 1e9);
        assert_eq!(split, LoadSplit::default());
        assert_eq!(split.total(), 0.0);
    }

    #[test]
    fn own_flow_charges_exact_overlap() {
        let l = BwLedger::new(1, 1);
        // 1e9 bytes over [0, 1]: rate 1 GB/s.
        l.post(0, 0, t(0.0), t(1.0), 1e9);
        // Full containment.
        let s = l.load(0, 0, t(0.0), t(1.0), 1e12);
        assert!((s.own - 1e9).abs() < 1.0);
        // Half overlap: window [0.5, 1.5] catches half the bytes over a
        // 1 s window -> 0.5 GB/s.
        let s = l.load(0, 0, t(0.5), t(1.5), 1e12);
        assert!((s.own - 0.5e9).abs() < 1.0);
        // Disjoint window.
        let s = l.load(0, 0, t(2.0), t(3.0), 1e12);
        assert_eq!(s.own, 0.0);
    }

    #[test]
    fn zero_duration_flow_deposits_at_start() {
        let l = BwLedger::new(1, 1);
        l.post(0, 0, t(0.5), t(0.5), 100.0);
        let s = l.load(0, 0, t(0.0), t(1.0), 1e12);
        assert!((s.own - 100.0).abs() < 1e-9);
        let s = l.load(0, 0, t(0.6), t(1.0), 1e12);
        assert_eq!(s.own, 0.0);
    }

    #[test]
    fn neighbor_flow_invisible_before_fence() {
        let l = BwLedger::new(2, 1);
        l.post(1, 0, t(0.0), t(1.0), 1e9);
        let s = l.load(0, 0, t(0.0), t(1.0), 1e12);
        assert_eq!(s.neighbors, 0.0, "unfenced neighbor traffic leaked");
    }

    #[test]
    fn neighbor_flow_charged_as_epoch_rate_after_fence() {
        let l = BwLedger::new(2, 1);
        // Both owners live through epoch [0, 2]; owner 1 copies 1e9 bytes.
        l.post(1, 0, t(0.0), t(1.0), 1e9);
        l.fence(0, t(2.0));
        l.fence(1, t(2.0));
        // Epoch length 2 s -> neighbor rate 0.5 GB/s, over any window.
        let s = l.load(0, 0, t(2.0), t(3.0), 1e12);
        assert!((s.neighbors - 0.5e9).abs() < 1.0, "{s:?}");
        // The owner's own view of the same flow is interval-exact: no
        // overlap with [2, 3].
        let s1 = l.load(1, 0, t(2.0), t(3.0), 1e12);
        assert_eq!(s1.own, 0.0);
        assert_eq!(s1.neighbors, 0.0);
    }

    #[test]
    fn neighbor_rate_is_capped() {
        let l = BwLedger::new(2, 1);
        l.post(1, 0, t(0.0), t(0.001), 1e9); // 1 TB/s burst
        l.fence(0, t(0.001));
        l.fence(1, t(0.001));
        let s = l.load(0, 0, t(0.001), t(0.002), 3e9);
        assert!((s.neighbors - 3e9).abs() < 1.0, "cap not applied: {s:?}");
    }

    #[test]
    fn old_epochs_age_out() {
        let l = BwLedger::new(2, 1);
        l.post(1, 0, t(0.0), t(1.0), 1e9);
        l.fence(0, t(1.0));
        l.fence(1, t(1.0));
        // A second, idle epoch: the old traffic no longer counts.
        l.fence(0, t(2.0));
        l.fence(1, t(2.0));
        let s = l.load(0, 0, t(2.0), t(3.0), 1e12);
        assert_eq!(s.neighbors, 0.0, "stale epoch traffic still charged");
    }

    #[test]
    fn channels_are_independent() {
        let l = BwLedger::new(1, 2);
        l.post(0, 0, t(0.0), t(1.0), 1e9);
        assert!(l.load(0, 0, t(0.0), t(1.0), 1e12).own > 0.0);
        assert_eq!(l.load(0, 1, t(0.0), t(1.0), 1e12).own, 0.0);
    }

    #[test]
    fn empty_window_is_zero_load() {
        let l = BwLedger::new(1, 1);
        l.post(0, 0, t(0.0), t(1.0), 1e9);
        assert_eq!(l.load(0, 0, t(0.5), t(0.5), 1e12), LoadSplit::default());
    }

    #[test]
    fn fences_retire_dead_flows_but_keep_in_flight_ones() {
        let l = BwLedger::new(1, 1);
        l.post(0, 0, t(0.0), t(1.0), 1e9); // done before the fence
        l.post(0, 0, t(0.0), t(10.0), 1e10); // spans the fence
        l.fence(0, t(5.0));
        // The spanning flow is still charged at its 1 GB/s rate over
        // [5, 6]; the finished one contributes nothing (and is gone).
        let s = l.load(0, 0, t(5.0), t(6.0), 1e12);
        assert!((s.own - 1e9).abs() < 1.0, "{s:?}");
        assert_eq!(l.state(0).flows.len(), 1, "dead flow not pruned");
    }

    #[test]
    fn fences_clear_epochs_beyond_the_visibility_lag() {
        let l = BwLedger::new(2, 1);
        for g in 0..5 {
            l.post(1, 0, t(g as f64), t(g as f64 + 0.5), 1e6);
            l.fence(0, t(g as f64 + 1.0));
            l.fence(1, t(g as f64 + 1.0));
        }
        // Readers can be at most one generation away: only the ring
        // slots inside the visibility window may still hold bytes.
        let live = l.shards[1]
            .epoch_bytes
            .iter()
            .filter(|s| f64::from_bits(s.load(Ordering::Relaxed)) != 0.0)
            .count();
        assert!(live <= 3, "{live} live epoch slots retained");
    }

    #[test]
    fn gen_counts_fences() {
        let l = BwLedger::new(2, 1);
        assert_eq!(l.gen(0), 0);
        l.fence(0, t(1.0));
        assert_eq!(l.gen(0), 1);
        assert_eq!(l.gen(1), 0);
    }

    #[test]
    fn channel_indices_are_stable_and_named() {
        for (i, ch) in Channel::ALL.iter().enumerate() {
            assert_eq!(ch.index(), i);
        }
        assert_eq!(Channel::DramRead.index(), 0);
        assert_eq!(Channel::NvmWrite.index(), 3);
        assert_eq!(Channel::LinkUp.index(), 4);
        assert_eq!(Channel::LinkDown.index(), 5);
        assert_eq!(Channel::LinkUp.name(), "link-up");
    }

    #[test]
    fn channel_map_tracks_topology() {
        let intra = ChannelMap::intra_node();
        assert_eq!(intra.len(), 4);
        assert!(intra.contains(Channel::NvmWrite));
        assert!(!intra.contains(Channel::LinkUp));
        assert_eq!(intra.channels().len(), 4);

        let cluster = ChannelMap::cluster();
        assert_eq!(cluster.len(), 6);
        assert!(cluster.contains(Channel::LinkDown));
        assert!(!cluster.is_empty());

        assert_eq!(ChannelMap::for_nodes(1), intra);
        assert_eq!(ChannelMap::for_nodes(2), cluster);
        assert_eq!(ChannelMap::for_nodes(128), cluster);
    }

    #[test]
    fn typed_post_and_load_hit_the_same_lane_as_untyped() {
        let l = BwLedger::with_channels(1, ChannelMap::cluster());
        assert_eq!(l.n_channels(), 6);
        l.post_named(0, Channel::LinkUp, t(0.0), t(1.0), 1e9);
        let typed = l.load_named(0, Channel::LinkUp, t(0.0), t(1.0), 1e12);
        let untyped = l.load(0, 4, t(0.0), t(1.0), 1e12);
        assert_eq!(typed, untyped);
        assert!(typed.own > 0.0);
        assert_eq!(
            l.load_named(0, Channel::LinkDown, t(0.0), t(1.0), 1e12).own,
            0.0
        );
    }
}
