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
//! # Determinism: neighbours are seen only through fences
//!
//! One thread runs a whole run: within a bulk-synchronous round the
//! executor advances its rank tasks one after another, each on its own
//! virtual clock. A rank that read a co-located rank's flows as they were
//! posted would see more or less of them depending on which task the
//! round advanced first, so during a round every owner reads only its own
//! state:
//!
//! * **Own flows** are visible to their owner immediately and charged by
//!   exact interval overlap — a rank's own helper traffic is in its own
//!   program order, so this is trivially deterministic.
//! * **Neighbor flows** become visible only at **fences**. A fence is a
//!   globally synchronizing point: in this repo, every MPI collective.
//!   The executor's resolver calls [`BwLedger::fence`] once per
//!   collective, after it has set the departure clocks and while every
//!   rank task is paused. The fence closes the epoch since the previous
//!   fence and turns the bytes each owner posted in it into the
//!   neighbor rate every *other* owner reads until the next fence. A
//!   flow posted in epoch `k` is therefore seen by neighbors throughout
//!   epoch `k + 1`, and never before.
//!
//! The fence is the only code that reads one owner's state and writes
//! another's, and it runs between rounds, so every answer is a pure
//! function of virtual program order, whatever order a round advances its
//! tasks in. The ledger's state sits in `RefCell`s: it is not `Sync`, so
//! the compiler rules out sharing one ledger between threads.
//!
//! Neighbor traffic is charged as a **rate** over the last completed
//! epoch rather than by interval overlap: by the time a fence makes
//! neighbor flows visible, the fence has also synchronized clocks past
//! their intervals, so exact overlap would systematically read zero. The
//! epoch rate models the steady cyclic traffic the enforcer actually
//! generates (the same copies re-fire every iteration). Each neighbor's
//! rate is capped at the ledger's `neighbor_rate_cap`: a helper thread
//! cannot physically copy faster than its copy path.

use crate::time::VTime;
use std::cell::RefCell;

/// Named ledger channels: the four intra-node tier × direction lanes
/// plus the two inter-node link directions.
///
/// `Channel as usize` is the ledger index. Every ledger has all six
/// lanes, so no post or load can name a lane that does not exist; a
/// one-node room never posts on the link lanes, and they read zero.
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

/// Number of lanes in every ledger.
const LANES: usize = Channel::ALL.len();

/// One posted flow: `bytes` moved on `channel` over `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Flow {
    channel: Channel,
    start: VTime,
    end: VTime,
    bytes: f64,
}

/// One owner's state. During a round only the owner's task touches it;
/// the fence, between rounds, reads and rewrites every owner's.
#[derive(Debug)]
struct OwnerState {
    /// Flows posted by this owner, in program order. Pruned at fences:
    /// own queries only ever look at windows starting at the rank's
    /// current clock, which is past the fence instant from then on, so
    /// flows ending before the fence can never be read again.
    flows: Vec<Flow>,
    /// Bytes posted per channel since the last fence.
    posted: [f64; LANES],
    /// Per channel, the summed rate of every other owner's traffic over
    /// the last completed epoch, as the last fence published it.
    neighbors: [f64; LANES],
}

/// The fence history the epoch-rate math needs.
#[derive(Debug, Default)]
struct Epoch {
    /// Fences passed so far (the visibility generation).
    gen: u64,
    /// Instant of the last fence (simulation start before the first).
    start: VTime,
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

/// The shared ledger: `owners` posting flows against the six channels.
///
/// All methods take `&self`. Posts and loads touch only the calling
/// owner's state; [`BwLedger::fence`] publishes the cross-owner view
/// between rounds (see the module docs).
#[derive(Debug)]
pub struct BwLedger {
    /// Per-neighbor rate cap, bytes/s: a helper cannot copy faster than
    /// its copy path.
    neighbor_rate_cap: f64,
    owners: Vec<RefCell<OwnerState>>,
    epoch: RefCell<Epoch>,
}

impl BwLedger {
    /// A ledger for `owners` concurrent posters, charging each neighbor
    /// at most `neighbor_rate_cap` bytes/s.
    pub fn new(owners: usize, neighbor_rate_cap: f64) -> BwLedger {
        assert!(owners >= 1);
        BwLedger {
            neighbor_rate_cap,
            owners: (0..owners)
                .map(|_| {
                    RefCell::new(OwnerState {
                        flows: Vec::new(),
                        posted: [0.0; LANES],
                        neighbors: [0.0; LANES],
                    })
                })
                .collect(),
            epoch: RefCell::default(),
        }
    }

    /// Post a flow: `owner` moves `bytes` on `channel` over `[start, end]`.
    /// Visible to the owner immediately, to neighbors from the next fence
    /// until the one after.
    pub fn post(&self, owner: usize, channel: Channel, start: VTime, end: VTime, bytes: f64) {
        let mut st = self.owners[owner].borrow_mut();
        st.posted[channel.index()] += bytes;
        st.flows.push(Flow {
            channel,
            start,
            end,
            bytes,
        });
    }

    /// Close the epoch at the synchronized instant `now`: publish each
    /// owner's bytes posted since the last fence as a rate over the
    /// epoch, summed in owner order into every other owner's neighbor
    /// rate, and retire flows that ended before `now` (own queries only
    /// look forward from the rank's clock). Call it between rounds,
    /// while no owner posts or loads. Returns the new generation — the
    /// epoch identity the placement journal stamps on its commit records.
    pub fn fence(&self, now: VTime) -> u64 {
        let mut epoch = self.epoch.borrow_mut();
        let len = now.since(epoch.start);
        let cap = self.neighbor_rate_cap;
        let rate = |bytes: f64| {
            if bytes <= 0.0 {
                0.0
            } else if len.is_zero() {
                cap
            } else {
                (bytes / len.secs()).min(cap)
            }
        };
        // Each owner's rate, once per channel, before its posts reset.
        let mut rates = Vec::with_capacity(self.owners.len() * LANES);
        for owner in &self.owners {
            let mut st = owner.borrow_mut();
            rates.extend(st.posted.iter().map(|&bytes| rate(bytes)));
            st.posted.fill(0.0);
            st.flows.retain(|f| f.end >= now);
        }
        // Each channel sums the other owners' rates in owner order. A
        // silent neighbor's 0.0 leaves a non-negative sum's bits
        // unchanged, so summing every neighbor is exact.
        for (reader, owner) in self.owners.iter().enumerate() {
            let mut st = owner.borrow_mut();
            st.neighbors.fill(0.0);
            for (o, neighbor) in rates.chunks_exact(LANES).enumerate() {
                if o != reader {
                    for (sum, r) in st.neighbors.iter_mut().zip(neighbor) {
                        *sum += r;
                    }
                }
            }
        }
        epoch.gen += 1;
        epoch.start = now;
        epoch.gen
    }

    /// The number of fences passed.
    pub fn gen(&self) -> u64 {
        self.epoch.borrow().gen
    }

    /// Bandwidth already consumed on `channel` over `[w0, w1]` as seen by
    /// `owner`: own flows by exact interval overlap, neighbor flows at
    /// the rate the last fence published.
    pub fn load(&self, owner: usize, channel: Channel, w0: VTime, w1: VTime) -> LoadSplit {
        let window = w1.since(w0);
        if window.is_zero() {
            return LoadSplit::default();
        }
        let st = self.owners[owner].borrow();
        let mut own = 0.0;
        for f in st.flows.iter().filter(|f| f.channel == channel) {
            own += overlap_bytes(f, w0, w1);
        }
        LoadSplit {
            own: own / window.secs(),
            neighbors: st.neighbors[channel.index()],
        }
    }

    /// [`BwLedger::load`] on each of the first `N` channels (in
    /// [`Channel::ALL`] order), in one pass over the owner's flows. Each
    /// channel's own bytes are summed in post order, as `load` sums them,
    /// so entry `i` is bit for bit `load(owner, Channel::ALL[i], w0, w1)`.
    /// `N` above six does not compile.
    pub fn loads<const N: usize>(&self, owner: usize, w0: VTime, w1: VTime) -> [LoadSplit; N] {
        const { assert!(N <= LANES) };
        let window = w1.since(w0);
        if window.is_zero() {
            return [LoadSplit::default(); N];
        }
        let st = self.owners[owner].borrow();
        let mut own = [0.0; N];
        for f in st.flows.iter().filter(|f| f.channel.index() < N) {
            own[f.channel.index()] += overlap_bytes(f, w0, w1);
        }
        std::array::from_fn(|ch| LoadSplit {
            own: own[ch] / window.secs(),
            neighbors: st.neighbors[ch],
        })
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
        let l = BwLedger::new(2, 1e12);
        let split = l.load(0, Channel::DramWrite, t(0.0), t(1.0));
        assert_eq!(split, LoadSplit::default());
        assert_eq!(split.total(), 0.0);
    }

    #[test]
    fn own_flow_charges_exact_overlap() {
        let l = BwLedger::new(1, 1e12);
        // 1e9 bytes over [0, 1]: rate 1 GB/s.
        l.post(0, Channel::DramRead, t(0.0), t(1.0), 1e9);
        // Full containment.
        let s = l.load(0, Channel::DramRead, t(0.0), t(1.0));
        assert!((s.own - 1e9).abs() < 1.0);
        // Half overlap: window [0.5, 1.5] catches half the bytes over a
        // 1 s window -> 0.5 GB/s.
        let s = l.load(0, Channel::DramRead, t(0.5), t(1.5));
        assert!((s.own - 0.5e9).abs() < 1.0);
        // Disjoint window.
        let s = l.load(0, Channel::DramRead, t(2.0), t(3.0));
        assert_eq!(s.own, 0.0);
    }

    #[test]
    fn zero_duration_flow_deposits_at_start() {
        let l = BwLedger::new(1, 1e12);
        l.post(0, Channel::DramRead, t(0.5), t(0.5), 100.0);
        let s = l.load(0, Channel::DramRead, t(0.0), t(1.0));
        assert!((s.own - 100.0).abs() < 1e-9);
        let s = l.load(0, Channel::DramRead, t(0.6), t(1.0));
        assert_eq!(s.own, 0.0);
    }

    #[test]
    fn neighbor_flow_invisible_before_fence() {
        let l = BwLedger::new(2, 1e12);
        l.post(1, Channel::DramRead, t(0.0), t(1.0), 1e9);
        let s = l.load(0, Channel::DramRead, t(0.0), t(1.0));
        assert_eq!(s.neighbors, 0.0, "unfenced neighbor traffic leaked");
    }

    #[test]
    fn neighbor_flow_charged_as_epoch_rate_after_fence() {
        let l = BwLedger::new(2, 1e12);
        // Both owners live through epoch [0, 2]; owner 1 copies 1e9 bytes.
        l.post(1, Channel::DramRead, t(0.0), t(1.0), 1e9);
        l.fence(t(2.0));
        // Epoch length 2 s -> neighbor rate 0.5 GB/s, over any window.
        let s = l.load(0, Channel::DramRead, t(2.0), t(3.0));
        assert!((s.neighbors - 0.5e9).abs() < 1.0, "{s:?}");
        // The owner's own view of the same flow is interval-exact: no
        // overlap with [2, 3].
        let s1 = l.load(1, Channel::DramRead, t(2.0), t(3.0));
        assert_eq!(s1.own, 0.0);
        assert_eq!(s1.neighbors, 0.0);
    }

    #[test]
    fn neighbor_rate_is_capped() {
        let l = BwLedger::new(2, 3e9);
        l.post(1, Channel::DramRead, t(0.0), t(0.001), 1e9); // 1 TB/s burst
        l.fence(t(0.001));
        let s = l.load(0, Channel::DramRead, t(0.001), t(0.002));
        assert!((s.neighbors - 3e9).abs() < 1.0, "cap not applied: {s:?}");
    }

    #[test]
    fn old_epochs_age_out() {
        let l = BwLedger::new(2, 1e12);
        l.post(1, Channel::DramRead, t(0.0), t(1.0), 1e9);
        l.fence(t(1.0));
        // A second, idle epoch: the old traffic no longer counts.
        l.fence(t(2.0));
        let s = l.load(0, Channel::DramRead, t(2.0), t(3.0));
        assert_eq!(s.neighbors, 0.0, "stale epoch traffic still charged");
    }

    #[test]
    fn channels_are_independent() {
        let l = BwLedger::new(1, 1e12);
        l.post(0, Channel::DramRead, t(0.0), t(1.0), 1e9);
        assert!(l.load(0, Channel::DramRead, t(0.0), t(1.0)).own > 0.0);
        assert_eq!(l.load(0, Channel::DramWrite, t(0.0), t(1.0)).own, 0.0);
    }

    #[test]
    fn empty_window_is_zero_load() {
        let l = BwLedger::new(1, 1e12);
        l.post(0, Channel::DramRead, t(0.0), t(1.0), 1e9);
        assert_eq!(
            l.load(0, Channel::DramRead, t(0.5), t(0.5)),
            LoadSplit::default()
        );
    }

    #[test]
    fn fences_retire_dead_flows_but_keep_in_flight_ones() {
        let l = BwLedger::new(1, 1e12);
        l.post(0, Channel::DramRead, t(0.0), t(1.0), 1e9); // done before the fence
        l.post(0, Channel::DramRead, t(0.0), t(10.0), 1e10); // spans the fence
        l.fence(t(5.0));
        // The spanning flow is still charged at its 1 GB/s rate over
        // [5, 6]; the finished one contributes nothing (and is gone).
        let s = l.load(0, Channel::DramRead, t(5.0), t(6.0));
        assert!((s.own - 1e9).abs() < 1.0, "{s:?}");
        assert_eq!(l.owners[0].borrow().flows.len(), 1, "dead flow not pruned");
    }

    #[test]
    fn each_owner_sees_every_neighbor_but_itself() {
        let l = BwLedger::new(3, 1e12);
        l.post(1, Channel::DramRead, t(0.0), t(1.0), 1e9);
        l.post(2, Channel::DramRead, t(0.0), t(1.0), 3e9);
        l.fence(t(1.0));
        let rates: Vec<f64> = (0..3)
            .map(|o| l.load(o, Channel::DramRead, t(1.0), t(2.0)).neighbors)
            .collect();
        assert_eq!(rates, vec![4e9, 3e9, 1e9]);
        // Posts after the fence stay invisible until the next one.
        l.post(2, Channel::DramRead, t(1.0), t(2.0), 5e9);
        assert_eq!(l.load(0, Channel::DramRead, t(1.0), t(2.0)).neighbors, 4e9);
    }

    #[test]
    fn gen_counts_fences() {
        let l = BwLedger::new(2, 1e12);
        assert_eq!(l.gen(), 0);
        assert_eq!(l.fence(t(1.0)), 1);
        assert_eq!(l.gen(), 1);
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

    /// What every post and fence so far says a load must read, integrated
    /// naively from the whole history rather than the ledger's pruned,
    /// pre-summed state.
    #[derive(Default)]
    struct History {
        /// Every post, in program order: (owner, channel, start, end, bytes).
        posts: Vec<(usize, Channel, f64, f64, f64)>,
        /// Instants of every fence so far, and how many posts preceded each.
        fences: Vec<(f64, usize)>,
    }

    impl History {
        /// Own load: the exact overlap of the owner's flows with the window,
        /// summed in post order, ÷ the window. Neighbour load: each other
        /// owner's bytes posted in the last closed epoch ÷ the epoch's
        /// length, capped (the cap for a zero-length epoch), summed in
        /// owner order. A zero-length window reads nothing.
        fn load(
            &self,
            owners: usize,
            cap: f64,
            owner: usize,
            ch: Channel,
            w0: f64,
            w1: f64,
        ) -> LoadSplit {
            if w1 <= w0 {
                return LoadSplit::default();
            }
            let mut own = 0.0;
            for &(o, c, start, end, bytes) in &self.posts {
                if o != owner || c != ch {
                    continue;
                }
                own += if end == start {
                    if w0 <= start && start <= w1 {
                        bytes
                    } else {
                        0.0
                    }
                } else {
                    let ov = (end.min(w1) - start.max(w0)).max(0.0);
                    bytes * (ov / (end - start))
                };
            }
            let mut neighbors = 0.0;
            if let Some(&(at, upto)) = self.fences.last() {
                let (from, since) = match self.fences.len() {
                    1 => (0.0, 0),
                    n => self.fences[n - 2],
                };
                let len = (at - from).max(0.0);
                for o in (0..owners).filter(|&o| o != owner) {
                    let mut bytes = 0.0;
                    for &(p, c, _, _, b) in &self.posts[since..upto] {
                        if p == o && c == ch {
                            bytes += b;
                        }
                    }
                    neighbors += if bytes <= 0.0 {
                        0.0
                    } else if len == 0.0 {
                        cap
                    } else {
                        (bytes / len).min(cap)
                    };
                }
            }
            LoadSplit {
                own: own / (w1 - w0),
                neighbors,
            }
        }
    }

    fn split_bits(s: &LoadSplit) -> (u64, u64) {
        (s.own.to_bits(), s.neighbors.to_bits())
    }

    /// The multi-channel read equals one `load` per channel bit for bit,
    /// and both equal the naive integration of every post and fence, over
    /// 1–8 owners, posts on all six channels (zero-length flows and flows
    /// that straddle a fence included), fences two at one instant, and
    /// windows that start at or after the last fence, zero-length ones
    /// included (the contract the fence's pruning relies on).
    #[test]
    fn multi_channel_read_matches_single_loads_and_naive_integration() {
        for seed in 0..300 {
            let mut rng = crate::DetRng::seed(seed);
            let owners = 1 + rng.index(8);
            let cap = [1e9, 5e9, 1e12][rng.index(3)];
            let l = BwLedger::new(owners, cap);
            let mut h = History::default();
            let mut fenced = 0.0;
            for _ in 0..40 {
                match rng.index(8) {
                    0 => {
                        // Two fences at one instant now and then.
                        if rng.index(3) > 0 {
                            fenced += rng.range_f64(0.0, 2.0);
                        }
                        l.fence(t(fenced));
                        h.fences.push((fenced, h.posts.len()));
                    }
                    1..=4 => {
                        let owner = rng.index(owners);
                        let ch = Channel::ALL[rng.index(6)];
                        let start = fenced + rng.range_f64(-1.0, 2.0);
                        let end = if rng.index(4) == 0 {
                            start
                        } else {
                            start + rng.range_f64(0.0, 3.0)
                        };
                        let bytes = rng.range_f64(1.0, 1e10);
                        l.post(owner, ch, t(start), t(end), bytes);
                        h.posts.push((owner, ch, start, end, bytes));
                    }
                    _ => {
                        let owner = rng.index(owners);
                        let w0 = fenced + [0.0, rng.range_f64(0.0, 3.0)][rng.index(2)];
                        let w1 = w0 + [0.0, rng.range_f64(0.0, 3.0)][rng.index(2)];
                        let four: [LoadSplit; 4] = l.loads(owner, t(w0), t(w1));
                        let six: [LoadSplit; 6] = l.loads(owner, t(w0), t(w1));
                        for (i, ch) in Channel::ALL.into_iter().enumerate() {
                            let single = l.load(owner, ch, t(w0), t(w1));
                            let naive = h.load(owners, cap, owner, ch, w0, w1);
                            let ctx = format!(
                                "seed {seed}, owner {owner}, {} channel, [{w0}, {w1}]",
                                ch.name()
                            );
                            assert_eq!(split_bits(&six[i]), split_bits(&single), "{ctx}");
                            if i < 4 {
                                assert_eq!(split_bits(&four[i]), split_bits(&single), "{ctx}");
                            }
                            assert_eq!(split_bits(&single), split_bits(&naive), "{ctx}: naive");
                        }
                    }
                }
            }
        }
    }
}
