//! Shared communication state and the rank launcher.
//!
//! [`CommWorld`] owns the per-pair mailboxes and the collective slot. Rank
//! threads interact with it through [`crate::ctx::RankCtx`]. All blocking is
//! real (condvars) but all *timing* is virtual and deterministic.

use crate::net::{CollectiveKind, NetParams};
use crate::topo::{collective_timing, RankPlacement};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use unimem_sim::{Bytes, VTime};

/// Reduction semantics for collectives carrying data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum in rank order (bit-deterministic).
    Sum,
    /// Element-wise max.
    Max,
    /// Result is the root's contribution (broadcast).
    TakeRoot(usize),
    /// Personalized exchange: contribution of rank r is `p` equal blocks;
    /// result for rank r is block r of every rank, in rank order.
    AllToAll,
}

/// A point-to-point message in flight.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    pub tag: u64,
    pub modeled_bytes: Bytes,
    pub payload: Vec<f64>,
    /// Virtual time at which the message is available at the receiver.
    pub avail_at: VTime,
}

#[derive(Default)]
struct Mailbox {
    queue: Mutex<VecDeque<Message>>,
    cv: Condvar,
}

#[derive(Debug, Clone)]
struct CollResult {
    leave_at: VTime,
    /// Per-rank result payloads (same for all ranks except AllToAll).
    data: Vec<Vec<f64>>,
}

struct CollSlot {
    gen: u64,
    arrived: usize,
    clocks: Vec<VTime>,
    contrib: Vec<Vec<f64>>,
    /// Finished generations awaiting pickup: gen -> (result, reads left).
    results: HashMap<u64, (CollResult, usize)>,
}

struct Collective {
    m: Mutex<CollSlot>,
    cv: Condvar,
}

/// The communicator: everything ranks share.
pub struct CommWorld {
    nranks: usize,
    pub(crate) net: NetParams,
    /// Rank→node placement; [`RankPlacement::single`] (the default)
    /// reproduces the historical flat collective timing exactly.
    placement: RankPlacement,
    /// Inter-node link parameters for the two-level collective phase.
    /// Unused on a flat placement.
    link: NetParams,
    mailboxes: Vec<Mailbox>,
    coll: Collective,
}

impl CommWorld {
    pub fn new(nranks: usize, net: NetParams) -> CommWorld {
        CommWorld::with_topology(nranks, net, RankPlacement::single(nranks), net)
    }

    /// A communicator whose collectives are priced by the two-level
    /// schedule of [`collective_timing`] under `placement`, with the
    /// inter-node phase running over `link`. Reduction *data* is
    /// placement-independent (see [`reduce`]).
    pub fn with_topology(
        nranks: usize,
        net: NetParams,
        placement: RankPlacement,
        link: NetParams,
    ) -> CommWorld {
        assert!(nranks >= 1);
        assert_eq!(placement.nranks(), nranks);
        CommWorld {
            nranks,
            net,
            placement,
            link,
            mailboxes: (0..nranks * nranks).map(|_| Mailbox::default()).collect(),
            coll: Collective {
                m: Mutex::new(CollSlot {
                    gen: 0,
                    arrived: 0,
                    clocks: vec![VTime::ZERO; nranks],
                    contrib: vec![Vec::new(); nranks],
                    results: HashMap::new(),
                }),
                cv: Condvar::new(),
            },
        }
    }

    /// The rank→node placement collectives are priced under.
    pub fn placement(&self) -> &RankPlacement {
        &self.placement
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    fn mailbox(&self, src: usize, dst: usize) -> &Mailbox {
        &self.mailboxes[src * self.nranks + dst]
    }

    /// Deposit a message from `src` to `dst`.
    pub(crate) fn post(&self, src: usize, dst: usize, msg: Message) {
        let mb = self.mailbox(src, dst);
        mb.queue.lock().expect("mailbox poisoned").push_back(msg);
        mb.cv.notify_all();
    }

    /// Block until a message from `src` to `dst` with `tag` arrives; remove
    /// and return it. MPI non-overtaking order holds per (src, tag).
    pub(crate) fn fetch(&self, src: usize, dst: usize, tag: u64) -> Message {
        let mb = self.mailbox(src, dst);
        let mut q = mb.queue.lock().expect("mailbox poisoned");
        loop {
            if let Some(pos) = q.iter().position(|m| m.tag == tag) {
                return q.remove(pos).expect("position valid");
            }
            q = mb.cv.wait(q).expect("mailbox poisoned");
        }
    }

    /// Enter a collective: blocks until all ranks arrive, then returns the
    /// synchronized departure time and this rank's result payload.
    pub(crate) fn collective(
        &self,
        rank: usize,
        clock: VTime,
        kind: CollectiveKind,
        bytes: Bytes,
        contrib: Vec<f64>,
        op: ReduceOp,
    ) -> (VTime, Vec<f64>) {
        let mut slot = self.coll.m.lock().expect("collective slot poisoned");
        let my_gen = slot.gen;
        slot.clocks[rank] = clock;
        slot.contrib[rank] = contrib;
        slot.arrived += 1;
        if slot.arrived == self.nranks {
            // Last arrival computes the result for this generation.
            let leave_at = collective_timing(
                &slot.clocks,
                kind,
                bytes,
                &self.net,
                &self.placement,
                &self.link,
            )
            .leave;
            let data = reduce(&slot.contrib, op, self.nranks);
            slot.results
                .insert(my_gen, (CollResult { leave_at, data }, self.nranks));
            slot.arrived = 0;
            slot.gen += 1;
            for c in &mut slot.contrib {
                c.clear();
            }
            self.coll.cv.notify_all();
        } else {
            slot = self
                .coll
                .cv
                .wait_while(slot, |s| !s.results.contains_key(&my_gen))
                .expect("collective slot poisoned");
        }
        let (result, remaining) = slot.results.get_mut(&my_gen).expect("result present");
        let leave = result.leave_at;
        let mine = std::mem::take(&mut result.data[rank]);
        *remaining -= 1;
        if *remaining == 0 {
            slot.results.remove(&my_gen);
        }
        (leave, mine)
    }

    /// Launch `nranks` rank threads running `f` and collect their results
    /// in rank order. Panics in any rank propagate.
    pub fn run<R, F>(nranks: usize, net: NetParams, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut crate::ctx::RankCtx) -> R + Sync,
    {
        CommWorld::run_world(CommWorld::new(nranks, net), f)
    }

    /// [`CommWorld::run`] over an explicitly constructed world (e.g. one
    /// with a multi-node [`RankPlacement`]).
    pub fn run_world<R, F>(world: CommWorld, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut crate::ctx::RankCtx) -> R + Sync,
    {
        let nranks = world.nranks;
        let world = Arc::new(world);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nranks)
                .map(|rank| {
                    let world = Arc::clone(&world);
                    let f = &f;
                    scope.spawn(move || {
                        let mut ctx = crate::ctx::RankCtx::new(rank, world);
                        f(&mut ctx)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

/// Reduce contributions (indexed by rank) under `op`, producing the
/// per-rank result payloads. Always iterates in rank order:
/// deterministic, and deliberately **placement-independent** — the
/// hierarchical schedule only changes *when* ranks leave, never what
/// they receive, so two-level results are bitwise-equal to flat ones
/// for every op (f64 addition is non-associative; folding per-node
/// partial sums would break that).
pub fn reduce(contrib: &[Vec<f64>], op: ReduceOp, nranks: usize) -> Vec<Vec<f64>> {
    match op {
        ReduceOp::Sum | ReduceOp::Max => {
            let len = contrib.iter().map(|c| c.len()).max().unwrap_or(0);
            let mut acc = vec![
                match op {
                    ReduceOp::Sum => 0.0,
                    _ => f64::NEG_INFINITY,
                };
                len
            ];
            for c in contrib {
                for (i, &x) in c.iter().enumerate() {
                    match op {
                        ReduceOp::Sum => acc[i] += x,
                        ReduceOp::Max => acc[i] = acc[i].max(x),
                        _ => unreachable!(),
                    }
                }
            }
            if len == 0 {
                vec![Vec::new(); nranks]
            } else {
                vec![acc; nranks]
            }
        }
        ReduceOp::TakeRoot(root) => {
            vec![contrib[root].clone(); nranks]
        }
        ReduceOp::AllToAll => {
            // Split each contribution into nranks equal blocks.
            (0..nranks)
                .map(|dst| {
                    let mut out = Vec::new();
                    for src_contrib in contrib {
                        if src_contrib.is_empty() {
                            continue;
                        }
                        let block = src_contrib.len() / nranks;
                        out.extend_from_slice(&src_contrib[dst * block..(dst + 1) * block]);
                    }
                    out
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_is_rank_ordered() {
        let c = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        let r = reduce(&c, ReduceOp::Sum, 3);
        assert_eq!(r[0], vec![111.0, 222.0]);
        assert_eq!(r[2], r[0]);
    }

    #[test]
    fn reduce_max() {
        let c = vec![vec![1.0], vec![5.0], vec![3.0]];
        let r = reduce(&c, ReduceOp::Max, 3);
        assert_eq!(r[1], vec![5.0]);
    }

    #[test]
    fn take_root_broadcasts() {
        let c = vec![vec![], vec![7.0, 8.0], vec![]];
        let r = reduce(&c, ReduceOp::TakeRoot(1), 3);
        assert_eq!(r[0], vec![7.0, 8.0]);
        assert_eq!(r[2], vec![7.0, 8.0]);
    }

    #[test]
    fn alltoall_transposes_blocks() {
        // Rank r contributes [r*10+0, r*10+1] (block per destination).
        let c = vec![vec![0.0, 1.0], vec![10.0, 11.0]];
        let r = reduce(&c, ReduceOp::AllToAll, 2);
        assert_eq!(r[0], vec![0.0, 10.0]);
        assert_eq!(r[1], vec![1.0, 11.0]);
    }

    #[test]
    fn empty_barrier_reduction() {
        let c = vec![vec![], vec![]];
        let r = reduce(&c, ReduceOp::Sum, 2);
        assert!(r[0].is_empty() && r[1].is_empty());
    }
}
