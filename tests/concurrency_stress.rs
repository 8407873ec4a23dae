//! Concurrency stress tests for the hot paths: the per-owner bandwidth
//! ledger under real thread contention, and the lock-free worker pool
//! under arbitrary job sets and widths.
//!
//! The simulator's guarantee is stronger than "no data races": every
//! query answer must be a *pure function of the schedule*, bit-for-bit,
//! no matter how the OS interleaves the threads. So both halves compare
//! a genuinely parallel execution against a serial replay of the same
//! schedule and require exact (`==` on f64 / bytes) equality.

use std::sync::{Barrier, Mutex};
use unimem_repro::sim::{run_pool, run_pool_mut, BwLedger, LoadSplit, VDur, VTime};

const OWNERS: usize = 8;
const CHANNELS: usize = 4;
const EPOCHS: usize = 6;
const POSTS_PER_EPOCH: usize = 5;
const CAP: f64 = 12e9;

/// The deterministic schedule: what `owner` posts as its `k`-th flow of
/// `epoch`. Pure arithmetic so the threaded run and the serial replay
/// derive identical flows independently.
fn flow(owner: usize, epoch: usize, k: usize) -> (usize, VTime, VTime, f64) {
    let channel = (owner + epoch + k) % CHANNELS;
    let t0 = epoch as f64 + (owner as f64 * POSTS_PER_EPOCH as f64 + k as f64) * 1e-3;
    // Every third flow is instantaneous (the zero-duration deposit path).
    let dur = if k % 3 == 2 {
        0.0
    } else {
        0.25 + k as f64 * 0.1
    };
    let bytes = ((owner * 31 + epoch * 17 + k * 7) % 97 + 1) as f64 * 1e6;
    (channel, VTime(t0), VTime(t0 + dur), bytes)
}

/// The synchronized fence instant ending `epoch` (the collective's
/// departure).
fn fence_at(epoch: usize) -> VTime {
    VTime((epoch + 1) as f64)
}

/// The query window each owner probes after the posts of `epoch` landed.
fn window(epoch: usize) -> (VTime, VTime) {
    (VTime(epoch as f64), VTime(epoch as f64 + 0.75))
}

/// One owner's walk through the schedule. `sync` is called at the three
/// rendezvous points of each epoch (post-barrier, load-barrier,
/// fence-barrier); between the last two, owner 0 alone fences, as the
/// executor's serial resolver does while every rank task is paused.
///
/// Each epoch records two probes per channel: one *mid-epoch*, racing
/// the neighbors' posts (own flows are the owner's posts so far, and
/// neighbor rates are the ones the last fence published), and one after
/// all posts landed. Both must be schedule-pure.
fn drive_owner(ledger: &BwLedger, owner: usize, sync: &dyn Fn()) -> Vec<LoadSplit> {
    let mut probes = Vec::new();
    for epoch in 0..EPOCHS {
        let (w0, w1) = window(epoch);
        for k in 0..POSTS_PER_EPOCH {
            let (ch, start, end, bytes) = flow(owner, epoch, k);
            ledger.post(owner, ch, start, end, bytes);
            if k == POSTS_PER_EPOCH / 2 {
                // Mid-epoch probe, racing the neighbors' posts on purpose.
                for ch in 0..CHANNELS {
                    probes.push(ledger.load(owner, ch, w0, w1));
                }
            }
        }
        sync();
        for ch in 0..CHANNELS {
            probes.push(ledger.load(owner, ch, w0, w1));
        }
        sync();
        if owner == 0 {
            ledger.fence(fence_at(epoch));
        }
        sync();
    }
    probes
}

/// Serial replay: one thread interleaves the owners epoch by epoch in
/// the same phase order the barriers enforce (all posts+mid-probes, all
/// post-rendezvous probes, the fence).
fn serial_replay() -> Vec<Vec<LoadSplit>> {
    let ledger = BwLedger::new(OWNERS, CHANNELS, CAP);
    let mut probes: Vec<Vec<LoadSplit>> = vec![Vec::new(); OWNERS];
    for epoch in 0..EPOCHS {
        let (w0, w1) = window(epoch);
        for (owner, owner_probes) in probes.iter_mut().enumerate() {
            for k in 0..POSTS_PER_EPOCH {
                let (ch, start, end, bytes) = flow(owner, epoch, k);
                ledger.post(owner, ch, start, end, bytes);
                if k == POSTS_PER_EPOCH / 2 {
                    for ch in 0..CHANNELS {
                        owner_probes.push(ledger.load(owner, ch, w0, w1));
                    }
                }
            }
        }
        for (owner, owner_probes) in probes.iter_mut().enumerate() {
            for ch in 0..CHANNELS {
                owner_probes.push(ledger.load(owner, ch, w0, w1));
            }
        }
        ledger.fence(fence_at(epoch));
    }
    probes
}

/// The serial replay's mid-epoch probes run after *every* earlier
/// owner's posts of the epoch, while the threaded run's race them. They
/// agree anyway, because a neighbor's post is invisible until the next
/// fence publishes it: within an epoch an owner reads only its own
/// flows and the rates the last fence published.
#[test]
fn sharded_ledger_hammer_matches_serial_replay_exactly() {
    for round in 0..8 {
        let ledger = BwLedger::new(OWNERS, CHANNELS, CAP);
        let barrier = Barrier::new(OWNERS);
        let got: Mutex<Vec<(usize, Vec<LoadSplit>)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for owner in 0..OWNERS {
                let (ledger, barrier, got) = (&ledger, &barrier, &got);
                s.spawn(move || {
                    let probes = drive_owner(ledger, owner, &|| {
                        barrier.wait();
                    });
                    got.lock().unwrap().push((owner, probes));
                });
            }
        });
        let mut got = got.into_inner().unwrap();
        got.sort_by_key(|(owner, _)| *owner);
        let want = serial_replay();
        for (owner, probes) in got {
            assert_eq!(
                probes.len(),
                want[owner].len(),
                "round {round}: owner {owner} probe count"
            );
            for (i, (g, w)) in probes.iter().zip(&want[owner]).enumerate() {
                assert_eq!(
                    g, w,
                    "round {round}: owner {owner} probe {i} diverged from the serial replay"
                );
            }
        }
        assert_eq!(ledger.gen(), EPOCHS as u64);
    }
}

/// Neighbor visibility across the fence boundary, under threads: an
/// epoch's posts must be invisible to neighbors until the fence that
/// closes it, then visible as that epoch's rate until the next fence.
#[test]
fn sharded_ledger_visibility_lag_is_exact_under_threads() {
    let ledger = BwLedger::new(2, 1, 12e9);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        // Owner 1 posts 8 GB over [0, 1] each epoch; owner 0 reads, then
        // fences alone while owner 1 waits.
        s.spawn(|| {
            for epoch in 0..3 {
                let t = VTime(epoch as f64);
                ledger.post(1, 0, t, t + VDur::from_secs(1.0), 8e9);
                barrier.wait(); // posts done
                barrier.wait(); // reader probed and fenced
            }
        });
        s.spawn(|| {
            let mut seen = Vec::new();
            for epoch in 0..3 {
                barrier.wait(); // posts done
                let (w0, w1) = (VTime(epoch as f64), VTime(epoch as f64 + 1.0));
                seen.push(ledger.load(0, 0, w0, w1).neighbors);
                ledger.fence(fence_at(epoch));
                barrier.wait(); // probe recorded, epoch closed
            }
            // Epoch 0: no completed epoch yet — nothing visible. After
            // the first fence the 8 GB/1 s epoch is the neighbor's
            // last-epoch rate, every epoch from then on.
            assert_eq!(seen, vec![0.0, 8e9, 8e9]);
        });
    });
}

/// The pool side of the stress: any worker width reassembles byte-identical
/// results, for both the read-only and the in-place scheduler paths.
#[test]
fn pool_widths_reassemble_identically_under_load() {
    let items: Vec<u64> = (0..257).map(|i| i * 2654435761 % 1013).collect();
    let f = |&x: &u64| -> Result<String, String> { Ok(format!("{:x}", x.wrapping_mul(x) ^ 0xabc)) };
    let serial = run_pool(items.clone(), 1, f).unwrap();
    for width in [2, 3, 8, 64] {
        assert_eq!(run_pool(items.clone(), width, f).unwrap(), serial);
    }
    let mut mine = items.clone();
    let mut theirs = items;
    let g = |i: usize, x: &mut u64| {
        *x = x.wrapping_add(i as u64);
        Ok(*x)
    };
    let a = run_pool_mut(&mut mine, 1, g).unwrap();
    let b = run_pool_mut(&mut theirs, 16, g).unwrap();
    assert_eq!(a, b);
    assert_eq!(mine, theirs);
}
