//! Simulation foundation for the Unimem reproduction.
//!
//! This crate provides the shared vocabulary every other crate builds on:
//!
//! * [`time`] — virtual time ([`VTime`]) and durations ([`VDur`]) measured in
//!   seconds of *simulated* wall clock. The whole reproduction is an analytic
//!   virtual-time simulation: nothing here sleeps or reads the host clock.
//! * [`units`] — byte quantities, bandwidths and latencies with safe
//!   conversions (`bytes / bandwidth -> duration`, …).
//! * [`rng`] — a deterministic random number generator plus the sampling
//!   distributions the PEBS-style profiler needs (binomial thinning).
//! * [`stats`] — streaming statistics (Welford) used by the runtime's
//!   phase-variation detector and by the benchmark harnesses.
//! * [`ledger`] — the deterministic per-channel bandwidth ledger behind the
//!   node-level shared-bandwidth model: helper-thread copies are posted as
//!   flows, and consumers ask how much of a channel is already spoken for
//!   during a virtual-time window (own flows by exact interval overlap,
//!   neighbor flows by fence-epoch rates).
//! * [`json`] — a deterministic JSON document builder **and parser** used
//!   for the machine-readable run/sweep reports and the sweep's on-disk
//!   cell cache, hand-rolled so the workspace needs no serialization
//!   crate.
//! * [`hash`] — deterministic FNV-1a hashing: the journal's frame
//!   checksum and the digest convention behind the content-addressed
//!   sweep cache.
//! * [`crash`] — seeded virtual-time kill points for the crash-injection
//!   harness: determinism makes a "crash at `T`" a pure function of the
//!   clean run, so no threads are ever actually torn down.
//! * [`pool`] — the deterministic worker pool the bench sweep runs its
//!   cells on (jobs reassembled by index, byte-identical at any worker
//!   count).
//!
//! Everything is deterministic: identical inputs yield bit-identical outputs
//! regardless of host scheduling, which the integration tests assert.

#![forbid(unsafe_code)]

pub mod crash;
pub mod hash;
pub mod json;
pub mod ledger;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use crash::{sample_kill_points, CrashSpec};
pub use hash::{json_digest_hex, Fnv128, Fnv64};
pub use json::Json;
pub use ledger::{BwLedger, Channel, LoadSplit};
pub use pool::{default_workers, run_pool, with_label};
pub use rng::DetRng;
pub use stats::OnlineStats;
pub use time::{VDur, VTime};
pub use units::{Bandwidth, Bytes, Latency};

#[cfg(test)]
mod tests {
    use super::DetRng;

    /// Every seed names one stream: two generators seeded alike agree
    /// draw for draw, and neighbouring seeds do not share a stream.
    #[test]
    fn deterministic_per_seed() {
        for seed in [0u64, 1, 2, u64::MAX] {
            let mut a = DetRng::seed(seed);
            let mut b = DetRng::seed(seed);
            for _ in 0..64 {
                assert_eq!(a.u64(), b.u64());
            }
        }
        let first = |seed| DetRng::seed(seed).u64();
        assert_ne!(first(1), first(2));
    }
}
