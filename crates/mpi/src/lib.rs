//! Mini message-passing runtime with virtual clocks.
//!
//! The paper targets MPI programs on a small cluster. This crate provides
//! the substrate the reproduction runs on: every rank is an OS thread with
//! its own **virtual clock**; point-to-point messages and collectives carry
//! and synchronize those clocks so the simulated timeline is exactly what a
//! bulk-synchronous MPI job would see, independent of host scheduling:
//!
//! * `send`/`recv` — receiver time is
//!   `max(local, sender_departure + wire_time)`;
//! * collectives — everyone leaves at `max(entry clocks) + collective cost`
//!   (log-tree latency plus a size-dependent term);
//! * reductions are performed in rank order after all contributions arrive,
//!   so floating-point results are bit-deterministic.
//!
//! [`pmpi`] implements the paper's transparent phase identification: a
//! wrapper counts MPI operations per iteration (the "global counter" of
//! §3.3), merging non-blocking posts into the following phase exactly as
//! the paper prescribes.

#![forbid(unsafe_code)]

pub mod ctx;
pub mod net;
pub mod pmpi;
pub mod topo;
pub mod world;

pub use ctx::{RankClock, RankCtx, Request};
pub use net::{CollectiveKind, NetParams};
pub use pmpi::{PhaseId, PhaseKind, PhaseTracker};
pub use topo::{collective_timing, hier_reduce, HierTiming, RankPlacement};
pub use world::{reduce, CommWorld, ReduceOp};
