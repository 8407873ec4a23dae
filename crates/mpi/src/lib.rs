//! Virtual-clock communication timing and PMPI phase tracking.
//!
//! The paper targets MPI programs on a small cluster. Unimem sees such a
//! job only through the phases its PMPI wrapper delimits, so this crate
//! models communication by *time*, never by values: every rank owns a
//! [`RankClock`], and the executor resolves each communication point
//! centrally from the ranks' entry clocks:
//!
//! * collectives — everyone leaves at `max(entry clocks) + collective
//!   cost` (log-tree latency plus a size-dependent term, [`net`]),
//!   priced over two levels when ranks span nodes ([`topo`]);
//! * point-to-point — a message lands `alpha + bytes/beta` after its
//!   send, and the receiver leaves at
//!   `max(local + overhead, arrival)`.
//!
//! Collectives carry byte counts, never values, so the timeline is a
//! pure function of the entry clocks and independent of host
//! scheduling.
//!
//! [`pmpi`] implements the paper's transparent phase identification: a
//! wrapper counts MPI operations per iteration (the "global counter" of
//! §3.3), merging non-blocking posts into the following phase exactly as
//! the paper prescribes.

#![forbid(unsafe_code)]

pub mod clock;
pub mod net;
pub mod pmpi;
pub mod topo;

pub use clock::RankClock;
pub use net::{CollectiveKind, NetParams};
pub use pmpi::{PhaseId, PhaseKind, PhaseTracker};
pub use topo::{collective_timing, HierTiming, RankPlacement};
