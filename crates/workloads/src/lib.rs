//! Phase-structured workloads: the six NAS parallel benchmarks of the
//! paper's evaluation (CG, FT, BT, LU, SP, MG) and a Nek5000-eddy
//! mini-app, expressed as [`unimem::Workload`] phase scripts.
//!
//! Each workload reproduces, at class scale, the properties the paper's
//! evaluation depends on:
//!
//! * the **target data objects** of Table 3, with sizes derived from the
//!   NPB class geometries divided over ranks;
//! * the **phase structure** of the main iteration (computation delineated
//!   by MPI operations, Fig. 1);
//! * the per-(phase, object) **access patterns** that make objects
//!   bandwidth- or latency-sensitive (Observation 3): solver recurrences
//!   chase pointers, sweeps stream, sparse matvecs gather;
//! * the paper-relevant quirks: FT's arrays exceed DRAM (partitioning
//!   pays off), MG's arrays hide behind aliases (partitioning blocked),
//!   BT/SP sweep different directions with different working sets
//!   (phase-local search pays off), Nek5000 drifts across iterations
//!   (adaptivity pays off, offline profiling suffers).
//!
//! The numeric volumes are workload *models*: they come from the kernels'
//! loop structure, with constants chosen so the NVM-only slowdowns land in
//! the ranges Figures 2/3 report. `EXPERIMENTS.md` records paper-vs-
//! measured for every figure.
//!
//! Beyond the paper's single-application evaluation, [`corun`] composes
//! suite members into multi-tenant mixes (pairs/triples with staggered
//! phase clocks) for the DRAM-arbitration co-run sweep.

#![forbid(unsafe_code)]

pub mod bt;
pub mod cg;
pub mod classes;
pub mod corun;
pub mod ft;
pub mod helpers;
pub mod lu;
pub mod mg;
pub mod nek;
pub mod sp;
pub mod suite;

pub use classes::Class;
pub use corun::{dedup_mixes, parse_mixes, reduced_mixes, standard_mixes, CorunMember, CorunMix};
pub use suite::{
    all_npb, by_name, canonical_name, canonicalize_names, npb_and_nek, select, SUITE_NAMES,
};
