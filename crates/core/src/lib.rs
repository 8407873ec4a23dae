//! Unimem: the runtime data-management system of Wu, Huang & Li (SC'17).
//!
//! Unimem decides and enforces the placement of target data objects on a
//! DRAM+NVM heterogeneous memory system, per execution phase, using online
//! sampling-based profiling and lightweight performance models — no
//! hardware modification, no OS change, less than twenty lines of
//! application change.
//!
//! Crate layout (one module per runtime concern, §3 of the paper):
//!
//! * [`api`] — the five-call programmer API of Table 2
//!   (`unimem_init` … `unimem_free`).
//! * [`profile`] — step 1: per-phase sampled profiles of target objects.
//! * [`model`] — step 2: Equations 1–5 (sensitivity classification,
//!   benefit, movement cost, weight).
//! * [`knapsack`] — the 0-1 knapsack solver (dynamic programming) behind
//!   placement decisions.
//! * [`search`] — step 3: phase-local search and cross-phase global
//!   search, plus the predicted-time evaluator that picks between them.
//! * [`deps`] — cross-phase data-dependency table and the earliest-safe
//!   migration trigger computation (Fig. 5).
//! * [`enforce`] — plan enforcement with proactive helper-thread
//!   migration (Fig. 6) over the virtual-time engine.
//! * [`initial`] — compiler-estimate-driven initial data placement (§3.2).
//! * [`partition`] — large-object decomposition into DRAM-sized chunks
//!   (§3.2), conservative: regular 1-D arrays only.
//! * [`adapt`] — workload-variation monitor (>10% phase-time deviation
//!   re-triggers profiling, §3.2).
//! * [`stats`] — run statistics: Table 4 counters and "pure runtime cost".
//! * [`policy`] — the placement policies: the [`policy::Policy`] value
//!   that builds each rank's [`policy::RankState`], the
//!   [`policy::PolicyId`] name registry, and every competitor
//!   implementation (DRAM-only, NVM-only, static pins, Unimem, online
//!   guidance, hardware DRAM cache).
//! * [`comm`] — what the executor sees of MPI: collective and
//!   point-to-point costs priced over the machine room, and the phase id
//!   (the step index of the executor's walk, the PMPI counter of §3.3).
//! * [`exec`] — the driver: runs a [`exec::Workload`] under a
//!   [`exec::Policy`] on a machine model and reports times + stats;
//!   [`exec::RankTime`] owns each rank's clock and time accounts.
//! * [`recovery`] — crash-consistent recovery over the
//!   `unimem_hms::journal` redo log: journaled runs, deterministic
//!   crash injection, and replay back to an equivalent execution.
//! * [`tenancy`] — multi-tenant co-runs: N independent Unimem instances
//!   whose knapsack capacities are per-epoch leases from
//!   `unimem_hms::arbiter::split`, re-planned when leases move.

#![forbid(unsafe_code)]

pub mod adapt;
pub mod api;
pub mod calib;
pub mod comm;
pub mod deps;
pub mod enforce;
pub mod exec;
pub mod initial;
pub mod knapsack;
pub mod model;
pub mod partition;
pub mod policy;
pub mod profile;
pub mod recovery;
pub mod search;
pub mod stats;
pub mod tenancy;

pub use api::Unimem;
pub use exec::{
    run_workload, run_workload_clustered, run_workload_leased, CapacitySchedule, Policy, RunReport,
    StepSpec, UnimemConfig, Workload,
};
pub use model::{ModelParams, Sensitivity};
pub use policy::PolicyId;
pub use recovery::{
    CrashOutcome, JournaledRun, RecoveredRun, RecoverySetup, RecoveryStats, ReplaySummary,
};
pub use stats::RunStats;
pub use tenancy::{run_corun, run_corun_with_solos, CorunTenant, TenantOutcome};
