//! The evaluation-matrix sweep: every workload × policy × NVM profile ×
//! rank count in one run, one machine-readable report, and executable
//! paper-claim conformance checks on top.
//!
//! The figure/table harnesses under `benches/` each reproduce one plot.
//! This subsystem instead runs the *whole* evaluation matrix —
//!
//! * workloads: the 7-member suite (CG/FT/BT/LU/SP/MG + Nek5000-eddy),
//! * policies: the whole placement-policy registry
//!   (`unimem::policy::PolicyId`) — `unimem`, `xmem`, `dram-only`,
//!   `nvm-only`, `online-guidance`, `hw-cache`,
//! * NVM profiles: the Fig. 9/10 emulation anchors (½ DRAM bandwidth,
//!   4× DRAM latency) and the Table-1 technology rows (STT-RAM, PCRAM,
//!   ReRAM),
//! * rank counts: 1 / 4 / 8,
//! * node layouts: 1 / 2 / 4 ranks per node — packed layouts share each
//!   node's tier bandwidth and copy path, exercising the shared-bandwidth
//!   contention model (Fig. 12-style scaling),
//! * machine rooms: an optional cluster-topology axis
//!   ([`matrix::TopologySpec`], `--topologies` on the CLI) re-runs
//!   one-rank-per-node rows in simulated multi-node or heterogeneous
//!   rooms through `unimem::exec::run_workload_clustered` — two-level
//!   collectives, inter-node traffic on the contended link channels,
//!   normalization against DRAM-only in the same room
//!
//! — and emits a single `BENCH_sweep.json` with per-cell run time,
//! migration statistics, and pure runtime cost ([`report`]).
//!
//! Cells execute on a deterministic worker pool ([`jobs`]): baselines
//! first, then the remaining policy cells, reassembled in canonical order
//! so the report bytes never depend on the worker count (`--jobs N` on
//! the CLI; [`runner::run_sweep_cached`] in code).
//!
//! Beyond the paper's single-application evaluation, the sweep carries a
//! **co-run matrix** (stage 3): multi-tenant mixes
//! (`unimem_workloads::corun`) execute under the DRAM arbiter
//! (`unimem_hms::arbiter`) with each of the {fair-share, priority,
//! best-effort} policies, and the report gains per-tenant cells measuring
//! slowdown against the tenant's solo run — the production-node question
//! the paper never asks.
//!
//! The [`conformance`] layer encodes the paper's headline claims as
//! executable checks with explicit tolerances (see [`conformance::Tolerances`]
//! for the claim ↔ figure mapping; `docs/CONFORMANCE.md` documents each
//! check's provenance), runnable both as a tier-1 test on the
//! [`matrix::SweepConfig::reduced`] matrix and as a full-matrix CLI mode
//! (`cargo run --release --example sweep -- --full --check`).

pub mod cache;
pub mod conformance;
pub mod jobs;
pub mod matrix;
pub mod report;
pub mod runner;

pub use cache::SweepCache;
pub use conformance::{
    check_determinism, check_recovery, check_report, check_weak_scaling, inject_crashes, KillPoint,
    Tolerances, Violation, CRASH_SEED,
};
pub use jobs::{default_workers, run_pool};
pub use matrix::{ArbiterPolicy, NvmProfile, PolicyKind, SweepConfig, TopologySpec};
pub use runner::{run_sweep_cached, CorunCell, SweepCell, SweepReport};
