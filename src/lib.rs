//! Workspace façade for the Unimem (SC'17) reproduction.
//!
//! Re-exports every crate under a single roof so examples and integration
//! tests can `use unimem_repro::...`. See the README for a tour and
//! ARCHITECTURE.md ("Paper section → module map") for the system
//! inventory.

#![forbid(unsafe_code)]

pub use unimem as runtime;
pub use unimem::comm as mpi;
pub use unimem_bench as bench;
pub use unimem_cache as cache;
pub use unimem_hms as hms;
pub use unimem_perf as perf;
pub use unimem_sim as sim;
pub use unimem_workloads as workloads;
pub use unimem_xmem as xmem;
