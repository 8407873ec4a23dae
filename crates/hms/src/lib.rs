//! Heterogeneous memory system (HMS) substrate.
//!
//! The paper pairs a small DRAM with a large NVM in one physical address
//! space, managed at user level. This crate models that substrate:
//!
//! * [`tier`] — per-tier timing parameters and the roofline-style access-time
//!   model that serves as the simulation's ground truth.
//! * [`profiles`] — NVM presets from the paper's Table 1 plus the parametric
//!   configurations used throughout the evaluation ("½ DRAM bandwidth",
//!   "4× DRAM latency", the Edison NUMA emulation).
//! * [`object`] — target data objects (`unimem_malloc`ed arrays) and their
//!   registry, including chunked views for large-object partitioning.
//! * [`alloc`] — the user-level DRAM space allocator (first-fit free list),
//!   the "simple memory allocator" of §3.3.
//! * [`dram_service`] — the per-node user-level service that coordinates
//!   DRAM allowance among MPI ranks on the same node.
//! * [`migration`] — the virtual-time migration engine modelling the helper
//!   thread: FIFO queue, serial copies at `copy_bw`, overlap accounting.
//! * [`journal`] — the crash-consistent redo journal for the object table
//!   and in-flight migrations: records appended before any copy starts,
//!   committed at MPI-fence epochs, with InMemory/Buffered/Strict
//!   durability modes charged as NVM-write traffic through the ledger.
//! * [`pools`] — a *real* two-pool backing store plus a *real* helper thread
//!   with a FIFO queue, used by wall-clock benches and examples so the
//!   concurrency machinery is exercised for real, not only in virtual time.
//! * [`arbiter`] — how a node's DRAM budget splits among co-running
//!   applications: one pure function, [`arbiter::split`], from priority
//!   weights and demands to leases under fair-share, priority or
//!   best-effort policy.
//! * [`contention`] — the node-level shared-bandwidth model: co-located
//!   ranks split each tier's node bandwidth, and helper-thread copies draw
//!   from both tiers' pools through a per-node ledger so migration traffic
//!   is visible to overlapping compute. Inter-node traffic is charged on
//!   the same ledgers' link channels.
//! * [`topology`] — the explicit machine room: per-node NVM profiles and
//!   rank slots ([`topology::NodeSpec`]), the inter-node link
//!   ([`topology::ClusterSpec`]), and deterministic rank→node placement
//!   ([`topology::ClusterTopology`]).

#![forbid(unsafe_code)]

pub mod alloc;
pub mod arbiter;
pub mod contention;
pub mod dram_service;
pub mod journal;
pub mod migration;
pub mod object;
pub mod pools;
pub mod profiles;
pub mod tier;
pub mod topology;

pub use alloc::SpaceAllocator;
pub use arbiter::ArbiterPolicy;
pub use contention::{BwClient, FlowScope, SharedBandwidth};
pub use dram_service::DramService;
pub use journal::{DurabilityMode, Journal, JournalHandle, JournalStats, ReplayedState};
pub use migration::{MigrationEngine, MigrationStats};
pub use object::{DataObject, ObjId, ObjectRegistry};
pub use profiles::MachineConfig;
pub use tier::{AccessMix, TierKind, TierParams};
pub use topology::{ClusterSpec, ClusterTopology, NodeSpec};
