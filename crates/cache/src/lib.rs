//! Last-level cache models.
//!
//! The paper's placement decisions hinge on one cache effect: how many of a
//! data object's references reach *main memory* (LLC misses — the event the
//! profiler samples). This crate supplies that number two ways:
//!
//! * [`analytic`] — a closed-form, per-pattern miss model used at workload
//!   scale (CLASS C/D footprints are far too large to trace). Capacity is
//!   shared among the objects live in a phase in proportion to their
//!   working sets, a standard first-order partition model.
//! * [`setassoc`] — a set-associative LRU trace simulator used by tests to
//!   validate the analytic model on miniature versions of each pattern.
//! * [`pattern`] — the access-pattern vocabulary ([`AccessPattern`]) and the
//!   per-(phase, object) access descriptor ([`ObjAccess`]) the workloads
//!   emit and both models consume. Patterns also carry the memory-level
//!   parallelism estimate that makes an object bandwidth- or
//!   latency-sensitive in the ground-truth timing model.

#![forbid(unsafe_code)]

pub mod analytic;
pub mod pattern;
pub mod setassoc;
pub mod trace;

pub use analytic::{CacheModel, MissEstimate};
pub use pattern::{AccessPattern, ObjAccess};
pub use setassoc::SetAssocCache;
