//! Sampling-based profiling and offline calibration.
//!
//! The paper's runtime observes applications exclusively through hardware
//! performance counters in sampling mode (PEBS/IBS): last-level-cache-miss
//! events with captured addresses, mapped to target data objects. This crate
//! reproduces that observation channel and the offline calibration that
//! anchors the runtime's performance models:
//!
//! * [`sampler`] — the simulated counter. Given a phase's ground-truth
//!   per-object misses and memory times, it produces what the hardware
//!   would report: per-object *sampled* access counts (event-based
//!   sampling with a fixed period, hence systematic undercounting — the
//!   very inaccuracy the paper's CF factors exist to absorb) and per-object
//!   *duty* windows (time-based 1000-cycle sampling windows that saw an
//!   access), plus the profiling overhead charged to the runtime.
//! * [`eq1`] — Equation 1 of the paper: estimated bandwidth consumption of
//!   a data object from sampled quantities.
//! * [`mod@calibrate`] — the offline step: run STREAM (bandwidth-bound) and
//!   pointer-chasing (latency-bound) through the same machinery to obtain
//!   `CF_bw`, `CF_lat` and the sampled `BW_peak` of NVM.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod eq1;
pub mod sampler;

pub use calibrate::{calibrate, Calibration};
pub use eq1::eq1_bandwidth;
pub use sampler::{ObjSample, PhaseProfile, Sampler, SamplerConfig};
