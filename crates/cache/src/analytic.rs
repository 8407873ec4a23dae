//! Closed-form LLC miss model.
//!
//! For each (phase, object) access descriptor the model answers: how many of
//! these references miss the last-level cache and reach main memory? The
//! model is first-order by design — the paper's runtime itself tolerates
//! profiling noise (that is what its CF factors are for) — but it captures
//! the two effects every figure depends on:
//!
//! 1. **capacity**: an object whose phase working set fits its cache share
//!    stops missing (this is what bends the strong-scaling curve of
//!    Fig. 12 as per-rank data shrinks), and
//! 2. **pattern**: streaming misses once per line, random/gather miss with
//!    probability `1 − share/span`, dependent chains behave like random but
//!    serialize (their cost difference comes from MLP in the timing model).
//!
//! Cache capacity in a phase is shared among live objects proportionally to
//! their working sets — a standard linear partition approximation validated
//! against the trace simulator in this crate's tests.

use crate::pattern::{AccessPattern, ObjAccess};
use unimem_sim::units::CACHE_LINE;
use unimem_sim::Bytes;

/// Per-rank last-level cache description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheModel {
    /// Capacity available to this rank.
    pub size: Bytes,
    /// Line size (64 B everywhere in the reproduction).
    pub line: Bytes,
}

/// Estimated main-memory traffic for one (phase, object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissEstimate {
    pub misses: u64,
    pub miss_bytes: Bytes,
}

impl CacheModel {
    /// 20 MiB shared LLC split two ways — the Xeon E5-2630 of Platform A
    /// runs one rank per socket in the paper's main experiments.
    pub fn platform_a() -> CacheModel {
        CacheModel {
            size: Bytes::mib(20),
            line: CACHE_LINE,
        }
    }

    pub fn new(size: Bytes) -> CacheModel {
        CacheModel {
            size,
            line: CACHE_LINE,
        }
    }

    /// Effective capacity share of an object touching `touched` bytes in a
    /// phase whose live objects touch `phase_total` bytes altogether.
    fn share(&self, touched: Bytes, phase_total: Bytes) -> f64 {
        if touched.is_zero() {
            return 0.0;
        }
        let total = phase_total.max(touched).as_f64();
        self.size.as_f64() * touched.as_f64() / total
    }

    /// Estimate main-memory misses for `acc`, given the total bytes touched
    /// by all objects live in the same phase (for capacity sharing).
    pub fn misses(&self, acc: &ObjAccess, phase_total: Bytes) -> MissEstimate {
        if acc.accesses == 0 || acc.touched.is_zero() {
            return MissEstimate::default();
        }
        let eff = self.share(acc.touched, phase_total);
        let touched = acc.touched.as_f64();
        let line = self.line.as_f64();
        let fits = touched <= eff;

        let misses = match acc.pattern {
            AccessPattern::Streaming { stride } => {
                if fits {
                    // Steady state across iterations: resident, no misses.
                    0.0
                } else {
                    // One miss per distinct line per traversal:
                    // accesses · stride / max(line, stride).
                    let s = (stride.as_f64()).max(1.0);
                    acc.accesses as f64 * s / line.max(s)
                }
            }
            AccessPattern::Random | AccessPattern::PointerChase => {
                let p_miss = (1.0 - eff / touched).clamp(0.0, 1.0);
                acc.accesses as f64 * p_miss
            }
            AccessPattern::Gather { index_span } => {
                let span = index_span.as_f64().max(touched);
                let p_miss = (1.0 - eff / span).clamp(0.0, 1.0);
                acc.accesses as f64 * p_miss
            }
            AccessPattern::Stencil { reuse_bytes } => {
                if fits {
                    0.0
                } else {
                    // Compulsory: each 8-byte element fetched once per sweep
                    // (one line serves line/8 elements). If the plane-reuse
                    // window also exceeds the share, the top/bottom
                    // neighbour planes are re-fetched: 3× traffic.
                    let compulsory = acc.accesses as f64 * 8.0 / line;
                    if reuse_bytes.as_f64() <= eff {
                        compulsory
                    } else {
                        3.0 * compulsory
                    }
                }
            }
        };
        let misses = misses.round().min(acc.accesses as f64).max(0.0) as u64;
        MissEstimate {
            misses,
            miss_bytes: Bytes(misses * self.line.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::object::ObjId;

    fn model_kib(k: u64) -> CacheModel {
        CacheModel::new(Bytes::kib(k))
    }

    fn stream(touched: Bytes, accesses: u64) -> ObjAccess {
        ObjAccess::new(
            ObjId(0),
            accesses,
            touched,
            AccessPattern::Streaming { stride: Bytes(8) },
        )
    }

    #[test]
    fn fitting_stream_never_misses() {
        let m = model_kib(64);
        let est = m.misses(&stream(Bytes::kib(32), 100_000), Bytes::kib(32));
        assert_eq!(est.misses, 0);
    }

    #[test]
    fn overflowing_stream_misses_once_per_line() {
        let m = model_kib(64);
        // 1 MiB touched with 8-byte stride: 8 accesses share a 64B line.
        let est = m.misses(&stream(Bytes::mib(1), 800_000), Bytes::mib(1));
        assert_eq!(est.misses, 100_000);
        assert_eq!(est.miss_bytes, Bytes(100_000 * 64));
    }

    #[test]
    fn wide_stride_stream_misses_every_access() {
        let m = model_kib(64);
        let a = ObjAccess::new(
            ObjId(0),
            10_000,
            Bytes::mib(4),
            AccessPattern::Streaming { stride: Bytes(256) },
        );
        assert_eq!(m.misses(&a, Bytes::mib(4)).misses, 10_000);
    }

    #[test]
    fn random_miss_probability_scales_with_share() {
        let m = model_kib(256);
        // Working set 1 MiB, cache 256 KiB alone: p_miss = 1 - 1/4 = 0.75.
        let a = ObjAccess::new(ObjId(0), 100_000, Bytes::mib(1), AccessPattern::Random);
        let est = m.misses(&a, Bytes::mib(1));
        assert_eq!(est.misses, 75_000);
    }

    #[test]
    fn random_fitting_fully_hits() {
        let m = model_kib(256);
        let a = ObjAccess::new(ObjId(0), 100_000, Bytes::kib(128), AccessPattern::Random);
        assert_eq!(m.misses(&a, Bytes::kib(128)).misses, 0);
    }

    #[test]
    fn capacity_is_shared_between_live_objects() {
        let m = model_kib(256);
        let a = ObjAccess::new(ObjId(0), 100_000, Bytes::mib(1), AccessPattern::Random);
        // Alone: share = 256K. With a co-live 3 MiB object: share = 64K.
        let alone = m.misses(&a, Bytes::mib(1)).misses;
        let crowded = m.misses(&a, Bytes::mib(4)).misses;
        assert!(crowded > alone, "crowded={crowded} alone={alone}");
    }

    #[test]
    fn gather_uses_index_span() {
        let m = model_kib(256);
        let a = ObjAccess::new(
            ObjId(0),
            100_000,
            Bytes::kib(64),
            AccessPattern::Gather {
                index_span: Bytes::mib(4),
            },
        );
        // Span 4 MiB dominates; share is tiny → high miss rate.
        let est = m.misses(&a, Bytes::kib(64));
        assert!(est.misses > 90_000, "misses={}", est.misses);
    }

    #[test]
    fn stencil_reuse_window() {
        let m = model_kib(64);
        let mk = |reuse: Bytes| {
            ObjAccess::new(
                ObjId(0),
                80_000,
                Bytes::mib(1),
                AccessPattern::Stencil { reuse_bytes: reuse },
            )
        };
        // Window fits: compulsory only = accesses/8.
        let fits = m.misses(&mk(Bytes::kib(16)), Bytes::mib(1));
        assert_eq!(fits.misses, 10_000);
        // Window too big: 3× refetch.
        let spills = m.misses(&mk(Bytes::mib(1)), Bytes::mib(1));
        assert_eq!(spills.misses, 30_000);
    }

    #[test]
    fn misses_never_exceed_accesses() {
        let m = CacheModel::new(Bytes(64)); // absurdly small cache
        let a = ObjAccess::new(ObjId(0), 500, Bytes::mib(64), AccessPattern::Random);
        assert!(m.misses(&a, Bytes::mib(64)).misses <= 500);
    }

    #[test]
    fn zero_access_zero_misses() {
        let m = model_kib(64);
        let a = ObjAccess::new(ObjId(0), 0, Bytes::mib(1), AccessPattern::Random);
        assert_eq!(m.misses(&a, Bytes::mib(1)), MissEstimate::default());
    }

    #[test]
    fn strong_scaling_reduces_misses_nonlinearly() {
        // Halving the per-rank working set more than halves misses once it
        // approaches the cache size — the Fig. 12 effect.
        let m = model_kib(512);
        let big = ObjAccess::new(ObjId(0), 1_000_000, Bytes::mib(2), AccessPattern::Random);
        let small = big.scaled(0.25); // 512 KiB: exactly fits
        let mb = m.misses(&big, big.touched).misses as f64;
        let ms = m.misses(&small, small.touched).misses as f64;
        assert!(ms < mb / 4.0, "ms={ms} mb={mb}");
    }
}
