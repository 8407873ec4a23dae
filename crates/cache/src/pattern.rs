//! Access patterns and per-(phase, object) access descriptors.
//!
//! Section 2 of the paper ties sensitivity to pattern: "a data object with
//! ... massive, concurrent memory accesses (e.g., streaming pattern) is
//! sensitive to memory bandwidth, while a data object with ... dependent
//! memory accesses (e.g., pointer-chasing) is sensitive to memory latency."
//! [`AccessPattern`] encodes exactly that taxonomy; its `mlp()` (memory-level
//! parallelism) feeds the ground-truth roofline in `unimem_hms`.

use unimem_hms::object::ObjId;
use unimem_hms::tier::AccessMix;
use unimem_sim::Bytes;

/// How a data object is referenced within one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Unit-or-small-stride sequential sweep (STREAM-like). High MLP;
    /// bandwidth-bound on any tier.
    Streaming {
        /// Address increment between consecutive references, in bytes.
        stride: Bytes,
    },
    /// Uniformly random references over the touched range. Independent
    /// accesses, so moderately high MLP, but no spatial locality.
    Random,
    /// Dependent chain: the next address comes from the previous load
    /// (linked lists, solver recurrences along a dependence direction).
    /// MLP ≈ 1; purely latency-bound.
    PointerChase,
    /// Indirect gather/scatter through an index array (sparse matvec:
    /// `x[col_idx[j]]`). Independent but irregular; mid MLP.
    Gather {
        /// Span of the indexed target region, in bytes.
        index_span: Bytes,
    },
    /// Structured-grid stencil sweep: streaming with a plane-reuse window.
    /// If `reuse_bytes` (the live window of neighbouring planes) fits in
    /// cache, only compulsory traffic remains.
    Stencil {
        /// Bytes that must stay cached for neighbour reuse to hit.
        reuse_bytes: Bytes,
    },
}

impl AccessPattern {
    /// Memory-level parallelism this pattern sustains: how many main-memory
    /// requests overlap. Values are typical of out-of-order cores with
    /// ~10 line-fill buffers; only the *order* between patterns matters for
    /// the reproduction's shapes.
    pub fn mlp(&self) -> f64 {
        match self {
            // Hardware prefetchers keep streams far ahead of use: latency
            // is effectively hidden, bandwidth is the wall.
            AccessPattern::Streaming { .. } => 64.0,
            AccessPattern::Random => 10.0,
            AccessPattern::PointerChase => 1.0,
            AccessPattern::Gather { .. } => 6.0,
            AccessPattern::Stencil { .. } => 32.0,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            AccessPattern::Streaming { .. } => "streaming",
            AccessPattern::Random => "random",
            AccessPattern::PointerChase => "pointer-chase",
            AccessPattern::Gather { .. } => "gather",
            AccessPattern::Stencil { .. } => "stencil",
        }
    }

    /// True for patterns whose accesses are independent of one another.
    pub fn independent(&self) -> bool {
        !matches!(self, AccessPattern::PointerChase)
    }
}

/// References to one data object within one phase, at class scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjAccess {
    pub obj: ObjId,
    /// Number of memory references the phase issues to the object.
    pub accesses: u64,
    /// Bytes of the object the phase touches (its working set here).
    pub touched: Bytes,
    pub pattern: AccessPattern,
    pub mix: AccessMix,
}

impl ObjAccess {
    pub fn new(obj: ObjId, accesses: u64, touched: Bytes, pattern: AccessPattern) -> ObjAccess {
        ObjAccess {
            obj,
            accesses,
            touched,
            pattern,
            mix: AccessMix::READ_ONLY,
        }
    }

    pub fn with_mix(mut self, mix: AccessMix) -> ObjAccess {
        self.mix = mix;
        self
    }

    /// Scale access counts and touched bytes by `f` (used when an object is
    /// partitioned into chunks or distributed over more ranks).
    pub fn scaled(mut self, f: f64) -> ObjAccess {
        debug_assert!(f >= 0.0);
        self.accesses = (self.accesses as f64 * f).round() as u64;
        self.touched = Bytes((self.touched.as_f64() * f).round() as u64);
        // Reuse windows and index spans shrink with the partition too.
        self.pattern = match self.pattern {
            AccessPattern::Gather { index_span } => AccessPattern::Gather {
                index_span: Bytes((index_span.as_f64() * f).round() as u64),
            },
            AccessPattern::Stencil { reuse_bytes } => AccessPattern::Stencil {
                reuse_bytes: Bytes((reuse_bytes.as_f64() * f).round() as u64),
            },
            p => p,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_ordering_matches_taxonomy() {
        let stream = AccessPattern::Streaming { stride: Bytes(8) }.mlp();
        let stencil = AccessPattern::Stencil {
            reuse_bytes: Bytes(0),
        }
        .mlp();
        let random = AccessPattern::Random.mlp();
        let gather = AccessPattern::Gather {
            index_span: Bytes(0),
        }
        .mlp();
        let chase = AccessPattern::PointerChase.mlp();
        assert!(stream > stencil && stencil > random && random > gather && gather > chase);
        assert_eq!(chase, 1.0);
    }

    #[test]
    fn pointer_chase_is_dependent() {
        assert!(!AccessPattern::PointerChase.independent());
        assert!(AccessPattern::Random.independent());
    }

    #[test]
    fn scaling_halves_counts() {
        let a = ObjAccess::new(
            ObjId(0),
            1000,
            Bytes(4096),
            AccessPattern::Gather {
                index_span: Bytes(8192),
            },
        )
        .scaled(0.5);
        assert_eq!(a.accesses, 500);
        assert_eq!(a.touched, Bytes(2048));
        match a.pattern {
            AccessPattern::Gather { index_span } => assert_eq!(index_span, Bytes(4096)),
            _ => panic!("pattern changed"),
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AccessPattern::Random.name(), "random");
        assert_eq!(
            AccessPattern::Streaming { stride: Bytes(8) }.name(),
            "streaming"
        );
    }
}
