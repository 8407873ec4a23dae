//! Descriptor builders shared by the workload definitions.

use unimem_cache::{AccessPattern, ObjAccess};
use unimem_hms::object::ObjId;
use unimem_hms::tier::AccessMix;
use unimem_sim::Bytes;

/// Unit-stride streaming read over `bytes`, touching each 8-byte element
/// `sweeps` times.
pub fn stream(obj: u32, bytes: u64, sweeps: f64) -> ObjAccess {
    ObjAccess::new(
        ObjId(obj),
        ((bytes / 8) as f64 * sweeps) as u64,
        Bytes(bytes),
        AccessPattern::Streaming { stride: Bytes(8) },
    )
}

/// Streaming with a read/write mix (sweep that updates in place).
pub fn stream_rw(obj: u32, bytes: u64, sweeps: f64, read_frac: f64) -> ObjAccess {
    stream(obj, bytes, sweeps).with_mix(AccessMix::new(read_frac))
}

/// Indirect gather: `accesses` references spread over a `span`-byte region
/// of the object (sparse matvec through an index array).
pub fn gather(obj: u32, touched: u64, accesses: u64, span: u64) -> ObjAccess {
    ObjAccess::new(
        ObjId(obj),
        accesses,
        Bytes(touched),
        AccessPattern::Gather {
            index_span: Bytes(span),
        },
    )
}

/// Dependent chain over `bytes` (solver recurrence along a dependence
/// direction), `hops` loads long.
pub fn chase(obj: u32, bytes: u64, hops: u64) -> ObjAccess {
    ObjAccess::new(ObjId(obj), hops, Bytes(bytes), AccessPattern::PointerChase)
}

/// Structured-grid stencil sweep over `bytes` with a `reuse`-byte live
/// window, `sweeps` passes.
pub fn stencil(obj: u32, bytes: u64, sweeps: f64, reuse: u64) -> ObjAccess {
    ObjAccess::new(
        ObjId(obj),
        ((bytes / 8) as f64 * sweeps) as u64,
        Bytes(bytes),
        AccessPattern::Stencil {
            reuse_bytes: Bytes(reuse),
        },
    )
    .with_mix(AccessMix::new(0.7))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_counts_elements() {
        let a = stream(0, 1024, 2.0);
        assert_eq!(a.accesses, 256);
        assert_eq!(a.touched, Bytes(1024));
    }

    #[test]
    fn builders_set_patterns() {
        assert!(matches!(
            gather(1, 64, 10, 128).pattern,
            AccessPattern::Gather { .. }
        ));
        assert!(matches!(
            chase(1, 64, 10).pattern,
            AccessPattern::PointerChase
        ));
        assert!(matches!(
            stencil(1, 64, 1.0, 8).pattern,
            AccessPattern::Stencil { .. }
        ));
    }

    #[test]
    fn stream_rw_sets_mix() {
        let a = stream_rw(0, 1024, 1.0, 0.5);
        assert!((a.mix.read_frac - 0.5).abs() < 1e-12);
    }
}
