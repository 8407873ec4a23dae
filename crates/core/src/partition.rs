//! Large-object partitioning (§3.2).
//!
//! An object larger than DRAM can never migrate whole. The paper's
//! conservative partitioner splits only one-dimensional arrays with regular
//! references — high-dimensional arrays and anything behind memory aliases
//! stay whole (the MG situation in §5, where aliasing blocks partitioning
//! and a 128 MB DRAM goes underused). Chunks become independent placement
//! units profiled and moved separately.

use unimem_hms::object::{ObjId, ObjectRegistry, MAX_CHUNKS};
use unimem_sim::Bytes;

/// Split objects larger than this fraction of DRAM capacity.
const THRESHOLD_FRAC: f64 = 0.5;
/// Target chunk size as a fraction of DRAM capacity.
const CHUNK_FRAC: f64 = 0.25;

/// Decide and apply chunking for every eligible object. Returns the ids
/// that were split.
pub fn partition_large_objects(registry: &mut ObjectRegistry, dram_capacity: Bytes) -> Vec<ObjId> {
    if dram_capacity.is_zero() {
        return Vec::new();
    }
    let threshold = (dram_capacity.as_f64() * THRESHOLD_FRAC) as u64;
    let target_chunk = ((dram_capacity.as_f64() * CHUNK_FRAC) as u64).max(1);
    let candidates: Vec<(ObjId, u16)> = registry
        .iter()
        .filter(|o| o.partitionable && !o.aliased && o.size.get() > threshold)
        .map(|o| {
            let chunks = o
                .size
                .get()
                .div_ceil(target_chunk)
                .clamp(2, u64::from(MAX_CHUNKS)) as u16;
            (o.id, chunks)
        })
        .collect();
    for &(id, chunks) in &candidates {
        registry.set_chunks(id, chunks);
    }
    candidates.into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::object::ObjectSpec;

    fn reg() -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        r.register(ObjectSpec::new("big1d", Bytes::mib(600)).partitionable(true));
        r.register(ObjectSpec::new("bigNd", Bytes::mib(600))); // not partitionable
        r.register(
            ObjectSpec::new("mg_like", Bytes::mib(600))
                .partitionable(true)
                .aliased(true),
        );
        r.register(ObjectSpec::new("small", Bytes::mib(10)).partitionable(true));
        r
    }

    #[test]
    fn only_eligible_large_objects_split() {
        let mut r = reg();
        let split = partition_large_objects(&mut r, Bytes::mib(256));
        assert_eq!(split.len(), 1);
        let o = r.get(split[0]);
        assert_eq!(r.name_of(o.id), "big1d");
        // 600 MiB / 64 MiB target → 10 chunks.
        assert_eq!(o.chunks, 10);
        assert_eq!(r.lookup("bigNd").map(|i| r.get(i).chunks), Some(1));
        assert_eq!(r.lookup("mg_like").map(|i| r.get(i).chunks), Some(1));
        assert_eq!(r.lookup("small").map(|i| r.get(i).chunks), Some(1));
    }

    #[test]
    fn chunk_sizes_fit_dram() {
        let mut r = reg();
        let cap = Bytes::mib(256);
        partition_large_objects(&mut r, cap);
        let big = r.lookup("big1d").unwrap();
        for u in r.get(big).units() {
            assert!(r.unit_size(u) <= cap);
        }
    }

    #[test]
    fn max_chunks_bounds_the_split() {
        let mut r = ObjectRegistry::new();
        r.register(ObjectSpec::new("huge", Bytes::gib(16)).partitionable(true));
        // 16 GiB / 32 MiB target → 512 chunks, capped at 64.
        let split = partition_large_objects(&mut r, Bytes::mib(128));
        assert_eq!(r.get(split[0]).chunks, 64);
    }

    #[test]
    fn zero_capacity_is_a_noop() {
        let mut r = reg();
        assert!(partition_large_objects(&mut r, Bytes(0)).is_empty());
    }

    #[test]
    fn threshold_respects_fraction() {
        let mut r = ObjectRegistry::new();
        r.register(ObjectSpec::new("edge", Bytes::mib(100)).partitionable(true));
        // threshold = 0.5 · 256 MiB = 128 MiB > 100 MiB → no split.
        let split = partition_large_objects(&mut r, Bytes::mib(256));
        assert!(split.is_empty());
    }
}
