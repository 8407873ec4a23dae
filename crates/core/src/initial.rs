//! Initial data placement (§3.2).
//!
//! "For initial data placement, we place in DRAM those target data objects
//! with the largest amount of memory references (subject to the DRAM space
//! limitation)." The reference counts come from compiler analysis — a
//! symbolic formula over trip counts, evaluated before the main loop. Our
//! workloads export those estimates as `ObjectSpec::est_refs`; objects whose
//! count cannot be determined statically carry an estimate of zero and stay
//! in NVM, exactly as the paper's convergence-test example does.

use unimem_hms::object::{ObjectRegistry, UnitSet};
use unimem_sim::Bytes;

/// Choose the initial DRAM contents: greedy by estimated reference count,
/// densest-first tie-break by size (more references per byte first when
/// counts tie), subject to `capacity`.
pub fn initial_placement(registry: &ObjectRegistry, capacity: Bytes) -> UnitSet {
    let mut objs: Vec<_> = registry.iter().filter(|o| o.est_refs > 0.0).collect();
    // total_cmp instead of partial_cmp().expect(): registration rejects
    // non-finite estimates, but placement must not be able to panic on a
    // registry it did not build.
    objs.sort_by(|a, b| b.est_refs.total_cmp(&a.est_refs).then(a.size.cmp(&b.size)));
    let mut chosen = UnitSet::new();
    let mut used = Bytes::ZERO;
    for o in objs {
        // Whole objects only: the partitioner has not run yet at startup.
        if o.chunks == 1 && used + o.size <= capacity {
            used += o.size;
            chosen.extend(o.units());
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::object::ObjectSpec;

    fn reg(specs: &[(&str, u64, f64)]) -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        for &(name, size, refs) in specs {
            r.register(ObjectSpec::new(name, Bytes(size)).est_refs(refs));
        }
        r
    }

    #[test]
    fn hottest_objects_fill_dram_first() {
        let r = reg(&[("cold", 50, 10.0), ("hot", 50, 1000.0), ("warm", 50, 100.0)]);
        let set = initial_placement(&r, Bytes(100));
        let names: Vec<&str> = set.iter().map(|u| r.name_of(u.obj)).collect();
        assert_eq!(names, vec!["hot", "warm"]);
    }

    #[test]
    fn unknown_estimates_stay_in_nvm() {
        let r = reg(&[("runtime_sized", 10, 0.0), ("known", 10, 5.0)]);
        let set = initial_placement(&r, Bytes(100));
        assert_eq!(set.len(), 1);
        assert_eq!(r.name_of(set.iter().next().unwrap().obj), "known");
    }

    #[test]
    fn oversized_objects_skipped_but_later_ones_fit() {
        let r = reg(&[("huge", 1000, 9000.0), ("small", 40, 10.0)]);
        let set = initial_placement(&r, Bytes(100));
        assert_eq!(set.len(), 1);
        assert_eq!(r.name_of(set.iter().next().unwrap().obj), "small");
    }

    #[test]
    fn empty_capacity_places_nothing() {
        let r = reg(&[("a", 10, 5.0)]);
        assert!(initial_placement(&r, Bytes(0)).is_empty());
    }

    #[test]
    fn ties_prefer_smaller_objects() {
        let r = reg(&[("big", 80, 100.0), ("small", 20, 100.0)]);
        let set = initial_placement(&r, Bytes(90));
        let names: Vec<&str> = set.iter().map(|u| r.name_of(u.obj)).collect();
        // small first (denser), then big no longer fits… but 20+80>90,
        // so only small lands.
        assert_eq!(names, vec!["small"]);
    }
}
