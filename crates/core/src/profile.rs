//! Step 1 — phase profiling storage.
//!
//! During the first iteration (and any re-profiling iteration triggered by
//! the variation monitor) the runtime records, per phase: the sampled
//! per-unit access counts, the sampling-window bookkeeping, and the phase
//! execution time. This is everything the models of step 2 consume.

use crate::comm::PhaseId;
use std::collections::BTreeMap;
use unimem_hms::object::UnitId;
use unimem_perf::PhaseProfile;
use unimem_sim::VDur;

/// Profile of one phase, reduced to what the models need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRecord {
    /// Sampled (recorded, windows_hit) per unit — only units the counters
    /// actually saw ("we select those target data objects that have memory
    /// accesses recorded by performance counters").
    pub units: Vec<(UnitId, u64, u64)>,
    /// Total sampling windows in the phase.
    pub windows: u64,
    /// Phase execution time when profiled.
    pub time: VDur,
}

impl PhaseRecord {
    pub fn from_profile(p: &PhaseProfile) -> PhaseRecord {
        PhaseRecord {
            units: p
                .samples
                .iter()
                .map(|s| (s.unit, s.recorded, s.windows_hit))
                .collect(),
            windows: p.windows,
            time: p.time,
        }
    }

    pub fn recorded(&self, unit: UnitId) -> u64 {
        self.units
            .iter()
            .find(|(u, _, _)| *u == unit)
            .map_or(0, |&(_, r, _)| r)
    }

    /// Units observed in this phase, in id order.
    pub fn observed_units(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.units.iter().map(|&(u, _, _)| u)
    }
}

/// All phases of one iteration, keyed by phase id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationProfile {
    phases: BTreeMap<PhaseId, PhaseRecord>,
}

impl IterationProfile {
    pub fn new() -> IterationProfile {
        IterationProfile::default()
    }

    pub fn insert(&mut self, phase: PhaseId, rec: PhaseRecord) {
        self.phases.insert(phase, rec);
    }

    pub fn get(&self, phase: PhaseId) -> Option<&PhaseRecord> {
        self.phases.get(&phase)
    }

    pub fn phases(&self) -> impl Iterator<Item = (PhaseId, &PhaseRecord)> {
        self.phases.iter().map(|(&p, r)| (p, r))
    }

    pub fn len(&self) -> usize {
        self.phases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    pub fn clear(&mut self) {
        self.phases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::object::ObjId;

    fn unit(n: u32) -> UnitId {
        UnitId::whole(ObjId(n))
    }

    fn rec(units: &[(u32, u64)], ms: f64) -> PhaseRecord {
        PhaseRecord {
            units: units.iter().map(|&(u, r)| (unit(u), r, r / 2)).collect(),
            windows: 1_000_000,
            time: VDur::from_millis(ms),
        }
    }

    #[test]
    fn recorded_lookup() {
        let r = rec(&[(0, 100), (1, 50)], 1.0);
        assert_eq!(r.recorded(unit(0)), 100);
        assert_eq!(r.recorded(unit(2)), 0);
    }

    #[test]
    fn phases_iterate_in_order() {
        let mut ip = IterationProfile::new();
        ip.insert(PhaseId(2), rec(&[], 1.0));
        ip.insert(PhaseId(0), rec(&[], 1.0));
        let ids: Vec<_> = ip.phases().map(|(p, _)| p).collect();
        assert_eq!(ids, vec![PhaseId(0), PhaseId(2)]);
    }

    #[test]
    fn reprofile_replaces_record() {
        let mut ip = IterationProfile::new();
        ip.insert(PhaseId(0), rec(&[(0, 100)], 1.0));
        ip.insert(PhaseId(0), rec(&[(0, 999)], 3.0));
        assert_eq!(ip.get(PhaseId(0)).unwrap().recorded(unit(0)), 999);
        assert_eq!(ip.len(), 1);
    }
}
