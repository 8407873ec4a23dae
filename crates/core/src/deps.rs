//! Cross-phase data-dependency table and migration trigger points (Fig. 5).
//!
//! To migrate object `a` for phase `i` without violating correctness, the
//! copy must not run while the application reads or writes `a`. The paper
//! finds the latest earlier phase `j−1` that references `a`; the migration
//! may trigger at the beginning of phase `j`, and the application time
//! between `j` and `i` is the overlap window (`mem_comp_overlap` of Eq. 4).
//!
//! The reference table is the directive-based form the paper falls back to
//! (§3.3): workloads declare which units each phase references. Phases are
//! cyclic — iteration `n`'s phase 0 follows iteration `n−1`'s last phase —
//! and the trigger search walks backwards across the iteration boundary.

use crate::comm::PhaseId;
use unimem_hms::object::{UnitId, UnitSet};
use unimem_sim::VDur;

/// Which units each phase of the iteration references: one [`UnitSet`]
/// per phase, so membership is a bit test and [`PhaseRefTable::units_of`]
/// walks the units in `UnitId` order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRefTable {
    /// `refs[p]` = units referenced by phase `p` (compute or comm).
    refs: Vec<UnitSet>,
}

/// The migration window for one (unit, use-phase) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerWindow {
    /// Phase at whose beginning the migration may start.
    pub trigger: PhaseId,
    /// Number of whole phases strictly between trigger and use that the
    /// copy can overlap with (use-phase not included).
    pub overlap_phases: u32,
}

impl PhaseRefTable {
    pub fn new(n_phases: usize) -> PhaseRefTable {
        PhaseRefTable {
            refs: vec![UnitSet::new(); n_phases],
        }
    }

    pub fn n_phases(&self) -> usize {
        self.refs.len()
    }

    pub fn add_ref(&mut self, phase: PhaseId, unit: UnitId) {
        self.refs[phase.0 as usize].insert(unit);
    }

    pub fn references(&self, phase: PhaseId, unit: UnitId) -> bool {
        self.refs[phase.0 as usize].contains(unit)
    }

    /// The units phase `phase` references, in `UnitId` order.
    pub fn units_of(&self, phase: PhaseId) -> impl Iterator<Item = UnitId> + '_ {
        self.refs[phase.0 as usize].iter()
    }

    /// All phases (in id order) that reference `unit`.
    pub fn phases_referencing(&self, unit: UnitId) -> Vec<PhaseId> {
        (0..self.refs.len() as u32)
            .map(PhaseId)
            .filter(|&p| self.references(p, unit))
            .collect()
    }

    /// Earliest dependency-safe trigger for migrating `unit` in time for
    /// `use_phase` (Fig. 5): walk backwards from `use_phase`; the first
    /// phase found referencing `unit` ends the window. Cyclic across the
    /// iteration boundary. If no other phase references the unit, the
    /// window is the whole rest of the iteration (trigger right after the
    /// use phase of the previous iteration).
    pub fn trigger_for(&self, unit: UnitId, use_phase: PhaseId) -> TriggerWindow {
        let n = self.refs.len() as u32;
        assert!(n > 0 && use_phase.0 < n);
        // Walk back up to n-1 phases.
        for back in 1..n {
            let p = (use_phase.0 + n - back) % n;
            if self.refs[p as usize].contains(unit) {
                // Phase p references it; trigger at the next phase.
                return TriggerWindow {
                    trigger: PhaseId((p + 1) % n),
                    overlap_phases: back - 1,
                };
            }
        }
        TriggerWindow {
            trigger: PhaseId((use_phase.0 + 1) % n),
            overlap_phases: n - 1,
        }
    }

    /// Overlap window duration: sum of the phase durations the copy can
    /// hide behind, given per-phase times (indexed by phase id).
    pub fn overlap_time(&self, unit: UnitId, use_phase: PhaseId, phase_times: &[VDur]) -> VDur {
        assert_eq!(phase_times.len(), self.refs.len());
        let w = self.trigger_for(unit, use_phase);
        let n = self.refs.len() as u32;
        let mut total = VDur::ZERO;
        for k in 0..w.overlap_phases {
            let p = (w.trigger.0 + k) % n;
            total += phase_times[p as usize];
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::object::ObjId;

    fn unit(n: u32) -> UnitId {
        UnitId::whole(ObjId(n))
    }

    /// The paper's Fig. 5 shape: phases ... j-1 (refs a), j, ..., i (uses a).
    fn fig5_table() -> PhaseRefTable {
        // 5 phases; `a`=unit(0) referenced in phase 1 and phase 4.
        let mut t = PhaseRefTable::new(5);
        t.add_ref(PhaseId(1), unit(0));
        t.add_ref(PhaseId(4), unit(0));
        // another object referenced everywhere.
        for p in 0..5 {
            t.add_ref(PhaseId(p), unit(1));
        }
        t
    }

    #[test]
    fn trigger_is_right_after_last_reference() {
        let t = fig5_table();
        // Migrating unit0 for phase 4: last earlier ref is phase 1 → trigger
        // at phase 2, overlapping phases 2 and 3.
        let w = t.trigger_for(unit(0), PhaseId(4));
        assert_eq!(w.trigger, PhaseId(2));
        assert_eq!(w.overlap_phases, 2);
    }

    #[test]
    fn hot_unit_has_no_window() {
        let t = fig5_table();
        // unit1 referenced in every phase: migrating for phase 3 can only
        // trigger at phase 3 itself (previous phase references it).
        let w = t.trigger_for(unit(1), PhaseId(3));
        assert_eq!(w.trigger, PhaseId(3));
        assert_eq!(w.overlap_phases, 0);
    }

    #[test]
    fn window_wraps_across_iterations() {
        let t = fig5_table();
        // Migrating unit0 for phase 1: walking back 1→0, then wraps to 4
        // which references it → trigger at phase 0, overlap = phase 0 only.
        let w = t.trigger_for(unit(0), PhaseId(1));
        assert_eq!(w.trigger, PhaseId(0));
        assert_eq!(w.overlap_phases, 1);
    }

    #[test]
    fn unreferenced_elsewhere_gets_full_cycle() {
        let mut t = PhaseRefTable::new(4);
        t.add_ref(PhaseId(2), unit(7));
        let w = t.trigger_for(unit(7), PhaseId(2));
        assert_eq!(w.trigger, PhaseId(3));
        assert_eq!(w.overlap_phases, 3);
    }

    #[test]
    fn overlap_time_sums_window_phases() {
        let t = fig5_table();
        let times: Vec<VDur> = (1..=5).map(|i| VDur::from_millis(i as f64)).collect();
        // unit0 for phase 4: window covers phases 2 and 3 → 3ms + 4ms.
        let o = t.overlap_time(unit(0), PhaseId(4), &times);
        assert!((o.millis() - 7.0).abs() < 1e-9);
        // unit1 for phase 3: no window.
        assert_eq!(t.overlap_time(unit(1), PhaseId(3), &times), VDur::ZERO);
    }

    #[test]
    fn phases_referencing_lists_in_order() {
        let t = fig5_table();
        assert_eq!(t.phases_referencing(unit(0)), vec![PhaseId(1), PhaseId(4)]);
        assert_eq!(t.phases_referencing(unit(9)), Vec::<PhaseId>::new());
    }
}
