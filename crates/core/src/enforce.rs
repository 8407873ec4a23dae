//! Plan enforcement with proactive data movement (Fig. 6, §3.1.3/§3.3).
//!
//! Once a [`PlacementPlan`] exists, the runtime walks phase boundaries:
//!
//! 1. it charges the (tiny) cost of checking the helper thread's FIFO
//!    queue — the main/helper synchronization of §3.3;
//! 2. it fires the migrations whose dependency-safe **trigger phase**
//!    (Fig. 5) is the phase now beginning: evictions are enqueued before
//!    admissions so the FIFO helper frees DRAM space first, and DRAM space
//!    is reserved/released through the per-node user-level service;
//! 3. it stalls the application for any required unit whose copy has not
//!    finished — the exposed movement cost of Eq. 4.
//!
//! The enforcement schedule is precomputed from the plan's cyclic phase
//! transitions, so steady-state iterations touch only cheap lookups.

use crate::comm::PhaseId;
use crate::deps::PhaseRefTable;
use crate::search::{is_static, PlacementPlan};
use unimem_hms::alloc::Region;
use unimem_hms::object::{ObjectRegistry, UnitId, UnitMap, UnitSet};
use unimem_hms::tier::TierKind;
use unimem_hms::{DramService, MigrationEngine};
use unimem_sim::{VDur, VTime};

/// One scheduled movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Evict `unit` to NVM (scheduled before admissions at the trigger).
    Out { unit: UnitId },
    /// Admit `unit` to DRAM, no later than the phase that first uses it.
    In { unit: UnitId },
}

/// Accounting of one phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundaryCost {
    /// Queue-check synchronization cost.
    pub sync: VDur,
    /// Stall waiting for in-flight copies of required units.
    pub stall: VDur,
}

/// The enforcement state machine for one rank. The committed DRAM
/// contents are a [`UnitSet`] and the service grants a [`UnitMap`], so a
/// boundary's membership tests are bit tests and each grant is one slot.
#[derive(Debug)]
pub struct Enforcer {
    plan: PlacementPlan,
    /// Actions indexed by trigger phase.
    schedule: Vec<Vec<Action>>,
    /// DRAM contents after all enqueued copies complete.
    committed: UnitSet,
    grants: UnitMap<Region>,
    /// Admissions the service refused, retried at later boundaries (space
    /// frees as scheduled evictions drain).
    pending_in: Vec<UnitId>,
    rank: usize,
    sync_cost: VDur,
    /// Admissions skipped because the DRAM service had no room.
    pub admissions_refused: u64,
}

impl Enforcer {
    /// Build an enforcer entering `plan` from the `current` DRAM contents
    /// (with their service grants). `capacity` is this rank's DRAM share —
    /// admission triggers respect both data dependencies (Fig. 5) and the
    /// plan's space headroom at intermediate phases.
    // One parameter per distinct piece of boundary state; bundling them
    // into a struct would just move the argument list one hop away.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        plan: PlacementPlan,
        refs: &PhaseRefTable,
        registry: &ObjectRegistry,
        capacity: unimem_sim::Bytes,
        current: UnitSet,
        grants: UnitMap<Region>,
        rank: usize,
        sync_cost: VDur,
    ) -> Enforcer {
        let schedule = build_schedule(&plan.per_phase, refs, registry, capacity);
        Enforcer {
            plan,
            schedule,
            committed: current,
            grants,
            pending_in: Vec::new(),
            rank,
            sync_cost,
            admissions_refused: 0,
        }
    }

    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    /// DRAM contents once all enqueued copies complete.
    pub fn committed(&self) -> &UnitSet {
        &self.committed
    }

    /// Take back the state to rebuild an enforcer after a re-plan.
    pub fn into_state(self) -> (UnitSet, UnitMap<Region>) {
        (self.committed, self.grants)
    }

    /// Transition into the plan: enqueue whatever phase 0 wants that is not
    /// yet resident (called once, right after the placement decision).
    /// Admissions are staggered by the phase that first references each
    /// unit, so the serial copy train overlaps with the phases that do not
    /// need the later units yet.
    pub fn enter_plan(
        &mut self,
        now: VTime,
        refs: &PhaseRefTable,
        registry: &ObjectRegistry,
        engine: &mut MigrationEngine,
        service: &DramService,
    ) {
        let mut want: Vec<UnitId> = self.plan.per_phase[0].difference(&self.committed).collect();
        let first_ref = |u: UnitId| -> u32 {
            refs.phases_referencing(u)
                .first()
                .map(|p| p.0)
                .unwrap_or(u32::MAX)
        };
        want.sort_by_key(|&u| (first_ref(u), u));
        // Make room first: evict residents the plan never wants anywhere.
        let wanted_somewhere: UnitSet = self.plan.per_phase.iter().flat_map(|s| s.iter()).collect();
        let evict: Vec<UnitId> = self.committed.difference(&wanted_somewhere).collect();
        for u in evict {
            self.do_evict(u, now, registry, engine, service);
        }
        for u in want {
            self.do_admit(u, now, registry, engine, service);
        }
    }

    fn do_evict(
        &mut self,
        unit: UnitId,
        now: VTime,
        registry: &ObjectRegistry,
        engine: &mut MigrationEngine,
        service: &DramService,
    ) {
        if !self.committed.remove(unit) {
            return;
        }
        engine.enqueue(unit, TierKind::Nvm, registry.unit_size(unit), now);
        if let Some(grant) = self.grants.remove(unit) {
            // The space frees when the copy completes; the FIFO helper
            // serializes it before any admission enqueued afterwards, so
            // releasing the accounting now is safe.
            service.release(self.rank, grant);
        }
    }

    fn do_admit(
        &mut self,
        unit: UnitId,
        now: VTime,
        registry: &ObjectRegistry,
        engine: &mut MigrationEngine,
        service: &DramService,
    ) {
        if self.committed.contains(unit) {
            return;
        }
        let size = registry.unit_size(unit);
        match service.reserve(self.rank, size) {
            Some(grant) => {
                engine.enqueue(unit, TierKind::Dram, size, now);
                self.committed.insert(unit);
                self.grants.insert(unit, grant);
            }
            None => {
                self.admissions_refused += 1;
                if !self.pending_in.contains(&unit) {
                    self.pending_in.push(unit);
                }
            }
        }
    }

    /// Run the phase boundary for `phase` at virtual time `now`.
    ///
    /// `phase_est` is the expected duration of the phase about to run
    /// (from the profile): chunks of a partitioned object are consumed
    /// progressively by streaming phases, so the k-th chunk is only
    /// *needed* a fraction k/n into the phase — in-flight chunk copies
    /// beyond the first overlap with the phase itself.
    // Mirrors the paper's phase-boundary inputs (Fig. 6); a parameter
    // struct would obscure which runtime pieces the boundary consumes.
    #[allow(clippy::too_many_arguments)]
    pub fn phase_begin(
        &mut self,
        phase: PhaseId,
        now: VTime,
        phase_est: VDur,
        refs: &PhaseRefTable,
        registry: &ObjectRegistry,
        engine: &mut MigrationEngine,
        service: &DramService,
    ) -> BoundaryCost {
        let p = phase.0 as usize;
        if p >= self.schedule.len() {
            return BoundaryCost::default();
        }
        // 2. fire this boundary's scheduled movements (evictions first —
        // the schedule is built that way), then retry refused admissions
        // now that evictions may have freed space.
        for i in 0..self.schedule[p].len() {
            match self.schedule[p][i] {
                Action::Out { unit } => self.do_evict(unit, now, registry, engine, service),
                Action::In { unit } => self.do_admit(unit, now, registry, engine, service),
            }
        }
        let retry = std::mem::take(&mut self.pending_in);
        for unit in retry {
            // Only retry units the plan still wants resident at this phase
            // (cyclic plans re-schedule the rest at their own triggers).
            if self.plan.dram_set(phase).contains(unit) {
                self.do_admit(unit, now, registry, engine, service);
            }
        }
        // 3. required units: everything the plan wants resident that this
        // phase actually references must be usable by the time the phase
        // reaches it. Whole objects are needed at the start; chunk k of an
        // n-chunk object is needed k/n of the way through the phase.
        // `units_of` walks in `UnitId` order, the order stalls accrue in.
        let wanted = self.plan.dram_set(phase);
        let required = refs
            .units_of(phase)
            .filter(|&u| self.committed.contains(u) && wanted.contains(u));
        let mut stall = VDur::ZERO;
        for unit in required {
            let chunks = u32::from(registry.get(unit.obj).chunks).max(1);
            let offset = phase_est * (f64::from(u32::from(unit.chunk)) / f64::from(chunks));
            stall += engine.require(unit, now + offset + stall);
        }
        BoundaryCost {
            sync: self.sync_cost,
            stall,
        }
    }
}

/// Predict the steady-state per-iteration stall a plan's per-phase DRAM
/// sets will incur under enforcement: build the real schedule, then walk
/// two cycles of a serial helper-thread timeline (FIFO copies at
/// `copy_bw`, admissions at their triggers, stalls when a phase needs a
/// unit whose copy is unfinished) and report the second cycle's stall.
/// This keeps the local/global chooser honest about movement costs the
/// analytic overlap window cannot see (queueing on the single helper
/// thread, deferred triggers).
pub fn estimate_cycle_stall(
    per_phase: &[UnitSet],
    refs: &PhaseRefTable,
    registry: &ObjectRegistry,
    capacity: unimem_sim::Bytes,
    copy_bw: unimem_sim::Bandwidth,
    phase_times: &[VDur],
) -> VDur {
    let n = per_phase.len();
    if n == 0 || is_static(per_phase) {
        return VDur::ZERO;
    }
    let schedule = build_schedule(per_phase, refs, registry, capacity);
    let mut now = VTime::ZERO;
    let mut helper_free = VTime::ZERO;
    let mut ready: UnitMap<VTime> = UnitMap::new();
    let mut stall = VDur::ZERO;
    for cycle in 0..2 {
        if cycle == 1 {
            stall = VDur::ZERO;
        }
        for p in 0..n {
            for a in &schedule[p] {
                let unit = match a {
                    Action::Out { unit } | Action::In { unit } => *unit,
                };
                let start = now.max(helper_free);
                let done = start + registry.unit_size(unit) / copy_bw;
                helper_free = done;
                if matches!(a, Action::In { .. }) {
                    ready.insert(unit, done);
                }
            }
            for unit in refs.units_of(PhaseId(p as u32)) {
                if per_phase[p].contains(unit) {
                    if let Some(t) = ready.remove(unit) {
                        if t > now {
                            stall += t - now;
                            now = t;
                        }
                    }
                }
            }
            now += phase_times[p.min(phase_times.len() - 1)];
        }
    }
    stall
}

/// Precompute the cyclic enforcement schedule: for each phase transition
/// `S_{p-1} → S_p`, evictions trigger at their dependency-safe point
/// (Fig. 5); admissions trigger at the latest of the dependency-safe point
/// and the first phase from which the plan has continuous DRAM headroom
/// for the unit until its use phase ("the data movement enforced by the
/// helper thread respects data dependence across phases and the
/// availability of DRAM space", Fig. 6). Within a boundary, evictions are
/// ordered before admissions so the FIFO helper frees space first.
fn build_schedule(
    per_phase: &[UnitSet],
    refs: &PhaseRefTable,
    registry: &ObjectRegistry,
    capacity: unimem_sim::Bytes,
) -> Vec<Vec<Action>> {
    let n = per_phase.len();
    let mut schedule: Vec<Vec<Action>> = vec![Vec::new(); n];
    if n == 0 || is_static(per_phase) {
        return schedule;
    }
    let phase_bytes: Vec<u64> = per_phase
        .iter()
        .map(|s| s.iter().map(|u| registry.unit_size(u).get()).sum())
        .collect();
    for p in 0..n {
        let prev = &per_phase[(p + n - 1) % n];
        let cur = &per_phase[p];
        let use_phase = PhaseId(p as u32);
        // Evictions leaving at this transition: safe once unreferenced
        // before the phase that drops them.
        for v in prev.difference(cur) {
            let t = refs.trigger_for(v, use_phase).trigger;
            schedule[t.0 as usize].insert(0, Action::Out { unit: v });
        }
        for u in cur.difference(prev) {
            let dep = refs.trigger_for(u, use_phase).trigger;
            let size = registry.unit_size(u).get();
            // Walk back from the use phase while the plan leaves room for
            // the early arrival; never cross the dependency-safe trigger.
            let mut t = p;
            if dep.0 as usize != p {
                for back in 1..n {
                    let q = (p + n - back) % n;
                    if phase_bytes[q] + size > capacity.get() {
                        break;
                    }
                    t = q;
                    if q == dep.0 as usize {
                        break;
                    }
                }
            }
            schedule[t].push(Action::In { unit: u });
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchKind;
    use unimem_hms::object::{ObjId, ObjectSpec};
    use unimem_hms::topology::ClusterTopology;
    use unimem_hms::{MachineConfig, SharedBandwidth};
    use unimem_sim::{Bandwidth, Bytes};

    fn unit(n: u32) -> UnitId {
        UnitId::whole(ObjId(n))
    }

    fn registry() -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        for name in ["a", "b", "c"] {
            r.register(ObjectSpec::new(name, Bytes::mib(64)));
        }
        r
    }

    /// The helper of one rank alone on a node with a 4 GB/s copy path.
    fn engine() -> MigrationEngine {
        let mut m = MachineConfig::nvm_bw_fraction(0.5);
        m.copy_bw = Bandwidth::gb_per_s(4.0);
        let room = ClusterTopology::homogeneous(&m, 1);
        MigrationEngine::new(SharedBandwidth::from_topology(&room).client(0))
    }

    /// The DRAM service of one rank alone on a node of `dram`.
    fn service(dram: Bytes) -> DramService {
        let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(dram);
        DramService::from_nodes(&ClusterTopology::homogeneous(&m, 1))
    }

    /// Plan: phase 0 wants {a}, phase 1 wants {b}; refs: a in 0, b in 1.
    fn alternating() -> (PlacementPlan, PhaseRefTable) {
        let plan = PlacementPlan {
            kind: SearchKind::Local,
            per_phase: vec![[unit(0)].into(), [unit(1)].into()],
            predicted: VDur::ZERO,
        };
        let mut refs = PhaseRefTable::new(2);
        refs.add_ref(PhaseId(0), unit(0));
        refs.add_ref(PhaseId(1), unit(1));
        (plan, refs)
    }

    #[test]
    fn static_plan_has_empty_schedule() {
        let plan = PlacementPlan {
            kind: SearchKind::Global,
            per_phase: vec![[unit(0)].into(), [unit(0)].into()],
            predicted: VDur::ZERO,
        };
        let refs = PhaseRefTable::new(2);
        let s = build_schedule(&plan.per_phase, &refs, &registry(), Bytes::mib(64));
        assert!(s.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn alternating_plan_schedules_both_directions() {
        let (plan, refs) = alternating();
        // Capacity holds exactly one unit: admissions cannot arrive early,
        // so each boundary pairs the outgoing eviction with the incoming
        // admission (eviction first).
        let s = build_schedule(&plan.per_phase, &refs, &registry(), Bytes::mib(64));
        let all: Vec<_> = s.iter().flatten().collect();
        assert_eq!(all.len(), 4, "{s:?}");
        assert!(s[1]
            .iter()
            .any(|a| matches!(a, Action::In { unit: u } if *u == unit(1))));
        assert!(s[1]
            .first()
            .is_some_and(|a| matches!(a, Action::Out { .. })));
        assert!(s[0]
            .iter()
            .any(|a| matches!(a, Action::In { unit: u } if *u == unit(0))));
    }

    #[test]
    fn roomy_capacity_allows_early_admission() {
        let (plan, refs) = alternating();
        // Capacity holds both units: b (used at phase 1, referenced nowhere
        // else) may arrive as early as phase 0.
        let s = build_schedule(&plan.per_phase, &refs, &registry(), Bytes::mib(256));
        assert!(s[0]
            .iter()
            .any(|a| matches!(a, Action::In { unit: u } if *u == unit(1))));
    }

    #[test]
    fn enter_plan_admits_phase0_set() {
        let (plan, refs) = alternating();
        let reg = registry();
        let service = service(Bytes::mib(64));
        let mut eng = engine();
        let mut enf = Enforcer::new(
            plan,
            &refs,
            &reg,
            Bytes::mib(64),
            UnitSet::new(),
            UnitMap::new(),
            0,
            VDur::from_nanos(200.0),
        );
        enf.enter_plan(VTime::ZERO, &refs, &reg, &mut eng, &service);
        assert!(enf.committed().contains(unit(0)));
        assert_eq!(eng.stats().to_dram_count, 1);
        // DRAM is fully granted now.
        assert_eq!(service.available(0), Bytes(0));
    }

    #[test]
    fn boundary_stalls_until_copy_done() {
        let (plan, refs) = alternating();
        let reg = registry();
        let service = service(Bytes::mib(64));
        let mut eng = engine();
        let mut enf = Enforcer::new(
            plan,
            &refs,
            &reg,
            Bytes::mib(64),
            UnitSet::new(),
            UnitMap::new(),
            0,
            VDur::from_nanos(200.0),
        );
        enf.enter_plan(VTime::ZERO, &refs, &reg, &mut eng, &service);
        // Phase 0 begins immediately: the copy of `a` (64 MiB at 4 GB/s)
        // is fully exposed.
        let cost = enf.phase_begin(
            PhaseId(0),
            VTime::ZERO,
            VDur::ZERO,
            &refs,
            &reg,
            &mut eng,
            &service,
        );
        let copy = eng.copy_time(Bytes::mib(64));
        assert!(
            (cost.stall.secs() - copy.secs()).abs() < 1e-9,
            "{:?}",
            cost.stall
        );
        assert!(cost.sync > VDur::ZERO);
    }

    #[test]
    fn alternating_enforcement_swaps_units() {
        let (plan, refs) = alternating();
        let reg = registry();
        let service = service(Bytes::mib(64));
        let mut eng = engine();
        let mut enf = Enforcer::new(
            plan.clone(),
            &refs,
            &reg,
            Bytes::mib(64),
            UnitSet::new(),
            UnitMap::new(),
            0,
            VDur::from_nanos(200.0),
        );
        enf.enter_plan(VTime::ZERO, &refs, &reg, &mut eng, &service);
        let mut now = VTime::ZERO;
        // Run two full iterations of the 2-phase cycle.
        for it in 0..2 {
            for p in 0..2u32 {
                let c =
                    enf.phase_begin(PhaseId(p), now, VDur::ZERO, &refs, &reg, &mut eng, &service);
                now = now + c.stall + c.sync + VDur::from_millis(50.0);
                let want = plan.dram_set(PhaseId(p));
                assert_eq!(
                    enf.committed(),
                    want,
                    "iteration {it} phase {p}: committed mismatch"
                );
            }
        }
        // Each phase boundary swapped one unit in and one out.
        let stats = eng.stats();
        assert!(stats.to_dram_count >= 3, "{stats:?}");
        assert!(stats.to_nvm_count >= 2, "{stats:?}");
        // Space never overcommitted: exactly one 64 MiB grant at a time.
        assert_eq!(service.available(0), Bytes(0));
    }

    #[test]
    fn refused_admission_counts() {
        let (plan, refs) = alternating();
        let reg = registry();
        // No DRAM at all: every admission is refused.
        let service = service(Bytes(0));
        let mut eng = engine();
        let mut enf = Enforcer::new(
            plan,
            &refs,
            &reg,
            Bytes(0),
            UnitSet::new(),
            UnitMap::new(),
            0,
            VDur::ZERO,
        );
        enf.enter_plan(VTime::ZERO, &refs, &reg, &mut eng, &service);
        assert_eq!(enf.admissions_refused, 1);
        assert!(enf.committed().is_empty());
    }
}
