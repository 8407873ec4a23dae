//! Step 3 — placement decision: phase-local search, cross-phase global
//! search, and the evaluator that picks between them (§3.1.3).
//!
//! * **Cross-phase global search** treats the whole iteration as one
//!   combined phase: per-unit benefits aggregate across phases, one
//!   knapsack decides a single placement, and movement happens once (its
//!   cost amortizes over the remaining iterations).
//! * **Phase-local search** walks phases in order, maintaining the DRAM
//!   contents, and solves one knapsack per phase with Eq. 5 weights —
//!   benefit minus movement cost (after overlap, Fig. 5) minus eviction
//!   cost when DRAM is full. Moves recur every iteration, and the weights
//!   price that in.
//!
//! Both searches produce a cyclic per-phase placement plan; the predicted
//! iteration time under each plan decides the winner.

use crate::comm::PhaseId;
use crate::deps::PhaseRefTable;
use crate::knapsack::{self, Item};
use crate::model::ModelParams;
use crate::profile::{IterationProfile, PhaseRecord};
use unimem_hms::object::{ObjectRegistry, UnitId, UnitSet};
use unimem_sim::{Bytes, VDur};

/// Which search produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    Global,
    Local,
}

impl SearchKind {
    /// Stable lower-case name used in machine-readable reports.
    pub fn name(self) -> &'static str {
        match self {
            SearchKind::Global => "global",
            SearchKind::Local => "local",
        }
    }

    /// Inverse of [`SearchKind::name`], for report/cache deserialization.
    pub fn from_name(s: &str) -> Option<SearchKind> {
        match s {
            "global" => Some(SearchKind::Global),
            "local" => Some(SearchKind::Local),
            _ => None,
        }
    }
}

/// A cyclic placement plan: desired DRAM contents per phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    pub kind: SearchKind,
    /// Indexed by phase id; the DRAM-resident unit set while that phase runs.
    pub per_phase: Vec<UnitSet>,
    /// Predicted steady-state iteration time under this plan.
    pub predicted: VDur,
}

impl PlacementPlan {
    /// A do-nothing plan (everything in NVM).
    pub fn stay_in_nvm(n_phases: usize) -> PlacementPlan {
        PlacementPlan {
            kind: SearchKind::Global,
            per_phase: vec![UnitSet::new(); n_phases],
            predicted: VDur::ZERO,
        }
    }

    pub fn dram_set(&self, phase: PhaseId) -> &UnitSet {
        &self.per_phase[phase.0 as usize]
    }
}

/// True when every phase of `per_phase` wants the same DRAM contents (a
/// static plan).
pub fn is_static(per_phase: &[UnitSet]) -> bool {
    per_phase.windows(2).all(|w| w[0] == w[1])
}

/// Everything the searches need.
pub struct SearchInput<'a> {
    pub registry: &'a ObjectRegistry,
    pub profile: &'a IterationProfile,
    pub refs: &'a PhaseRefTable,
    pub model: &'a ModelParams,
    /// DRAM capacity available to this rank.
    pub capacity: Bytes,
    /// DRAM contents while the profile was taken (for delta prediction).
    pub profiled_dram: &'a UnitSet,
    /// Iterations left after the decision (amortizes one-time moves).
    pub remaining_iters: u64,
}

/// Benefit of having `unit` in DRAM during the recorded phase.
fn unit_benefit(model: &ModelParams, rec: &PhaseRecord, unit: UnitId) -> VDur {
    let Some(&(_, recorded, hits)) = rec.units.iter().find(|(u, _, _)| *u == unit) else {
        return VDur::ZERO;
    };
    let sens = model.classify(recorded, hits, rec.windows, rec.time);
    model.benefit(sens, recorded)
}

/// Per-phase execution times from the profile, indexed by phase id.
fn phase_times(input: &SearchInput<'_>) -> Vec<VDur> {
    (0..input.refs.n_phases() as u32)
        .map(|p| {
            input
                .profile
                .get(PhaseId(p))
                .map(|r| r.time)
                .unwrap_or(VDur::ZERO)
        })
        .collect()
}

/// Cross-phase global search.
pub fn global_search(input: &SearchInput<'_>) -> PlacementPlan {
    let n = input.refs.n_phases();
    // Aggregate benefit per unit over all phases.
    let mut units: Vec<UnitId> = Vec::new();
    let mut benefits: Vec<VDur> = Vec::new();
    for (_, rec) in input.profile.phases() {
        for u in rec.observed_units() {
            match units.iter().position(|&x| x == u) {
                Some(k) => benefits[k] += unit_benefit(input.model, rec, u),
                None => {
                    units.push(u);
                    benefits.push(unit_benefit(input.model, rec, u));
                }
            }
        }
    }
    // One-time movement cost amortized over the remaining iterations.
    let amort = input.remaining_iters.max(1) as f64;
    let items: Vec<Item> = units
        .iter()
        .zip(&benefits)
        .map(|(&u, &b)| {
            let size = input.registry.unit_size(u);
            let move_cost = if input.profiled_dram.contains(u) {
                VDur::ZERO
            } else {
                input.model.copy_time(size) / amort
            };
            Item {
                weight: input.model.weight(b, move_cost, VDur::ZERO),
                size,
            }
        })
        .collect();
    let (chosen, _) = knapsack::solve(&items, input.capacity);
    let set: UnitSet = chosen.into_iter().map(|k| units[k]).collect();
    let per_phase = vec![set; n.max(1)];
    let predicted = predict_iteration_time(input, &per_phase);
    PlacementPlan {
        kind: SearchKind::Global,
        per_phase,
        predicted,
    }
}

/// Minimum benefit-to-copy-time ratio before the local search considers
/// moving a unit at all ("we avoid unnecessary data movement", §1): a
/// move whose per-iteration gain is a small fraction of its copy time only
/// congests the helper thread's FIFO.
const MOVEMENT_HYSTERESIS: f64 = 0.3;

/// Phase-local search.
pub fn local_search(input: &SearchInput<'_>) -> PlacementPlan {
    let n = input.refs.n_phases();
    let times = phase_times(input);
    let mut dram: UnitSet = input.profiled_dram.clone();
    let mut per_phase: Vec<UnitSet> = Vec::with_capacity(n);

    for p in 0..n as u32 {
        let phase = PhaseId(p);
        let Some(rec) = input.profile.get(phase) else {
            per_phase.push(dram.clone());
            continue;
        };
        // Candidates: units the counters observed in this phase. Units
        // not yet resident must clear the movement hysteresis.
        let candidates: Vec<UnitId> = rec
            .observed_units()
            .filter(|&u| {
                dram.contains(u) || {
                    let gain = unit_benefit(input.model, rec, u).secs();
                    gain > MOVEMENT_HYSTERESIS
                        * input.model.copy_time(input.registry.unit_size(u)).secs()
                }
            })
            .collect();
        let mut items: Vec<Item> = Vec::with_capacity(candidates.len());
        for &u in &candidates {
            let size = input.registry.unit_size(u);
            let benefit = unit_benefit(input.model, rec, u);
            let (cost, extra) = if dram.contains(u) {
                (VDur::ZERO, VDur::ZERO)
            } else {
                // Eviction cost when DRAM lacks room: move out victims
                // whose total size just covers the shortfall (§3.1.3).
                // Evictions ride the same helper-thread FIFO inside the
                // same dependency window, so the overlap of Fig. 5 applies
                // to the whole eviction+admission copy train.
                let overlap = input.refs.overlap_time(u, phase, &times);
                let resident: Bytes = dram.iter().map(|v| input.registry.unit_size(v)).sum();
                let free = input.capacity.saturating_sub(resident);
                let shortfall = size.saturating_sub(free);
                let evict_copy = if shortfall.is_zero() {
                    VDur::ZERO
                } else {
                    input.model.copy_time(victim_bytes(
                        input.registry,
                        &dram,
                        &candidates,
                        shortfall,
                    ))
                };
                let total_copy = input.model.copy_time(size) + evict_copy;
                let exposed = total_copy.saturating_sub(overlap);
                // Eq. 4's contention term: the hidden portion of the copy
                // train still taxes the compute it hides behind (helper
                // and application share the tier pools), so overlap
                // discounts the cost but no longer zeroes it. The train's
                // admit and evict legs load different pools, so each is
                // charged at its own direction's penalty (pro-rata over
                // the hidden time).
                let hidden = total_copy.min(overlap);
                let train_penalty = if total_copy.is_zero() {
                    0.0
                } else {
                    let admit_frac = input.model.copy_time(size).ratio(total_copy);
                    admit_frac * input.model.contention_penalty_in
                        + (1.0 - admit_frac) * input.model.contention_penalty_out
                };
                let contention = hidden * train_penalty;
                (
                    exposed.min(input.model.copy_time(size)),
                    exposed.saturating_sub(input.model.copy_time(size).min(exposed)) + contention,
                )
            };
            items.push(Item {
                weight: input.model.weight(benefit, cost, extra),
                size,
            });
        }
        let (chosen, _) = knapsack::solve(&items, input.capacity);
        let selected: UnitSet = chosen.into_iter().map(|k| candidates[k]).collect();

        // Evolve the DRAM state: bring in selected units, evicting
        // non-selected residents (largest first) when space runs short.
        for u in selected.iter() {
            if dram.contains(u) {
                continue;
            }
            let size = input.registry.unit_size(u);
            loop {
                let resident: Bytes = dram.iter().map(|v| input.registry.unit_size(v)).sum();
                if input.capacity.saturating_sub(resident) >= size {
                    break;
                }
                // Largest non-selected resident goes first.
                let victim = dram
                    .iter()
                    .filter(|&v| !selected.contains(v))
                    .max_by_key(|&v| input.registry.unit_size(v));
                match victim {
                    Some(v) => {
                        dram.remove(v);
                    }
                    None => break, // only selected units left: cannot evict
                }
            }
            let resident: Bytes = dram.iter().map(|v| input.registry.unit_size(v)).sum();
            if input.capacity.saturating_sub(resident) >= size {
                dram.insert(u);
            }
        }
        per_phase.push(dram.clone());
    }

    let predicted = predict_iteration_time(input, &per_phase);
    PlacementPlan {
        kind: SearchKind::Local,
        per_phase,
        predicted,
    }
}

/// Victim bytes needed to free `shortfall`, choosing residents by size
/// ("whose total size is just big enough"), preferring non-candidates.
fn victim_bytes(
    registry: &ObjectRegistry,
    dram: &UnitSet,
    candidates: &[UnitId],
    shortfall: Bytes,
) -> Bytes {
    let mut residents: Vec<UnitId> = dram.iter().filter(|u| !candidates.contains(u)).collect();
    // Smallest-first greedy gets "just big enough" totals.
    residents.sort_by_key(|&u| registry.unit_size(u));
    let mut freed = Bytes::ZERO;
    for u in residents {
        if freed >= shortfall {
            break;
        }
        freed += registry.unit_size(u);
    }
    freed
}

/// Predicted steady-state iteration time under a per-phase placement,
/// relative to the profiled iteration (model scale, §3.1.3 evaluator).
pub fn predict_iteration_time(input: &SearchInput<'_>, per_phase: &[UnitSet]) -> VDur {
    let times = phase_times(input);
    let n = input.refs.n_phases();
    let mut total = VDur::ZERO;
    for p in 0..n as u32 {
        let phase = PhaseId(p);
        let mut t = times[p as usize];
        if let Some(rec) = input.profile.get(phase) {
            let target = &per_phase[p as usize];
            for u in rec.observed_units() {
                let in_target = target.contains(u);
                let was_in_dram = input.profiled_dram.contains(u);
                if in_target && !was_in_dram {
                    t = t.saturating_sub(unit_benefit(input.model, rec, u));
                } else if !in_target && was_in_dram {
                    t += unit_benefit(input.model, rec, u);
                }
            }
        }
        total += t;
    }
    // Recurring movement stalls, estimated with the real enforcement
    // schedule and a serial helper-thread timeline.
    total
        + crate::enforce::estimate_cycle_stall(
            per_phase,
            input.refs,
            input.registry,
            input.capacity,
            input.model.copy_bw,
            &times,
        )
}

/// Run the enabled searches and keep the plan with the lower predicted
/// iteration time (ties favour global: fewer moves).
pub fn best_plan(input: &SearchInput<'_>, use_global: bool, use_local: bool) -> PlacementPlan {
    let g = use_global.then(|| global_search(input));
    let l = use_local.then(|| local_search(input));
    match (g, l) {
        (Some(g), Some(l)) => {
            if l.predicted.secs() < g.predicted.secs() {
                l
            } else {
                g
            }
        }
        (Some(g), None) => g,
        (None, Some(l)) => l,
        (None, None) => PlacementPlan::stay_in_nvm(input.refs.n_phases()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseRecord;
    use unimem_hms::object::{ObjId, ObjectSpec};
    use unimem_hms::profiles::{copy_bw_between, sim_dram};
    use unimem_perf::Calibration;

    fn unit(n: u32) -> UnitId {
        UnitId::whole(ObjId(n))
    }

    fn model() -> ModelParams {
        let dram = sim_dram();
        let nvm = dram.with_bw_fraction(0.5);
        ModelParams::new(
            dram,
            nvm,
            copy_bw_between(dram, nvm),
            Calibration {
                cf_bw: 1000.0,
                cf_lat: 1000.0,
                bw_peak_sampled: 6e6,
            },
        )
    }

    /// Registry with three 100 MiB objects, DRAM fits one.
    fn registry() -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        for name in ["a", "b", "c"] {
            r.register(ObjectSpec::new(name, Bytes::mib(100)));
        }
        r
    }

    fn hot_record(units: &[(u32, u64)], ms: f64) -> PhaseRecord {
        PhaseRecord {
            units: units.iter().map(|&(u, r)| (unit(u), r, 200_000)).collect(),
            windows: 1_000_000,
            time: VDur::from_millis(ms),
        }
    }

    fn simple_input<'a>(
        reg: &'a ObjectRegistry,
        profile: &'a IterationProfile,
        refs: &'a PhaseRefTable,
        model: &'a ModelParams,
        profiled: &'a UnitSet,
    ) -> SearchInput<'a> {
        SearchInput {
            registry: reg,
            profile,
            refs,
            model,
            capacity: Bytes::mib(128),
            profiled_dram: profiled,
            remaining_iters: 100,
        }
    }

    #[test]
    fn global_search_picks_hottest_object() {
        let reg = registry();
        let mut profile = IterationProfile::new();
        profile.insert(PhaseId(0), hot_record(&[(0, 50_000), (1, 5_000)], 100.0));
        profile.insert(PhaseId(1), hot_record(&[(0, 50_000), (2, 2_000)], 100.0));
        let mut refs = PhaseRefTable::new(2);
        for (p, us) in [(0u32, vec![0u32, 1]), (1, vec![0, 2])] {
            for u in us {
                refs.add_ref(PhaseId(p), unit(u));
            }
        }
        let m = model();
        let profiled = UnitSet::new();
        let input = simple_input(&reg, &profile, &refs, &m, &profiled);
        let plan = global_search(&input);
        assert!(is_static(&plan.per_phase));
        assert!(plan.per_phase[0].contains(unit(0)));
        assert!(!plan.per_phase[0].contains(unit(1)), "only one fits");
    }

    #[test]
    fn local_search_switches_between_phases_when_worth_it() {
        let reg = registry();
        // Phase 0 hammers `a`, phase 1 hammers `b`; both huge benefits.
        let mut profile = IterationProfile::new();
        profile.insert(PhaseId(0), hot_record(&[(0, 500_000)], 400.0));
        profile.insert(PhaseId(1), hot_record(&[(1, 500_000)], 400.0));
        let mut refs = PhaseRefTable::new(2);
        refs.add_ref(PhaseId(0), unit(0));
        refs.add_ref(PhaseId(1), unit(1));
        let m = model();
        let profiled = UnitSet::new();
        let input = simple_input(&reg, &profile, &refs, &m, &profiled);
        let plan = local_search(&input);
        assert!(plan.per_phase[0].contains(unit(0)));
        assert!(plan.per_phase[1].contains(unit(1)));
        // Capacity is one object: `a` must have been evicted in phase 1.
        assert!(!plan.per_phase[1].contains(unit(0)));
    }

    #[test]
    fn local_search_stays_put_when_movement_too_expensive() {
        let reg = registry();
        // Tiny benefits: weights go negative once movement cost counts.
        let mut profile = IterationProfile::new();
        profile.insert(PhaseId(0), hot_record(&[(0, 40)], 1.0));
        profile.insert(PhaseId(1), hot_record(&[(1, 40)], 1.0));
        let mut refs = PhaseRefTable::new(2);
        refs.add_ref(PhaseId(0), unit(0));
        refs.add_ref(PhaseId(1), unit(1));
        let m = model();
        let profiled = UnitSet::new();
        let input = simple_input(&reg, &profile, &refs, &m, &profiled);
        let plan = local_search(&input);
        assert!(plan.per_phase.iter().all(|s| s.is_empty()), "{plan:?}");
    }

    #[test]
    fn contention_penalty_vetoes_marginal_phase_churn() {
        let reg = registry();
        // Moderate benefits: switching between phases is barely worth the
        // copies without contention, and not worth them once every hidden
        // copy also taxes the compute it overlaps (Eq. 4 contention term).
        let mut profile = IterationProfile::new();
        profile.insert(PhaseId(0), hot_record(&[(0, 2_000)], 40.0));
        profile.insert(PhaseId(1), hot_record(&[(1, 2_000)], 40.0));
        let mut refs = PhaseRefTable::new(2);
        refs.add_ref(PhaseId(0), unit(0));
        refs.add_ref(PhaseId(1), unit(1));
        let m = model();
        let profiled = UnitSet::new();
        let input = simple_input(&reg, &profile, &refs, &m, &profiled);
        let free = local_search(&input);
        assert!(
            free.per_phase.iter().any(|s| !s.is_empty()),
            "baseline: moves are worth it when hidden copies are free"
        );
        let taxed = m.with_contention_penalties(50.0, 50.0);
        let input = simple_input(&reg, &profile, &refs, &taxed, &profiled);
        let taxed_plan = local_search(&input);
        let placed = |p: &PlacementPlan| p.per_phase.iter().map(|s| s.len()).sum::<usize>();
        assert!(
            placed(&taxed_plan) < placed(&free),
            "a heavy contention penalty must reduce planned movement \
             (free: {free:?}, taxed: {taxed_plan:?})"
        );
    }

    #[test]
    fn best_plan_prefers_lower_predicted_time() {
        let reg = registry();
        let mut profile = IterationProfile::new();
        // One object dominates both phases: global (no recurring moves)
        // must win over any churn.
        profile.insert(PhaseId(0), hot_record(&[(0, 500_000)], 400.0));
        profile.insert(PhaseId(1), hot_record(&[(0, 500_000)], 400.0));
        let mut refs = PhaseRefTable::new(2);
        refs.add_ref(PhaseId(0), unit(0));
        refs.add_ref(PhaseId(1), unit(0));
        let m = model();
        let profiled = UnitSet::new();
        let input = simple_input(&reg, &profile, &refs, &m, &profiled);
        let plan = best_plan(&input, true, true);
        assert_eq!(plan.kind, SearchKind::Global);
    }

    #[test]
    fn prediction_counts_eviction_regression() {
        let reg = registry();
        let mut profile = IterationProfile::new();
        profile.insert(PhaseId(0), hot_record(&[(0, 500_000)], 400.0));
        let mut refs = PhaseRefTable::new(1);
        refs.add_ref(PhaseId(0), unit(0));
        let m = model();
        // Profiled with `a` in DRAM; a plan that drops it must predict
        // a slower iteration.
        let profiled: UnitSet = [unit(0)].into();
        let input = simple_input(&reg, &profile, &refs, &m, &profiled);
        let keep = predict_iteration_time(&input, &[[unit(0)].into()]);
        let drop = predict_iteration_time(&input, &[UnitSet::new()]);
        assert!(drop > keep);
    }

    #[test]
    fn disabled_searches_give_nvm_plan() {
        let reg = registry();
        let profile = IterationProfile::new();
        let refs = PhaseRefTable::new(3);
        let m = model();
        let profiled = UnitSet::new();
        let input = simple_input(&reg, &profile, &refs, &m, &profiled);
        let plan = best_plan(&input, false, false);
        assert!(plan.per_phase.iter().all(|s| s.is_empty()));
        assert_eq!(plan.per_phase.len(), 3);
    }
}
