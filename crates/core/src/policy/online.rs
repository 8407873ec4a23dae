//! Interval-based online application guidance (after Olson et al.,
//! "Online Application Guidance for Heterogeneous Memory Systems"):
//! sample object hotness while the application runs, and at every
//! iteration boundary greedily promote the hottest bytes-per-reference
//! winners into the leased DRAM budget.
//!
//! The contrast with Unimem is deliberate and faithful to both papers:
//! this policy sees *aggregate per-object* hotness over a whole
//! interval — no phase structure, no cross-phase dependency windows, no
//! movement-cost model — so it keeps chasing the working set one
//! interval behind, pays cold-start misses during the first interval,
//! and cannot overlap migrations with the phases that do not touch the
//! moving unit. Its sampling is deterministic: hotness counts are
//! binomial-thinned through `unimem_sim::DetRng`, seeded per rank, so
//! runs replay byte-identically.

use super::{build_refs, RankInit, RankState, StepEnv, TierView};
use crate::comm::PhaseId;
use crate::deps::PhaseRefTable;
use crate::exec::{Cause, StepSpec};
use crate::search::SearchKind;
use unimem_hms::object::{GroundTruth, UnitId, UnitMap, UnitSet};
use unimem_hms::tier::TierKind;
use unimem_hms::{MigrationEngine, MigrationStats};
use unimem_sim::{Bytes, DetRng, VDur};

/// Per-miss sampling probability of the hotness profiler.
const SAMPLE_PROB: f64 = 1e-3;
/// EWMA retention of previous intervals' hotness (0 forgets instantly,
/// 1 never forgets).
const DECAY: f64 = 0.5;
/// Residency hysteresis: a challenger must beat a resident unit's
/// reference density by this factor to displace it. Guards against
/// boundary ping-pong when sampled counts jitter between intervals
/// (small per-rank miss counts make the thinned samples noisy at scale,
/// and an oscillating hot set would migrate the same bytes back and
/// forth every interval).
const HYSTERESIS: f64 = 2.0;
/// Seed for the deterministic sampling thinning.
const SEED: u64 = 0x01_5eed;
/// Cost charged per interval decision (sort + greedy fill).
const DECISION_COST: VDur = VDur::from_micros(60.0);
/// Cost charged per phase boundary (migration-queue check).
const SYNC_COST: VDur = VDur::from_nanos(250.0);

/// Build one rank's online-guidance state: everything starts in NVM,
/// and the first interval decision comes at the end of iteration 0.
pub(super) fn init_rank(init: RankInit<'_>) -> Box<dyn RankState> {
    Box::new(OnlineRank {
        rng: DetRng::seed(SEED ^ (init.rank as u64).wrapping_mul(0x9e3779b9)),
        hotness: UnitMap::new(),
        interval: UnitMap::new(),
        in_dram: UnitSet::new(),
        grants: UnitMap::new(),
        engine: MigrationEngine::new(init.client.clone()).with_journal(init.journal.clone()),
        refs: None,
        cap_per_rank: init.service.per_rank(init.rank, init.lease.at(0)),
        rank: init.rank,
        decided: false,
    })
}

/// Per-rank online-guidance state.
struct OnlineRank {
    rng: DetRng,
    /// EWMA-decayed sampled reference counts per unit.
    hotness: UnitMap<f64>,
    /// Samples accumulated during the current interval.
    interval: UnitMap<u64>,
    /// Units currently resident in DRAM (always within the lease).
    in_dram: UnitSet,
    grants: UnitMap<unimem_hms::alloc::Region>,
    engine: MigrationEngine,
    refs: Option<PhaseRefTable>,
    cap_per_rank: Bytes,
    rank: usize,
    /// True once the first interval decision has run.
    decided: bool,
}

impl OnlineRank {
    /// The interval decision: greedily fill the leased budget with the
    /// hottest units by sampled references per byte, then enqueue the
    /// placement diff on the migration helper (evictions first, so the
    /// freed grants can back the admissions).
    fn replan(&mut self, env: &mut StepEnv<'_>) {
        env.time.charge(&[(Cause::Modeling, DECISION_COST)]);

        let mut scored: Vec<(UnitId, f64)> = self
            .hotness
            .iter()
            .filter(|&(_, &h)| h > 0.0)
            .map(|(u, &h)| {
                let boost = if self.in_dram.contains(u) {
                    HYSTERESIS
                } else {
                    1.0
                };
                (u, h * boost / env.registry.unit_size(u).as_f64().max(1.0))
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite hotness densities")
                .then(a.0.cmp(&b.0))
        });
        let cap = self.cap_per_rank.get();
        let mut used = 0u64;
        let mut target = UnitSet::new();
        for (u, _) in scored {
            let sz = env.registry.unit_size(u).get();
            if used + sz <= cap {
                used += sz;
                target.insert(u);
            }
        }

        let evict: Vec<UnitId> = self.in_dram.difference(&target).collect();
        for u in evict {
            self.in_dram.remove(u);
            if let Some(g) = self.grants.remove(u) {
                env.service.release(self.rank, g);
            }
            self.engine
                .enqueue(u, TierKind::Nvm, env.registry.unit_size(u), env.time.now());
        }
        let admit: Vec<UnitId> = target.difference(&self.in_dram).collect();
        for u in admit {
            let sz = env.registry.unit_size(u);
            // Each rank owns a static share of the node's DRAM, so only
            // first-fit fragmentation of that share can refuse a grant;
            // the unit then stays in NVM until the next interval.
            if let Some(g) = env.service.reserve(self.rank, sz) {
                self.grants.insert(u, g);
                self.in_dram.insert(u);
                self.engine.enqueue(u, TierKind::Dram, sz, env.time.now());
            }
        }
        self.decided = true;

        // The lease is a hard budget: residency beyond it would be
        // stolen DRAM under multi-tenant arbitration. The greedy fill
        // above guarantees this; keep it guaranteed.
        let resident: u64 = self
            .in_dram
            .iter()
            .map(|u| env.registry.unit_size(u).get())
            .sum();
        assert!(
            resident <= cap,
            "online-guidance residency {resident} B exceeds the leased budget {cap} B"
        );
    }
}

impl RankState for OnlineRank {
    fn iteration_begin(&mut self, it: usize, steps: &[StepSpec], env: &mut StepEnv<'_>) {
        if self.refs.is_none() {
            self.refs = Some(build_refs(steps, env.registry));
        }
        // Lease boundary: re-run the interval decision at the new
        // budget so revoked DRAM is evicted immediately (granted budget
        // is also picked up here rather than an interval late).
        let cap_now = env.service.per_rank(env.rank, env.lease.at(it));
        if cap_now != self.cap_per_rank {
            self.cap_per_rank = cap_now;
            if self.decided {
                self.replan(env);
                env.time.count_lease_replan();
            }
        }
    }

    fn phase_begin(&mut self, phase: PhaseId, env: &mut StepEnv<'_>) {
        // Guidance is phase-blind, but correctness is not: a phase that
        // touches a unit still in the helper's queue must wait for the
        // copy, exactly like Unimem's enforcement stall.
        let Some(refs) = self.refs.as_ref() else {
            return;
        };
        let mut stall = VDur::ZERO;
        for u in refs.units_of(phase) {
            stall += self.engine.require(u, env.time.now() + stall);
        }
        env.time
            .charge(&[(Cause::Sync, SYNC_COST), (Cause::Stall, stall)]);
    }

    fn view(&self) -> TierView<'_> {
        TierView::Sets {
            in_dram: &self.in_dram,
            all_dram: false,
        }
    }

    fn observe_compute(
        &mut self,
        _phase: PhaseId,
        _time: VDur,
        truths: &[GroundTruth],
        _env: &mut StepEnv<'_>,
    ) {
        for t in truths {
            let sampled = self.rng.binomial(t.misses, SAMPLE_PROB);
            if sampled > 0 {
                *self.interval.get_or_insert(t.unit, 0) += sampled;
            }
        }
    }

    fn iteration_end(&mut self, _it: usize, _steps: &[StepSpec], env: &mut StepEnv<'_>) {
        // Interval boundary: decay history, fold in this interval's
        // samples, and re-decide the placement.
        for h in self.hotness.values_mut() {
            *h *= DECAY;
        }
        for (u, &c) in self.interval.iter() {
            *self.hotness.get_or_insert(u, 0.0) += c as f64;
        }
        self.interval.clear();
        self.replan(env);
    }

    fn finish(&self) -> (MigrationStats, Option<SearchKind>) {
        (self.engine.stats(), None)
    }
}
