//! The paper's runtime as a placement policy: sampled profiling,
//! knapsack-guided search, proactive enforcement, re-profiling on
//! variation — §3.1's profile → decide → enforce loop, driven through
//! the policy lifecycle hooks.

use super::{build_refs, RankInit, RankState, StepEnv, TierView};
use crate::adapt::VariationMonitor;
use crate::calib::calibrate_memoized;
use crate::comm::PhaseId;
use crate::deps::PhaseRefTable;
use crate::enforce::Enforcer;
use crate::exec::{Cause, StepSpec};
use crate::initial::initial_placement;
use crate::model::ModelParams;
use crate::partition::partition_large_objects;
use crate::profile::{IterationProfile, PhaseRecord};
use crate::search::{best_plan, SearchInput, SearchKind};
use unimem_hms::object::{GroundTruth, UnitMap, UnitSet};
use unimem_hms::tier::TierKind;
use unimem_hms::{MigrationEngine, MigrationStats};
use unimem_perf::{Sampler, SamplerConfig};
use unimem_sim::{Bytes, VDur};

/// Runtime configuration for the Unimem policy, with ablation toggles
/// matching Fig. 11's four techniques.
#[derive(Debug, Clone, PartialEq)]
pub struct UnimemConfig {
    /// Enable the cross-phase global search.
    pub use_global: bool,
    /// Enable the phase-local search.
    pub use_local: bool,
    /// Enable large-object partitioning (§3.2).
    pub partitioning: bool,
    /// Enable estimate-driven initial placement (§3.2).
    pub initial_placement: bool,
    /// Enable re-profiling on workload variation (§3.2).
    pub adaptation: bool,
    /// Hardware-counter sampling configuration.
    pub sampler: SamplerConfig,
}

/// Seed for the sampler's deterministic thinning and its calibration.
const SEED: u64 = 0x5eed;
/// Cost charged per placement decision (model + knapsack solve).
const MODELING_COST: VDur = VDur::from_micros(120.0);
/// Cost charged per phase boundary (helper-queue status check).
const SYNC_COST: VDur = VDur::from_nanos(250.0);

impl Default for UnimemConfig {
    fn default() -> UnimemConfig {
        UnimemConfig {
            use_global: true,
            use_local: true,
            partitioning: true,
            initial_placement: true,
            adaptation: true,
            sampler: SamplerConfig::default(),
        }
    }
}

impl UnimemConfig {
    /// Fig. 11 ablation rungs: 1 = global only, 2 = +local, 3 =
    /// +partitioning, 4 = +initial placement (full system sans adaptation
    /// toggles, which stay on).
    pub fn ablation(rung: u8) -> UnimemConfig {
        UnimemConfig {
            use_global: rung >= 1,
            use_local: rung >= 2,
            partitioning: rung >= 3,
            initial_placement: rung >= 4,
            ..UnimemConfig::default()
        }
    }
}

/// Build one rank's Unimem state: partition large objects, then make
/// the estimate-driven initial placement within the rank's lease.
pub(super) fn init_rank(cfg: &UnimemConfig, init: RankInit<'_>) -> Box<dyn RankState> {
    if cfg.partitioning {
        // Chunks are sized against the lease's peak: a chunk that
        // fits DRAM at the high-water lease simply stays in NVM
        // while the lease is lower.
        partition_large_objects(
            init.registry,
            init.service.per_rank(init.rank, init.lease.peak()),
        );
    }
    // The models reason about this rank's share of the node: tier
    // bandwidth over occupancy and the helper's fair copy-path
    // slice. The Eq. 4 contention terms charge hidden copies for
    // the load they put on the pools each direction actually
    // touches — an admission reads NVM and writes DRAM, an
    // eviction the reverse (which is far harsher on
    // write-asymmetric technologies).
    let machine = init.machine;
    let occ = init.client.occupancy();
    let dram_share = machine.rank_share(TierKind::Dram, occ);
    let nvm_share = machine.rank_share(TierKind::Nvm, occ);
    // Offline calibration (§3.1.2) probes the same share, the bandwidth
    // the sampled phases see, so Eq. 1's peak comparisons stay
    // like-for-like; the memo runs it once per distinct share.
    let cal = calibrate_memoized(&dram_share, &nvm_share, init.cache, cfg.sampler, SEED);
    let rho = init.client.copy_rate().bytes_per_s();
    let pressure = |read_pool: unimem_sim::Bandwidth, write_pool: unimem_sim::Bandwidth| {
        rho / read_pool.bytes_per_s().min(write_pool.bytes_per_s())
    };
    let model = ModelParams::new(dram_share, nvm_share, init.client.copy_rate(), cal)
        .with_contention_penalties(
            pressure(machine.nvm.read_bw, machine.dram.write_bw),
            pressure(machine.dram.read_bw, machine.nvm.write_bw),
        );
    let mut committed = UnitSet::new();
    let mut grants = UnitMap::new();
    if cfg.initial_placement {
        let initial = initial_placement(
            init.registry,
            init.service.per_rank(init.rank, init.lease.at(0)),
        );
        for u in initial.iter() {
            if let Some(g) = init.service.reserve(init.rank, init.registry.unit_size(u)) {
                committed.insert(u);
                grants.insert(u, g);
            }
        }
    }
    Box::new(UnimemRank {
        sampler: Sampler::new(
            cfg.sampler,
            SEED ^ (init.rank as u64).wrapping_mul(0x9e3779b9),
        ),
        engine: MigrationEngine::new(init.client.clone()).with_journal(init.journal.clone()),
        monitor: None,
        profile: IterationProfile::new(),
        refs: None,
        enforcer: None,
        committed,
        grants,
        profiling: true,
        cap_per_rank: init.service.per_rank(init.rank, init.lease.at(0)),
        model,
        cfg: cfg.clone(),
        rank: init.rank,
    })
}

/// Per-rank Unimem state: the profile → decide → enforce pipeline.
struct UnimemRank {
    cfg: UnimemConfig,
    model: ModelParams,
    sampler: Sampler,
    engine: MigrationEngine,
    monitor: Option<VariationMonitor>,
    profile: IterationProfile,
    refs: Option<PhaseRefTable>,
    enforcer: Option<Enforcer>,
    /// Pre-plan DRAM contents (initial placement) and their grants.
    committed: UnitSet,
    grants: UnitMap<unimem_hms::alloc::Region>,
    profiling: bool,
    cap_per_rank: Bytes,
    rank: usize,
}

impl UnimemRank {
    fn dram_units(&self) -> &UnitSet {
        self.enforcer
            .as_ref()
            .map(|e| e.committed())
            .unwrap_or(&self.committed)
    }

    /// The placement decision step, shared by the end-of-profiling path
    /// and lease re-plans: charge the modeling cost, solve for the best
    /// plan at the *current* capacity (`self.cap_per_rank`), and swap in
    /// a fresh enforcer that transitions from the current DRAM contents.
    /// Resets the variation monitor — the new placement legitimately
    /// changes phase times, which must not read as workload variation.
    fn replace_plan(&mut self, env: &mut StepEnv<'_>, steps_len: usize, remaining_iters: u64) {
        env.time.charge(&[(Cause::Modeling, MODELING_COST)]);
        let refs = self.refs.as_ref().expect("refs built in first iteration");
        let (committed, grants) = match self.enforcer.take() {
            Some(e) => e.into_state(),
            None => (
                std::mem::take(&mut self.committed),
                std::mem::take(&mut self.grants),
            ),
        };
        let input = SearchInput {
            registry: env.registry,
            profile: &self.profile,
            refs,
            model: &self.model,
            capacity: self.cap_per_rank,
            profiled_dram: &committed,
            remaining_iters,
        };
        let plan = best_plan(&input, self.cfg.use_global, self.cfg.use_local);
        let mut enf = Enforcer::new(
            plan,
            refs,
            env.registry,
            self.cap_per_rank,
            committed,
            grants,
            self.rank,
            SYNC_COST,
        );
        enf.enter_plan(
            env.time.now(),
            refs,
            env.registry,
            &mut self.engine,
            env.service,
        );
        self.enforcer = Some(enf);
        self.monitor = Some(VariationMonitor::paper_default(steps_len));
        self.profiling = false;
    }
}

impl RankState for UnimemRank {
    fn iteration_begin(&mut self, it: usize, steps: &[StepSpec], env: &mut StepEnv<'_>) {
        // Build the reference table from the first iteration's structure
        // (the directive-declared dependency information of §3.3).
        if self.refs.is_none() {
            self.refs = Some(build_refs(steps, env.registry));
        }

        // Lease boundary: the arbiter may have granted or revoked
        // DRAM since the previous iteration. The knapsack capacity
        // follows the lease; with a complete profile in hand the
        // placement re-runs immediately, evicting revoked budget
        // (the new plan fits the new capacity) or putting granted
        // budget to use.
        let cap_now = env.service.per_rank(env.rank, env.lease.at(it));
        if cap_now != self.cap_per_rank {
            self.cap_per_rank = cap_now;
            if !self.profiling && self.profile.len() == steps.len() {
                self.replace_plan(env, steps.len(), (env.iterations - it).max(1) as u64);
                env.time.count_lease_replan();
            }
        }
    }

    fn phase_begin(&mut self, phase: PhaseId, env: &mut StepEnv<'_>) {
        // Phase boundary: enforcement + queue sync.
        if let (Some(enf), Some(refs)) = (self.enforcer.as_mut(), self.refs.as_ref()) {
            let phase_est = self
                .profile
                .get(phase)
                .map(|r| r.time)
                .unwrap_or(VDur::ZERO);
            let cost = enf.phase_begin(
                phase,
                env.time.now(),
                phase_est,
                refs,
                env.registry,
                &mut self.engine,
                env.service,
            );
            env.time
                .charge(&[(Cause::Sync, cost.sync), (Cause::Stall, cost.stall)]);
        }
    }

    fn view(&self) -> TierView<'_> {
        TierView::Sets {
            in_dram: self.dram_units(),
            all_dram: false,
        }
    }

    fn observe_compute(
        &mut self,
        phase: PhaseId,
        time: VDur,
        truths: &[GroundTruth],
        env: &mut StepEnv<'_>,
    ) {
        if self.profiling {
            let prof = self.sampler.sample_phase(time, truths);
            env.time.charge(&[(Cause::Profiling, prof.overhead)]);
            let mut rec = PhaseRecord::from_profile(&prof);
            rec.time = time;
            self.profile.insert(phase, rec);
        }
        if !self.profiling {
            if let Some(mon) = &mut self.monitor {
                if mon.observe(phase, time) && self.cfg.adaptation {
                    self.profiling = true;
                    env.time.count_reprofile();
                }
            }
        }
    }

    fn observe_comm(&mut self, phase: PhaseId, dt: VDur, env: &mut StepEnv<'_>) {
        let _ = env;
        if self.profiling {
            self.profile.insert(
                phase,
                PhaseRecord {
                    units: Vec::new(),
                    windows: self.sampler.windows_in(dt),
                    time: dt,
                },
            );
        }
    }

    fn iteration_end(&mut self, it: usize, steps: &[StepSpec], env: &mut StepEnv<'_>) {
        // End of a profiled iteration: build models, decide, enforce.
        if self.profiling && self.profile.len() == steps.len() {
            self.replace_plan(env, steps.len(), (env.iterations - it).max(1) as u64);
        }
    }

    fn finish(&self) -> (MigrationStats, Option<SearchKind>) {
        (
            self.engine.stats(),
            self.enforcer.as_ref().map(|e| e.plan().kind),
        )
    }
}
