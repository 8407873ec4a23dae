//! Placement policies: the [`Policy`] value, the registry, and the
//! self-contained policy implementations.
//!
//! The driver in [`crate::exec`] replays a workload's phase script; what
//! varies between the paper's bars is *who decides tier residency and
//! when*. Each competitor is a [`Policy`] variant whose
//! [`Policy::init_rank`] builds one [`RankState`] per rank, and the
//! driver calls the same lifecycle hooks for every policy:
//!
//! 1. [`Policy::init_rank`] — initial placement from the registry (and,
//!    for Unimem, compiler estimates + partitioning);
//! 2. [`RankState::iteration_begin`] — dependency-table construction and
//!    reaction to capacity-lease changes at iteration boundaries;
//! 3. [`RankState::phase_begin`] — enforcement work at a phase boundary
//!    (migration triggers, helper-queue sync);
//! 4. [`RankState::view`] — the tier residency the ground-truth timing
//!    model charges for this phase;
//! 5. [`RankState::observe_compute`] / [`RankState::observe_comm`] —
//!    profiling feedback after the phase ran;
//! 6. [`RankState::iteration_end`] — per-epoch replanning;
//! 7. [`RankState::finish`] — the migration counters and winning plan.
//!
//! The registry ([`PolicyId`]) is the one canonical name table: the
//! sweep matrix, the `--policies` CLI, and the JSON report all spell a
//! policy the way [`PolicyId::name`] does.
//!
//! Implementations live one file per family, each with an `init_rank`
//! function that [`Policy::init_rank`] calls:
//!
//! * [`fixed`] — DRAM-only, NVM-only, and named static pins (X-Mem's
//!   offline placement feeds the latter);
//! * [`unimem`] — the paper's runtime (§3): sampled profiling,
//!   knapsack-guided search, proactive enforcement, adaptation;
//! * [`online`] — interval-based online guidance with sampled hotness
//!   feedback (Olson et al.), a software competitor without Unimem's
//!   phase awareness;
//! * [`hwcache`] — DRAM as a hardware-managed set-associative cache
//!   over NVM (Wen et al.), the no-software-cost competitor.

pub mod fixed;
pub mod hwcache;
pub mod online;
pub mod unimem;

use crate::comm::PhaseId;
use crate::deps::PhaseRefTable;
use crate::exec::{CapacitySchedule, RankTime, StepSpec};
use crate::search::SearchKind;
use unimem_cache::CacheModel;
use unimem_hms::contention::BwClient;
use unimem_hms::object::{GroundTruth, ObjectRegistry, UnitSet};
use unimem_hms::{DramService, MachineConfig, MigrationStats};
use unimem_sim::VDur;

pub use unimem::UnimemConfig;

/// Canonical policy registry: every placement policy the evaluation
/// matrix knows, with its one true sweep/CLI/JSON name.
///
/// The sweep runner matches on this enum exhaustively to instantiate
/// cells, so adding a variant without wiring it into the sweep fails to
/// compile rather than silently vanishing from the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyId {
    /// The paper's runtime (§3).
    Unimem,
    /// Offline-profiled static placement (Dulloor et al., EuroSys'16).
    Xmem,
    /// Unlimited DRAM: the paper's baseline machine.
    DramOnly,
    /// Everything in NVM: the paper's worst case.
    NvmOnly,
    /// Interval-sampled online guidance (Olson et al.).
    OnlineGuidance,
    /// Hardware-managed DRAM cache over NVM (Wen et al.).
    HwCache,
}

impl PolicyId {
    /// Every registered policy, in the matrix's canonical column order
    /// (the four legacy competitors first, then the PR-6 additions).
    pub const ALL: [PolicyId; 6] = [
        PolicyId::Unimem,
        PolicyId::Xmem,
        PolicyId::DramOnly,
        PolicyId::NvmOnly,
        PolicyId::OnlineGuidance,
        PolicyId::HwCache,
    ];

    /// The canonical sweep/CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyId::Unimem => "unimem",
            PolicyId::Xmem => "xmem",
            PolicyId::DramOnly => "dram-only",
            PolicyId::NvmOnly => "nvm-only",
            PolicyId::OnlineGuidance => "online-guidance",
            PolicyId::HwCache => "hw-cache",
        }
    }

    /// Parse a canonical name (case-insensitive). The inverse of
    /// [`PolicyId::name`], and the only parser — the CLI, the sweep
    /// matrix, and tests all route through here.
    pub fn from_name(s: &str) -> Option<PolicyId> {
        PolicyId::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
    }
}

/// Placement policy for a run: which competitor decides tier residency,
/// with Unimem's ablation and sampler settings.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// Unlimited DRAM (the paper's DRAM-only baseline machine).
    DramOnly,
    /// Everything in NVM.
    NvmOnly,
    /// Named objects pinned in DRAM for the whole run (Fig. 4 and the
    /// X-Mem baseline feed this).
    Static {
        /// Object names pinned in DRAM for the whole run.
        in_dram: Vec<String>,
        /// Display label for reports.
        label: String,
    },
    /// The paper's runtime, with its ablation/config toggles.
    Unimem(UnimemConfig),
    /// Interval-based online guidance with sampled hotness feedback.
    OnlineGuidance,
    /// Hardware-managed DRAM cache over NVM.
    HwCache,
}

impl Policy {
    /// Display label used in reports. Borrowed — the static variants
    /// carry their labels in the binary, not in a fresh allocation.
    pub fn label(&self) -> &str {
        match self {
            Policy::DramOnly => "DRAM-only",
            Policy::NvmOnly => "NVM-only",
            Policy::Static { label, .. } => label,
            Policy::Unimem(_) => "Unimem",
            Policy::OnlineGuidance => "Online-guidance",
            Policy::HwCache => "HW-cache",
        }
    }

    /// The full Unimem runtime at its default configuration.
    pub fn unimem() -> Policy {
        Policy::Unimem(UnimemConfig::default())
    }

    /// Online guidance.
    pub fn online_guidance() -> Policy {
        Policy::OnlineGuidance
    }

    /// The hardware DRAM cache.
    pub fn hw_cache() -> Policy {
        Policy::HwCache
    }

    /// True when the policy can honour a non-constant DRAM lease (it
    /// manages placement, so it can evict when budget is revoked).
    pub fn supports_moving_lease(&self) -> bool {
        matches!(self, Policy::Unimem(_) | Policy::OnlineGuidance)
    }

    /// Build one rank's placement state (initial placement included).
    pub fn init_rank(&self, init: RankInit<'_>) -> Box<dyn RankState> {
        match self {
            Policy::DramOnly => fixed::init_rank(init, &[], true),
            Policy::NvmOnly => fixed::init_rank(init, &[], false),
            Policy::Static { in_dram, .. } => fixed::init_rank(init, in_dram, false),
            Policy::Unimem(cfg) => unimem::init_rank(cfg, init),
            Policy::OnlineGuidance => online::init_rank(init),
            Policy::HwCache => hwcache::init_rank(init),
        }
    }
}

/// Everything a policy may consult when building one rank's state.
pub struct RankInit<'a> {
    /// The (whole-node) machine model.
    pub machine: &'a MachineConfig,
    /// This rank's target objects, already registered. Mutable so a
    /// policy can partition large objects before placement.
    pub registry: &'a mut ObjectRegistry,
    /// The node-level DRAM grant service.
    pub service: &'a DramService,
    /// This rank's handle on the node's shared-bandwidth ledger.
    pub client: &'a BwClient,
    /// The per-iteration node DRAM lease.
    pub lease: &'a CapacitySchedule,
    /// The run's cache model. Unimem calibrates Eq. 1 against it and the
    /// rank's share of [`RankInit::machine`] ([`crate::calib`]).
    pub cache: &'a CacheModel,
    /// The rank's crash-consistency redo journal, when journaling is on.
    /// Policies that own a [`unimem_hms::MigrationEngine`] must attach it
    /// (`engine.with_journal(...)`) so migration intents are journaled
    /// before their copies start.
    pub journal: Option<unimem_hms::journal::JournalHandle>,
    /// This rank's id.
    pub rank: usize,
}

/// The driver-owned context a [`RankState`] hook runs against.
pub struct StepEnv<'a> {
    /// The rank's clock and time accounts. Hooks charge their own
    /// overhead here, each part under its [`crate::exec::Cause`];
    /// communication is driven by the executor between hook calls.
    pub time: &'a mut RankTime,
    /// The rank's object registry (frozen after init).
    pub registry: &'a ObjectRegistry,
    /// The node-level DRAM grant service.
    pub service: &'a DramService,
    /// The per-iteration node DRAM lease.
    pub lease: &'a CapacitySchedule,
    /// Total main-loop iterations of the run.
    pub iterations: usize,
    /// This rank's id.
    pub rank: usize,
}

/// Tier residency as the ground-truth timing model sees it for one
/// compute phase.
#[derive(Debug, Clone, Copy)]
pub enum TierView<'a> {
    /// Explicit per-unit residency: members of `in_dram` are served from
    /// DRAM, everything else from NVM; `all_dram` short-circuits for the
    /// DRAM-only baseline machine. Membership is one bit test per unit
    /// ([`UnitSet`]), since the timing model asks it for every access
    /// site of every phase.
    Sets {
        /// Units currently resident in DRAM.
        in_dram: &'a UnitSet,
        /// Every access is a DRAM access (infinite-DRAM baseline).
        all_dram: bool,
    },
    /// Hardware-managed DRAM cache: every unit's misses are served from
    /// DRAM with this hit fraction and from NVM otherwise.
    Fraction(f64),
}

/// Per-rank placement state: the lifecycle hooks the driver calls while
/// replaying the phase script. Every hook may charge its own overhead to
/// the rank's clock and count re-plans and re-profiles, through
/// [`StepEnv::time`].
///
/// Implementations must be deterministic — two runs with identical
/// inputs must produce byte-identical reports, which in practice means
/// no wall-clock, no global state, and randomness only through
/// `unimem_sim::DetRng`.
pub trait RankState {
    /// Iteration boundary: build dependency tables on the first pass,
    /// react to capacity-lease changes.
    fn iteration_begin(&mut self, _it: usize, _steps: &[StepSpec], _env: &mut StepEnv<'_>) {}

    /// Phase boundary, before the phase runs: enforcement (migration
    /// triggers, helper-queue sync).
    fn phase_begin(&mut self, _phase: PhaseId, _env: &mut StepEnv<'_>) {}

    /// The tier residency to charge for the phase about to run.
    fn view(&self) -> TierView<'_>;

    /// A compute phase ran for `time` touching `truths`.
    fn observe_compute(
        &mut self,
        _phase: PhaseId,
        _time: VDur,
        _truths: &[GroundTruth],
        _env: &mut StepEnv<'_>,
    ) {
    }

    /// A communication phase ran for `dt`.
    fn observe_comm(&mut self, _phase: PhaseId, _dt: VDur, _env: &mut StepEnv<'_>) {}

    /// Iteration boundary, after the last phase: per-epoch replanning.
    fn iteration_end(&mut self, _it: usize, _steps: &[StepSpec], _env: &mut StepEnv<'_>) {}

    /// End of run: the migration counters and which search kind won
    /// (Unimem only).
    fn finish(&self) -> (MigrationStats, Option<SearchKind>) {
        (MigrationStats::default(), None)
    }
}

/// Reference table from the script: a phase references the units of every
/// object its descriptors touch. Communication phases reference nothing
/// (packing traffic lives in the adjacent compute descriptors).
pub(crate) fn build_refs(steps: &[StepSpec], registry: &ObjectRegistry) -> PhaseRefTable {
    let mut refs = PhaseRefTable::new(steps.len());
    for (i, step) in steps.iter().enumerate() {
        if let StepSpec::Compute(spec) = step {
            for acc in &spec.accesses {
                for unit in registry.get(acc.obj).units() {
                    refs.add_ref(PhaseId(i as u32), unit);
                }
            }
        }
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_the_registry() {
        for id in PolicyId::ALL {
            assert_eq!(PolicyId::from_name(id.name()), Some(id));
            assert_eq!(PolicyId::from_name(&id.name().to_uppercase()), Some(id));
        }
        assert_eq!(PolicyId::from_name("no-such-policy"), None);
    }

    #[test]
    fn only_adaptive_policies_accept_moving_leases() {
        assert!(Policy::unimem().supports_moving_lease());
        assert!(Policy::online_guidance().supports_moving_lease());
        for p in [Policy::DramOnly, Policy::NvmOnly, Policy::hw_cache()] {
            assert!(!p.supports_moving_lease(), "{}", p.label());
        }
    }
}
