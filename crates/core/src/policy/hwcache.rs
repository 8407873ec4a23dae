//! DRAM as a hardware-managed cache over NVM (after Wen et al.,
//! "Hardware Memory Management for Future Mobile Hybrid Memory
//! Systems"): no software placement at all — every miss from the CPU
//! cache hierarchy probes a set-associative DRAM cache in front of NVM.
//!
//! The hit model is deliberately simple and fully analytic. Each
//! iteration observes the footprint actually touched (the union of
//! units with main-memory misses) and serves the *next* iteration with
//! a uniform DRAM-hit fraction
//!
//! ```text
//! h = min(1, C_eff / W),   C_eff = per-rank DRAM share · (1 − 1/(2a))
//! ```
//!
//! where `a` is the associativity — the `1/(2a)` term is the standard
//! conflict-miss discount for a set-associative array under a uniform
//! working set. The first iteration runs cold (`h = 0`). Each NVM-served
//! miss fills its line into DRAM: the fill is a DRAM-write flow over the
//! phase window on the shared `BwLedger`, so co-located ranks pay for
//! cache fills as they pay for helper-thread copies. The NVM read behind
//! a fill is the demand miss itself, which the timing model already
//! charges, so the fill posts no second NVM read.
//!
//! There is no sampling, no RNG, and no decision thread: zero software
//! overhead (the paper's selling point for hardware management), at the
//! price of no phase awareness and cache-filtered hit behaviour that
//! tracks the footprint, not the benefit.

use super::{RankInit, RankState, StepEnv, TierView};
use crate::comm::PhaseId;
use unimem_hms::contention::BwClient;
use unimem_hms::object::{GroundTruth, UnitSet};
use unimem_hms::tier::TierKind;
use unimem_sim::{Bytes, VDur, VTime};

/// Set associativity of the DRAM cache (the conflict-miss discount is
/// `1 − 1/(2·ASSOC)`).
const ASSOC: u32 = 8;

/// Build one rank's cache state: cold (no DRAM hits) until the first
/// iteration has shown the footprint.
pub(super) fn init_rank(init: RankInit<'_>) -> Box<dyn RankState> {
    let cap_eff = init.service.per_rank(init.rank, init.lease.at(0)).as_f64()
        * (1.0 - 1.0 / (2.0 * f64::from(ASSOC)));
    Box::new(HwCacheRank {
        cap_eff,
        frac: 0.0,
        touched: UnitSet::new(),
        client: init.client.clone(),
        phase_start: VTime::ZERO,
    })
}

/// Per-rank hardware-cache state.
struct HwCacheRank {
    /// Effective cache capacity in bytes (associativity-discounted
    /// per-rank DRAM share).
    cap_eff: f64,
    /// DRAM-hit fraction served during the current iteration.
    frac: f64,
    /// Units with main-memory misses this iteration (next iteration's
    /// resident-footprint estimate).
    touched: UnitSet,
    client: BwClient,
    phase_start: VTime,
}

impl RankState for HwCacheRank {
    fn phase_begin(&mut self, _phase: PhaseId, env: &mut StepEnv<'_>) {
        // Hardware management costs the software nothing; remember the
        // phase window for the fill-traffic flows.
        self.phase_start = env.time.now();
    }

    fn view(&self) -> TierView<'_> {
        TierView::Fraction(self.frac)
    }

    fn observe_compute(
        &mut self,
        _phase: PhaseId,
        _time: VDur,
        truths: &[GroundTruth],
        env: &mut StepEnv<'_>,
    ) {
        let mut nvm_bytes = 0.0;
        for t in truths {
            if t.misses > 0 {
                self.touched.insert(t.unit);
                nvm_bytes += t.miss_bytes.as_f64() * (1.0 - self.frac);
            }
        }
        // Cache fills write the NVM-served bytes into DRAM during the
        // phase; post them on the shared ledger so co-located ranks'
        // overlapping phases contend with the fill stream.
        let fill = Bytes(nvm_bytes as u64);
        if !fill.is_zero() {
            self.client
                .post_write(TierKind::Dram, self.phase_start, env.time.now(), fill);
        }
    }

    fn iteration_end(
        &mut self,
        _it: usize,
        _steps: &[crate::exec::StepSpec],
        env: &mut StepEnv<'_>,
    ) {
        let footprint: f64 = self
            .touched
            .iter()
            .map(|u| env.registry.unit_size(u).as_f64())
            .sum();
        self.frac = if footprint > 0.0 {
            (self.cap_eff / footprint).min(1.0)
        } else {
            1.0
        };
        self.touched.clear();
    }
}
