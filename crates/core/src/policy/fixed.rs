//! The fixed-assignment policies: DRAM-only, NVM-only, and named static
//! pins. None of them observe, replan, or migrate — their whole behaviour
//! is the [`TierView`] they report — so they share one inert rank state.

use super::{RankInit, RankState, TierView};
use unimem_hms::object::UnitSet;

/// Tier residency frozen at init: the only state a fixed policy has.
struct FixedRank {
    in_dram: UnitSet,
    all_dram: bool,
}

impl RankState for FixedRank {
    fn view(&self) -> TierView<'_> {
        TierView::Sets {
            in_dram: &self.in_dram,
            all_dram: self.all_dram,
        }
    }
}

/// Build one rank's frozen residency: every unit of the objects named
/// in `pins` in DRAM, or every access a DRAM access when `all_dram`
/// (the unlimited-DRAM baseline machine).
pub(super) fn init_rank(init: RankInit<'_>, pins: &[String], all_dram: bool) -> Box<dyn RankState> {
    let in_dram = pins
        .iter()
        .filter_map(|name| init.registry.lookup(name))
        .flat_map(|id| init.registry.get(id).units().collect::<Vec<_>>())
        .collect();
    Box::new(FixedRank { in_dram, all_dram })
}
