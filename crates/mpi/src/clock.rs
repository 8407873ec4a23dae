//! Per-rank virtual clock.
//!
//! The segmented executor runs rank code in host-scheduled segments
//! between communication points and resolves every communication point
//! centrally. Inside a segment a rank only needs `now`/`advance`; at a
//! communication point the executor [`RankClock::set`]s the resolved
//! departure time.

use unimem_sim::{VDur, VTime};

/// A bare per-rank virtual clock. It holds no shared handle, so a rank
/// segment that owns one is trivially `Send`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankClock {
    rank: usize,
    nranks: usize,
    clock: VTime,
}

impl RankClock {
    pub fn new(rank: usize, nranks: usize) -> RankClock {
        assert!(rank < nranks);
        RankClock {
            rank,
            nranks,
            clock: VTime::ZERO,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    pub fn now(&self) -> VTime {
        self.clock
    }

    /// Advance the local clock by computation time.
    pub fn advance(&mut self, d: VDur) {
        self.clock += d;
    }

    /// Jump the clock to a centrally resolved instant (a collective's
    /// synchronized departure, a halo's last arrival). Never moves the
    /// clock backwards.
    pub fn set(&mut self, t: VTime) {
        debug_assert!(t >= self.clock, "clock may not run backwards");
        self.clock = t;
    }
}
