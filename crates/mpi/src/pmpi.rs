//! Transparent phase identification (the paper's PMPI wrapper).
//!
//! "Based on PMPI, we can transparently identify execution phases and
//! control profiling without programmer intervention. … The wrapper … uses
//! a global counter to identify phases." (§3.3)
//!
//! [`PhaseTracker`] is that counter. The executor calls it while replaying
//! a rank's step stream: computation between two MPI calls is one phase,
//! each blocking MPI call (or `MPI_Wait`) is a communication phase, and a
//! non-blocking post (`MPI_Isend`/`MPI_Irecv`) is *not* a phase — it merges
//! into the phase that follows (§2.1). Because iterative applications
//! repeat the same call sequence, the counter resets at `unimem_start`'s
//! loop head and phase *k* of every iteration denotes the same program
//! region.

use std::fmt;

/// Stable identifier of a program phase within the main loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhaseId(pub u32);

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase{}", self.0)
    }
}

/// Whether a phase is computation or communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    Compute,
    Comm,
}

/// The per-rank phase counter.
#[derive(Debug, Clone, Default)]
pub struct PhaseTracker {
    next: u32,
    iteration: u64,
    /// Phase count of the first completed iteration; later iterations must
    /// match (the iterative-structure assumption of §2.1), checked in
    /// debug builds.
    first_iter_phases: Option<u32>,
}

impl PhaseTracker {
    pub fn new() -> PhaseTracker {
        PhaseTracker::default()
    }

    /// Mark the head of the main computation loop (`unimem_start` /
    /// top of each iteration). Resets the counter.
    pub fn begin_iteration(&mut self) {
        if self.iteration > 0 {
            match self.first_iter_phases {
                None => self.first_iter_phases = Some(self.next),
                Some(n) => {
                    debug_assert_eq!(n, self.next, "phase structure changed between iterations")
                }
            }
        }
        self.next = 0;
        self.iteration += 1;
    }

    /// Current iteration number (1-based once the loop started).
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Number of phases per iteration, known after the first iteration.
    pub fn phases_per_iteration(&self) -> Option<u32> {
        self.first_iter_phases.or({
            if self.iteration > 1 {
                Some(self.next)
            } else {
                None
            }
        })
    }

    /// Allocate the id for the phase now beginning.
    pub fn next_phase(&mut self) -> PhaseId {
        let id = PhaseId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_count_up_within_iteration() {
        let mut t = PhaseTracker::new();
        t.begin_iteration();
        assert_eq!(t.next_phase(), PhaseId(0));
        assert_eq!(t.next_phase(), PhaseId(1));
        assert_eq!(t.next_phase(), PhaseId(2));
    }

    #[test]
    fn ids_repeat_across_iterations() {
        let mut t = PhaseTracker::new();
        t.begin_iteration();
        let a0 = t.next_phase();
        let _a1 = t.next_phase();
        t.begin_iteration();
        let b0 = t.next_phase();
        assert_eq!(a0, b0);
        assert_eq!(t.iteration(), 2);
    }

    #[test]
    fn phase_count_known_after_first_iteration() {
        let mut t = PhaseTracker::new();
        t.begin_iteration();
        t.next_phase();
        t.next_phase();
        assert_eq!(t.phases_per_iteration(), None);
        t.begin_iteration();
        assert_eq!(t.phases_per_iteration(), Some(2));
    }

    #[test]
    #[should_panic(expected = "phase structure changed")]
    #[cfg(debug_assertions)]
    fn varying_structure_is_caught() {
        let mut t = PhaseTracker::new();
        t.begin_iteration();
        t.next_phase();
        t.begin_iteration();
        t.next_phase();
        t.next_phase();
        t.begin_iteration();
    }
}
