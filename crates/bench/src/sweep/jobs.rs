//! Flat job enumeration and the deterministic worker pool behind
//! [`crate::sweep::runner::run_sweep_cached`].
//!
//! The serial runner walked the matrix in nested loops, leaving all but
//! one core idle. This module splits that walk into two data-parallel
//! stages over an explicit job vector:
//!
//! 1. **rows** — one DRAM-only baseline per (profile, ranks, workload)
//!    row, since every policy cell of a row normalizes against it;
//! 2. **cells** — every remaining matrix cell, each referencing its
//!    row's finished baseline.
//!
//! Jobs carry their index in the canonical (profile, ranks, workload,
//! policy) order, and [`run_pool`] reassembles results by that index, so
//! the output is a pure function of the input — byte-identical to the
//! serial walk regardless of worker count or scheduling. Workers run on
//! [`std::thread::scope`] and claim job indices from one atomic cursor;
//! a job that returns `Err` or panics surfaces as the pool's `Err`
//! (first failing job index wins, deterministically) instead of
//! deadlocking the caller.
//!
//! The pool itself lives in [`unimem_sim::pool`]; only the sweep runs
//! jobs on it, and the re-exports below keep this module the
//! bench-facing entry point.

use crate::sweep::matrix::{NvmProfile, PolicyKind, SweepConfig};

pub use unimem_sim::pool::{default_workers, run_pool, with_label};

/// One (profile, topology, ranks, ranks-per-node, workload) row of the
/// matrix: the unit that shares a DRAM-only baseline. Fields index into
/// the canonicalized config axes and the runner's workload selection.
/// The baseline is topology-specific — a cell in a 16-node room
/// normalizes against DRAM-only *in that room*, so link costs cancel
/// out of `normalized_to_dram` and the ratio stays a placement signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowJob {
    /// NVM profile (machine) of the row.
    pub profile: NvmProfile,
    /// Rank count of the row.
    pub nranks: usize,
    /// Ranks packed per node (the contention axis).
    pub ranks_per_node: usize,
    /// Index into the config's `topologies` axis.
    pub topology: usize,
    /// Index into the runner's `select()`-resolved workload list.
    pub workload: usize,
}

/// One matrix cell: a row plus the policy to run, and the index of its
/// row's baseline in the stage-1 result vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellJob {
    /// The (profile, ranks, workload) row this cell belongs to.
    pub row: RowJob,
    /// Index of this cell's row in [`enumerate_rows`]'s output.
    pub baseline: usize,
    /// The placement policy to run.
    pub policy: PolicyKind,
}

/// Stage-1 job vector: rows in canonical (profile, topology, ranks,
/// ranks-per-node, workload) order. Layouts whose `ranks_per_node`
/// exceeds the rank count are skipped (see
/// [`SweepConfig::rank_layouts`]), and clustered topologies contribute
/// rows only where they apply (see
/// [`crate::sweep::matrix::TopologySpec::applies_to`]). With the default
/// `[TopologySpec::Flat]` axis this is exactly the historical
/// enumeration.
pub fn enumerate_rows(cfg: &SweepConfig, n_workloads: usize) -> Vec<RowJob> {
    let mut rows = Vec::new();
    for &profile in &cfg.profiles {
        for (topology, t) in cfg.topologies.iter().enumerate() {
            for (nranks, ranks_per_node) in cfg.layouts_for(profile, t) {
                for workload in 0..n_workloads {
                    rows.push(RowJob {
                        profile,
                        nranks,
                        ranks_per_node,
                        topology,
                        workload,
                    });
                }
            }
        }
    }
    rows
}

/// Stage-2 job vector: every cell in canonical (profile, ranks, workload,
/// policy) order — the exact order the serial runner produced and the
/// report serializes in.
pub fn enumerate_cells(cfg: &SweepConfig, rows: &[RowJob]) -> Vec<CellJob> {
    let mut cells = Vec::with_capacity(rows.len() * cfg.policies.len());
    for (baseline, &row) in rows.iter().enumerate() {
        for &policy in &cfg.policies {
            cells.push(CellJob {
                row,
                baseline,
                policy,
            });
        }
    }
    cells
}

/// One co-run job: a mix on a profile, executed under *every* configured
/// arbitration policy (stage 3; independent of the single-tenant
/// stages). The arbitration policies share a job because each tenant's
/// solo baseline is policy-independent: one job computes the solos once
/// and reuses them across policies. Expands into one report cell per
/// (arbiter, tenant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorunJob {
    /// The NVM profile (machine) the co-run executes on.
    pub profile: NvmProfile,
    /// Rank count ([`SweepConfig::corun_ranks`]).
    pub nranks: usize,
    /// Index into the config's `coruns` axis.
    pub mix: usize,
}

/// Stage-3 job vector: co-runs in canonical (profile, mix) order.
pub fn enumerate_coruns(cfg: &SweepConfig) -> Vec<CorunJob> {
    let Some(nranks) = cfg.corun_ranks() else {
        return Vec::new();
    };
    if cfg.arbiters.is_empty() {
        return Vec::new();
    }
    let mut jobs = Vec::with_capacity(cfg.profiles.len() * cfg.coruns.len());
    for &profile in &cfg.profiles {
        for mix in 0..cfg.coruns.len() {
            jobs.push(CorunJob {
                profile,
                nranks,
                mix,
            });
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::matrix::TopologySpec;
    use unimem_workloads::Class;

    fn cfg() -> SweepConfig {
        SweepConfig {
            class: Class::C,
            workloads: vec!["CG".into(), "LU".into()],
            policies: vec![PolicyKind::DramOnly, PolicyKind::Unimem],
            profiles: vec![NvmProfile::BwHalf, NvmProfile::Lat4x],
            ranks: vec![1, 4],
            ranks_per_node: vec![1, 2],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: vec![],
            arbiters: vec![],
        }
    }

    #[test]
    fn rows_and_cells_enumerate_in_canonical_order() {
        let c = cfg();
        let rows = enumerate_rows(&c, 2);
        // Layouts: (1,1), (4,1), (4,2) — rpn=2 is skipped at 1 rank.
        assert_eq!(rows.len(), 2 * 3 * 2);
        // Profile is the outermost axis, workload the innermost.
        assert_eq!(rows[0].profile, NvmProfile::BwHalf);
        assert_eq!(
            (rows[0].nranks, rows[0].ranks_per_node, rows[0].workload),
            (1, 1, 0)
        );
        assert_eq!((rows[1].nranks, rows[1].workload), (1, 1));
        assert_eq!((rows[2].nranks, rows[2].ranks_per_node), (4, 1));
        assert_eq!((rows[4].nranks, rows[4].ranks_per_node), (4, 2));
        assert_eq!(rows[6].profile, NvmProfile::Lat4x);

        let cells = enumerate_cells(&c, &rows);
        assert_eq!(cells.len(), rows.len() * 2);
        // Policy is the innermost axis; baseline indices follow rows.
        assert_eq!(cells[0].policy, PolicyKind::DramOnly);
        assert_eq!(cells[1].policy, PolicyKind::Unimem);
        assert_eq!(cells[0].baseline, 0);
        assert_eq!(cells[2].baseline, 1);
        assert_eq!(cells[1].row, rows[0]);
    }

    #[test]
    fn clustered_rows_append_after_flat_and_share_the_rank_layouts() {
        let mut c = cfg();
        c.topologies.push(TopologySpec::Nodes { count: 4 });
        let rows = enumerate_rows(&c, 2);
        // Per profile: 3 flat layouts + one clustered (4, 1) row, × 2
        // workloads each.
        assert_eq!(rows.len(), 2 * (3 + 1) * 2);
        // Flat rows of a profile come first (topology is inside profile,
        // outside layout), so the historical prefix is preserved per
        // profile block.
        assert_eq!(rows[0].topology, 0);
        let clustered: Vec<&RowJob> = rows.iter().filter(|r| r.topology == 1).collect();
        assert_eq!(clustered.len(), 4);
        for r in &clustered {
            assert_eq!((r.nranks, r.ranks_per_node), (4, 1));
        }
        // Baseline indices in cells still follow row order.
        let cells = enumerate_cells(&c, &rows);
        assert_eq!(cells.len(), rows.len() * 2);
        assert_eq!(cells.last().unwrap().baseline, rows.len() - 1);
    }

    #[test]
    fn pool_reexport_stays_wired() {
        // The pool proper is tested in `unimem_sim::pool`; this pins the
        // re-export so downstream `jobs::run_pool` callers keep working.
        let got = run_pool((0..4u64).collect(), 2, |&j| Ok(j + 1)).unwrap();
        assert_eq!(got, vec![1, 2, 3, 4]);
    }
}
