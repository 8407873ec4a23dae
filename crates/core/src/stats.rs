//! Run statistics: everything Table 4 and the harness summaries report.

use unimem_hms::MigrationStats;
use unimem_sim::{Bytes, Json, VDur};

/// Statistics of one rank's run under one policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total virtual execution time of the rank.
    pub total_time: VDur,
    /// Time spent in application phases (compute + comm), excluding
    /// runtime-induced costs.
    pub app_time: VDur,
    /// Profiling overhead (sampler windows).
    pub profiling_overhead: VDur,
    /// Modeling + knapsack decision cost.
    pub modeling_overhead: VDur,
    /// Helper-thread queue synchronization cost at phase boundaries.
    pub sync_overhead: VDur,
    /// Stall time waiting for in-flight migrations (exposed movement cost).
    pub migration_stall: VDur,
    /// Extra compute time caused by shared-bandwidth contention: helper
    /// copies (own and neighbors') drawing from the tier pools this
    /// rank's phases stream on.
    pub contention_time: VDur,
    /// The portion of [`RunStats::contention_time`] attributable to
    /// *other* ranks' helper traffic on the same node — the "my neighbor
    /// migrated and I slowed down" signal the `migration-contention`
    /// conformance check asserts on.
    pub neighbor_contention_time: VDur,
    /// Migration engine counters.
    pub migrations: MigrationStats,
    /// Times the variation monitor re-triggered profiling.
    pub reprofiles: u64,
    /// Times a DRAM-lease change (arbiter grant or revocation) forced a
    /// placement re-run at an iteration boundary.
    pub lease_replans: u64,
    /// Iterations executed.
    pub iterations: u64,
}

impl RunStats {
    /// Table 4's "pure runtime cost": counters + modeling + sync, as a
    /// fraction of total time. Excludes data movement cost and benefit.
    pub fn pure_runtime_cost(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        (self.profiling_overhead + self.modeling_overhead + self.sync_overhead)
            .ratio(self.total_time)
    }

    /// Table 4's "% overlap"; `None` (JSON `null`) when nothing migrated.
    pub fn overlap_pct(&self) -> Option<f64> {
        self.migrations.overlap_pct()
    }

    /// Table 4's "Times of Migration".
    pub fn migration_count(&self) -> u64 {
        self.migrations.count
    }

    /// Table 4's "Migrated data size".
    pub fn migrated_bytes(&self) -> Bytes {
        self.migrations.bytes
    }

    /// Deterministic JSON form: every timing in seconds, counters as
    /// integers, plus the derived Table-4 figures. Member order is fixed,
    /// so equal stats serialize to byte-identical text.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj_with_capacity(17);
        o.field("total_time_s", self.total_time)
            .field("app_time_s", self.app_time)
            .field("profiling_overhead_s", self.profiling_overhead)
            .field("modeling_overhead_s", self.modeling_overhead)
            .field("sync_overhead_s", self.sync_overhead)
            .field("migration_stall_s", self.migration_stall)
            .field("contention_time_s", self.contention_time)
            .field("neighbor_contention_time_s", self.neighbor_contention_time)
            .field("migration_count", self.migrations.count)
            .field("migrated_bytes", self.migrations.bytes)
            .field("migrations_to_dram", self.migrations.to_dram_count)
            .field("migrations_to_nvm", self.migrations.to_nvm_count)
            .field("overlap_pct", self.overlap_pct())
            .field("pure_runtime_cost", self.pure_runtime_cost())
            .field("reprofiles", self.reprofiles)
            .field("lease_replans", self.lease_replans)
            .field("iterations", self.iterations);
        o
    }

    /// Merge a peer rank's stats (for job-wide maxima/sums the harnesses
    /// print). Times take the max (job finishes with the slowest rank),
    /// counters sum.
    pub fn merge_job(&mut self, other: &RunStats) {
        self.total_time = self.total_time.max(other.total_time);
        self.app_time = self.app_time.max(other.app_time);
        self.profiling_overhead = self.profiling_overhead.max(other.profiling_overhead);
        self.modeling_overhead = self.modeling_overhead.max(other.modeling_overhead);
        self.sync_overhead = self.sync_overhead.max(other.sync_overhead);
        self.migration_stall = self.migration_stall.max(other.migration_stall);
        self.contention_time = self.contention_time.max(other.contention_time);
        self.neighbor_contention_time = self
            .neighbor_contention_time
            .max(other.neighbor_contention_time);
        self.migrations.merge(&other.migrations);
        self.reprofiles += other.reprofiles;
        self.lease_replans += other.lease_replans;
        self.iterations = self.iterations.max(other.iterations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_runtime_cost_fraction() {
        let s = RunStats {
            total_time: VDur::from_secs(10.0),
            profiling_overhead: VDur::from_millis(100.0),
            modeling_overhead: VDur::from_millis(50.0),
            sync_overhead: VDur::from_millis(50.0),
            ..RunStats::default()
        };
        assert!((s.pure_runtime_cost() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn zero_time_guards() {
        let s = RunStats::default();
        assert_eq!(s.pure_runtime_cost(), 0.0);
        assert_eq!(s.overlap_pct(), None, "no migrations, no overlap figure");
        assert_eq!(s.to_json().get("overlap_pct"), Some(&Json::Null));
    }

    #[test]
    fn json_form_is_stable_and_complete() {
        let mut s = RunStats {
            total_time: VDur::from_secs(10.0),
            profiling_overhead: VDur::from_millis(100.0),
            reprofiles: 2,
            iterations: 6,
            ..RunStats::default()
        };
        s.migrations.count = 3;
        s.migrations.bytes = Bytes::mib(7);
        let j = s.to_json();
        assert_eq!(j.get("migration_count").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(
            j.get("migrated_bytes").and_then(|v| v.as_f64()),
            Some((7u64 << 20) as f64)
        );
        assert_eq!(j.get("iterations").and_then(|v| v.as_f64()), Some(6.0));
        // Byte-identical across repeated serialization of equal values.
        assert_eq!(s.to_json().to_compact(), s.clone().to_json().to_compact());
    }

    #[test]
    fn job_merge_maxes_times_sums_counters() {
        let mut a = RunStats {
            total_time: VDur::from_secs(10.0),
            reprofiles: 1,
            ..RunStats::default()
        };
        a.migrations.count = 3;
        let mut b = RunStats {
            total_time: VDur::from_secs(12.0),
            reprofiles: 2,
            ..RunStats::default()
        };
        b.migrations.count = 5;
        a.merge_job(&b);
        assert_eq!(a.total_time, VDur::from_secs(12.0));
        assert_eq!(a.reprofiles, 3);
        assert_eq!(a.migrations.count, 8);
    }
}
