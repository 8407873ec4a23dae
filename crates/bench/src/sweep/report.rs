//! `BENCH_sweep.json` emission: a deterministic, machine-readable form of
//! a [`SweepReport`].
//!
//! Schema (`unimem-bench-sweep/v5`):
//!
//! ```text
//! {
//!   "schema":    "unimem-bench-sweep/v5",
//!   "class":     "C",
//!   "workloads": ["CG", ...],
//!   "policies":  ["unimem", ...],
//!   "profiles":  ["bw-half", ...],
//!   "ranks":     [4, ...],
//!   "ranks_per_node": [1, 2, ...],
//!   "topologies": ["flat", "nodes16", ...],   // only off the flat default
//!   "mixes":     ["CG+FT", ...],
//!   "arbiters":  ["fair-share", ...],
//!   "n_cells":   112,
//!   "n_corun_cells": 6,
//!   "cells": [
//!     {
//!       "workload": "CG", "full_name": "CG.C",
//!       "policy": "unimem", "profile": "bw-half",
//!       "nranks": 4, "ranks_per_node": 2,
//!       "topology": "nodes16",                // only on clustered cells
//!       "time_s": ..., "normalized_to_dram": ...,
//!       "plan_kind": "global"|"local"|null,
//!       "migration_count": ..., "migrated_bytes": ...,
//!       "overlap_pct": <pct>|null,
//!       "contention_time_s": ..., "neighbor_contention_time_s": ...,
//!       "pure_runtime_cost": ..., "reprofiles": ...,
//!       "run": { <full RunReport: job + per-rank stats> }
//!     }, ...
//!   ],
//!   "corun_cells": [
//!     {
//!       "mix": "CG+FT", "workload": "CG", "tenant": "CG",
//!       "weight": 4, "start_epoch": 0,
//!       "arbiter": "priority", "profile": "bw-half", "nranks": 4,
//!       "time_s": ..., "solo_time_s": ..., "slowdown": ...,
//!       "lease_min": ..., "lease_max": ..., "lease_replans": ...,
//!       "run": { <full co-run RunReport> }
//!     }, ...
//!   ]
//! }
//! ```
//!
//! v5 adds the cluster-topology axis: a `topologies` list and a per-cell
//! `topology` name, both emitted **only when clustered rooms are
//! configured** — a sweep of the default flat world serializes exactly
//! as v4 did apart from the schema tag, so the committed golden needed a
//! tag bump and nothing else. Clustered cells run the hierarchical
//! collective path (`unimem::exec::run_workload_clustered`) and
//! normalize against a DRAM-only baseline in the same machine room.
//!
//! v4 widens the `policies` axis to the full placement-policy registry
//! (`unimem::policy::PolicyId`): two new entries, `online-guidance`
//! (interval-sampled hotness promotion, Olson et al.) and `hw-cache`
//! (hardware-managed DRAM cache over NVM, Wen et al.). No per-cell
//! field changed — a v3 reader that ignores unknown policy names can
//! read a v4 report.
//!
//! v3 adds the shared-bandwidth contention axis: a `ranks_per_node` axis
//! list, per-cell `ranks_per_node`, and per-cell contention stats
//! (`contention_time_s`, `neighbor_contention_time_s` — extra compute
//! time from helper traffic sharing the tier pools, total and the
//! neighbor-caused portion). `overlap_pct` became nullable: a run that
//! never migrated reports `null`, not a vacuous `100`.
//!
//! v2 added the multi-tenant co-run section (`mixes`, `arbiters`,
//! `n_corun_cells`, `corun_cells[]`): per-tenant slowdown vs. solo under
//! each arbitration policy, with the lease range the arbiter granted.
//!
//! Identical sweeps serialize to byte-identical text (insertion-ordered
//! members, shortest-round-trip floats); the determinism conformance
//! check compares these bytes across repeated runs.

use crate::sweep::matrix::TopologySpec;
use crate::sweep::runner::{CorunCell, SweepCell, SweepReport};
use std::io;
use std::path::Path;
use unimem_sim::Json;

/// The schema tag written to `BENCH_sweep.json`.
pub const SCHEMA: &str = "unimem-bench-sweep/v5";

impl SweepCell {
    /// Deterministic JSON form of one single-tenant cell.
    pub fn to_json(&self) -> Json {
        let job = &self.report.job;
        // Clustered cells name their room; flat cells keep the exact v4
        // byte shape.
        let clustered = self.topology != TopologySpec::Flat;
        let mut o = Json::obj_with_capacity(17 + usize::from(clustered));
        o.field("workload", self.workload.as_str())
            .field("full_name", self.full_name.as_str())
            .field("policy", self.policy.name())
            .field("profile", self.profile.name())
            .field("nranks", self.nranks)
            .field("ranks_per_node", self.ranks_per_node);
        if clustered {
            o.field("topology", self.topology.name());
        }
        o.field("time_s", self.time_s())
            .field("normalized_to_dram", self.normalized_to_dram)
            .field("plan_kind", self.report.plan_kind_json())
            .field("migration_count", job.migration_count())
            .field("migrated_bytes", job.migrated_bytes())
            .field("overlap_pct", job.overlap_pct())
            .field("contention_time_s", job.contention_time)
            .field("neighbor_contention_time_s", job.neighbor_contention_time)
            .field("pure_runtime_cost", job.pure_runtime_cost())
            .field("reprofiles", job.reprofiles)
            .field("run", self.report.to_json());
        o
    }
}

impl CorunCell {
    /// Deterministic JSON form of one per-tenant co-run cell.
    pub fn to_json(&self) -> Json {
        let job = &self.report.job;
        let mut o = Json::obj_with_capacity(15);
        o.field("mix", self.mix.as_str())
            .field("workload", self.workload.as_str())
            .field("tenant", self.tenant.as_str())
            .field("weight", u64::from(self.weight))
            .field("start_epoch", self.start_epoch)
            .field("arbiter", self.arbiter.name())
            .field("profile", self.profile.name())
            .field("nranks", self.nranks)
            .field("time_s", self.time_s())
            .field("solo_time_s", self.solo_time_s)
            .field("slowdown", self.slowdown)
            .field("lease_min", self.lease_min)
            .field("lease_max", self.lease_max)
            .field("lease_replans", job.lease_replans)
            .field("run", self.report.to_json());
        o
    }
}

impl SweepReport {
    /// Deterministic JSON form of the whole sweep (schema above).
    pub fn to_json(&self) -> Json {
        let cfg = &self.config;
        let strings = |v: Vec<&str>| Json::Arr(v.into_iter().map(Json::from).collect());
        // The topology axis appears only when clustered rooms are
        // configured, so a default (flat-only) sweep's report differs
        // from v4 by the schema tag alone.
        let clustered = cfg.topologies != [TopologySpec::Flat];
        let mut o = Json::obj_with_capacity(13 + usize::from(clustered));
        o.field("schema", SCHEMA)
            .field("class", cfg.class.name())
            .field(
                "workloads",
                strings(cfg.workloads.iter().map(String::as_str).collect()),
            )
            .field(
                "policies",
                strings(cfg.policies.iter().map(|p| p.name()).collect()),
            )
            .field(
                "profiles",
                strings(cfg.profiles.iter().map(|p| p.name()).collect()),
            )
            .field(
                "ranks",
                Json::Arr(cfg.ranks.iter().map(|&r| Json::from(r)).collect()),
            )
            .field(
                "ranks_per_node",
                Json::Arr(cfg.ranks_per_node.iter().map(|&r| Json::from(r)).collect()),
            );
        if clustered {
            o.field(
                "topologies",
                Json::Arr(
                    cfg.topologies
                        .iter()
                        .map(|t| Json::from(t.name()))
                        .collect(),
                ),
            );
        }
        o.field(
            "mixes",
            Json::Arr(cfg.coruns.iter().map(|m| Json::from(m.label())).collect()),
        )
        .field(
            "arbiters",
            strings(cfg.arbiters.iter().map(|a| a.name()).collect()),
        )
        .field("n_cells", self.cells.len())
        .field("n_corun_cells", self.corun_cells.len())
        .field(
            "cells",
            Json::Arr(self.cells.iter().map(SweepCell::to_json).collect()),
        )
        .field(
            "corun_cells",
            Json::Arr(self.corun_cells.iter().map(CorunCell::to_json).collect()),
        );
        o
    }

    /// Write the pretty JSON form to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::jobs::default_workers;
    use crate::sweep::matrix::{NvmProfile, PolicyKind, SweepConfig};
    use crate::sweep::runner::run_sweep_cached;
    use unimem_workloads::Class;

    fn micro_cfg() -> SweepConfig {
        SweepConfig {
            class: Class::C,
            workloads: vec!["LU".into()],
            policies: vec![
                PolicyKind::DramOnly,
                PolicyKind::NvmOnly,
                PolicyKind::Unimem,
            ],
            profiles: vec![NvmProfile::BwHalf],
            ranks: vec![2],
            ranks_per_node: vec![1],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: vec![],
            arbiters: vec![],
        }
    }

    fn micro_report() -> SweepReport {
        run_sweep_cached(&micro_cfg(), default_workers(), None).unwrap()
    }

    #[test]
    fn json_has_schema_axes_and_cells() {
        let j = micro_report().to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(j.get("class").and_then(Json::as_str), Some("C"));
        assert_eq!(j.get("n_cells").and_then(Json::as_f64), Some(3.0));
        let cells = j.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 3);
        for c in cells {
            assert!(c.get("time_s").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(c.get("run").and_then(|r| r.get("job")).is_some());
            assert!(c.get("normalized_to_dram").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    fn topology_keys_appear_only_off_the_flat_default() {
        // Flat-only sweep: no topology keys anywhere (v4 byte shape).
        let flat = micro_report().to_json();
        assert!(flat.get("topologies").is_none());
        for c in flat.get("cells").and_then(Json::as_arr).unwrap() {
            assert!(c.get("topology").is_none());
        }
        // Clustered rooms turn both keys on, but flat cells stay bare.
        let mut cfg = micro_cfg();
        cfg.topologies.push(TopologySpec::Nodes { count: 2 });
        let j = run_sweep_cached(&cfg, default_workers(), None)
            .unwrap()
            .to_json();
        let axis = j.get("topologies").and_then(Json::as_arr).unwrap();
        assert_eq!(axis.len(), 2);
        assert_eq!(axis[1].as_str(), Some("nodes2"));
        let cells = j.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 6);
        let named: Vec<Option<&str>> = cells
            .iter()
            .map(|c| c.get("topology").and_then(Json::as_str))
            .collect();
        assert_eq!(
            named,
            [
                None,
                None,
                None,
                Some("nodes2"),
                Some("nodes2"),
                Some("nodes2")
            ]
        );
    }

    #[test]
    fn serialization_is_byte_identical_across_sweeps() {
        let a = micro_report().to_json().to_pretty();
        let b = micro_report().to_json().to_pretty();
        assert_eq!(a, b);
    }
}
