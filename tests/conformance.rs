//! Paper-claim conformance on the reduced evaluation matrix (tier-1).
//!
//! Runs the same reduced matrix as `cargo run --release --example sweep`
//! (CLASS C, 4 ranks, both emulation-anchor NVM profiles, all 7 workloads
//! × all 6 policies) and asserts the claims of Figs. 9/10 and Table 4:
//!
//! * Unimem tracks DRAM-only within the documented tolerance,
//! * Unimem never loses to NVM-only (beyond runtime-overhead slack),
//! * Unimem beats the X-Mem static placement on Nek5000's drift,
//! * pure runtime cost stays within the paper's bound,
//! * reports are byte-identical across repeated runs,
//! * co-run cells exist and satisfy the tenant-QoS claim: under
//!   `priority` arbitration a weighted tenant never degrades more than
//!   its best-effort peers.
//!
//! The sweep runs once (OnceLock) and every test interrogates the shared
//! report, so the suite's cost stays one reduced matrix.

use std::sync::OnceLock;
use unimem_repro::bench::sweep::{
    check_determinism, check_report, default_workers, run_sweep_cached, NvmProfile, PolicyKind,
    SweepConfig, SweepReport, Tolerances,
};
use unimem_repro::sim::Json;

fn reduced() -> &'static SweepReport {
    static REPORT: OnceLock<SweepReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        run_sweep_cached(&SweepConfig::reduced(), default_workers(), None)
            .expect("reduced matrix runs")
    })
}

#[test]
fn reduced_matrix_has_full_coverage() {
    let rep = reduced();
    let cfg = &rep.config;
    assert!(
        cfg.policies.len() >= 6,
        "matrix covers the whole policy registry"
    );
    assert!(
        cfg.workloads.len() >= 5,
        "matrix covers at least five workloads"
    );
    assert_eq!(rep.cells.len(), cfg.n_cells(), "no cell silently dropped");
    assert!(
        cfg.rank_layouts().iter().any(|&(_, rpn)| rpn >= 2),
        "reduced matrix exercises a packed node layout"
    );
    // Every coordinate is actually present.
    for &profile in &cfg.profiles {
        for &(nranks, rpn) in &cfg.rank_layouts() {
            for w in &cfg.workloads {
                for &policy in &cfg.policies {
                    assert!(
                        rep.get(w, policy, profile, nranks, rpn).is_some(),
                        "missing cell {w}/{}/r{nranks}x{rpn}/{}",
                        profile.name(),
                        policy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn paper_claims_hold_on_reduced_matrix() {
    let violations = check_report(reduced(), &Tolerances::default());
    assert!(
        violations.is_empty(),
        "paper-claim violations:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The acceptance-level inequalities, asserted directly (not only through
/// the checker) so a bug in the checker's scoping cannot mask a miss.
/// They hold at every node layout — packed nodes (shared bandwidth,
/// contended migration traffic) included.
#[test]
fn unimem_between_dram_and_nvm_and_beats_xmem_on_nek() {
    let rep = reduced();
    let tol = Tolerances::default();
    for &profile in &rep.config.profiles {
        for &(nranks, rpn) in &rep.config.rank_layouts() {
            for w in &rep.config.workloads {
                let t = |policy| {
                    rep.get(w, policy, profile, nranks, rpn)
                        .unwrap_or_else(|| panic!("cell {w}/{}", profile.name()))
                        .time_s()
                };
                let (uni, dram, nvm) = (
                    t(PolicyKind::Unimem),
                    t(PolicyKind::DramOnly),
                    t(PolicyKind::NvmOnly),
                );
                // The nvm-win claim holds everywhere, packed nodes included.
                assert!(
                    uni <= nvm * tol.nvm_win,
                    "{w}/{}/r{nranks}x{rpn}: unimem {uni:.4}s loses to nvm-only {nvm:.4}s",
                    profile.name()
                );
                // DRAM tracking is the paper's claim at its one-rank-per-node
                // setup; shared bandwidth amplifies the NVM bottleneck, so
                // packed layouts are out of its scope (see docs/CONFORMANCE.md).
                if rpn == 1 {
                    assert!(
                        uni <= dram * tol.dram_tracking,
                        "{w}/{}/r{nranks}: unimem {uni:.4}s exceeds dram-only {dram:.4}s x {}",
                        profile.name(),
                        tol.dram_tracking
                    );
                    // Placement-philosophy ordering (v4 axis): phase-aware
                    // planning ≤ phase-blind interval guidance ≤ never
                    // promoting, each within slack.
                    let online = t(PolicyKind::OnlineGuidance);
                    assert!(
                        uni <= online * tol.policy_ordering,
                        "{w}/{}/r{nranks}: unimem {uni:.4}s loses to online-guidance {online:.4}s",
                        profile.name()
                    );
                    assert!(
                        online <= nvm * tol.policy_ordering,
                        "{w}/{}/r{nranks}: online-guidance {online:.4}s loses to nvm-only {nvm:.4}s",
                        profile.name()
                    );
                }
            }
            if rpn == 1 {
                let nek_uni = rep
                    .get("Nek5000", PolicyKind::Unimem, profile, nranks, rpn)
                    .unwrap();
                let nek_xmem = rep
                    .get("Nek5000", PolicyKind::Xmem, profile, nranks, rpn)
                    .unwrap();
                assert!(
                    nek_uni.time_s() <= nek_xmem.time_s() * tol.xmem_drift,
                    "Nek5000/{}/r{nranks}: unimem {:.4}s loses to xmem {:.4}s on the drifting pattern",
                    profile.name(),
                    nek_uni.time_s(),
                    nek_xmem.time_s()
                );
            }
        }
    }
}

/// The contention acceptance criteria, asserted directly: packed nodes
/// run slower than spread ones for the same job, at least one packed
/// Unimem cell is measurably slowed by *neighbor* migration traffic, and
/// no cell of a policy that never moves data reports a migration or any
/// contention time, for the job or for any rank.
#[test]
fn packed_nodes_contend_and_migration_free_cells_do_not() {
    let rep = reduced();
    // Packed DRAM-only baselines are slower: two ranks share one node's
    // bandwidth instead of having a node each.
    for &profile in &rep.config.profiles {
        let t = |rpn| {
            rep.get("CG", PolicyKind::DramOnly, profile, 4, rpn)
                .expect("baseline cell")
                .time_s()
        };
        assert!(
            t(2) > t(1),
            "{}: packing 2 ranks per node did not slow CG down",
            profile.name()
        );
    }
    // Neighbor helper traffic measurably slowed a co-located rank.
    let evidence = rep
        .cells
        .iter()
        .filter(|c| c.policy == PolicyKind::Unimem && c.ranks_per_node >= 2)
        .map(|c| c.report.job.neighbor_contention_time.secs())
        .fold(0.0f64, f64::max);
    assert!(
        evidence > 0.0,
        "no packed Unimem cell shows neighbor-induced contention"
    );
    // A run that moves no data pays no contention.
    let migration_free = [PolicyKind::DramOnly, PolicyKind::NvmOnly, PolicyKind::Xmem];
    let cells: Vec<_> = rep
        .cells
        .iter()
        .filter(|c| migration_free.contains(&c.policy))
        .collect();
    assert!(!cells.is_empty());
    for cell in cells {
        for s in std::iter::once(&cell.report.job).chain(&cell.report.per_rank) {
            assert_eq!(s.migrations.count, 0, "{}", cell.coords());
            assert!(s.contention_time.is_zero(), "{}", cell.coords());
            assert!(s.neighbor_contention_time.is_zero(), "{}", cell.coords());
        }
    }
}

#[test]
fn runtime_cost_bounded_and_nek_adapts() {
    let rep = reduced();
    let tol = Tolerances::default();
    for cell in rep.cells.iter().filter(|c| c.policy == PolicyKind::Unimem) {
        let cost = cell.report.job.pure_runtime_cost();
        assert!(
            cost <= tol.max_runtime_cost,
            "{}: pure runtime cost {cost:.4} above the Table-4 bound",
            cell.coords()
        );
    }
    // The drifting workload must actually exercise adaptation.
    let nek = rep
        .get("Nek5000", PolicyKind::Unimem, NvmProfile::BwHalf, 4, 1)
        .unwrap();
    assert!(
        nek.report.job.reprofiles > 0,
        "Nek5000 drift produced no re-profiling"
    );
}

/// Satellite: same seed + same config ⇒ byte-identical `RunReport` JSON
/// across two runs at `nranks = 4`. The ranks execute on real threads;
/// any host-scheduling leak into the virtual clock or the stats merge
/// shows up as a byte difference here.
#[test]
fn run_report_json_is_byte_identical_across_runs_at_4_ranks() {
    use unimem_repro::cache::CacheModel;
    use unimem_repro::runtime::exec::{run_workload, Policy};
    use unimem_repro::workloads::{by_name, Class};

    let machine = NvmProfile::BwHalf.machine();
    let cache = CacheModel::platform_a();
    for name in ["CG", "Nek5000"] {
        let w = by_name(name, Class::C).unwrap();
        let a = run_workload(w.as_ref(), &machine, &cache, 4, &Policy::unimem());
        let b = run_workload(w.as_ref(), &machine, &cache, 4, &Policy::unimem());
        assert_eq!(
            a.to_json().to_pretty(),
            b.to_json().to_pretty(),
            "{name}: repeated 4-rank runs serialized differently"
        );
    }
    // And through the checker's own probe (covers the sweep path).
    let det = check_determinism(&SweepConfig::reduced());
    assert!(det.is_empty(), "{det:?}");
}

/// The co-run acceptance inequalities, asserted directly (not only
/// through the checker): every tenant cell exists, no tenant beats its
/// solo run beyond slack, and under priority arbitration the weighted
/// tenant's slowdown stays within tolerance of every best-effort peer's.
#[test]
fn corun_cells_present_and_priority_tenants_protected() {
    use unimem_repro::bench::sweep::ArbiterPolicy;

    let rep = reduced();
    let cfg = &rep.config;
    assert!(
        !cfg.coruns.is_empty(),
        "reduced matrix carries a co-run mix"
    );
    assert_eq!(cfg.arbiters.len(), 3, "all three arbitration policies run");
    assert_eq!(
        rep.corun_cells.len(),
        cfg.n_corun_cells(),
        "no co-run cell silently dropped"
    );
    let tol = Tolerances::default();
    for c in &rep.corun_cells {
        assert!(
            c.slowdown >= tol.corun_sanity,
            "{}: arbitrated run beats solo ({:.4})",
            c.coords(),
            c.slowdown
        );
        assert!(c.lease_max >= c.lease_min);
    }
    for hi in rep
        .corun_cells
        .iter()
        .filter(|c| c.arbiter == ArbiterPolicy::Priority && c.weight > 1)
    {
        for lo in rep.corun_cells.iter().filter(|c| {
            c.arbiter == ArbiterPolicy::Priority
                && c.weight == 1
                && c.mix == hi.mix
                && c.profile == hi.profile
                && c.nranks == hi.nranks
        }) {
            assert!(
                hi.slowdown <= lo.slowdown * tol.tenant_qos,
                "{}: priority tenant slowdown {:.4} exceeds best-effort {} ({:.4})",
                hi.coords(),
                hi.slowdown,
                lo.tenant,
                lo.slowdown
            );
        }
    }
    // Contention is real: some tenant somewhere actually slowed down, and
    // the staggered clocks produced lease movement with re-plans.
    assert!(
        rep.corun_cells.iter().any(|c| c.slowdown > 1.001),
        "no co-run tenant slowed down; the mix does not contend"
    );
    assert!(
        rep.corun_cells
            .iter()
            .any(|c| c.report.job.lease_replans > 0),
        "no lease re-plans; the arbiter never moved a lease"
    );
}

#[test]
fn sweep_json_matches_schema() {
    let j = reduced().to_json();
    assert_eq!(
        j.get("schema").and_then(Json::as_str),
        Some("unimem-bench-sweep/v5")
    );
    // v5: the topology axis is emitted only off the flat default, so
    // the reduced (flat-only) report must not carry it.
    assert!(j.get("topologies").is_none());
    // v3: the node-layout axis (v4 only widened the policy vocabulary).
    assert!(j
        .get("ranks_per_node")
        .and_then(Json::as_arr)
        .is_some_and(|r| !r.is_empty()));
    let cells = j.get("cells").and_then(Json::as_arr).expect("cells array");
    assert_eq!(
        cells.len() as f64,
        j.get("n_cells").and_then(Json::as_f64).unwrap()
    );
    for c in cells {
        for key in [
            "workload",
            "policy",
            "profile",
            "nranks",
            "ranks_per_node",
            "time_s",
            "normalized_to_dram",
            "migration_count",
            "migrated_bytes",
            "overlap_pct",
            "contention_time_s",
            "neighbor_contention_time_s",
            "pure_runtime_cost",
            "reprofiles",
        ] {
            assert!(c.get(key).is_some(), "cell missing {key:?}: {c}");
        }
        // A cell that never migrated must not claim an overlap figure.
        if c.get("migration_count").and_then(Json::as_f64) == Some(0.0) {
            assert_eq!(
                c.get("overlap_pct"),
                Some(&Json::Null),
                "migration-free cell claims an overlap figure: {c}"
            );
        }
        let run = c.get("run").expect("embedded RunReport");
        assert!(run.get("job").is_some());
        let nranks = c.get("nranks").and_then(Json::as_f64).unwrap() as usize;
        assert_eq!(
            run.get("per_rank")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(nranks)
        );
    }
    // v2: the co-run section.
    let corun = j
        .get("corun_cells")
        .and_then(Json::as_arr)
        .expect("corun_cells array");
    assert_eq!(
        corun.len() as f64,
        j.get("n_corun_cells").and_then(Json::as_f64).unwrap()
    );
    assert!(j
        .get("mixes")
        .and_then(Json::as_arr)
        .is_some_and(|m| !m.is_empty()));
    assert!(j
        .get("arbiters")
        .and_then(Json::as_arr)
        .is_some_and(|a| !a.is_empty()));
    for c in corun {
        for key in [
            "mix",
            "workload",
            "tenant",
            "weight",
            "start_epoch",
            "arbiter",
            "profile",
            "nranks",
            "time_s",
            "solo_time_s",
            "slowdown",
            "lease_min",
            "lease_max",
            "lease_replans",
        ] {
            assert!(c.get(key).is_some(), "co-run cell missing {key:?}: {c}");
        }
        assert!(c.get("run").and_then(|r| r.get("job")).is_some());
    }
}
