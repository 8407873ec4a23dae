//! Multi-tenant co-run execution: N independent Unimem instances sharing
//! one node's DRAM.
//!
//! The paper's runtime is single-application; a production node serves
//! several applications contending for the same scarce DRAM tier. This
//! layer wraps N independent Unimem runs, intercepts each one's knapsack
//! capacity input, and drives it from `unimem_hms::arbiter::split`
//! instead of the machine constant:
//!
//! 1. each tenant's **demand** is its per-node data footprint (capped at
//!    the node budget);
//! 2. the co-run timeline is divided into **epochs** — one per main-loop
//!    iteration, with tenants' phase clocks staggered by their
//!    `start_epoch` — and every epoch's leases are one `split` of the
//!    node budget over the tenants running in it (a tenant arriving
//!    takes budget from the incumbents; a tenant finishing asks for
//!    nothing and its lease returns to the others);
//! 3. each tenant then executes with its per-epoch lease as a
//!    [`CapacitySchedule`]: the runtime re-runs placement at the
//!    boundaries where its lease moved
//!    ([`RunStats::lease_replans`](crate::stats::RunStats) counts these)
//!    — evicting on revocation, expanding on grant.
//!
//! Per-tenant **slowdown** (co-run time / solo time at the full node
//! budget) is the quality metric the sweep's co-run cells report: an
//! arbitration policy earns its keep when the tenants it protects stay
//! near 1.0 under contention.
//!
//! Everything is virtual-time deterministic: the lease schedules are a
//! pure function of (budget, policy, mix), and each tenant's run is the
//! same deterministic simulation the single-tenant paths use.

use crate::exec::{
    run_workload, run_workload_leased, CapacitySchedule, Policy, RunReport, Workload,
};
use unimem_cache::CacheModel;
use unimem_hms::arbiter::{split, ArbiterPolicy};
use unimem_hms::MachineConfig;
use unimem_sim::Bytes;

/// One member of a co-run: a workload plus its arbitration contract.
pub struct CorunTenant<'a> {
    /// Name carried into reports (unique within the co-run).
    pub name: String,
    /// The phase-structured application this tenant runs.
    pub workload: &'a dyn Workload,
    /// Priority weight (≥ 1); read by [`ArbiterPolicy::Priority`].
    pub weight: u32,
    /// Staggered phase clock: the epoch (global iteration index) at which
    /// this tenant's main loop begins.
    pub start_epoch: usize,
}

impl<'a> CorunTenant<'a> {
    /// A weight-1 tenant starting at epoch 0.
    pub fn new(name: impl Into<String>, workload: &'a dyn Workload) -> CorunTenant<'a> {
        CorunTenant {
            name: name.into(),
            workload,
            weight: 1,
            start_epoch: 0,
        }
    }

    /// Set the priority weight.
    pub fn weight(mut self, w: u32) -> CorunTenant<'a> {
        self.weight = w;
        self
    }

    /// Stagger this tenant's phase clock by `e` epochs.
    pub fn start_epoch(mut self, e: usize) -> CorunTenant<'a> {
        self.start_epoch = e;
        self
    }
}

/// What happened to one tenant of a co-run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's name.
    pub name: String,
    /// Its priority weight.
    pub weight: u32,
    /// Its phase-clock offset.
    pub start_epoch: usize,
    /// The solo baseline: the same workload with the whole node budget.
    pub solo: RunReport,
    /// The co-run execution under the arbiter's lease.
    pub corun: RunReport,
    /// Co-run time / solo time (≥ ~1.0; the paper-style y-axis of the
    /// co-run sweep cells).
    pub slowdown: f64,
    /// The per-epoch lease the arbiter granted (in the tenant's own
    /// iteration index space).
    pub lease: CapacitySchedule,
}

impl TenantOutcome {
    /// The smallest per-epoch lease the tenant ever held.
    pub fn lease_min(&self) -> Bytes {
        self.lease
            .epochs()
            .iter()
            .copied()
            .min()
            .unwrap_or(Bytes::ZERO)
    }

    /// The largest per-epoch lease the tenant ever held.
    pub fn lease_max(&self) -> Bytes {
        self.lease.peak()
    }
}

/// Run a co-run mix: compute every tenant's lease schedule with
/// [`split`], execute each tenant (solo baseline + leased co-run), and
/// report per-tenant slowdowns. Errors on an empty mix, a duplicate
/// tenant name, a zero weight, or a degenerate (zero/non-finite) solo
/// baseline.
pub fn run_corun(
    tenants: &[CorunTenant<'_>],
    machine: &MachineConfig,
    cache: &CacheModel,
    nranks: usize,
    policy: ArbiterPolicy,
) -> Result<Vec<TenantOutcome>, String> {
    check_mix(tenants)?;
    let solos: Vec<RunReport> = tenants
        .iter()
        .map(|t| run_workload(t.workload, machine, cache, nranks, &Policy::unimem()))
        .collect();
    run_corun_with_solos(tenants, machine, cache, nranks, policy, &solos)
}

/// [`run_corun`] with precomputed solo baselines (one per tenant, same
/// order). The solo run is a pure function of (workload, machine,
/// nranks) — independent of the arbitration policy — so a caller
/// sweeping several policies over one mix (the bench runner's stage 3)
/// computes the solos once and reuses them across policies.
pub fn run_corun_with_solos(
    tenants: &[CorunTenant<'_>],
    machine: &MachineConfig,
    cache: &CacheModel,
    nranks: usize,
    policy: ArbiterPolicy,
    solos: &[RunReport],
) -> Result<Vec<TenantOutcome>, String> {
    check_mix(tenants)?;
    if solos.len() != tenants.len() {
        return Err(format!(
            "{} solo baselines for {} tenants",
            solos.len(),
            tenants.len()
        ));
    }
    let budget = machine.dram_capacity;
    let rpn = machine.ranks_per_node as u64;

    // Demands: per-node data footprint, capped at the node budget (a
    // tenant cannot use more DRAM than the node has).
    let demands: Vec<Bytes> = tenants
        .iter()
        .map(|t| {
            let per_rank: Bytes = t.workload.objects(0, nranks).iter().map(|o| o.size).sum();
            Bytes((per_rank.get() * rpn).min(budget.get()))
        })
        .collect();

    // Each tenant runs over its own span of the global epoch timeline;
    // a tenant whose phase clock starts later joins at its epoch. Every
    // epoch splits the budget over the tenants running in it, and each
    // of them logs its lease.
    let spans: Vec<_> = tenants
        .iter()
        .map(|t| t.start_epoch..t.start_epoch + t.workload.iterations().max(1))
        .collect();
    let total_epochs = spans.iter().map(|s| s.end).max().expect("non-empty mix");
    let mut leases: Vec<Vec<Bytes>> = vec![Vec::new(); tenants.len()];
    for epoch in 0..total_epochs {
        let asks: Vec<(u32, Bytes)> = tenants
            .iter()
            .zip(&spans)
            .zip(&demands)
            .map(|((t, span), &demand)| {
                let ask = if span.contains(&epoch) {
                    demand
                } else {
                    Bytes::ZERO
                };
                (t.weight, ask)
            })
            .collect();
        let grants = split(budget, policy, &asks)?;
        for ((lease, span), grant) in leases.iter_mut().zip(&spans).zip(grants) {
            if span.contains(&epoch) {
                lease.push(grant);
            }
        }
    }

    // Execute the leased co-runs against the provided solo baselines.
    let policy = Policy::unimem();
    let mut outcomes = Vec::with_capacity(tenants.len());
    for ((t, solo), lease) in tenants.iter().zip(solos).zip(leases) {
        let solo = solo.clone();
        let lease = CapacitySchedule::from_epochs(lease)?;
        let corun = run_workload_leased(t.workload, machine, cache, nranks, &policy, &lease);
        let slowdown = corun.time().secs() / solo.time().secs();
        if !slowdown.is_finite() {
            return Err(format!(
                "tenant {}: non-finite slowdown (corun {}s / solo {}s)",
                t.name,
                corun.time().secs(),
                solo.time().secs()
            ));
        }
        outcomes.push(TenantOutcome {
            name: t.name.clone(),
            weight: t.weight,
            start_epoch: t.start_epoch,
            solo,
            corun,
            slowdown,
            lease,
        });
    }
    Ok(outcomes)
}

/// Reject an empty mix, a duplicate tenant name or a zero weight: the
/// errors no run is needed to find, so [`run_corun`] checks them before
/// its solo baselines.
fn check_mix(tenants: &[CorunTenant<'_>]) -> Result<(), String> {
    if tenants.is_empty() {
        return Err("co-run needs at least one tenant".into());
    }
    for (i, t) in tenants.iter().enumerate() {
        if tenants[..i].iter().any(|u| u.name == t.name) {
            return Err(format!("duplicate tenant name: {}", t.name));
        }
        if t.weight == 0 {
            return Err(format!("tenant {}: weight must be >= 1", t.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ComputeSpec, StepSpec};
    use unimem_cache::{AccessPattern, ObjAccess};
    use unimem_hms::object::{ObjId, ObjectSpec};
    use unimem_sim::VDur;

    /// One hot streaming object per tenant; DRAM residency matters.
    struct Synth {
        tag: &'static str,
        iters: usize,
    }

    impl Workload for Synth {
        fn name(&self) -> String {
            format!("synth-{}", self.tag)
        }

        fn objects(&self, _rank: usize, _nranks: usize) -> Vec<ObjectSpec> {
            vec![
                ObjectSpec::new("hot", Bytes::mib(100)).est_refs(1e9),
                ObjectSpec::new("cold", Bytes::mib(100)).est_refs(1e6),
            ]
        }

        fn script_epoch(&self, _iter: usize) -> usize {
            0
        }

        fn script(&self, _rank: usize, _nranks: usize, _epoch: usize) -> Vec<StepSpec> {
            vec![
                StepSpec::Compute(ComputeSpec {
                    label: "sweep",
                    cpu: VDur::from_millis(5.0),
                    accesses: vec![
                        ObjAccess::new(
                            ObjId(0),
                            40_000_000,
                            Bytes::mib(100),
                            AccessPattern::Streaming { stride: Bytes(8) },
                        ),
                        ObjAccess::new(ObjId(1), 400_000, Bytes::mib(100), AccessPattern::Random),
                    ],
                }),
                StepSpec::AllreduceSum { bytes: Bytes(64) },
            ]
        }

        fn iterations(&self) -> usize {
            self.iters
        }
    }

    /// A workload that must never run: a mix the checks reject has to
    /// fail before any tenant's solo baseline.
    struct Unrunnable;

    impl Workload for Unrunnable {
        fn name(&self) -> String {
            "unrunnable".into()
        }

        fn objects(&self, _rank: usize, _nranks: usize) -> Vec<ObjectSpec> {
            panic!("a rejected mix ran a workload")
        }

        fn script_epoch(&self, _iter: usize) -> usize {
            0
        }

        fn script(&self, _rank: usize, _nranks: usize, _epoch: usize) -> Vec<StepSpec> {
            panic!("a rejected mix ran a workload")
        }

        fn iterations(&self) -> usize {
            1
        }
    }

    fn machine() -> MachineConfig {
        // Node DRAM fits one tenant's hot object, not two.
        MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(128))
    }

    #[test]
    fn empty_mix_is_an_error() {
        let m = machine();
        let c = CacheModel::platform_a();
        assert!(run_corun(&[], &m, &c, 1, ArbiterPolicy::FairShare).is_err());
    }

    #[test]
    fn zero_weight_is_an_error_naming_the_tenant() {
        let wa = Synth { tag: "a", iters: 2 };
        let m = machine();
        let c = CacheModel::platform_a();
        let mix = [
            CorunTenant::new("a", &wa),
            CorunTenant::new("idle", &Unrunnable).weight(0),
        ];
        for policy in ArbiterPolicy::ALL {
            let err = run_corun(&mix, &m, &c, 1, policy).unwrap_err();
            assert_eq!(err, "tenant idle: weight must be >= 1");
        }
    }

    #[test]
    fn duplicate_tenant_name_is_an_error() {
        let wa = Synth { tag: "a", iters: 2 };
        let m = machine();
        let c = CacheModel::platform_a();
        let mix = [
            CorunTenant::new("twin", &wa),
            CorunTenant::new("twin", &Unrunnable),
        ];
        let err = run_corun(&mix, &m, &c, 1, ArbiterPolicy::FairShare).unwrap_err();
        assert_eq!(err, "duplicate tenant name: twin");
    }

    #[test]
    fn solo_tenant_matches_single_tenant_run() {
        let w = Synth { tag: "a", iters: 6 };
        let m = machine();
        let c = CacheModel::platform_a();
        let out = run_corun(
            &[CorunTenant::new("a", &w)],
            &m,
            &c,
            1,
            ArbiterPolicy::FairShare,
        )
        .unwrap();
        // Alone, the arbiter grants the whole budget: no contention, no
        // lease movement, identical to the classic run.
        assert_eq!(out[0].corun.time().secs(), out[0].solo.time().secs());
        assert!((out[0].slowdown - 1.0).abs() < 1e-12);
        assert_eq!(out[0].corun.job.lease_replans, 0);
    }

    #[test]
    fn contended_tenants_slow_down_but_stay_finite() {
        let wa = Synth { tag: "a", iters: 6 };
        let wb = Synth { tag: "b", iters: 6 };
        let m = machine();
        let c = CacheModel::platform_a();
        let out = run_corun(
            &[CorunTenant::new("a", &wa), CorunTenant::new("b", &wb)],
            &m,
            &c,
            1,
            ArbiterPolicy::FairShare,
        )
        .unwrap();
        for o in &out {
            assert!(o.slowdown >= 0.99, "{}: {}", o.name, o.slowdown);
            assert!(o.lease_max() <= Bytes::mib(128));
        }
        // Fair share of 128 MiB cannot hold either 100 MiB hot object;
        // both tenants lose DRAM relative to solo.
        assert!(out.iter().any(|o| o.slowdown > 1.0));
    }

    #[test]
    fn priority_tenant_degrades_no_more_than_best_effort_peer() {
        let wa = Synth { tag: "a", iters: 6 };
        let wb = Synth { tag: "b", iters: 6 };
        let m = machine();
        let c = CacheModel::platform_a();
        let out = run_corun(
            &[
                CorunTenant::new("hi", &wa).weight(4),
                CorunTenant::new("lo", &wb),
            ],
            &m,
            &c,
            1,
            ArbiterPolicy::Priority,
        )
        .unwrap();
        assert!(
            out[0].slowdown <= out[1].slowdown + 1e-9,
            "hi={} lo={}",
            out[0].slowdown,
            out[1].slowdown
        );
        assert!(out[0].lease_min() >= out[1].lease_min());
    }

    #[test]
    fn staggered_tenant_changes_the_incumbents_lease() {
        let wa = Synth { tag: "a", iters: 8 };
        let wb = Synth { tag: "b", iters: 4 };
        let m = machine();
        let c = CacheModel::platform_a();
        let out = run_corun(
            &[
                CorunTenant::new("incumbent", &wa),
                CorunTenant::new("late", &wb).start_epoch(2),
            ],
            &m,
            &c,
            1,
            ArbiterPolicy::FairShare,
        )
        .unwrap();
        let inc = &out[0];
        // Epochs 0-1 alone (full budget), 2-5 contended, 6-7 alone again.
        let epochs = inc.lease.epochs();
        assert_eq!(epochs.len(), 8);
        assert_eq!(epochs[0], Bytes::mib(128));
        assert!(epochs[3] < Bytes::mib(128));
        assert_eq!(epochs[7], Bytes::mib(128));
        // The lease moved at least twice; each move re-ran placement.
        assert!(
            inc.corun.job.lease_replans >= 2,
            "{}",
            inc.corun.job.lease_replans
        );
    }

    #[test]
    fn corun_is_deterministic() {
        let wa = Synth { tag: "a", iters: 5 };
        let wb = Synth { tag: "b", iters: 5 };
        let m = machine();
        let c = CacheModel::platform_a();
        let run = || {
            run_corun(
                &[
                    CorunTenant::new("a", &wa).weight(2),
                    CorunTenant::new("b", &wb).start_epoch(1),
                ],
                &m,
                &c,
                2,
                ArbiterPolicy::Priority,
            )
            .unwrap()
            .iter()
            .map(|o| o.corun.to_json().to_pretty())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
