//! The traced op: the sweep runner's cell loop rebuilt from public entry
//! points, with a span around every call into a layer.
//!
//! It follows `run_sweep_cached` without a cache and with one worker:
//! every row's DRAM-only baseline runs once and is shared by the row's
//! cells (the DRAM-only cell reuses it), co-run solos run once per
//! (profile, mix) and are shared by every arbiter. The assembled
//! report must digest exactly like the untraced run's, which proves the
//! per-layer numbers describe the same work.

use crate::trace::Tracer;
use unimem::exec::{run_workload, run_workload_clustered, Policy, RunReport, Workload};
use unimem::tenancy::{run_corun_with_solos, CorunTenant};
use unimem_bench::sweep::jobs::{enumerate_cells, enumerate_coruns, enumerate_rows};
use unimem_bench::sweep::{
    CorunCell, NvmProfile, PolicyKind, SweepCell, SweepConfig, SweepReport, TopologySpec,
};
use unimem_cache::CacheModel;
use unimem_hms::topology::{ClusterSpec, ClusterTopology};
use unimem_hms::MachineConfig;
use unimem_workloads::select;
use unimem_xmem::xmem_policy;

/// Sweep `cfg` serially, recording spans into the tracer's open op.
pub fn traced_sweep(cfg: &SweepConfig, tr: &mut Tracer) -> Result<SweepReport, String> {
    let cache = CacheModel::platform_a();
    let names: Vec<&str> = cfg.workloads.iter().map(String::as_str).collect();
    let selection = tr.span("workloads", "select", || select(&names, cfg.class))?;
    let mut cfg = cfg.clone();
    cfg.workloads = selection.iter().map(|(n, _)| n.clone()).collect();
    cfg.normalize_axes();

    let machine = |profile: NvmProfile, ranks_per_node: usize| -> MachineConfig {
        let m = profile.machine().with_ranks_per_node(ranks_per_node);
        match cfg.dram_capacity {
            Some(cap) => m.with_dram_capacity(cap),
            None => m,
        }
    };
    let topo_of = |t: &TopologySpec, profile: NvmProfile, nranks: usize| {
        let slots = t.slots_for(nranks);
        match t {
            TopologySpec::Flat => None,
            TopologySpec::Nodes { count } => Some(ClusterTopology::contiguous(
                ClusterSpec::homogeneous(machine(profile, slots), *count, slots),
                nranks,
            )),
            TopologySpec::Mixed { profiles } => Some(ClusterTopology::contiguous(
                ClusterSpec::mixed(profiles.iter().map(|&p| machine(p, slots)).collect(), slots),
                nranks,
            )),
        }
    };

    // One `exec` call, flat or in a clustered room, under an exec span.
    let run = |tr: &mut Tracer,
               w: &dyn Workload,
               m: &MachineConfig,
               topo: &Option<ClusterTopology>,
               nranks: usize,
               kind: PolicyKind,
               policy: &Policy| {
        tr.exec(kind.name(), topo.is_some(), || match topo {
            None => run_workload(w, m, &cache, nranks, policy),
            Some(topo) => run_workload_clustered(w, topo, &cache, policy),
        })
    };

    let rows = enumerate_rows(&cfg, selection.len());
    let mut baselines = Vec::with_capacity(rows.len());
    for row in &rows {
        let w = selection[row.workload].1.as_ref();
        let m = machine(row.profile, row.ranks_per_node);
        let topo = topo_of(&cfg.topologies[row.topology], row.profile, row.nranks);
        let dram = Policy::DramOnly;
        baselines.push(run(
            tr,
            w,
            &m,
            &topo,
            row.nranks,
            PolicyKind::DramOnly,
            &dram,
        ));
    }

    let mut cells = Vec::new();
    for job in enumerate_cells(&cfg, &rows) {
        let (short, workload) = &selection[job.row.workload];
        let w = workload.as_ref();
        let nranks = job.row.nranks;
        let t = &cfg.topologies[job.row.topology];
        let ranks_per_node = match t {
            TopologySpec::Flat => job.row.ranks_per_node,
            t => t.slots_for(nranks),
        };
        let m = machine(job.row.profile, ranks_per_node);
        let topo = topo_of(t, job.row.profile, nranks);
        let dram = &baselines[job.baseline];
        let policy = match job.policy {
            PolicyKind::DramOnly => None,
            PolicyKind::NvmOnly => Some(Policy::NvmOnly),
            PolicyKind::Xmem => {
                Some(tr.span("xmem", "train", || xmem_policy(w, &m, &cache, nranks)))
            }
            PolicyKind::Unimem => Some(Policy::unimem()),
            PolicyKind::OnlineGuidance => Some(Policy::online_guidance()),
            PolicyKind::HwCache => Some(Policy::hw_cache()),
        };
        let report = match policy {
            None => dram.clone(),
            Some(p) => run(tr, w, &m, &topo, nranks, job.policy, &p),
        };
        let normalized_to_dram = report.time().secs() / dram.time().secs();
        if !normalized_to_dram.is_finite() {
            return Err(format!(
                "{short}: normalized_to_dram is {normalized_to_dram}"
            ));
        }
        cells.push(SweepCell {
            workload: short.clone(),
            full_name: w.name(),
            policy: job.policy,
            profile: job.row.profile,
            nranks,
            ranks_per_node,
            topology: t.clone(),
            normalized_to_dram,
            report,
        });
    }

    let mut corun_cells = Vec::new();
    for job in enumerate_coruns(&cfg) {
        let mix = &cfg.coruns[job.mix];
        let m = machine(job.profile, 1);
        let members = tr.span("workloads", "instantiate", || mix.instantiate(cfg.class));
        let tenants: Vec<CorunTenant<'_>> = members
            .iter()
            .map(|(slot, w)| {
                CorunTenant::new(slot.tenant.clone(), w.as_ref())
                    .weight(slot.weight)
                    .start_epoch(slot.start_epoch)
            })
            .collect();
        let solos: Vec<RunReport> = tenants
            .iter()
            .map(|t| {
                let unimem = Policy::unimem();
                run(
                    tr,
                    t.workload,
                    &m,
                    &None,
                    job.nranks,
                    PolicyKind::Unimem,
                    &unimem,
                )
            })
            .collect();
        for &arbiter in &cfg.arbiters {
            let outcomes = tr.span("tenancy", "corun", || {
                run_corun_with_solos(&tenants, &m, &cache, job.nranks, arbiter, &solos)
            })?;
            for ((slot, _), o) in members.iter().zip(outcomes) {
                let (lease_min, lease_max) = (o.lease_min(), o.lease_max());
                corun_cells.push(CorunCell {
                    mix: mix.label(),
                    workload: slot.workload.clone(),
                    tenant: o.name,
                    weight: o.weight,
                    start_epoch: o.start_epoch,
                    arbiter,
                    profile: job.profile,
                    nranks: job.nranks,
                    solo_time_s: o.solo.time().secs(),
                    slowdown: o.slowdown,
                    lease_min,
                    lease_max,
                    report: o.corun,
                });
            }
        }
    }
    Ok(SweepReport::new(cfg, cells, corun_cells))
}
