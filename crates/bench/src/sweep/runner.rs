//! Executes a [`SweepConfig`]: one `run_workload` per matrix cell, with
//! the DRAM-only baseline shared per (workload, profile, rank count) so
//! normalization never re-runs it.
//!
//! Execution is parallel (see [`crate::sweep::jobs`]): stage 1 runs every
//! row's DRAM-only baseline across a worker pool, stage 2 fans out the
//! remaining policy cells. Cells are reassembled in canonical (profile,
//! ranks, workload, policy) order by job index, so the report — and its
//! serialized JSON — is byte-identical for any worker count, including
//! the serial `n_workers = 1` path.

use crate::sweep::cache::SweepCache;
use crate::sweep::jobs::{
    enumerate_cells, enumerate_coruns, enumerate_rows, run_pool, with_label, CellJob, CorunJob,
};
use crate::sweep::matrix::{NvmProfile, PolicyKind, SweepConfig, TopologySpec};
use std::collections::HashMap;
use unimem::exec::{run_workload, run_workload_clustered, Policy, RunReport};
use unimem::tenancy::{run_corun_with_solos, CorunTenant};
use unimem_cache::CacheModel;
use unimem_hms::arbiter::ArbiterPolicy;
use unimem_hms::topology::{ClusterSpec, ClusterTopology};
use unimem_sim::Bytes;
use unimem_workloads::select;
use unimem_xmem::xmem_policy;

/// One cell of the matrix: a (workload, policy, profile, ranks,
/// ranks-per-node) run.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Suite short name ("CG", …, "Nek5000").
    pub workload: String,
    /// Full workload name including the class ("CG.C").
    pub full_name: String,
    /// Placement policy of the run.
    pub policy: PolicyKind,
    /// NVM profile (machine) of the run.
    pub profile: NvmProfile,
    /// Rank count of the run.
    pub nranks: usize,
    /// Ranks packed per node: ≥ 2 means co-located ranks share the
    /// node's bandwidth and DRAM (the contention axis). For clustered
    /// topologies this reports the room's actual packing,
    /// `⌈nranks / nodes⌉`.
    pub ranks_per_node: usize,
    /// The machine room the cell ran in ([`TopologySpec::Flat`] is the
    /// classic single-level world).
    pub topology: TopologySpec,
    /// Run time normalized to the DRAM-only baseline of the same
    /// (workload, profile, ranks, ranks_per_node, topology) — the
    /// paper's y-axis. Clustered cells normalize against DRAM-only *in
    /// the same room*, so link costs cancel and the ratio stays a
    /// placement signal.
    pub normalized_to_dram: f64,
    /// The run's full report.
    pub report: RunReport,
}

impl SweepCell {
    /// Job completion time in virtual seconds.
    pub fn time_s(&self) -> f64 {
        self.report.time().secs()
    }

    /// Human-readable cell coordinates for messages. The node layout is
    /// spelled out only off the classic one-rank-per-node default, and
    /// the machine room only off the classic flat world.
    pub fn coords(&self) -> String {
        let layout = if self.ranks_per_node == 1 {
            format!("r{}", self.nranks)
        } else {
            format!("r{}x{}", self.nranks, self.ranks_per_node)
        };
        format!(
            "{}/{}/{layout}{}/{}",
            self.workload,
            self.profile.name(),
            topo_suffix(&self.topology),
            self.policy.name()
        )
    }
}

/// One per-tenant cell of a co-run execution: how much a tenant slowed
/// down relative to its solo run (full node DRAM) under a mix and an
/// arbitration policy.
#[derive(Debug, Clone)]
pub struct CorunCell {
    /// Mix label ("CG+FT").
    pub mix: String,
    /// Canonical suite name of this tenant's workload ("CG").
    pub workload: String,
    /// Unique tenant name within the mix ("CG", "CG#2").
    pub tenant: String,
    /// The tenant's arbitration priority weight.
    pub weight: u32,
    /// The tenant's phase-clock offset (epochs).
    pub start_epoch: usize,
    /// Arbitration policy the co-run executed under.
    pub arbiter: ArbiterPolicy,
    /// NVM profile (machine) of the run.
    pub profile: NvmProfile,
    /// Rank count of the run.
    pub nranks: usize,
    /// Solo (whole-node-DRAM) job completion time, virtual seconds.
    pub solo_time_s: f64,
    /// Per-tenant slowdown: co-run time / solo time — the co-run sweep's
    /// y-axis.
    pub slowdown: f64,
    /// Smallest per-epoch DRAM lease the tenant held.
    pub lease_min: Bytes,
    /// Largest per-epoch DRAM lease the tenant held.
    pub lease_max: Bytes,
    /// The co-run execution's full report.
    pub report: RunReport,
}

impl CorunCell {
    /// Co-run job completion time in virtual seconds.
    pub fn time_s(&self) -> f64 {
        self.report.time().secs()
    }

    /// Human-readable cell coordinates for messages.
    pub fn coords(&self) -> String {
        format!(
            "{}[{}]/{}/r{}/{}",
            self.mix,
            self.tenant,
            self.profile.name(),
            self.nranks,
            self.arbiter.name()
        )
    }
}

/// The result of a sweep: the configuration it ran and every cell, in
/// deterministic (profile, ranks, workload, policy) order, plus the
/// per-tenant co-run cells in (profile, mix, arbiter, tenant) order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The canonicalized configuration that actually ran.
    pub config: SweepConfig,
    /// Every single-tenant cell, in canonical order.
    pub cells: Vec<SweepCell>,
    /// Per-tenant co-run cells (empty when the config has no mixes).
    pub corun_cells: Vec<CorunCell>,
    /// How many cache lookups hit ([`run_sweep_cached`] with a cache; 0
    /// otherwise). Run-time metadata only, never serialized — the cache
    /// is invisible in the report bytes by contract.
    pub cache_hits: usize,
    /// How many cells were looked up in the cache (cell jobs plus co-run
    /// groups; 0 when no cache was passed). Run-time metadata only.
    pub cache_lookups: usize,
    /// Coordinate index over `cells`, built once at construction.
    /// Workload names map to a dense id first so lookups allocate nothing.
    index: CellIndex,
}

#[derive(Debug, Clone, Default)]
struct CellIndex {
    workloads: HashMap<String, u32>,
    cells: HashMap<(u32, PolicyKind, NvmProfile, usize, usize, TopologySpec), usize>,
}

impl CellIndex {
    fn build(cells: &[SweepCell]) -> CellIndex {
        let mut idx = CellIndex::default();
        for (i, c) in cells.iter().enumerate() {
            let next = idx.workloads.len() as u32;
            let w = *idx.workloads.entry(c.workload.clone()).or_insert(next);
            idx.cells.insert(
                (
                    w,
                    c.policy,
                    c.profile,
                    c.nranks,
                    c.ranks_per_node,
                    c.topology.clone(),
                ),
                i,
            );
        }
        idx
    }
}

/// Coordinate/label suffix naming the machine room; empty for the
/// classic flat world so historical strings are untouched.
fn topo_suffix(t: &TopologySpec) -> String {
    match t {
        TopologySpec::Flat => String::new(),
        t => format!("@{}", t.name()),
    }
}

impl SweepReport {
    /// Assemble a report, building the coordinate index. `cells` is public
    /// for read access; constructing through `new` keeps the index in sync.
    pub fn new(
        config: SweepConfig,
        cells: Vec<SweepCell>,
        corun_cells: Vec<CorunCell>,
    ) -> SweepReport {
        let index = CellIndex::build(&cells);
        SweepReport {
            config,
            cells,
            corun_cells,
            cache_hits: 0,
            cache_lookups: 0,
            index,
        }
    }

    /// Record the cache outcome (in-memory metadata; see
    /// [`SweepReport::cache_hits`]).
    pub fn with_cache_stats(mut self, hits: usize, lookups: usize) -> SweepReport {
        self.cache_hits = hits;
        self.cache_lookups = lookups;
        self
    }

    /// Fraction of cache lookups that hit; `None` when the sweep ran
    /// without a cache (0/0 is "no evidence", not "0%").
    pub fn cache_hit_rate(&self) -> Option<f64> {
        (self.cache_lookups > 0).then(|| self.cache_hits as f64 / self.cache_lookups as f64)
    }

    /// Cell lookup by coordinates, pinned to the classic flat world.
    /// O(1): conformance calls this once per (cell, baseline) pair, which
    /// was quadratic in matrix size when this was a linear scan. The
    /// paper's single-node-class claims are judged on flat cells only;
    /// clustered cells are reached with [`SweepReport::get_at`].
    pub fn get(
        &self,
        workload: &str,
        policy: PolicyKind,
        profile: NvmProfile,
        nranks: usize,
        ranks_per_node: usize,
    ) -> Option<&SweepCell> {
        self.get_at(
            workload,
            policy,
            profile,
            nranks,
            ranks_per_node,
            &TopologySpec::Flat,
        )
    }

    /// [`SweepReport::get`] with an explicit machine room.
    pub fn get_at(
        &self,
        workload: &str,
        policy: PolicyKind,
        profile: NvmProfile,
        nranks: usize,
        ranks_per_node: usize,
        topology: &TopologySpec,
    ) -> Option<&SweepCell> {
        let &w = self.index.workloads.get(workload)?;
        self.index
            .cells
            .get(&(w, policy, profile, nranks, ranks_per_node, topology.clone()))
            .map(|&i| &self.cells[i])
    }
}

/// Run the whole matrix on `n_workers` pool workers, with an optional
/// content-addressed cell cache. Fails (rather than silently skipping)
/// when the config names an unknown workload. Axes are canonicalized and
/// deduplicated; the returned report's `config` reflects what actually
/// ran.
///
/// `n_workers = 1` runs every cell in order on the calling thread; any
/// count produces byte-identical reports. Callers without a preference
/// pass [`crate::sweep::default_workers`], the host's available
/// parallelism. On a 1-CPU host that is 1 and the matrix runs serially.
/// The report records no worker count: the pool runs at most one worker
/// per job, and the bytes are the same at every width.
///
/// With a [`SweepCache`], finished cells load instead of recomputing,
/// misses run on the pool and are written back, and the assembled
/// report — including its serialized JSON — is **byte-identical** to a
/// cacheless run (the property tests assert this). The hit/miss outcome
/// lands in [`SweepReport::cache_hits`] / [`SweepReport::cache_lookups`].
pub fn run_sweep_cached(
    cfg: &SweepConfig,
    n_workers: usize,
    store: Option<&SweepCache>,
) -> Result<SweepReport, String> {
    if cfg.ranks.contains(&0) {
        return Err("rank counts must be positive".into());
    }
    if cfg.ranks_per_node.is_empty() || cfg.ranks_per_node.contains(&0) {
        return Err("ranks_per_node needs at least one positive value".into());
    }
    // Layouts whose nodes would hold more ranks than the job has are
    // skipped individually, but a config where *every* pair is skipped
    // would silently produce a zero-cell report.
    if !cfg.ranks.is_empty() && cfg.rank_layouts().is_empty() {
        return Err(format!(
            "no valid (ranks, ranks_per_node) layout: every ranks_per_node value in {:?} \
             exceeds every rank count in {:?}",
            cfg.ranks_per_node, cfg.ranks
        ));
    }
    if cfg.topologies.is_empty() {
        return Err(
            "topologies needs at least one entry (TopologySpec::Flat is the classic sweep)".into(),
        );
    }
    if let Some(t) = cfg.topologies.iter().find(|t| t.n_nodes() == 0) {
        return Err(format!("topology {:?} lays out zero nodes", t));
    }
    let cache = CacheModel::platform_a();
    let names: Vec<&str> = cfg.workloads.iter().map(String::as_str).collect();
    // Resolve up front: an unknown name errors even when another axis is
    // empty, and the workload models build once, not once per machine.
    let selection = select(&names, cfg.class)?;
    // The report carries canonical, duplicate-free axes throughout:
    // consumers (the Nek5000-scoped conformance checks in particular)
    // never see aliases, and a duplicated axis value cannot double-count
    // cells in averages or n_cells.
    let mut cfg = cfg.clone();
    cfg.workloads = selection.iter().map(|(n, _)| n.clone()).collect();
    cfg.normalize_axes();

    // Lay a clustered machine room out for a cell: `None` for the flat
    // world (the legacy `run_workload` path keeps the historical bytes),
    // otherwise the `ClusterTopology` the clustered driver runs in.
    let topo_of = |t: &TopologySpec, profile: NvmProfile, nranks: usize| match t {
        TopologySpec::Flat => None,
        TopologySpec::Nodes { count } => {
            let slots = t.slots_for(nranks);
            Some(ClusterTopology::contiguous(
                ClusterSpec::homogeneous(cfg.machine(profile, slots), *count, slots),
                nranks,
            ))
        }
        TopologySpec::Mixed { profiles } => {
            let slots = t.slots_for(nranks);
            let machines = profiles.iter().map(|&p| cfg.machine(p, slots)).collect();
            Some(ClusterTopology::contiguous(
                ClusterSpec::mixed(machines, slots),
                nranks,
            ))
        }
    };

    let rows = enumerate_rows(&cfg, selection.len());
    if rows.is_empty() && !cfg.profiles.is_empty() && !selection.is_empty() && !cfg.ranks.is_empty()
    {
        return Err(format!(
            "no topology in {:?} applies to any (profile, ranks, ranks_per_node) row: \
             clustered rooms need one-rank-per-node layouts with at least as many ranks as nodes",
            cfg.topologies
        ));
    }

    // Cache pre-pass (serial, cheap relative to a single cell run):
    // resolve every already-finished cell before anything executes. The
    // key uses the *row* layout; clustered cells re-derive their real
    // packing from the topology on both the compute and the cached path.
    let cell_jobs = enumerate_cells(&cfg, &rows);
    let mut lookups = 0usize;
    let mut hits = 0usize;
    let mut cached_cells: Vec<Option<SweepCell>> = vec![None; cell_jobs.len()];
    let mut cell_keys = Vec::with_capacity(cell_jobs.len());
    if let Some(store) = store {
        for (slot, job) in cached_cells.iter_mut().zip(&cell_jobs) {
            let (short, _) = &selection[job.row.workload];
            let key = store.cell_key(
                &cfg,
                short,
                job.policy,
                job.row.profile,
                job.row.nranks,
                job.row.ranks_per_node,
                &cfg.topologies[job.row.topology],
            );
            lookups += 1;
            if let Some(cell) = store.load_cell(&key) {
                hits += 1;
                *slot = Some(cell);
            }
            cell_keys.push(key);
        }
    }

    // Stage 1: DRAM-only baselines, in parallel — but only for rows that
    // still have a cell to run. Failures (including panics) carry the
    // row's matrix coordinates. Clustered rows run their baseline in the
    // same machine room as their cells. A cached DRAM-only cell doubles
    // as its row's baseline (its report *is* the baseline run), so a
    // fully-warm sweep executes nothing at all.
    let mut need_baseline = vec![false; rows.len()];
    for (cached, job) in cached_cells.iter().zip(&cell_jobs) {
        if cached.is_none() {
            need_baseline[job.baseline] = true;
        }
    }
    // Only a row with a cell to run reads its baseline, so a fully warm
    // sweep clones none.
    let mut baselines: Vec<Option<RunReport>> = vec![None; rows.len()];
    for (cached, job) in cached_cells.iter().zip(&cell_jobs) {
        if job.policy == PolicyKind::DramOnly && need_baseline[job.baseline] {
            if let Some(cell) = cached {
                baselines[job.baseline] = Some(cell.report.clone());
            }
        }
    }
    // When the policy axis omits dram-only there is no DramOnly cell to
    // piggyback on, but another sweep's may be on disk under its key.
    if let Some(store) = store {
        if !cfg.policies.contains(&PolicyKind::DramOnly) {
            for (i, row) in rows.iter().enumerate() {
                if need_baseline[i] && baselines[i].is_none() {
                    let (short, _) = &selection[row.workload];
                    let key = store.cell_key(
                        &cfg,
                        short,
                        PolicyKind::DramOnly,
                        row.profile,
                        row.nranks,
                        row.ranks_per_node,
                        &cfg.topologies[row.topology],
                    );
                    if let Some(cell) = store.load_cell(&key) {
                        baselines[i] = Some(cell.report);
                    }
                }
            }
        }
    }
    let live_rows: Vec<(usize, _)> = rows
        .iter()
        .enumerate()
        .filter(|(i, _)| need_baseline[*i] && baselines[*i].is_none())
        .map(|(i, r)| (i, *r))
        .collect();
    let computed_baselines = run_pool(live_rows.clone(), n_workers, |(_, row)| {
        let (short, workload) = &selection[row.workload];
        let t = &cfg.topologies[row.topology];
        with_label(
            || {
                format!(
                    "{short}/{}/r{}x{}{}/dram-only",
                    row.profile.name(),
                    row.nranks,
                    row.ranks_per_node,
                    topo_suffix(t)
                )
            },
            || {
                Ok(match topo_of(t, row.profile, row.nranks) {
                    None => run_workload(
                        workload.as_ref(),
                        &cfg.machine(row.profile, row.ranks_per_node),
                        &cache,
                        row.nranks,
                        &Policy::DramOnly,
                    ),
                    Some(topo) => {
                        run_workload_clustered(workload.as_ref(), &topo, &cache, &Policy::DramOnly)
                    }
                })
            },
        )
    })
    .map_err(|e| format!("sweep baseline failed: {e}"))?;
    for ((i, _), report) in live_rows.into_iter().zip(computed_baselines) {
        baselines[i] = Some(report);
    }

    // Stage 2: the matrix cells that missed, each normalized against its
    // row's shared baseline (DRAM-only cells reuse the baseline run
    // directly).
    let missed_cells: Vec<(usize, CellJob)> = cached_cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_none())
        .map(|(i, _)| (i, cell_jobs[i]))
        .collect();
    let computed_cells = run_pool(missed_cells.clone(), n_workers, |(_, job)| {
        let (short, workload) = &selection[job.row.workload];
        let nranks = job.row.nranks;
        let t = &cfg.topologies[job.row.topology];
        // Clustered cells report the room's actual packing.
        let ranks_per_node = match t {
            TopologySpec::Flat => job.row.ranks_per_node,
            t => t.slots_for(nranks),
        };
        with_label(
            || {
                format!(
                    "{short}/{}/r{nranks}x{ranks_per_node}{}/{}",
                    job.row.profile.name(),
                    topo_suffix(t),
                    job.policy.name()
                )
            },
            || {
                let w = workload.as_ref();
                let m = cfg.machine(job.row.profile, ranks_per_node);
                let dram = baselines[job.baseline]
                    .as_ref()
                    .expect("baseline resolved for every row with a missed cell");
                let topo = topo_of(t, job.row.profile, nranks);
                let run = |policy: &Policy| match &topo {
                    None => run_workload(w, &m, &cache, nranks, policy),
                    Some(topo) => run_workload_clustered(w, topo, &cache, policy),
                };
                // Exhaustive over the policy registry on purpose: adding
                // a PolicyId variant without deciding how the sweep
                // instantiates it must fail to compile, not silently
                // drop the policy from the matrix.
                let report = match job.policy {
                    PolicyKind::DramOnly => dram.clone(),
                    PolicyKind::NvmOnly => run(&Policy::NvmOnly),
                    PolicyKind::Xmem => {
                        let p = xmem_policy(w, &m, &cache, nranks);
                        run(&p)
                    }
                    PolicyKind::Unimem => run(&Policy::unimem()),
                    PolicyKind::OnlineGuidance => run(&Policy::online_guidance()),
                    PolicyKind::HwCache => run(&Policy::hw_cache()),
                };
                Ok(SweepCell {
                    workload: short.clone(),
                    full_name: w.name(),
                    policy: job.policy,
                    profile: job.row.profile,
                    nranks,
                    ranks_per_node,
                    topology: t.clone(),
                    normalized_to_dram: normalized_to_dram(
                        report.time().secs(),
                        dram.time().secs(),
                    )?,
                    report,
                })
            },
        )
    })
    .map_err(|e| format!("sweep cell failed: {e}"))?;

    // Write the misses back (serial, after the pool: writes never race),
    // then splice computed cells into the cached ones by job index — the
    // same reassembly-by-index discipline the pool itself uses, so the
    // cell order is byte-for-byte the canonical enumeration order no
    // matter which cells hit.
    if let Some(store) = store {
        for ((i, _), cell) in missed_cells.iter().zip(&computed_cells) {
            store.store_cell(&cell_keys[*i], cell);
        }
    }
    let mut by_index = cached_cells;
    for ((i, _), cell) in missed_cells.into_iter().zip(computed_cells) {
        by_index[i] = Some(cell);
    }
    let cells: Vec<SweepCell> = by_index
        .into_iter()
        .map(|c| c.expect("every cell either hit the cache or ran"))
        .collect();

    // Stage 3: the co-run matrix — every mix on every profile, at the
    // largest rank count. One job covers all arbitration policies of a
    // (profile, mix) pair so each tenant's policy-independent solo
    // baseline runs once; cells flatten in canonical (profile, mix,
    // arbiter, tenant) order. The group is the unit of execution, so it
    // is also the unit of caching.
    let corun_jobs = enumerate_coruns(&cfg);
    let mut cached_groups: Vec<Option<Vec<CorunCell>>> = vec![None; corun_jobs.len()];
    let mut corun_keys = Vec::with_capacity(corun_jobs.len());
    if let Some(store) = store {
        for (slot, job) in cached_groups.iter_mut().zip(&corun_jobs) {
            let key = store.corun_key(&cfg, &cfg.coruns[job.mix], job.profile, job.nranks);
            lookups += 1;
            if let Some(group) = store.load_corun(&key) {
                hits += 1;
                *slot = Some(group);
            }
            corun_keys.push(key);
        }
    }
    let missed_coruns: Vec<(usize, CorunJob)> = cached_groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.is_none())
        .map(|(i, _)| (i, corun_jobs[i]))
        .collect();
    let computed_groups = run_pool(missed_coruns.clone(), n_workers, |(_, job)| {
        let mix = &cfg.coruns[job.mix];
        with_label(
            || format!("{}/{}/r{}", mix.label(), job.profile.name(), job.nranks),
            || {
                // Co-runs keep one rank per node: cross-tenant DRAM
                // contention is arbitrated (the lease pathway), and the
                // single-tenant rpn axis owns bandwidth contention.
                let m = cfg.machine(job.profile, 1);
                let members = mix.instantiate(cfg.class);
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
                    .map(|t| run_workload(t.workload, &m, &cache, job.nranks, &Policy::unimem()))
                    .collect();
                let mut group = Vec::with_capacity(cfg.arbiters.len() * tenants.len());
                for &arbiter in &cfg.arbiters {
                    let outcomes =
                        run_corun_with_solos(&tenants, &m, &cache, job.nranks, arbiter, &solos)?;
                    group.extend(members.iter().zip(outcomes).map(|((slot, _), o)| {
                        let (lease_min, lease_max) = (o.lease_min(), o.lease_max());
                        CorunCell {
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
                        }
                    }));
                }
                Ok(group)
            },
        )
    })
    .map_err(|e| format!("sweep co-run failed: {e}"))?;
    if let Some(store) = store {
        for ((i, _), group) in missed_coruns.iter().zip(&computed_groups) {
            store.store_corun(&corun_keys[*i], group);
        }
    }
    let mut groups_by_index = cached_groups;
    for ((i, _), group) in missed_coruns.into_iter().zip(computed_groups) {
        groups_by_index[i] = Some(group);
    }
    let corun_cells = groups_by_index
        .into_iter()
        .flat_map(|g| g.expect("every co-run group either hit the cache or ran"))
        .collect();

    Ok(SweepReport::new(cfg, cells, corun_cells).with_cache_stats(hits, lookups))
}

/// Normalize a cell's run time against its row's DRAM-only baseline,
/// rejecting non-finite results: a zero or non-finite baseline would
/// serialize as JSON `null` (non-finite floats have no JSON form), which
/// conformance cannot judge — poisoning the report silently.
fn normalized_to_dram(cell_secs: f64, dram_secs: f64) -> Result<f64, String> {
    let r = cell_secs / dram_secs;
    if r.is_finite() {
        Ok(r)
    } else {
        Err(format!(
            "normalized_to_dram is {r} (cell {cell_secs}s / dram-only {dram_secs}s); \
             a zero or non-finite baseline cannot be judged"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::jobs::default_workers;
    use unimem_workloads::Class;

    /// A two-cell micro matrix exercises the runner end to end without
    /// the cost of the reduced matrix (which tests/conformance.rs runs).
    fn micro() -> SweepConfig {
        SweepConfig {
            class: Class::C,
            workloads: vec!["CG".into()],
            policies: vec![PolicyKind::DramOnly, PolicyKind::Unimem],
            profiles: vec![NvmProfile::BwHalf],
            ranks: vec![2],
            ranks_per_node: vec![1],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: vec![],
            arbiters: vec![],
        }
    }

    #[test]
    fn runner_fills_every_cell_in_order() {
        let rep = run_sweep_cached(&micro(), default_workers(), None).expect("micro matrix runs");
        assert_eq!(rep.cells.len(), 2);
        assert_eq!(rep.cells[0].policy, PolicyKind::DramOnly);
        assert_eq!(rep.cells[1].policy, PolicyKind::Unimem);
        assert_eq!(rep.cells[0].full_name, "CG.C");
        assert!((rep.cells[0].normalized_to_dram - 1.0).abs() < 1e-12);
        assert!(rep.cells[1].time_s() > 0.0);
    }

    #[test]
    fn lookup_by_coordinates() {
        let rep = run_sweep_cached(&micro(), default_workers(), None).unwrap();
        assert!(rep
            .get("CG", PolicyKind::Unimem, NvmProfile::BwHalf, 2, 1)
            .is_some());
        assert!(rep
            .get("CG", PolicyKind::Unimem, NvmProfile::Lat4x, 2, 1)
            .is_none());
        assert!(rep
            .get("CG", PolicyKind::Unimem, NvmProfile::BwHalf, 2, 2)
            .is_none());
        assert!(rep
            .get("FT", PolicyKind::Unimem, NvmProfile::BwHalf, 2, 1)
            .is_none());
    }

    #[test]
    fn index_agrees_with_linear_scan() {
        let mut cfg = micro();
        cfg.workloads = vec!["CG".into(), "LU".into()];
        cfg.policies = PolicyKind::ALL.to_vec();
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        for c in &rep.cells {
            let found = rep
                .get(&c.workload, c.policy, c.profile, c.nranks, c.ranks_per_node)
                .expect("indexed lookup finds every cell");
            assert!(std::ptr::eq(found, c), "index points at the wrong cell");
        }
    }

    #[test]
    fn ranks_per_node_axis_expands_cells_and_shows_contention() {
        let mut cfg = micro();
        cfg.ranks_per_node = vec![1, 2];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        assert_eq!(rep.cells.len(), 2 * 2, "two layouts x two policies");
        let at = |rpn| {
            rep.get("CG", PolicyKind::DramOnly, NvmProfile::BwHalf, 2, rpn)
                .unwrap()
                .time_s()
        };
        assert!(
            at(2) > at(1),
            "two ranks sharing a node's bandwidth must run slower than one per node"
        );
        // Coordinates spell the layout out only when packed.
        assert!(rep.cells[0].coords().contains("/r2/"));
        assert!(rep.cells[2].coords().contains("/r2x2/"));
    }

    #[test]
    fn topology_axis_adds_clustered_cells_after_the_flat_block() {
        let mut cfg = micro();
        cfg.topologies.push(TopologySpec::Nodes { count: 2 });
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        assert_eq!(rep.cells.len(), 4, "flat block + 2-node room block");
        // Flat lookups are untouched by the new axis.
        assert!(rep
            .get("CG", PolicyKind::Unimem, NvmProfile::BwHalf, 2, 1)
            .is_some());
        let room = TopologySpec::Nodes { count: 2 };
        let dram = rep
            .get_at("CG", PolicyKind::DramOnly, NvmProfile::BwHalf, 2, 1, &room)
            .expect("clustered baseline cell exists");
        assert!((dram.normalized_to_dram - 1.0).abs() < 1e-12);
        assert_eq!(dram.coords(), "CG/bw-half/r2@nodes2/dram-only");
        let unimem = rep
            .get_at("CG", PolicyKind::Unimem, NvmProfile::BwHalf, 2, 1, &room)
            .expect("clustered policy cell exists");
        assert!(unimem.normalized_to_dram.is_finite() && unimem.time_s() > 0.0);
        // Two ranks on two linked nodes pay inter-node collectives the
        // flat world never sees.
        let flat = rep
            .get("CG", PolicyKind::DramOnly, NvmProfile::BwHalf, 2, 1)
            .unwrap();
        assert!(
            dram.time_s() > flat.time_s(),
            "splitting ranks across nodes must cost link time \
             (clustered {} vs flat {})",
            dram.time_s(),
            flat.time_s()
        );
    }

    #[test]
    fn mixed_room_packs_and_reports_slots() {
        let mut cfg = micro();
        cfg.ranks = vec![4];
        cfg.topologies = vec![TopologySpec::Mixed {
            profiles: vec![NvmProfile::BwHalf, NvmProfile::Lat4x],
        }];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        assert_eq!(rep.cells.len(), 2);
        // 4 ranks over 2 nodes: the cell reports the room's packing.
        assert_eq!(rep.cells[0].ranks_per_node, 2);
        assert_eq!(
            rep.cells[1].coords(),
            "CG/bw-half/r4x2@mixed:bw-half+lat-4x/unimem"
        );
    }

    #[test]
    fn zero_node_topology_is_an_error() {
        let mut cfg = micro();
        cfg.topologies = vec![];
        assert!(run_sweep_cached(&cfg, default_workers(), None)
            .unwrap_err()
            .contains("topologies"));
        cfg.topologies = vec![TopologySpec::Nodes { count: 0 }];
        assert!(run_sweep_cached(&cfg, default_workers(), None)
            .unwrap_err()
            .contains("zero nodes"));
        // A room bigger than the job applies to no row: error, not a
        // silent zero-cell report.
        cfg.topologies = vec![TopologySpec::Nodes { count: 8 }];
        assert!(run_sweep_cached(&cfg, default_workers(), None)
            .unwrap_err()
            .contains("applies to"));
    }

    #[test]
    fn empty_ranks_per_node_axis_is_an_error() {
        let mut cfg = micro();
        cfg.ranks_per_node = vec![];
        assert!(run_sweep_cached(&cfg, default_workers(), None).is_err());
        cfg.ranks_per_node = vec![0];
        assert!(run_sweep_cached(&cfg, default_workers(), None).is_err());
        // All layouts filtered out (every rpn > every rank count) must be
        // an error, not a silent zero-cell report.
        cfg.ranks_per_node = vec![8];
        let err = run_sweep_cached(&cfg, default_workers(), None).unwrap_err();
        assert!(err.contains("no valid"), "{err}");
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let mut cfg = micro();
        cfg.workloads.push("EP".into());
        assert!(run_sweep_cached(&cfg, default_workers(), None).is_err());
        // Even when another axis is empty and no cell would ever run.
        cfg.profiles.clear();
        assert!(run_sweep_cached(&cfg, default_workers(), None).is_err());
    }

    #[test]
    fn zero_ranks_is_an_error() {
        let mut cfg = micro();
        cfg.ranks = vec![0];
        assert!(run_sweep_cached(&cfg, default_workers(), None).is_err());
    }

    #[test]
    fn duplicate_axis_values_collapse() {
        let mut cfg = micro();
        cfg.ranks = vec![2, 2];
        cfg.profiles = vec![NvmProfile::BwHalf, NvmProfile::BwHalf];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        assert_eq!(rep.cells.len(), 2, "duplicates must not double-count cells");
        assert_eq!(rep.config.ranks, [2]);
        assert_eq!(rep.config.profiles, [NvmProfile::BwHalf]);
    }

    #[test]
    fn worker_counts_produce_identical_reports() {
        let mut cfg = micro();
        cfg.policies = PolicyKind::ALL.to_vec();
        let serial = run_sweep_cached(&cfg, 1, None).unwrap();
        let parallel = run_sweep_cached(&cfg, 8, None).unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(
                a.coords(),
                b.coords(),
                "cell order must not depend on workers"
            );
            assert_eq!(a.time_s(), b.time_s());
            assert_eq!(a.normalized_to_dram, b.normalized_to_dram);
        }
    }

    #[test]
    fn worker_count_never_reaches_the_report_bytes() {
        let cfg = micro();
        let serial = run_sweep_cached(&cfg, 1, None).unwrap();
        let wide = run_sweep_cached(&cfg, 8, None).unwrap();
        // The serialized bytes are a pure function of the matrix.
        let (a, b) = (serial.to_json().to_string(), wide.to_json().to_string());
        assert_eq!(a, b, "worker count must not leak into the report bytes");
        assert!(!a.contains("workers"), "no workers key in the JSON");
    }

    #[test]
    fn non_finite_normalization_is_an_error() {
        assert!((normalized_to_dram(2.0, 1.0).unwrap() - 2.0).abs() < 1e-12);
        for (cell, dram) in [(1.0, 0.0), (0.0, 0.0), (f64::NAN, 1.0), (1.0, f64::NAN)] {
            let err = normalized_to_dram(cell, dram).unwrap_err();
            assert!(err.contains("cannot be judged"), "{err}");
        }
    }

    #[test]
    fn corun_stage_produces_per_tenant_cells_in_canonical_order() {
        let mut cfg = micro();
        cfg.coruns = unimem_workloads::parse_mixes(&["CG+LU"]).unwrap();
        cfg.arbiters = vec![ArbiterPolicy::FairShare, ArbiterPolicy::Priority];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        assert_eq!(rep.corun_cells.len(), 2 * 2, "2 tenants x 2 arbiters");
        // Canonical (profile, mix, arbiter, tenant) order.
        let coords: Vec<String> = rep.corun_cells.iter().map(CorunCell::coords).collect();
        assert_eq!(
            coords,
            [
                "CG+LU[CG]/bw-half/r2/fair-share",
                "CG+LU[LU]/bw-half/r2/fair-share",
                "CG+LU[CG]/bw-half/r2/priority",
                "CG+LU[LU]/bw-half/r2/priority",
            ]
        );
        for c in &rep.corun_cells {
            assert!(c.slowdown.is_finite() && c.slowdown > 0.0);
            assert!(c.solo_time_s > 0.0);
            assert_eq!(c.weight, if c.tenant == "CG" { 4 } else { 1 });
        }
    }

    #[test]
    fn empty_corun_axes_produce_no_corun_cells() {
        let rep = run_sweep_cached(&micro(), default_workers(), None).unwrap();
        assert!(rep.corun_cells.is_empty());
    }

    /// The cache contract in miniature: a cold cached run, a warm rerun,
    /// and a cacheless run all serialize to the same bytes, and the warm
    /// rerun answers every lookup from disk.
    #[test]
    fn cached_sweep_is_byte_identical_and_warms_up() {
        let dir =
            std::env::temp_dir().join(format!("unimem-runner-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = micro();
        cfg.coruns = unimem_workloads::parse_mixes(&["CG+LU"]).unwrap();
        cfg.arbiters = vec![ArbiterPolicy::FairShare];
        let store = SweepCache::open(&dir).expect("cache opens");

        let plain = run_sweep_cached(&cfg, 1, None).expect("cacheless run");
        let cold = run_sweep_cached(&cfg, 1, Some(&store)).expect("cold run");
        assert_eq!(cold.cache_hits, 0, "nothing to hit on a cold cache");
        assert_eq!(cold.cache_lookups, 3, "2 cells + 1 co-run group");
        let warm = run_sweep_cached(&cfg, 1, Some(&store)).expect("warm run");
        assert_eq!(warm.cache_hits, 3, "everything hits on a warm cache");
        assert_eq!(warm.cache_hit_rate(), Some(1.0));
        assert_eq!(plain.cache_hit_rate(), None, "no cache, no evidence");

        let (p, c, w) = (
            plain.to_json().to_string(),
            cold.to_json().to_string(),
            warm.to_json().to_string(),
        );
        assert_eq!(p, c, "the cache must be invisible in the bytes (cold)");
        assert_eq!(p, w, "the cache must be invisible in the bytes (warm)");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The parallel executor shares workload models, the cache model, and
    /// machine configs by reference across worker threads; this is the
    /// compile-time proof they stay `Sync`-shareable.
    #[test]
    fn shared_run_inputs_are_sync() {
        fn assert_sync<T: Sync + ?Sized>() {}
        assert_sync::<dyn unimem::exec::Workload>();
        assert_sync::<Box<dyn unimem::exec::Workload>>();
        assert_sync::<CacheModel>();
        assert_sync::<unimem_hms::MachineConfig>();
        assert_sync::<Policy>();
    }
}
