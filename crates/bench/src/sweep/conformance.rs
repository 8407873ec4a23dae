//! Paper-claim conformance: the headline results of Figs. 9/10 and
//! Table 4 as executable checks over a [`SweepReport`].
//!
//! Each check is scoped to the configurations where the paper actually
//! makes the claim — a sweep cell outside that scope (e.g. ReRAM, whose
//! 4.5 MB/s writes make any migration a loss) is reported but not judged.

use crate::sweep::matrix::{ArbiterPolicy, PolicyKind, TopologySpec};
use crate::sweep::runner::{CorunCell, SweepCell, SweepReport};
use crate::sweep::SweepConfig;
use std::fmt;
use unimem::recovery::{CrashOutcome, RecoverySetup};
use unimem_hms::journal::DurabilityMode;
use unimem_sim::{sample_kill_points, CrashSpec, VDur, VTime};

/// Tolerances for the conformance checks, each mapped to the paper claim
/// it encodes. Defaults carry headroom over the measured reproduction
/// values (see `EXPERIMENTS`/README) so legitimate refactors don't trip
/// them, while a regression of the claim itself still does.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Figs. 9/10 / abstract: "performance comparable to the DRAM-only
    /// system" (paper: at most 16% difference) on the emulation-anchor
    /// profiles at the basic-setup scale (≥ 4 ranks). Checked as
    /// `unimem ≤ dram-only × dram_tracking`. Reproduction worst case:
    /// 1.171 (FT, bw-half, 4 ranks).
    pub dram_tracking: f64,
    /// Figs. 9/10: Unimem outperforms NVM-only everywhere. Checked as
    /// `unimem ≤ nvm-only × nvm_win` on every cell; the 2% slack absorbs
    /// cells where no placement helps and only runtime overhead remains.
    /// Reproduction worst case: 1.015 (Nek5000, ReRAM, 1 rank).
    pub nvm_win: f64,
    /// Figs. 9/10 / §5: Unimem beats the X-Mem static placement on
    /// Nek5000's drifting access pattern. Checked as
    /// `unimem ≤ xmem × xmem_drift` on drift-capable profiles at ≥ 4
    /// ranks. Reproduction worst case: 1.003 (bw-half, 8 ranks — a tie:
    /// both policies reach DRAM-only time).
    pub xmem_drift: f64,
    /// Table 4: pure runtime cost (profiling + modeling + sync, excluding
    /// data movement) stays bounded — the paper reports at most 3.1% of
    /// run time. Checked on every Unimem cell. Reproduction worst case:
    /// 0.09%.
    pub max_runtime_cost: f64,
    /// Co-run QoS (arbitration claim, RIMMS/Olson-style): under the
    /// `priority` arbitration policy, a weighted-priority tenant never
    /// degrades more than a best-effort (weight-1) tenant of the same
    /// mix. Checked per (mix, profile) priority co-run as
    /// `slowdown(priority) ≤ slowdown(best-effort) × tenant_qos`.
    /// Reproduction worst case: 1.000 (the priority tenant is strictly
    /// better or tied in every measured mix).
    pub tenant_qos: f64,
    /// Co-run sanity: a tenant's arbitrated run is never *faster* than
    /// its solo run beyond numeric slack — a slowdown well below 1.0
    /// means the solo baseline or the lease plumbing is broken. Checked
    /// as `slowdown ≥ corun_sanity` on every co-run cell.
    pub corun_sanity: f64,
    /// Placement-philosophy ordering (docs/CONFORMANCE.md): on the
    /// emulation-anchor profiles at basic-setup scale with one rank per
    /// node, phase-aware planning with overlapped migration (Unimem)
    /// beats phase-blind interval guidance (online-guidance, after
    /// Olson et al.), which in turn beats never promoting (NVM-only).
    /// Checked both ways per online-guidance cell:
    /// `unimem ≤ online-guidance × policy_ordering` and
    /// `online-guidance ≤ nvm-only × policy_ordering`. The slack absorbs
    /// near-tie cells where the working set fits the budget either way.
    /// Reproduction worst case: 1.007 (MG, lat-4x, 8 ranks — guidance
    /// ties Unimem once the hot set stabilizes).
    pub policy_ordering: f64,
    /// Migration-contention evidence floor, in seconds: when the matrix
    /// carries a multi-rank-per-node layout, at least one Unimem cell at
    /// `ranks_per_node ≥ 2` must report at least this much
    /// neighbor-caused contention time — proof that a co-located rank
    /// was measurably slowed by its neighbor's migration traffic, so the
    /// shared-bandwidth pathway cannot pass vacuously.
    pub contention_evidence_min: f64,
    /// Rank count from which the scale-scoped checks apply (the paper's
    /// basic tests use 4 nodes).
    pub min_ranks: usize,
    /// Recovery-cost bound (docs/CONFORMANCE.md `recovery-cost`): for
    /// the durable journal modes (Buffered, Strict), recovering from a
    /// crash — replaying the durable journal, then re-executing to
    /// completion — must never cost more than this multiple of simply
    /// restarting the job from scratch. Replay substitutes journaled
    /// observations for live modeling, so even a crash at t=0 recovers
    /// in about the restart time; the slack absorbs journal read/apply
    /// overhead. Reproduction worst case: 1.001.
    pub recovery_bound: f64,
    /// Non-vacuous arm of `recovery-cost`: a *late* Strict-mode crash
    /// (75% through the run) must show restart costing at least this
    /// multiple of recovery — proof the journal actually shortened the
    /// redo, not just that the bound above never fired. Reproduction
    /// worst case (minimum observed advantage): 3.2.
    pub recovery_advantage_min: f64,
    /// Seeded kill points sampled per (workload, durability mode) in the
    /// crash-injection probe, on top of the forced late crash.
    pub crash_samples: usize,
    /// Fig. 12 shape (docs/CONFORMANCE.md `weak-scaling`): Unimem's
    /// benefit must survive scale-out. The [`check_weak_scaling`] probe
    /// runs Unimem and DRAM-only at basic-setup scale in the flat world
    /// and again at [`Tolerances::weak_scaling_ranks`] ranks spread over
    /// a multi-node machine room (hierarchical collectives, contended
    /// inter-node links), and requires
    /// `normalized(scaled) ≤ normalized(base) × weak_scaling` — the
    /// Unimem-vs-DRAM gap may not blow up when collectives go
    /// hierarchical. Reproduction worst case: 1.012 (CG, bw-half,
    /// 4 ranks flat → 64 ranks on 16 nodes).
    pub weak_scaling: f64,
    /// Rank count of the scaled arm of the weak-scaling probe, spread
    /// four ranks per node (the paper's Fig. 12 reaches 64 ranks).
    pub weak_scaling_ranks: usize,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            dram_tracking: 1.25,
            nvm_win: 1.02,
            xmem_drift: 1.01,
            max_runtime_cost: 0.031,
            tenant_qos: 1.02,
            corun_sanity: 0.98,
            policy_ordering: 1.02,
            contention_evidence_min: 1e-6,
            min_ranks: 4,
            recovery_bound: 1.05,
            recovery_advantage_min: 1.2,
            crash_samples: 3,
            weak_scaling: 1.15,
            weak_scaling_ranks: 64,
        }
    }
}

/// One failed check.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which check fired ("dram-tracking", "nvm-win", "xmem-drift",
    /// "runtime-cost", "determinism", "corun-sanity", "tenant-qos",
    /// "migration-contention", "policy-ordering", "hw-cache-envelope",
    /// "recovery-equivalence", "recovery-cost", "recovery-advantage",
    /// "recovery-coverage").
    pub check: &'static str,
    /// Cell coordinates ("CG/bw-half/r4/unimem").
    pub cell: String,
    /// Human-readable explanation with the measured values.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.check, self.cell, self.detail)
    }
}

fn ratio_violation(
    check: &'static str,
    cell: &SweepCell,
    baseline: &SweepCell,
    limit: f64,
) -> Option<Violation> {
    let ratio = cell.time_s() / baseline.time_s();
    (ratio > limit).then(|| Violation {
        check,
        cell: cell.coords(),
        detail: format!(
            "{:.4}s vs {} {:.4}s — ratio {ratio:.3} exceeds {limit:.3}",
            cell.time_s(),
            baseline.policy.name(),
            baseline.time_s(),
        ),
    })
}

fn missing_baseline(check: &'static str, cell: &SweepCell, baseline: PolicyKind) -> Violation {
    Violation {
        check,
        cell: cell.coords(),
        detail: format!(
            "required {} baseline cell missing from the matrix; claim not evaluated",
            baseline.name()
        ),
    }
}

/// Run every in-scope check over the sweep. An empty result means the
/// matrix conforms to the paper's claims at the given tolerances — and
/// that every in-scope claim was actually evaluated: a matrix without
/// Unimem cells, or missing a baseline an in-scope check needs, yields
/// violations rather than a vacuous pass.
pub fn check_report(report: &SweepReport, tol: &Tolerances) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !report.cells.iter().any(|c| c.policy == PolicyKind::Unimem) {
        violations.push(Violation {
            check: "coverage",
            cell: "(matrix)".into(),
            detail: "matrix contains no unimem cells; no paper claim was evaluated".into(),
        });
        return violations;
    }
    for cell in &report.cells {
        if cell.policy != PolicyKind::Unimem {
            continue;
        }
        // The paper's single-node-class claims are judged in the flat
        // world; clustered cells are owned by `check_weak_scaling`.
        if cell.topology != TopologySpec::Flat {
            continue;
        }
        let at = |policy| {
            report.get(
                &cell.workload,
                policy,
                cell.profile,
                cell.nranks,
                cell.ranks_per_node,
            )
        };

        // Table-4 runtime-cost bound applies to every Unimem cell.
        let cost = cell.report.job.pure_runtime_cost();
        if cost > tol.max_runtime_cost {
            violations.push(Violation {
                check: "runtime-cost",
                cell: cell.coords(),
                detail: format!(
                    "pure runtime cost {:.4} exceeds {:.4}",
                    cost, tol.max_runtime_cost
                ),
            });
        }

        // Unimem must win (within slack) against NVM-only everywhere.
        match at(PolicyKind::NvmOnly) {
            Some(nvm) => violations.extend(ratio_violation("nvm-win", cell, nvm, tol.nvm_win)),
            None => violations.push(missing_baseline("nvm-win", cell, PolicyKind::NvmOnly)),
        }

        // The remaining claims are made at basic-setup scale AND at the
        // paper's one-rank-per-node configuration. On packed nodes the
        // claims are not achievable even in principle: shared bandwidth
        // amplifies the NVM bottleneck (Fig. 2's own premise), so even a
        // migration-free static placement lands far above the DRAM-only
        // baseline (measured: X-Mem itself at 1.35× on Nek5000/bw-half
        // at 4 ranks × 2 per node). Packed layouts are governed by
        // `nvm-win` (every cell) and `migration-contention` instead.
        if cell.nranks < tol.min_ranks || cell.ranks_per_node != 1 {
            continue;
        }
        if cell.profile.tracks_dram() {
            match at(PolicyKind::DramOnly) {
                Some(dram) => violations.extend(ratio_violation(
                    "dram-tracking",
                    cell,
                    dram,
                    tol.dram_tracking,
                )),
                None => violations.push(missing_baseline(
                    "dram-tracking",
                    cell,
                    PolicyKind::DramOnly,
                )),
            }
        }
        if cell.workload == "Nek5000" && cell.profile.supports_drift_win() {
            match at(PolicyKind::Xmem) {
                Some(xmem) => {
                    violations.extend(ratio_violation("xmem-drift", cell, xmem, tol.xmem_drift))
                }
                None => violations.push(missing_baseline("xmem-drift", cell, PolicyKind::Xmem)),
            }
        }
    }
    violations.extend(check_policy_ordering(report, tol));
    violations.extend(check_hw_cache_envelope(report));
    violations.extend(check_migration_contention(report, tol));
    violations.extend(check_coruns(report, tol));
    violations
}

/// `hw-cache-envelope` bound (docs/CONFORMANCE.md): a hardware-managed
/// DRAM cache has no software cost and no migration stall, so it has no
/// reason to run slower than having no DRAM at all. Every `hw-cache`
/// cell takes at most this multiple of its row's NVM-only time; the 1%
/// leaves room for the fill writes on packed nodes.
const HW_CACHE_ENVELOPE: f64 = 1.01;

/// The `hw-cache-envelope` check: every `hw-cache` cell, in every row
/// and room, within [`HW_CACHE_ENVELOPE`] of its row's NVM-only time.
fn check_hw_cache_envelope(report: &SweepReport) -> Vec<Violation> {
    let mut violations = Vec::new();
    for cell in report
        .cells
        .iter()
        .filter(|c| c.policy == PolicyKind::HwCache)
    {
        let nvm = report.get_at(
            &cell.workload,
            PolicyKind::NvmOnly,
            cell.profile,
            cell.nranks,
            cell.ranks_per_node,
            &cell.topology,
        );
        violations.extend(match nvm {
            Some(nvm) => ratio_violation("hw-cache-envelope", cell, nvm, HW_CACHE_ENVELOPE),
            None => Some(missing_baseline(
                "hw-cache-envelope",
                cell,
                PolicyKind::NvmOnly,
            )),
        });
    }
    violations
}

/// The `policy-ordering` check: on the emulation-anchor profiles at
/// basic-setup scale with one rank per node, the three placement
/// philosophies order as `unimem ≤ online-guidance ≤ nvm-only`, each
/// within `policy_ordering` slack — phase-aware planning beats
/// phase-blind interval guidance beats never promoting. Scoped to
/// matrices that carry the `online-guidance` axis; an eligible matrix
/// that evaluated no comparison is a failure, not a vacuous pass.
fn check_policy_ordering(report: &SweepReport, tol: &Tolerances) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !report.config.policies.contains(&PolicyKind::OnlineGuidance) {
        return violations;
    }
    let mut evaluated = 0usize;
    for cell in &report.cells {
        if cell.policy != PolicyKind::OnlineGuidance
            || !cell.profile.tracks_dram()
            || cell.ranks_per_node != 1
            || cell.nranks < tol.min_ranks
            || cell.topology != TopologySpec::Flat
        {
            continue;
        }
        let at = |policy| {
            report.get(
                &cell.workload,
                policy,
                cell.profile,
                cell.nranks,
                cell.ranks_per_node,
            )
        };
        match at(PolicyKind::Unimem) {
            Some(uni) => {
                evaluated += 1;
                violations.extend(ratio_violation(
                    "policy-ordering",
                    uni,
                    cell,
                    tol.policy_ordering,
                ));
            }
            None => violations.push(missing_baseline(
                "policy-ordering",
                cell,
                PolicyKind::Unimem,
            )),
        }
        match at(PolicyKind::NvmOnly) {
            Some(nvm) => {
                evaluated += 1;
                violations.extend(ratio_violation(
                    "policy-ordering",
                    cell,
                    nvm,
                    tol.policy_ordering,
                ));
            }
            None => violations.push(missing_baseline(
                "policy-ordering",
                cell,
                PolicyKind::NvmOnly,
            )),
        }
    }
    let scope_requested = report.config.profiles.iter().any(|p| p.tracks_dram())
        && report
            .config
            .rank_layouts()
            .iter()
            .any(|&(r, rpn)| rpn == 1 && r >= tol.min_ranks);
    if scope_requested && evaluated == 0 && violations.is_empty() {
        violations.push(Violation {
            check: "policy-ordering",
            cell: "(matrix)".into(),
            detail: "online-guidance requested with anchor profiles and a basic-setup \
                     layout in scope, but no ordering comparison was evaluated"
                .into(),
        });
    }
    violations
}

/// Policies that never move data: `dram-only` and `nvm-only` pin every
/// object to one tier, and `xmem` pins its offline placement for the
/// whole run.
const MIGRATION_FREE: [PolicyKind; 3] =
    [PolicyKind::DramOnly, PolicyKind::NvmOnly, PolicyKind::Xmem];

/// The `migration-contention` check, in two halves.
///
/// A run that moves no data posts no helper flow, so it pays no
/// contention: every cell of a [`MIGRATION_FREE`] policy, in every
/// layout and room, must report zero migrations and zero contention
/// time, for the job and for each rank.
///
/// When the matrix carries a `ranks_per_node ≥ 2` layout, the contention
/// pathway must also be demonstrably live — at least one Unimem cell on
/// a packed node reports neighbor-caused contention time, i.e. a
/// co-located rank was measurably slowed by its neighbor's migration
/// traffic. A matrix whose layouts never pack a node is out of scope for
/// this half (the claim is about shared nodes). "Unimem still beats
/// NVM-only under contention" needs no extra code: the `nvm-win` check
/// runs per cell at matching coordinates, packed layouts included.
fn check_migration_contention(report: &SweepReport, tol: &Tolerances) -> Vec<Violation> {
    let mut violations: Vec<Violation> = report
        .cells
        .iter()
        .filter(|c| MIGRATION_FREE.contains(&c.policy))
        .filter_map(|cell| {
            let ranks = cell.report.per_rank.iter().enumerate();
            let (rank, s) = std::iter::once((None, &cell.report.job))
                .chain(ranks.map(|(r, s)| (Some(r), s)))
                .find(|(_, s)| {
                    s.migrations.count > 0
                        || !s.contention_time.is_zero()
                        || !s.neighbor_contention_time.is_zero()
                })?;
            let who = rank.map_or("the job".to_string(), |r| format!("rank {r}"));
            Some(Violation {
                check: "migration-contention",
                cell: cell.coords(),
                detail: format!(
                    "{who} of a migration-free policy reports {} migration(s) and \
                     {:.3e}s contention ({:.3e}s from neighbors): the contention \
                     model charged a run that moves no data",
                    s.migrations.count,
                    s.contention_time.secs(),
                    s.neighbor_contention_time.secs(),
                ),
            })
        })
        .collect();
    let packed_requested = report
        .config
        .rank_layouts()
        .iter()
        .any(|&(_, rpn)| rpn >= 2);
    if !packed_requested {
        return violations;
    }
    let packed_unimem: Vec<&SweepCell> = report
        .cells
        .iter()
        .filter(|c| {
            c.policy == PolicyKind::Unimem
                && c.ranks_per_node >= 2
                && c.topology == TopologySpec::Flat
        })
        .collect();
    if packed_unimem.is_empty() {
        violations.push(Violation {
            check: "migration-contention",
            cell: "(matrix)".into(),
            detail: "ranks_per_node ≥ 2 requested but no packed Unimem cell ran; \
                     the contention claim was not evaluated"
                .into(),
        });
        return violations;
    }
    let best = packed_unimem
        .iter()
        .max_by(|a, b| {
            a.report
                .job
                .neighbor_contention_time
                .secs()
                .total_cmp(&b.report.job.neighbor_contention_time.secs())
        })
        .expect("non-empty");
    if best.report.job.neighbor_contention_time.secs() < tol.contention_evidence_min {
        violations.push(Violation {
            check: "migration-contention",
            cell: best.coords(),
            detail: format!(
                "no packed Unimem cell shows neighbor-induced contention ≥ {:.2e}s \
                 (best: {:.3e}s) — neighbor migration traffic never slowed a \
                 co-located rank, so the shared-bandwidth pathway looks dead",
                tol.contention_evidence_min,
                best.report.job.neighbor_contention_time.secs(),
            ),
        });
    }
    violations
}

/// The co-run checks: per-cell sanity (no tenant beats its solo run
/// beyond numeric slack) and the tenant-QoS claim (under `priority`
/// arbitration, every weighted tenant's slowdown stays within
/// `tenant_qos` of every best-effort tenant's in the same co-run). A
/// config that asks for mixes but produced no priority cells — or a
/// priority co-run without both tenant classes — is a coverage violation,
/// not a silent pass.
fn check_coruns(report: &SweepReport, tol: &Tolerances) -> Vec<Violation> {
    let mut violations = Vec::new();
    if report.config.coruns.is_empty() {
        return violations;
    }
    for cell in &report.corun_cells {
        if cell.slowdown < tol.corun_sanity {
            violations.push(Violation {
                check: "corun-sanity",
                cell: cell.coords(),
                detail: format!(
                    "slowdown {:.4} below {:.3}: arbitrated run beats the solo baseline",
                    cell.slowdown, tol.corun_sanity
                ),
            });
        }
    }
    let priority: Vec<&CorunCell> = report
        .corun_cells
        .iter()
        .filter(|c| c.arbiter == ArbiterPolicy::Priority)
        .collect();
    if priority.is_empty() {
        violations.push(Violation {
            check: "tenant-qos",
            cell: "(corun matrix)".into(),
            detail: "no priority-arbitration co-run cells; the QoS claim was not evaluated".into(),
        });
        return violations;
    }
    // Group by (mix, profile, nranks) — one priority co-run each.
    let mut groups: Vec<(&CorunCell, Vec<&CorunCell>)> = Vec::new();
    for c in priority {
        match groups
            .iter_mut()
            .find(|(k, _)| k.mix == c.mix && k.profile == c.profile && k.nranks == c.nranks)
        {
            Some((_, v)) => v.push(c),
            None => groups.push((c, vec![c])),
        }
    }
    for (key, cells) in groups {
        let weighted: Vec<&&CorunCell> = cells.iter().filter(|c| c.weight > 1).collect();
        let best_effort: Vec<&&CorunCell> = cells.iter().filter(|c| c.weight == 1).collect();
        if weighted.is_empty() || best_effort.is_empty() {
            violations.push(Violation {
                check: "tenant-qos",
                cell: format!("{}/{}/r{}", key.mix, key.profile.name(), key.nranks),
                detail: "priority co-run lacks a weighted or a best-effort tenant; \
                         claim not evaluated"
                    .into(),
            });
            continue;
        }
        for hi in &weighted {
            for lo in &best_effort {
                if hi.slowdown > lo.slowdown * tol.tenant_qos {
                    violations.push(Violation {
                        check: "tenant-qos",
                        cell: hi.coords(),
                        detail: format!(
                            "priority tenant slowdown {:.4} exceeds best-effort tenant {} \
                             ({:.4}) × {:.3}",
                            hi.slowdown, lo.tenant, lo.slowdown, tol.tenant_qos
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Determinism check: re-run a representative Unimem cell of each profile
/// at the matrix's largest rank count and require byte-identical
/// `RunReport` JSON. This guards the virtual-clock MPI layer and the
/// policies against hidden state — any nondeterminism in the rank
/// execution shows up as differing serialized stats.
pub fn check_determinism(cfg: &SweepConfig) -> Vec<Violation> {
    use unimem::exec::{run_workload, Policy};
    use unimem_cache::CacheModel;
    use unimem_workloads::{canonical_name, select};

    let Some(&nranks) = cfg.ranks.iter().max() else {
        return Vec::new();
    };
    // Nek5000 exercises the most runtime machinery (drift → re-profiling
    // → migration); fall back to the first workload if absent. Compare
    // canonical names so aliases ("nek") still pick it.
    let workload = cfg
        .workloads
        .iter()
        .find(|w| canonical_name(w) == Some("Nek5000"))
        .or_else(|| cfg.workloads.first());
    let Some(workload) = workload else {
        return Vec::new();
    };
    let Ok(selection) = select(&[workload.as_str()], cfg.class) else {
        return Vec::new(); // unknown names are run_sweep_cached's error to report
    };
    let (canon, w) = &selection[0];

    let cache = CacheModel::platform_a();
    let mut violations = Vec::new();
    for &profile in &cfg.profiles {
        let machine = cfg.machine(profile, 1);
        // Unimem always probes (it exercises the most machinery); the
        // new-in-v4 policies probe when the matrix carries them —
        // hw-cache's fractional hit splitting and online-guidance's
        // thinned sampling must replay byte-identically too.
        let mut probes: Vec<(&str, Policy)> = vec![("unimem", Policy::unimem())];
        if cfg.policies.contains(&PolicyKind::HwCache) {
            probes.push(("hw-cache", Policy::hw_cache()));
        }
        if cfg.policies.contains(&PolicyKind::OnlineGuidance) {
            probes.push(("online-guidance", Policy::online_guidance()));
        }
        for (name, policy) in &probes {
            let run = || {
                run_workload(w.as_ref(), &machine, &cache, nranks, policy)
                    .to_json()
                    .to_pretty()
            };
            if run() != run() {
                violations.push(Violation {
                    check: "determinism",
                    cell: format!("{canon}/{}/r{nranks}/{name}", profile.name()),
                    detail: "repeated runs produced different RunReport JSON bytes".into(),
                });
            }
        }
    }
    violations
}

/// Weak-scaling probe (the `weak-scaling` check, Fig. 12 shape): like
/// [`check_determinism`] this is a standalone probe over the sweep
/// *configuration*, running its own jobs rather than reading the report.
///
/// The matrix's first workload runs under Unimem and DRAM-only twice:
///
/// 1. **base** — `min_ranks` ranks in the classic flat world;
/// 2. **scaled** — [`Tolerances::weak_scaling_ranks`] ranks spread four
///    per node over a homogeneous machine room
///    (`unimem::exec::run_workload_clustered`): two-level collectives,
///    inter-node traffic on the contended link channels.
///
/// The claim is the Fig. 12 *shape*: Unimem's position relative to
/// DRAM-only survives scale-out, i.e.
/// `normalized(scaled) ≤ normalized(base) × weak_scaling`. Both arms
/// must be non-vacuous — positive baseline times, a genuinely
/// multi-node room — or the probe reports a coverage violation instead
/// of passing silently.
pub fn check_weak_scaling(cfg: &SweepConfig, tol: &Tolerances) -> Vec<Violation> {
    use unimem::exec::{run_workload, run_workload_clustered, Policy};
    use unimem_cache::CacheModel;
    use unimem_hms::topology::{ClusterSpec, ClusterTopology};
    use unimem_workloads::select;

    let coverage = |detail: String| {
        vec![Violation {
            check: "weak-scaling",
            cell: "(matrix)".into(),
            detail,
        }]
    };
    let Some(workload) = cfg.workloads.first() else {
        return coverage("matrix has no workloads; the scaling claim was not evaluated".into());
    };
    let Some(&profile) = cfg.profiles.first() else {
        return coverage("matrix has no NVM profiles; the scaling claim was not evaluated".into());
    };
    let Ok(selection) = select(&[workload.as_str()], cfg.class) else {
        return Vec::new(); // unknown names are run_sweep_cached's error to report
    };
    let (canon, w) = &selection[0];

    let base_ranks = tol.min_ranks.max(1);
    let scaled_ranks = tol.weak_scaling_ranks;
    let slots = 4usize.min(scaled_ranks);
    let n_nodes = scaled_ranks.div_ceil(slots);
    if n_nodes < 2 || scaled_ranks <= base_ranks {
        return coverage(format!(
            "scaled arm ({scaled_ranks} ranks, {n_nodes} nodes) is not a genuine \
             multi-node scale-out over the {base_ranks}-rank base"
        ));
    }

    let cache = CacheModel::platform_a();
    let cell = format!(
        "{canon}/{}/r{base_ranks}→r{scaled_ranks}@nodes{n_nodes}/unimem",
        profile.name()
    );

    let flat = cfg.machine(profile, 1);
    let base_dram = run_workload(w.as_ref(), &flat, &cache, base_ranks, &Policy::DramOnly);
    let base_uni = run_workload(w.as_ref(), &flat, &cache, base_ranks, &Policy::unimem());
    let room = ClusterSpec::homogeneous(cfg.machine(profile, slots), n_nodes, slots);
    let topo = ClusterTopology::contiguous(room, scaled_ranks);
    let scaled_dram = run_workload_clustered(w.as_ref(), &topo, &cache, &Policy::DramOnly);
    let scaled_uni = run_workload_clustered(w.as_ref(), &topo, &cache, &Policy::unimem());

    let (bd, bu) = (base_dram.time().secs(), base_uni.time().secs());
    let (sd, su) = (scaled_dram.time().secs(), scaled_uni.time().secs());
    if !(bd > 0.0 && sd > 0.0) {
        return coverage(format!(
            "DRAM-only baselines must be positive (base {bd}s, scaled {sd}s)"
        ));
    }
    let (base_norm, scaled_norm) = (bu / bd, su / sd);
    if scaled_norm > base_norm * tol.weak_scaling {
        return vec![Violation {
            check: "weak-scaling",
            cell,
            detail: format!(
                "normalized-to-DRAM grew from {base_norm:.3} ({base_ranks} ranks, flat) to \
                 {scaled_norm:.3} ({scaled_ranks} ranks on {n_nodes} nodes) — \
                 exceeds ×{:.3}: Unimem's Fig. 12 shape did not survive scale-out",
                tol.weak_scaling
            ),
        }];
    }
    Vec::new()
}

/// Seed of the crash-injection kill points ([`inject_crashes`]).
pub const CRASH_SEED: u64 = 0xC4A5;

/// One injected crash and what recovering from it gave.
pub struct KillPoint {
    /// Position among its mode's kill points; the forced late crash is
    /// last.
    pub index: usize,
    /// The forced late Strict crash (75% through the run).
    pub forced_late: bool,
    pub outcome: CrashOutcome,
    /// The verdicts it failed; empty when the recovery passed.
    pub violations: Vec<Violation>,
}

/// The crash-injection loop of [`check_recovery`] and
/// `examples/crash_sweep.rs`: in each of `modes`, journal a clean run of
/// `setup`, kill it at `points` virtual times sampled from `seed` (in
/// Strict mode also at 75% of the run, the forced late crash), recover
/// from the durable journal prefix, and judge each recovery:
///
/// 1. **recovery-equivalence** — the recovered run's `RunReport` JSON
///    and regenerated journals are byte-identical to the clean run's;
/// 2. **recovery-cost** — in the durable modes (Buffered, Strict),
///    `recovery_time ≤ recovery_bound × restart_time`;
/// 3. **recovery-advantage** — the forced late crash shows
///    `restart_time / recovery_time ≥ recovery_advantage_min`, proof the
///    journal genuinely shortened the redo.
///
/// A recovery that is not equivalent is judged on that alone. `cell`
/// (workload, profile and ranks) starts each violation's coordinates.
/// Every kill point is replayable from `(seed, index)` alone.
pub fn inject_crashes(
    setup: &RecoverySetup<'_>,
    modes: &[DurabilityMode],
    seed: u64,
    points: usize,
    tol: &Tolerances,
    cell: &str,
) -> Vec<KillPoint> {
    let mut kills = Vec::new();
    for &mode in modes {
        let clean = setup.run_journaled(mode);
        let horizon = VTime::ZERO + clean.report.time();
        let mut crashes = sample_kill_points(seed, horizon, points);
        if mode == DurabilityMode::Strict {
            crashes.push(CrashSpec::at(
                VTime::ZERO + VDur(clean.report.time().secs() * 0.75),
            ));
        }
        for (index, crash) in crashes.iter().enumerate() {
            let cell = format!(
                "{cell}/{}/kill{index}@{:.4}s{}",
                mode.name(),
                crash.at.secs(),
                if crash.torn { "+torn" } else { "" },
            );
            let out = setup.crash_and_recover(mode, *crash, &clean);
            let forced_late = mode == DurabilityMode::Strict && index == crashes.len() - 1;
            let mut violations = Vec::new();
            let ratio = out.stats.recovery_time.secs() / out.stats.restart_time.secs();
            if !out.equivalent() {
                let mismatches: u64 = out.summaries.iter().map(|s| s.comm_mismatches).sum();
                violations.push(Violation {
                    check: "recovery-equivalence",
                    cell,
                    detail: format!(
                        "recovered run differs from clean run \
                         (report_equal={}, journals_equal={}, comm_mismatches={})",
                        out.report_equal, out.journals_equal, mismatches,
                    ),
                });
            } else {
                if mode != DurabilityMode::InMemory && ratio > tol.recovery_bound {
                    violations.push(Violation {
                        check: "recovery-cost",
                        cell: cell.clone(),
                        detail: format!(
                            "recovery {:.4}s vs restart {:.4}s — ratio {ratio:.3} exceeds {:.3}",
                            out.stats.recovery_time.secs(),
                            out.stats.restart_time.secs(),
                            tol.recovery_bound,
                        ),
                    });
                }
                if forced_late && out.stats.advantage() < tol.recovery_advantage_min {
                    violations.push(Violation {
                        check: "recovery-advantage",
                        cell,
                        detail: format!(
                            "late-crash advantage {:.3} below {:.3} — \
                             the journal did not shorten the redo",
                            out.stats.advantage(),
                            tol.recovery_advantage_min,
                        ),
                    });
                }
            }
            kills.push(KillPoint {
                index,
                forced_late,
                outcome: out,
                violations,
            });
        }
    }
    kills
}

/// Crash-consistency probe (the `recovery-*` checks): [`inject_crashes`]
/// under Unimem on the matrix's first profile, at its largest rank count,
/// in every durability mode, for Nek5000 (drift → re-profiling →
/// migration, the most journal traffic) and the matrix's first other
/// workload.
///
/// Like [`check_determinism`] this is a standalone probe over the sweep
/// *configuration*, not the report: it runs its own small jobs. A
/// configuration that cannot evaluate the claim (no workloads, zero
/// `crash_samples`) yields a `recovery-coverage` violation rather than
/// passing vacuously.
pub fn check_recovery(cfg: &SweepConfig, tol: &Tolerances) -> Vec<Violation> {
    use unimem::exec::Policy;
    use unimem_cache::CacheModel;
    use unimem_workloads::{canonical_name, select};

    let mut violations = Vec::new();
    if tol.crash_samples == 0 {
        violations.push(Violation {
            check: "recovery-coverage",
            cell: "(matrix)".into(),
            detail: "crash_samples is 0; no kill point was injected".into(),
        });
        return violations;
    }
    let Some(&nranks) = cfg.ranks.iter().max() else {
        violations.push(Violation {
            check: "recovery-coverage",
            cell: "(matrix)".into(),
            detail: "matrix has no rank counts; no crash was injected".into(),
        });
        return violations;
    };
    let mut names: Vec<&String> = Vec::new();
    if let Some(nek) = cfg
        .workloads
        .iter()
        .find(|w| canonical_name(w) == Some("Nek5000"))
    {
        names.push(nek);
    }
    if let Some(other) = cfg.workloads.iter().find(|w| !names.contains(w)) {
        names.push(other);
    }
    if names.is_empty() {
        violations.push(Violation {
            check: "recovery-coverage",
            cell: "(matrix)".into(),
            detail: "matrix has no workloads; no crash was injected".into(),
        });
        return violations;
    }
    let Some(&profile) = cfg.profiles.first() else {
        violations.push(Violation {
            check: "recovery-coverage",
            cell: "(matrix)".into(),
            detail: "matrix has no NVM profiles; no crash was injected".into(),
        });
        return violations;
    };
    let machine = cfg.machine(profile, 1);
    let cache = CacheModel::platform_a();
    let policy = Policy::unimem();

    let mut advantage_checked = false;
    for name in names {
        let Ok(selection) = select(&[name.as_str()], cfg.class) else {
            continue; // unknown names are run_sweep_cached's error to report
        };
        let (canon, w) = &selection[0];
        let setup = RecoverySetup {
            workload: w.as_ref(),
            machine: &machine,
            cache: &cache,
            nranks,
            policy: &policy,
        };
        let cell = format!("{canon}/{}/r{nranks}", profile.name());
        let modes = DurabilityMode::ALL;
        for kill in inject_crashes(&setup, &modes, CRASH_SEED, tol.crash_samples, tol, &cell) {
            advantage_checked |= kill.forced_late;
            violations.extend(kill.violations);
        }
    }
    if !advantage_checked {
        violations.push(Violation {
            check: "recovery-coverage",
            cell: "(matrix)".into(),
            detail: "the late Strict crash (non-vacuous arm) never ran".into(),
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::jobs::default_workers;
    use crate::sweep::matrix::NvmProfile;
    use crate::sweep::runner::run_sweep_cached;
    use unimem::exec::RunReport;
    use unimem_workloads::Class;

    fn small_matrix() -> SweepConfig {
        SweepConfig {
            class: Class::C,
            workloads: vec!["CG".into(), "Nek5000".into()],
            policies: PolicyKind::ALL.to_vec(),
            profiles: vec![NvmProfile::BwHalf],
            ranks: vec![4],
            ranks_per_node: vec![1, 2],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: vec![],
            arbiters: vec![],
        }
    }

    #[test]
    fn small_matrix_conforms() {
        let rep = run_sweep_cached(&small_matrix(), default_workers(), None).unwrap();
        let violations = check_report(&rep, &Tolerances::default());
        assert!(
            violations.is_empty(),
            "unexpected violations: {violations:?}"
        );
    }

    #[test]
    fn impossible_tolerances_fire_with_cell_coordinates() {
        let rep = run_sweep_cached(&small_matrix(), default_workers(), None).unwrap();
        let strict = Tolerances {
            dram_tracking: 0.5, // unimem can never halve DRAM-only time
            max_runtime_cost: 0.0,
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        assert!(violations.iter().any(|v| v.check == "dram-tracking"));
        assert!(violations.iter().any(|v| v.check == "runtime-cost"));
        let msg = violations[0].to_string();
        assert!(msg.contains("/r4/unimem"), "coords in message: {msg}");
    }

    /// An `hw-cache` cell 2% slower than its row's NVM-only cell fires
    /// `hw-cache-envelope` with its coordinates; without the NVM-only
    /// cell the claim is a missing baseline.
    #[test]
    fn hw_cache_slower_than_nvm_only_fires_the_envelope() {
        let mut rep = run_sweep_cached(&small_matrix(), default_workers(), None).unwrap();
        let envelope = |rep: &SweepReport| -> Vec<Violation> {
            check_report(rep, &Tolerances::default())
                .into_iter()
                .filter(|v| v.check == "hw-cache-envelope")
                .collect()
        };
        assert!(envelope(&rep).is_empty(), "{:?}", envelope(&rep));
        let hw = rep
            .cells
            .iter()
            .position(|c| c.policy == PolicyKind::HwCache)
            .expect("the small matrix has hw-cache cells");
        let c = &rep.cells[hw];
        let nvm = rep
            .get(
                &c.workload,
                PolicyKind::NvmOnly,
                c.profile,
                c.nranks,
                c.ranks_per_node,
            )
            .expect("nvm-only baseline")
            .report
            .time();
        rep.cells[hw].report.job.total_time = nvm * 1.02;
        let fired = envelope(&rep);
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].cell, rep.cells[hw].coords());

        let config = rep.config.clone();
        let cells = rep
            .cells
            .into_iter()
            .filter(|c| c.policy != PolicyKind::NvmOnly);
        let missing = envelope(&SweepReport::new(config, cells.collect(), Vec::new()));
        assert!(!missing.is_empty());
        assert!(missing.iter().all(|v| v.detail.contains("baseline")));
    }

    #[test]
    fn scale_scoped_checks_skip_single_rank_cells() {
        let mut cfg = small_matrix();
        cfg.ranks = vec![1];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        // 1-rank cells are out of scope for tracking/drift even with
        // impossible tolerances; only the global checks may fire.
        let strict = Tolerances {
            dram_tracking: 0.0,
            xmem_drift: 0.0,
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        assert!(violations
            .iter()
            .all(|v| v.check != "dram-tracking" && v.check != "xmem-drift"));
    }

    #[test]
    fn matrix_without_unimem_is_a_coverage_violation() {
        let mut cfg = small_matrix();
        cfg.policies = vec![PolicyKind::DramOnly, PolicyKind::NvmOnly];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        let violations = check_report(&rep, &Tolerances::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].check, "coverage");
    }

    #[test]
    fn missing_baselines_are_violations_not_silent_skips() {
        let mut cfg = small_matrix();
        cfg.policies = vec![PolicyKind::Unimem];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        let violations = check_report(&rep, &Tolerances::default());
        for check in ["nvm-win", "dram-tracking", "xmem-drift"] {
            assert!(
                violations
                    .iter()
                    .any(|v| v.check == check && v.detail.contains("missing from the matrix")),
                "{check} skipped silently: {violations:?}"
            );
        }
    }

    #[test]
    fn nek_alias_still_gets_the_drift_check() {
        // User spells it "nek"; canonicalization must keep the Nek5000
        // drift claim in scope.
        let mut cfg = small_matrix();
        cfg.workloads = vec!["nek".into()];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        assert_eq!(rep.config.workloads, ["Nek5000"]);
        let strict = Tolerances {
            xmem_drift: 0.0,
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        assert!(
            violations.iter().any(|v| v.check == "xmem-drift"),
            "drift check not evaluated for alias: {violations:?}"
        );
    }

    #[test]
    fn impossible_ordering_tolerance_fires_both_directions() {
        let rep = run_sweep_cached(&small_matrix(), default_workers(), None).unwrap();
        let strict = Tolerances {
            policy_ordering: 0.0, // no finite ratio can pass
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        let ordering: Vec<&Violation> = violations
            .iter()
            .filter(|v| v.check == "policy-ordering")
            .collect();
        // Both inequalities fire per in-scope cell: the unimem-side cell
        // names unimem coordinates, the nvm-side cell names
        // online-guidance coordinates.
        assert!(
            ordering.iter().any(|v| v.cell.ends_with("/unimem")),
            "unimem ≤ online side did not fire: {ordering:?}"
        );
        assert!(
            ordering
                .iter()
                .any(|v| v.cell.ends_with("/online-guidance")),
            "online ≤ nvm side did not fire: {ordering:?}"
        );
        // Out-of-scope packed cells are not judged.
        assert!(ordering.iter().all(|v| !v.cell.contains("x2")));
    }

    #[test]
    fn matrix_without_online_guidance_skips_the_ordering_check() {
        let mut cfg = small_matrix();
        cfg.policies = vec![
            PolicyKind::Unimem,
            PolicyKind::Xmem,
            PolicyKind::DramOnly,
            PolicyKind::NvmOnly,
        ];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        let strict = Tolerances {
            policy_ordering: 0.0,
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        assert!(
            violations.iter().all(|v| v.check != "policy-ordering"),
            "ordering judged a matrix without the online-guidance axis: {violations:?}"
        );
    }

    #[test]
    fn ordering_without_evaluated_cells_is_not_a_vacuous_pass() {
        // A report whose config promises the axis but whose cells lost
        // the online-guidance rows (e.g. a mis-filtered rerun) must fail
        // coverage, not pass silently.
        let rep = run_sweep_cached(&small_matrix(), default_workers(), None).unwrap();
        let kept: Vec<_> = rep
            .cells
            .iter()
            .filter(|c| c.policy != PolicyKind::OnlineGuidance)
            .cloned()
            .collect();
        let rep = SweepReport::new(rep.config.clone(), kept, rep.corun_cells.clone());
        let violations = check_report(&rep, &Tolerances::default());
        assert!(
            violations
                .iter()
                .any(|v| v.check == "policy-ordering" && v.detail.contains("evaluated")),
            "missing online-guidance cells passed silently: {violations:?}"
        );
    }

    #[test]
    fn determinism_probe_passes() {
        let violations = check_determinism(&small_matrix());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn clustered_cells_are_not_judged_by_flat_claims() {
        // A matrix carrying a clustered room must not trip the
        // flat-world checks into "missing baseline" noise: the room's
        // cells are out of their scope by construction.
        let mut cfg = small_matrix();
        cfg.topologies.push(TopologySpec::Nodes { count: 4 });
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        let violations = check_report(&rep, &Tolerances::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn weak_scaling_probe_refuses_vacuous_configurations() {
        let mut empty = small_matrix();
        empty.workloads.clear();
        let violations = check_weak_scaling(&empty, &Tolerances::default());
        assert!(violations.iter().any(|v| v.check == "weak-scaling"));
        // A "scaled" arm no bigger than the base is not a scale-out.
        let single_node = Tolerances {
            weak_scaling_ranks: 4,
            ..Tolerances::default()
        };
        let violations = check_weak_scaling(&small_matrix(), &single_node);
        assert!(
            violations
                .iter()
                .any(|v| v.detail.contains("genuine multi-node")),
            "{violations:?}"
        );
    }

    #[test]
    fn impossible_weak_scaling_tolerance_fires() {
        // A 16-rank scaled arm keeps this test cheap while still
        // crossing nodes; the full 64-rank arm runs in
        // tests/golden_topology.rs and the sweep CLI's --check.
        let tol = Tolerances {
            weak_scaling: 0.0, // no finite ratio can pass
            weak_scaling_ranks: 16,
            ..Tolerances::default()
        };
        let violations = check_weak_scaling(&small_matrix(), &tol);
        assert!(
            violations
                .iter()
                .any(|v| v.check == "weak-scaling" && v.cell.contains("@nodes4")),
            "{violations:?}"
        );
    }

    /// A migration-free cell that reports 1 ns of contention (on the
    /// job) or one migration (on its last rank) fires
    /// `migration-contention` at its coordinates; the unforged report
    /// fires none.
    #[test]
    fn migration_free_cells_that_contend_or_migrate_fire() {
        let rep = run_sweep_cached(&small_matrix(), default_workers(), None).unwrap();
        let contention = |rep: &SweepReport| -> Vec<Violation> {
            check_report(rep, &Tolerances::default())
                .into_iter()
                .filter(|v| v.check == "migration-contention")
                .collect()
        };
        assert!(contention(&rep).is_empty(), "{:?}", contention(&rep));
        for policy in MIGRATION_FREE {
            let k = rep
                .cells
                .iter()
                .position(|c| c.policy == policy)
                .expect("the small matrix has every policy");
            let forgeries: [fn(&mut RunReport); 2] = [
                |r| r.job.contention_time = VDur::from_nanos(1.0),
                |r| r.per_rank.last_mut().unwrap().migrations.count = 1,
            ];
            for forge in forgeries {
                let mut forged = rep.clone();
                forge(&mut forged.cells[k].report);
                let fired = contention(&forged);
                assert_eq!(fired.len(), 1, "{fired:?}");
                assert_eq!(fired[0].cell, rep.cells[k].coords());
            }
        }
    }

    #[test]
    fn recovery_probe_passes() {
        // One sample per mode keeps the probe cheap; the forced late
        // Strict crash (the non-vacuous arm) is always added on top.
        let tol = Tolerances {
            crash_samples: 1,
            ..Tolerances::default()
        };
        let violations = check_recovery(&small_matrix(), &tol);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn recovery_probe_refuses_vacuous_configurations() {
        let no_samples = Tolerances {
            crash_samples: 0,
            ..Tolerances::default()
        };
        let violations = check_recovery(&small_matrix(), &no_samples);
        assert!(violations.iter().any(|v| v.check == "recovery-coverage"));

        let mut empty = small_matrix();
        empty.workloads.clear();
        let violations = check_recovery(&empty, &Tolerances::default());
        assert!(violations.iter().any(|v| v.check == "recovery-coverage"));
    }

    #[test]
    fn impossible_recovery_advantage_fires() {
        // No recovery can beat restart by 1000×: the advantage arm must
        // fire, proving it really measures something.
        let tol = Tolerances {
            crash_samples: 1,
            recovery_advantage_min: 1000.0,
            ..Tolerances::default()
        };
        let violations = check_recovery(&small_matrix(), &tol);
        assert!(
            violations.iter().any(|v| v.check == "recovery-advantage"),
            "{violations:?}"
        );
    }

    #[test]
    fn packed_matrix_without_neighbor_contention_evidence_fires() {
        let rep = run_sweep_cached(&small_matrix(), default_workers(), None).unwrap();
        // An impossible evidence floor: nothing can reach it, so the
        // no-vacuous-pass arm must fire with the best cell's coordinates.
        let strict = Tolerances {
            contention_evidence_min: f64::INFINITY,
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        assert!(
            violations
                .iter()
                .any(|v| v.check == "migration-contention" && v.cell.contains("x2")),
            "evidence requirement did not fire: {violations:?}"
        );
    }

    #[test]
    fn unpacked_matrix_is_out_of_contention_scope() {
        let mut cfg = small_matrix();
        cfg.ranks_per_node = vec![1];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        let strict = Tolerances {
            contention_evidence_min: f64::INFINITY,
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        assert!(
            violations.iter().all(|v| v.check != "migration-contention"),
            "contention check judged a matrix with no packed layout: {violations:?}"
        );
    }

    fn corun_matrix() -> SweepConfig {
        let mut cfg = small_matrix();
        cfg.coruns = unimem_workloads::parse_mixes(&["LU+MG"]).unwrap();
        cfg.arbiters = ArbiterPolicy::ALL.to_vec();
        cfg
    }

    #[test]
    fn corun_checks_pass_on_a_contended_mix() {
        let rep = run_sweep_cached(&corun_matrix(), default_workers(), None).unwrap();
        assert_eq!(rep.corun_cells.len(), 2 * 3);
        let violations = check_report(&rep, &Tolerances::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn impossible_corun_tolerances_fire_with_coordinates() {
        let rep = run_sweep_cached(&corun_matrix(), default_workers(), None).unwrap();
        let strict = Tolerances {
            corun_sanity: 2.0, // no tenant doubles its solo time here
            tenant_qos: 0.0,   // no slowdown can be ≤ 0
            ..Tolerances::default()
        };
        let violations = check_report(&rep, &strict);
        for check in ["corun-sanity", "tenant-qos"] {
            assert!(
                violations
                    .iter()
                    .any(|v| v.check == check && v.cell.contains("LU+MG")),
                "{check} did not fire: {violations:?}"
            );
        }
    }

    #[test]
    fn corun_matrix_without_priority_cells_is_a_coverage_violation() {
        let mut cfg = corun_matrix();
        cfg.arbiters = vec![ArbiterPolicy::FairShare];
        let rep = run_sweep_cached(&cfg, default_workers(), None).unwrap();
        let violations = check_report(&rep, &Tolerances::default());
        assert!(
            violations
                .iter()
                .any(|v| v.check == "tenant-qos" && v.detail.contains("not evaluated")),
            "missing priority cells passed silently: {violations:?}"
        );
    }
}
