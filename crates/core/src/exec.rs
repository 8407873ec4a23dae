//! The execution driver: runs a [`Workload`] under a placement [`Policy`]
//! on a machine model and reports virtual times plus runtime statistics.
//!
//! A workload is a *phase script*: per rank and iteration, a sequence of
//! steps — computation (with per-object access descriptors at class scale)
//! or communication. The driver replays the script, computing ground-truth
//! phase times from the cache model and tier parameters under the
//! *current* placement. Placement itself is the [`Policy`]'s per-rank
//! [`crate::policy::RankState`]: the driver calls the same
//! lifecycle hooks for every policy (iteration begin, phase begin,
//! observe, iteration end), and the policy's [`crate::policy::TierView`]
//! is what the timing model charges. The Unimem implementation manages
//! placement exactly as §3.1 prescribes: profile the first iteration,
//! decide at its end, enforce thereafter, re-profile on variation.
//!
//! The same regularity makes the timing model cheap. A rank builds its
//! script once per script epoch ([`Workload::script_epoch`]) and keeps
//! one memo per script step for that epoch: the step's miss sites, which
//! depend on its accesses alone, and their pricing at the rank's plain
//! node share under the placement the `TierView` showed last. A phase
//! whose placement repeats costs one ledger read of the four tier
//! channels. When no helper flow loads the window, the memo is the
//! answer; when one does, only the contended passes are re-priced. The
//! memo is exact (the tests check it against the direct pricing bit for
//! bit), so dropping it at an epoch change moves no result.
//!
//! Execution is segmented and bulk-synchronous, and one thread runs a
//! whole run: each rank is a `RankTask` that runs to its next
//! communication step and reports only that it paused, the ranks one
//! after another in rank order. The resolver then reads every task's
//! paused step from its script and computes the synchronized departure
//! clocks — so a 256-rank topology costs 256 resumable tasks, not 256 OS
//! threads. The ranks' concurrency is virtual: they interact only at the
//! resolver, as the paper's processes coordinate only at the
//! communication phases its PMPI wrapper delimits. A halo round is one
//! pass over the neighbour lists, matched by list position: every send's
//! arrival sits in one flat array at its sender's offset plus its list
//! position, and the k-th wait of rank r on rank s takes the k-th send of
//! s to r. The resolver also fences the bandwidth ledger at every
//! collective, so a rank reads its neighbours' traffic only as rates
//! published while no task runs, and collective departure times depend
//! only on the entry clocks.
//!
//! Every run goes through one executor over a machine room. The room is
//! either the flat world of one machine config ([`run_workload`], the
//! legacy single-level path every paper experiment uses) or an explicit
//! [`ClusterTopology`] ([`run_workload_clustered`]): per-node tier
//! parameters, hierarchical collectives, and inter-node traffic charged
//! on the per-node link channels. Journaled runs (`crate::recovery`)
//! and co-run tenants (`crate::tenancy`) take the same path.
//!
//! Every figure in the paper is a ratio of the run times this driver
//! produces under different policies and machine configurations.

use crate::comm::{collective_timing, CollectiveKind, NetParams, PhaseId};
use crate::policy::{RankInit, RankState, StepEnv, TierView};
use crate::search::SearchKind;
use crate::stats::RunStats;
use std::collections::VecDeque;
use unimem_cache::{CacheModel, MissEstimate, ObjAccess};
use unimem_hms::contention::{BwClient, FlowScope, SharedBandwidth, TierLoads};
use unimem_hms::journal::{
    DurabilityMode, Journal, JournalHandle, JournalStats, ObservedPhase, Record,
};
use unimem_hms::object::{GroundTruth, ObjectRegistry, ObjectSpec, UnitId};
use unimem_hms::tier::{AccessMix, TierKind, TierParams};
use unimem_hms::topology::{ClusterTopology, LINK_BW};
use unimem_hms::{DramService, MachineConfig};
use unimem_sim::{Bytes, Channel, VDur, VTime};

pub use crate::policy::{Policy, UnimemConfig};

/// A computation phase of the script.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeSpec {
    /// Phase label (the paper's kernel names: "sweep", "pressure-solve").
    pub label: &'static str,
    /// Pure CPU time, independent of data placement.
    pub cpu: VDur,
    /// Class-scale access descriptors for the target objects it touches.
    pub accesses: Vec<ObjAccess>,
}

/// One step of a rank's per-iteration script. Each step is one phase
/// (computation, or a blocking communication operation).
#[derive(Debug, Clone, PartialEq)]
pub enum StepSpec {
    /// A computation phase with per-object access descriptors.
    Compute(ComputeSpec),
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Allreduce` (sum) of `bytes` per rank.
    AllreduceSum {
        /// Payload contributed by each rank.
        bytes: Bytes,
    },
    /// `MPI_Bcast` of `bytes` from rank 0.
    Bcast {
        /// Broadcast payload.
        bytes: Bytes,
    },
    /// `MPI_Alltoall` with `bytes` per pair.
    Alltoall {
        /// Per-pair payload.
        bytes: Bytes,
    },
    /// Nearest-neighbour exchange: eager sends then waits (one phase).
    Halo {
        /// Peer ranks exchanged with.
        neighbors: Vec<usize>,
        /// Per-neighbour payload.
        bytes: Bytes,
    },
}

/// A phase-structured iterative application.
pub trait Workload: Sync {
    /// Display name, including the class ("CG.C").
    fn name(&self) -> String;
    /// Target data objects of one rank (Table 3), in registration order —
    /// `ObjId(k)` is the k-th spec returned here.
    fn objects(&self, rank: usize, nranks: usize) -> Vec<ObjectSpec>;
    /// The script epoch iteration `iter` runs in. Consecutive iterations
    /// of one epoch run the same script; a workload whose accesses drift
    /// names a new epoch where they change, one that never varies
    /// returns 0.
    fn script_epoch(&self, iter: usize) -> usize;
    /// The phase script of every iteration in `epoch`, a function of
    /// `(rank, nranks, epoch)` alone: the executor builds it once per
    /// epoch and runs it until [`Workload::script_epoch`] changes. The
    /// *structure* (step kinds and order) must not vary across epochs;
    /// access volumes may.
    fn script(&self, rank: usize, nranks: usize, epoch: usize) -> Vec<StepSpec>;
    /// Main-loop iterations to simulate.
    fn iterations(&self) -> usize;
}

/// Per-iteration DRAM lease for one run: the *node* byte budget the
/// placement pipeline may use during each iteration.
///
/// The capacity a Unimem instance hands its knapsack was historically a
/// constant read off the machine config. Under multi-tenant arbitration
/// (see [`crate::tenancy`] and `unimem_hms::arbiter`) it is a *leased*
/// quantity that moves at iteration boundaries: when the arbiter revokes
/// budget the runtime must re-run placement and evict, and when budget
/// arrives it may re-plan to use it. Iterations beyond the last entry
/// hold the final value, so a schedule is also the natural encoding of
/// "co-runner finished, keep the reclaimed DRAM".
///
/// ```
/// use unimem::exec::CapacitySchedule;
/// use unimem_sim::Bytes;
///
/// let lease = CapacitySchedule::from_epochs(vec![
///     Bytes::mib(128), // co-runner active: half the node
///     Bytes::mib(128),
///     Bytes::mib(256), // co-runner finished: full node from iter 2 on
/// ])
/// .unwrap();
/// assert_eq!(lease.at(1), Bytes::mib(128));
/// assert_eq!(lease.at(10), Bytes::mib(256));
/// assert_eq!(lease.peak(), Bytes::mib(256));
/// assert!(!lease.is_constant());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacitySchedule {
    per_iter: Vec<Bytes>,
}

impl CapacitySchedule {
    /// The classic single-tenant lease: the whole budget, every iteration.
    pub fn constant(budget: Bytes) -> CapacitySchedule {
        CapacitySchedule {
            per_iter: vec![budget],
        }
    }

    /// A lease that changes at iteration boundaries; the last entry
    /// extends to every later iteration. Errors on an empty schedule.
    pub fn from_epochs(per_iter: Vec<Bytes>) -> Result<CapacitySchedule, String> {
        if per_iter.is_empty() {
            return Err("capacity schedule must cover at least one iteration".into());
        }
        Ok(CapacitySchedule { per_iter })
    }

    /// The node budget leased during iteration `it`.
    pub fn at(&self, it: usize) -> Bytes {
        self.per_iter[it.min(self.per_iter.len() - 1)]
    }

    /// The largest budget the schedule ever grants (sizes the DRAM
    /// service and the partitioner's chunk bound).
    pub fn peak(&self) -> Bytes {
        self.per_iter.iter().copied().max().unwrap_or(Bytes::ZERO)
    }

    /// True when every iteration holds the same budget (the
    /// single-tenant fast path: no lease re-plans can ever fire).
    pub fn is_constant(&self) -> bool {
        self.per_iter.windows(2).all(|w| w[0] == w[1])
    }

    /// The raw per-epoch entries (reports serialize these).
    pub fn epochs(&self) -> &[Bytes] {
        &self.per_iter
    }
}

/// Result of one job run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload display name ("CG.C").
    pub workload: String,
    /// Policy label ("Unimem", "DRAM-only", ...).
    pub policy: String,
    /// Per-rank statistics, in rank order.
    pub per_rank: Vec<RunStats>,
    /// Job-level merge: max times, summed counters.
    pub job: RunStats,
    /// Which search won (rank 0's decision), for Unimem runs.
    pub plan_kind: Option<SearchKind>,
    /// Every rank's [`RankTime`] record, in rank order.
    #[cfg(test)]
    time_logs: Vec<Vec<TimeEvent>>,
}

impl RunReport {
    /// Job completion time (slowest rank).
    pub fn time(&self) -> VDur {
        self.job.total_time
    }

    /// The winning plan kind as JSON (`"global"`/`"local"`/`null`), the
    /// one convention every report serializer shares.
    pub fn plan_kind_json(&self) -> unimem_sim::Json {
        match self.plan_kind {
            Some(k) => unimem_sim::Json::from(k.name()),
            None => unimem_sim::Json::Null,
        }
    }

    /// Deterministic JSON form of the whole report: workload, policy, the
    /// winning plan kind, the job-level merge, and every rank's stats in
    /// rank order. Equal reports serialize to byte-identical text — the
    /// determinism regression tests compare these bytes across repeated
    /// runs and sweep worker counts.
    pub fn to_json(&self) -> unimem_sim::Json {
        use unimem_sim::Json;
        let mut o = Json::obj_with_capacity(6);
        o.field("workload", self.workload.as_str())
            .field("policy", self.policy.as_str())
            .field("plan_kind", self.plan_kind_json())
            .field("time_s", self.time())
            .field("job", self.job.to_json())
            .field(
                "per_rank",
                Json::Arr(self.per_rank.iter().map(RunStats::to_json).collect()),
            );
        o
    }
}

/// Run `workload` on `nranks` ranks of the machine under `policy`, with
/// the machine's whole DRAM leased for the whole run (the single-tenant
/// case every paper experiment uses).
pub fn run_workload(
    workload: &dyn Workload,
    machine: &MachineConfig,
    cache: &CacheModel,
    nranks: usize,
    policy: &Policy,
) -> RunReport {
    run_workload_leased(
        workload,
        machine,
        cache,
        nranks,
        policy,
        &CapacitySchedule::constant(machine.dram_capacity),
    )
}

/// [`run_workload`] with an explicit DRAM lease: the placement pipeline's
/// capacity input follows `lease` instead of the machine constant. A
/// lease change at an iteration boundary re-runs the placement decision
/// (counted in [`RunStats::lease_replans`]) so revoked budget is evicted
/// and granted budget is used. The multi-tenant co-run driver
/// ([`crate::tenancy::run_corun`]) is the main caller.
///
/// Only a policy that *manages* placement can honour a moving lease
/// ([`Policy::supports_moving_lease`]); the fixed policies
/// (DRAM-only, NVM-only, static pins) have nothing to evict with.
/// Passing a non-constant lease with a fixed policy panics rather than
/// silently reporting full-budget performance under a schedule that
/// claims the budget was revoked.
pub fn run_workload_leased(
    workload: &dyn Workload,
    machine: &MachineConfig,
    cache: &CacheModel,
    nranks: usize,
    policy: &Policy,
    lease: &CapacitySchedule,
) -> RunReport {
    run(
        &RunSpec::flat(machine, nranks, lease),
        workload,
        cache,
        policy,
        Vec::new(),
    )
    .0
}

/// Run `workload` across an explicit [`ClusterTopology`]: every rank
/// lives on the node the topology placed it on, with that node's tier
/// parameters, DRAM slice, calibration, and bandwidth ledger.
/// Collectives reduce hierarchically — intra-node first, then once
/// across the inter-node link — and cross-node traffic (the reduction
/// tree's inter phase, cross-node halo messages) is charged on the
/// per-node link channels, so the link contends like a memory tier.
///
/// Each rank's DRAM lease is its own node's full capacity (the
/// single-tenant case); co-running tenants go through [`crate::tenancy`].
pub fn run_workload_clustered(
    workload: &dyn Workload,
    topo: &ClusterTopology,
    cache: &CacheModel,
    policy: &Policy,
) -> RunReport {
    run(
        &RunSpec::clustered(topo.clone()),
        workload,
        cache,
        policy,
        Vec::new(),
    )
    .0
}

/// One run's machine room and harness: where the ranks live, how their
/// communication is priced, what DRAM each may lease and whether each
/// keeps a redo journal. [`run`] derives the rest from the room: the
/// DRAM service, the bandwidth ledger and the inter-node link.
pub(crate) struct RunSpec {
    /// The nodes and the rank→node assignment.
    pub(crate) room: ClusterTopology,
    /// Price communication as if every rank shared one node (the
    /// paper's flat world), whatever the room's node count.
    pub(crate) flat_comm: bool,
    /// Per-rank DRAM leases, in rank order.
    pub(crate) leases: Vec<CapacitySchedule>,
    /// Journal every rank in this durability mode.
    pub(crate) journal: Option<DurabilityMode>,
}

impl RunSpec {
    /// The run of [`run_workload_clustered`]: two-level comm across
    /// `room`, each rank leasing its own node's whole DRAM.
    fn clustered(room: ClusterTopology) -> RunSpec {
        RunSpec {
            leases: (0..room.nranks())
                .map(|r| CapacitySchedule::constant(room.machine_of(r).dram_capacity))
                .collect(),
            room,
            flat_comm: false,
            journal: None,
        }
    }

    /// The flat world of [`run_workload_leased`]: `nranks` ranks of
    /// `machine` in nodes of `machine.ranks_per_node`, whose node DRAM
    /// is `lease`'s peak. Grants beyond the *current* lease are
    /// prevented by the knapsack capacity, and a shrinking lease evicts
    /// through the re-plan at the boundary. Comm stays flat (every rank
    /// rendezvouses as one node), which keeps this world byte-identical
    /// to the pre-topology executor (`tests/golden.rs` pins this); the
    /// ledger still models node-sized bandwidth domains.
    pub(crate) fn flat(
        machine: &MachineConfig,
        nranks: usize,
        lease: &CapacitySchedule,
    ) -> RunSpec {
        let node = machine.clone().with_dram_capacity(lease.peak());
        RunSpec {
            flat_comm: true,
            leases: vec![lease.clone(); nranks],
            ..RunSpec::clustered(ClusterTopology::homogeneous(&node, nranks))
        }
    }
}

/// Per-rank compute/comm observations recovered from a durable journal:
/// during a recovery re-run the driver substitutes these for the
/// ground-truth computation (the journal already proved what those
/// phases did), falling back to live execution when the log runs out.
/// Communication steps always execute for real — collectives must
/// rendezvous every rank, and ranks exhaust their logs at different
/// points — so the journaled durations are only verified, never
/// substituted.
pub(crate) struct RankOracle {
    observes: VecDeque<ObservedPhase>,
    comms: VecDeque<f64>,
    consumed: u64,
    comm_mismatches: u64,
}

impl RankOracle {
    /// A replayed journal's compute observations and comm durations (in
    /// seconds), each in journal order.
    pub(crate) fn new(observes: Vec<ObservedPhase>, comms: Vec<f64>) -> RankOracle {
        RankOracle {
            observes: observes.into(),
            comms: comms.into(),
            consumed: 0,
            comm_mismatches: 0,
        }
    }

    /// The next journaled observation, or `None` once the log runs out.
    /// Journal bytes are checksummed, not trusted: an observation naming
    /// a unit `registry` lacks ends the log there, and the live model
    /// prices that phase and every later one.
    fn next_observe(
        &mut self,
        registry: &ObjectRegistry,
    ) -> Option<(VDur, Vec<GroundTruth>, PhaseContention)> {
        let obs = self.observes.pop_front()?;
        if !obs.units.iter().all(|g| registry.has_unit(g.unit)) {
            self.observes.clear();
            return None;
        }
        self.consumed += 1;
        let contention = PhaseContention {
            total: VDur(obs.cont_total),
            neighbors: VDur(obs.cont_neighbors),
        };
        Some((VDur(obs.time), obs.units, contention))
    }

    /// Bitwise-compare a live comm duration against the journaled one;
    /// any divergence means the replay is not tracking the clean run.
    fn check_comm(&mut self, dt: VDur) {
        if let Some(expect) = self.comms.pop_front() {
            if expect.to_bits() != dt.secs().to_bits() {
                self.comm_mismatches += 1;
            }
        }
    }
}

/// What one rank's journaling produced, handed back to the recovery
/// layer after the run.
pub(crate) struct RankJournalOut {
    pub bytes: Vec<u8>,
    pub stats: JournalStats,
    pub replayed_observes: u64,
    pub comm_mismatches: u64,
}

/// What every rank task of one run shares: the spec, the inputs, and
/// the node-level services derived from the room.
struct Run<'a> {
    spec: &'a RunSpec,
    workload: &'a dyn Workload,
    cache: &'a CacheModel,
    policy: &'a Policy,
    service: DramService,
    bw: SharedBandwidth,
}

/// The executor: build one [`RankTask`] per rank, then run
/// bulk-synchronous rounds — every task advances to its next
/// communication point, the resolver computes the synchronized clocks
/// (charging inter-node traffic on the link channels), and the tasks
/// resume. Rank state only ever interacts at the resolver.
///
/// `oracles`, one per rank or none, replay a recovered journal (see
/// [`RankOracle`]). Returns the report and, when the spec journals,
/// every rank's journal in rank order.
pub(crate) fn run(
    spec: &RunSpec,
    workload: &dyn Workload,
    cache: &CacheModel,
    policy: &Policy,
    oracles: Vec<RankOracle>,
) -> (RunReport, Vec<RankJournalOut>) {
    let room = &spec.room;
    assert!(
        spec.leases.iter().all(CapacitySchedule::is_constant) || policy.supports_moving_lease(),
        "a moving DRAM lease requires a placement-managing policy ({} cannot evict)",
        policy.label()
    );
    let run = Run {
        spec,
        workload,
        cache,
        policy,
        service: DramService::from_nodes(room),
        // Per-node shared-bandwidth state: co-located ranks split each
        // tier's node bandwidth, and helper copies are posted here so
        // overlapping compute pays for them.
        bw: SharedBandwidth::from_topology(room),
    };

    // Build every rank's task (registration, partitioning, initial
    // placement): construction never communicates.
    let mut tasks: Vec<RankTask> = (0..room.nranks())
        .map(|rank| RankTask::new(rank, &run))
        .collect();
    for (task, oracle) in tasks.iter_mut().zip(oracles) {
        task.oracle = Some(oracle);
    }

    // Bulk-synchronous rounds until every rank's script is exhausted.
    loop {
        let paused = tasks
            .iter_mut()
            .map(RankTask::advance)
            .filter(|&p| p)
            .count();
        if paused == 0 {
            break;
        }
        assert!(
            paused == tasks.len(),
            "every rank must reach the same communication steps"
        );
        resolve_comm(&mut tasks, &run);
    }

    let mut job = RunStats::default();
    let mut plan_kind = None;
    let mut per_rank = Vec::with_capacity(tasks.len());
    let mut journals = Vec::new();
    #[cfg(test)]
    let mut time_logs = Vec::new();
    for t in tasks {
        let (time, kind, journal) = t.into_outcome();
        job.merge_job(&time.stats);
        if plan_kind.is_none() {
            plan_kind = kind;
        }
        per_rank.push(time.stats);
        #[cfg(test)]
        time_logs.push(time.log);
        journals.extend(journal);
    }
    let report = RunReport {
        workload: workload.name(),
        policy: run.policy.label().to_string(),
        per_rank,
        job,
        plan_kind,
        #[cfg(test)]
        time_logs,
    };
    (report, journals)
}

/// What a stretch of a rank's virtual time was spent on, and so the
/// [`RunStats`] category a charge lands in: `App` in `app_time`
/// (compute, and communication up to its departure); `Profiling`,
/// `Modeling`, `Sync` and `Stall` in the matching overhead; `Journal`
/// (record formatting and NVM flushes) in no report member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    App,
    Profiling,
    Modeling,
    Sync,
    Stall,
    Journal,
}

/// A rank's virtual clock and the run statistics its time is attributed
/// in, with one owner: every tick of the clock lands in exactly one
/// [`Cause`], so Table 4's pure runtime cost is a true share of the
/// total. Policy hooks reach it through [`StepEnv::time`]; only the
/// executor departs a communication point or closes the stats.
#[derive(Debug, Default)]
pub struct RankTime {
    clock: VTime,
    stats: RunStats,
    /// Every charge and departure in order, for the oracle in
    /// `exec::tests`.
    #[cfg(test)]
    log: Vec<TimeEvent>,
}

/// One move of a rank's clock, as [`RankTime`] records it under test.
#[cfg(test)]
#[derive(Debug, Clone)]
enum TimeEvent {
    Charge(Vec<(Cause, VDur)>),
    Depart(VTime),
}

impl RankTime {
    pub fn now(&self) -> VTime {
        self.clock
    }

    /// Advance the clock once, by the parts' sum taken in order, and
    /// credit each part to its cause. One add per site: two advances
    /// would round differently from the sum.
    pub fn charge(&mut self, parts: &[(Cause, VDur)]) {
        let mut total = VDur::ZERO;
        for &(cause, d) in parts {
            total += d;
            let s = &mut self.stats;
            match cause {
                Cause::App => s.app_time += d,
                Cause::Profiling => s.profiling_overhead += d,
                Cause::Modeling => s.modeling_overhead += d,
                Cause::Sync => s.sync_overhead += d,
                Cause::Stall => s.migration_stall += d,
                Cause::Journal => {}
            }
        }
        self.clock += total;
        #[cfg(test)]
        self.log.push(TimeEvent::Charge(parts.to_vec()));
    }

    /// A DRAM-lease change forced a placement re-run.
    pub fn count_lease_replan(&mut self) {
        self.stats.lease_replans += 1;
    }

    /// The variation monitor re-triggered profiling.
    pub fn count_reprofile(&mut self) {
        self.stats.reprofiles += 1;
    }

    /// Leave a communication point at the resolved instant `t`. The wait
    /// and the wire time since the rank paused are application time.
    fn depart(&mut self, t: VTime) {
        debug_assert!(t >= self.clock, "clock may not run backwards");
        self.stats.app_time += t - self.clock;
        self.clock = t;
        #[cfg(test)]
        self.log.push(TimeEvent::Depart(t));
    }
}

/// Borrow the disjoint [`RankTask`] fields a policy hook runs against.
/// A macro rather than a method so the compiler sees the field-level
/// split (a method returning `StepEnv` would lock all of `self`).
macro_rules! env {
    ($t:expr) => {
        StepEnv {
            time: &mut $t.time,
            registry: &$t.registry,
            service: &$t.run.service,
            lease: &$t.run.spec.leases[$t.rank],
            iterations: $t.iterations,
            rank: $t.rank,
        }
    };
}

/// Where a paused [`RankTask`] resumes inside its script.
#[derive(Clone, Copy)]
enum Pos {
    /// About to begin iteration `it` (the run ends at `it == iterations`).
    IterBegin { it: usize },
    /// About to run step `idx` of iteration `it`.
    Step { it: usize, idx: usize },
    /// Communication step `idx`, entered at `t0`, was resolved; the clock
    /// holds the departure, post-comm bookkeeping is still owed.
    AfterComm { it: usize, idx: usize, t0: VTime },
}

impl StepSpec {
    /// The collective this step performs and its per-rank payload, or
    /// `None` for compute and halo steps.
    fn collective(&self) -> Option<(CollectiveKind, Bytes)> {
        match *self {
            StepSpec::Barrier => Some((CollectiveKind::Barrier, Bytes::ZERO)),
            StepSpec::AllreduceSum { bytes } => Some((CollectiveKind::Allreduce, bytes)),
            StepSpec::Bcast { bytes } => Some((CollectiveKind::Bcast, bytes)),
            StepSpec::Alltoall { bytes } => Some((CollectiveKind::Alltoall, bytes)),
            StepSpec::Compute(_) | StepSpec::Halo { .. } => None,
        }
    }
}

/// One rank's complete execution state.
///
/// [`RankTask::advance`] replays the script in program order until it
/// needs another rank (a communication step), then parks on it. The
/// resolver reads the step ([`RankTask::paused_step`]), departs the
/// rank at the resolved instant ([`RankTime::depart`]), and the task
/// resumes in the next round.
/// Scripts are bulk-synchronous: every rank must pause on the same kind
/// of step (ranks may run different numbers of compute steps in
/// between).
struct RankTask<'a> {
    rank: usize,
    time: RankTime,
    registry: ObjectRegistry,
    state: Box<dyn RankState>,
    client: BwClient,
    journal: Option<JournalHandle>,
    oracle: Option<RankOracle>,
    /// The script epoch `steps` was built for; `None` before the first
    /// iteration.
    epoch: Option<usize>,
    /// The current epoch's script, built at the epoch's first iteration.
    steps: Vec<StepSpec>,
    /// Per script step, its [`ground_truth`] memo once it has been priced
    /// in the current epoch.
    memo: Vec<Option<StepMemo>>,
    pos: Pos,
    iterations: usize,
    run: &'a Run<'a>,
}

impl<'a> RankTask<'a> {
    fn new(rank: usize, run: &'a Run<'a>) -> RankTask<'a> {
        let room = &run.spec.room;
        let nranks = room.nranks();
        let machine = room.machine_of(rank);
        let client = run.bw.client(rank);

        // Crash consistency: a per-rank redo journal timed against this
        // rank's share of the node NVM write path.
        let journal = run.spec.journal.map(|mode| {
            let nvm_share = machine.rank_share(TierKind::Nvm, client.occupancy());
            Journal::new(mode)
                .with_write_bw(nvm_share.write_bw)
                .with_link(client.clone())
                .into_handle()
        });

        // Register target data objects (unimem_malloc).
        let mut registry = ObjectRegistry::new();
        for spec in run.workload.objects(rank, nranks) {
            registry.register(spec);
        }

        // Set up the placement policy (partitioning + initial placement).
        let state = run.policy.init_rank(RankInit {
            machine,
            registry: &mut registry,
            service: &run.service,
            client: &client,
            lease: &run.spec.leases[rank],
            cache: run.cache,
            journal: journal.clone(),
            rank,
        });

        // Journal the run identity, the object table (with its final
        // chunking — the policy may have partitioned), and the initial
        // DRAM residency, ahead of any migration intent that moves them.
        if let Some(j) = &journal {
            let t0 = VTime::ZERO;
            let mut jm = j.borrow_mut();
            jm.append(
                &Record::RunHeader {
                    rank: rank as u32,
                    nranks: nranks as u32,
                    iterations: run.workload.iterations() as u64,
                },
                t0,
            );
            for obj in registry.iter() {
                jm.append(
                    &Record::ObjectReg {
                        obj: obj.id.0,
                        size: obj.size.get(),
                        chunks: obj.chunks,
                    },
                    t0,
                );
            }
            if let TierView::Sets { in_dram, all_dram } = state.view() {
                let initial: Vec<UnitId> = if all_dram {
                    registry.units()
                } else {
                    in_dram.iter().collect()
                };
                for u in initial {
                    jm.append(
                        &Record::InitPlace {
                            obj: u.obj.0,
                            chunk: u.chunk,
                        },
                        t0,
                    );
                }
            }
        }
        let mut task = RankTask {
            rank,
            time: RankTime::default(),
            registry,
            state,
            client,
            journal,
            oracle: None,
            epoch: None,
            steps: Vec::new(),
            memo: Vec::new(),
            pos: Pos::IterBegin { it: 0 },
            iterations: run.workload.iterations(),
            run,
        };
        task.charge_journal();
        task
    }

    /// Charge the virtual time the journal owes (record formatting and
    /// NVM flushes). Without a journal there is nothing to charge: the
    /// non-journaled path never pays a nanosecond.
    fn charge_journal(&mut self) {
        if let Some(j) = &self.journal {
            let cost = j.borrow_mut().take_cost();
            if !cost.is_zero() {
                self.time.charge(&[(Cause::Journal, cost)]);
            }
        }
    }

    /// Run to the next communication point. Returns whether the task
    /// paused there; `false` once the script is exhausted.
    fn advance(&mut self) -> bool {
        loop {
            match self.pos {
                Pos::IterBegin { it } if it == self.iterations => return false,
                Pos::IterBegin { it } => {
                    let epoch = self.run.workload.script_epoch(it);
                    if self.epoch != Some(epoch) {
                        let nranks = self.run.spec.room.nranks();
                        self.steps = self.run.workload.script(self.rank, nranks, epoch);
                        // Phase k is step k (the PMPI counter of §3.3), so
                        // every epoch repeats the first one's steps (§2.1).
                        debug_assert!(
                            self.epoch.is_none() || self.steps.len() == self.memo.len(),
                            "phase structure changed between epochs"
                        );
                        // A memo is keyed on its placement alone, so it
                        // lives one epoch.
                        self.memo.clear();
                        self.memo.resize_with(self.steps.len(), || None);
                        self.epoch = Some(epoch);
                    }
                    self.state.iteration_begin(it, &self.steps, &mut env!(self));
                    self.pos = Pos::Step { it, idx: 0 };
                }
                Pos::Step { it, idx } if idx == self.steps.len() => {
                    self.state.iteration_end(it, &self.steps, &mut env!(self));
                    self.charge_journal();
                    self.pos = Pos::IterBegin { it: it + 1 };
                }
                Pos::Step { it, idx } => {
                    let phase = PhaseId(idx as u32);
                    self.state.phase_begin(phase, &mut env!(self));
                    self.charge_journal();

                    match &self.steps[idx] {
                        StepSpec::Compute(spec) => {
                            // On recovery re-runs the oracle substitutes
                            // the journaled observation for the
                            // ground-truth model; once the durable log
                            // runs out (the crash point) the live model
                            // takes over seamlessly — determinism
                            // guarantees the two agree on the shared
                            // prefix.
                            let (phase_time, truths, contention) = match self
                                .oracle
                                .as_mut()
                                .and_then(|o| o.next_observe(&self.registry))
                            {
                                Some(replayed) => replayed,
                                None => {
                                    let view = self.state.view();
                                    ground_truth(
                                        &mut self.memo[idx],
                                        spec,
                                        &self.registry,
                                        view,
                                        self.run.cache,
                                        &self.client,
                                        self.time.now(),
                                    )
                                }
                            };
                            if let Some(j) = &self.journal {
                                let mut jm = j.borrow_mut();
                                let seq = jm.next_seq();
                                jm.append(
                                    &Record::Observe {
                                        seq,
                                        phase: phase.0,
                                        time: phase_time.secs(),
                                        cont_total: contention.total.secs(),
                                        cont_neighbors: contention.neighbors.secs(),
                                        units: truths.clone(),
                                    },
                                    self.time.now(),
                                );
                            }
                            self.time.charge(&[(Cause::App, phase_time)]);
                            let stats = &mut self.time.stats;
                            stats.contention_time += contention.total;
                            stats.neighbor_contention_time += contention.neighbors;

                            self.state
                                .observe_compute(phase, phase_time, &truths, &mut env!(self));
                            self.pos = Pos::Step { it, idx: idx + 1 };
                        }
                        _ => {
                            let t0 = self.time.now();
                            self.pos = Pos::AfterComm { it, idx, t0 };
                            return true;
                        }
                    }
                }
                Pos::AfterComm { it, idx, t0 } => {
                    // The departure charged the wait as application time.
                    let phase = PhaseId(idx as u32);
                    let dt = self.time.now() - t0;
                    // Communication executes for real even on recovery
                    // re-runs — collectives need every rank at the
                    // rendezvous — so the journaled duration is only a
                    // consistency check against the log.
                    if let Some(o) = self.oracle.as_mut() {
                        o.check_comm(dt);
                    }
                    // The resolver fenced the ledger at this collective's
                    // departure (halos never fence), and the fence is the
                    // journal's commit point: every record ahead of it
                    // becomes durable under Buffered mode, stamped with
                    // the ledger epoch.
                    let fenced = !matches!(self.steps[idx], StepSpec::Halo { .. });
                    if let Some(j) = &self.journal {
                        let mut jm = j.borrow_mut();
                        let seq = jm.next_seq();
                        jm.append(
                            &Record::Comm {
                                seq,
                                phase: phase.0,
                                dt: dt.secs(),
                            },
                            self.time.now(),
                        );
                        if fenced {
                            jm.commit(self.client.gen(), self.time.now());
                        }
                    }
                    if fenced {
                        self.charge_journal();
                    }
                    self.state.observe_comm(phase, dt, &mut env!(self));
                    self.pos = Pos::Step { it, idx: idx + 1 };
                }
            }
        }
    }

    /// The communication step the task is paused on.
    fn paused_step(&self) -> &StepSpec {
        match self.pos {
            Pos::AfterComm { idx, .. } => &self.steps[idx],
            _ => unreachable!("the resolver reads only paused tasks"),
        }
    }

    /// Close the finished script: the rank's time with its stats, the
    /// winning plan kind and, when journaled, its journal.
    fn into_outcome(mut self) -> (RankTime, Option<SearchKind>, Option<RankJournalOut>) {
        debug_assert!(
            matches!(self.pos, Pos::IterBegin { it } if it == self.iterations),
            "task consumed before completion"
        );
        self.charge_journal();
        self.time.stats.total_time = self.time.clock - VTime::ZERO;
        self.time.stats.iterations = self.iterations as u64;
        let journal = self.journal.map(|j| {
            let jm = j.borrow();
            let oracle = self.oracle.as_ref();
            RankJournalOut {
                bytes: jm.bytes().to_vec(),
                stats: jm.stats(),
                replayed_observes: oracle.map_or(0, |o| o.consumed),
                comm_mismatches: oracle.map_or(0, |o| o.comm_mismatches),
            }
        });
        let (migrations, plan_kind) = self.state.finish();
        self.time.stats.migrations = migrations;
        (self.time, plan_kind, journal)
    }
}

/// Extra phase time attributable to shared-bandwidth contention, split
/// by who caused it.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseContention {
    /// Contended time minus the rank's plain node-share time.
    total: VDur,
    /// The portion caused by *other* ranks' helper traffic.
    neighbors: VDur,
}

/// One (access descriptor, placement unit) timing site of a phase.
struct AccessSite {
    unit: UnitId,
    tier: TierKind,
    misses: u64,
    miss_bytes: Bytes,
    mlp: f64,
    mix: AccessMix,
}

impl AccessSite {
    /// The site's memory time under these tier parameters.
    fn time(&self, dram: &TierParams, nvm: &TierParams) -> VDur {
        let p = match self.tier {
            TierKind::Dram => dram,
            TierKind::Nvm => nvm,
        };
        p.access_time(self.misses, self.miss_bytes, self.mlp, self.mix)
    }
}

/// An (access descriptor, placement unit) pair of a step with misses,
/// before the placement routes it to a tier.
struct RawSite {
    unit: UnitId,
    est: MissEstimate,
    mlp: f64,
    mix: AccessMix,
}

/// The placement a [`StepMemo`] is priced under, as read off the
/// [`TierView`]: each raw site's DRAM membership, or the bits of the hit
/// fraction.
enum PlacementKey {
    Sets(Vec<bool>),
    Fraction(u64),
}

impl PlacementKey {
    fn of(view: TierView<'_>, raw: &[RawSite]) -> PlacementKey {
        match view {
            TierView::Sets { in_dram, all_dram } => PlacementKey::Sets(
                raw.iter()
                    .map(|r| all_dram || in_dram.contains(r.unit))
                    .collect(),
            ),
            TierView::Fraction(hit) => PlacementKey::Fraction(hit.to_bits()),
        }
    }

    /// Whether `view` places `raw` as this key does.
    fn matches(&self, view: TierView<'_>, raw: &[RawSite]) -> bool {
        match (self, view) {
            (PlacementKey::Sets(dram), TierView::Sets { in_dram, all_dram }) => dram
                .iter()
                .zip(raw)
                .all(|(&d, r)| d == (all_dram || in_dram.contains(r.unit))),
            (PlacementKey::Fraction(bits), TierView::Fraction(hit)) => *bits == hit.to_bits(),
            _ => false,
        }
    }

    /// Route `raw` to tiers: a residency set sends a site wholly to one
    /// tier, a hit fraction splits it into a DRAM part and an NVM part
    /// (misses rounded, bytes conserved).
    fn place(&self, raw: &[RawSite]) -> Vec<AccessSite> {
        let mut sites = Vec::with_capacity(raw.len());
        for (i, r) in raw.iter().enumerate() {
            let site = |tier, misses, miss_bytes| AccessSite {
                unit: r.unit,
                tier,
                misses,
                miss_bytes,
                mlp: r.mlp,
                mix: r.mix,
            };
            match self {
                PlacementKey::Sets(dram) => {
                    let tier = if dram[i] {
                        TierKind::Dram
                    } else {
                        TierKind::Nvm
                    };
                    sites.push(site(tier, r.est.misses, r.est.miss_bytes));
                }
                PlacementKey::Fraction(bits) => {
                    let hit = f64::from_bits(*bits).clamp(0.0, 1.0);
                    let dram_misses = ((r.est.misses as f64) * hit).round() as u64;
                    let dram_bytes = Bytes((r.est.miss_bytes.as_f64() * hit).round() as u64);
                    let nvm_misses = r.est.misses - dram_misses;
                    let nvm_bytes = r.est.miss_bytes - dram_bytes;
                    for (tier, misses, miss_bytes) in [
                        (TierKind::Dram, dram_misses, dram_bytes),
                        (TierKind::Nvm, nvm_misses, nvm_bytes),
                    ] {
                        if misses > 0 {
                            sites.push(site(tier, misses, miss_bytes));
                        }
                    }
                }
            }
        }
        sites
    }
}

/// One script step's [`ground_truth`] memo for one script epoch. The
/// step's accesses cannot change inside the epoch ([`Workload::script`]
/// is a function of the epoch), so the key is the placement alone; the
/// value is the step's plain-share pricing (pass 1), which reads no
/// ledger. The rank drops its memos when the epoch changes.
struct StepMemo {
    /// The step's sites with misses, in descriptor then unit order:
    /// `CacheModel::misses` depends on the accesses alone.
    raw: Vec<RawSite>,
    placement: PlacementKey,
    /// `raw` routed to tiers under `placement`.
    sites: Vec<AccessSite>,
    /// Per site, its unit's index in `truths`.
    slots: Vec<usize>,
    /// Memory time at the rank's plain node share.
    t_base: VDur,
    /// Per-unit truths at the plain share: what a quiet window charges.
    truths: Vec<GroundTruth>,
}

impl StepMemo {
    fn new(
        spec: &ComputeSpec,
        registry: &ObjectRegistry,
        cache: &CacheModel,
        view: TierView<'_>,
        bw: &BwClient,
    ) -> StepMemo {
        let phase_total: Bytes = spec.accesses.iter().map(|a| a.touched).sum();
        let mut raw = Vec::new();
        for acc in &spec.accesses {
            let obj = registry.get(acc.obj);
            let chunks = obj.chunks;
            let frac = 1.0 / f64::from(chunks);
            for unit in obj.units() {
                let a = if chunks == 1 { *acc } else { acc.scaled(frac) };
                let est = cache.misses(&a, phase_total);
                if est.misses > 0 {
                    raw.push(RawSite {
                        unit,
                        est,
                        mlp: a.pattern.mlp(),
                        mix: a.mix,
                    });
                }
            }
        }
        let mut memo = StepMemo {
            placement: PlacementKey::of(view, &raw),
            raw,
            sites: Vec::new(),
            slots: Vec::new(),
            t_base: VDur::ZERO,
            truths: Vec::new(),
        };
        memo.price(bw);
        memo
    }

    /// Re-price when `view` places the step differently.
    fn place(&mut self, view: TierView<'_>, bw: &BwClient) {
        if !self.placement.matches(view, &self.raw) {
            self.placement = PlacementKey::of(view, &self.raw);
            self.price(bw);
        }
    }

    /// Pass 1 under `placement`: route the sites, map each to its unit's
    /// truth (first-appearance order) and price both at the plain share.
    fn price(&mut self, bw: &BwClient) {
        let base_d = bw.effective_under(TierKind::Dram, &TierLoads::default(), FlowScope::None);
        let base_n = bw.effective_under(TierKind::Nvm, &TierLoads::default(), FlowScope::None);
        self.sites = self.placement.place(&self.raw);
        self.slots.clear();
        self.truths.clear();
        self.t_base = VDur::ZERO;
        for s in &self.sites {
            let t = s.time(&base_d, &base_n);
            self.t_base += t;
            match self.truths.iter().position(|g| g.unit == s.unit) {
                Some(k) => {
                    let g = &mut self.truths[k];
                    g.misses += s.misses;
                    g.miss_bytes += s.miss_bytes;
                    g.mem_time += t;
                    self.slots.push(k);
                }
                None => {
                    self.slots.push(self.truths.len());
                    self.truths.push(GroundTruth {
                        unit: s.unit,
                        misses: s.misses,
                        miss_bytes: s.miss_bytes,
                        mem_time: t,
                    });
                }
            }
        }
    }
}

/// Compute ground-truth phase time and per-unit sampler inputs for a
/// compute step under the current placement, at the **contended**
/// effective bandwidth: each tier's node bandwidth is split among the
/// node's co-located ranks, and helper copies in flight during the phase
/// window (this rank's exactly, neighbors' at their fence-epoch rate)
/// take their proportional share on top. The phase window is estimated
/// from the uncontended time — a one-shot resolution of the
/// time-depends-on-window circularity, documented in
/// `unimem_hms::contention`.
///
/// The placement [`TierView`] decides each site's tier: explicit
/// residency sets route a unit wholly to one tier, while the hardware
/// cache's hit fraction splits a site into a DRAM part and an NVM part
/// (misses rounded, bytes conserved).
///
/// `memo` is the step's slot in the rank's memo, which must have been
/// filled for this `spec` or be empty. A step repeats every iteration of
/// its script epoch under a mostly stable placement, so the sites and
/// the plain-share pass are kept until the placement moves (see
/// [`StepMemo`]). Each call then reads the window's load on the four
/// tier channels once: a quiet window (no load) charges exactly the
/// plain share, so the memo answers with only `spec.cpu` added; a loud
/// one re-prices the own-traffic and full passes over the memoized
/// sites. Either way the result is bit for bit the direct computation's.
fn ground_truth(
    memo: &mut Option<StepMemo>,
    spec: &ComputeSpec,
    registry: &ObjectRegistry,
    view: TierView<'_>,
    cache: &CacheModel,
    bw: &BwClient,
    now: VTime,
) -> (VDur, Vec<GroundTruth>, PhaseContention) {
    let m = match memo {
        Some(m) => {
            m.place(view, bw);
            m
        }
        slot => slot.insert(StepMemo::new(spec, registry, cache, view, bw)),
    };
    // Pass 2 reads the own and the fenced-visible neighbor traffic over
    // the window pass 1 fixes, once for both scopes.
    let w1 = now + spec.cpu + m.t_base;
    let loads = bw.tier_loads(now, w1);
    if loads.is_quiet() {
        // Every scope prices as the plain share: the full pass is
        // `t_base`, and neither contention term charges anything.
        return (
            spec.cpu + m.t_base,
            m.truths.clone(),
            PhaseContention::default(),
        );
    }
    let own_d = bw.effective_under(TierKind::Dram, &loads, FlowScope::Own);
    let own_n = bw.effective_under(TierKind::Nvm, &loads, FlowScope::Own);
    let t_own: VDur = m.sites.iter().map(|s| s.time(&own_d, &own_n)).sum();
    let all_d = bw.effective_under(TierKind::Dram, &loads, FlowScope::All);
    let all_n = bw.effective_under(TierKind::Nvm, &loads, FlowScope::All);
    let mut truths = m.truths.clone();
    let mut t_full = VDur::ZERO;
    // Slots first appear in order, so a unit's first site sets its time
    // and later ones add to it, as the direct merge does.
    let mut fresh = 0;
    for (s, &k) in m.sites.iter().zip(&m.slots) {
        let t = s.time(&all_d, &all_n);
        t_full += t;
        if k == fresh {
            truths[k].mem_time = t;
            fresh += 1;
        } else {
            truths[k].mem_time += t;
        }
    }
    let contention = PhaseContention {
        total: t_full.saturating_sub(m.t_base),
        neighbors: t_full.saturating_sub(t_own),
    };
    (spec.cpu + t_full, truths, contention)
}

/// [`ground_truth`] without the memo: every call routes, prices and
/// contends the step anew. The oracle `exec::tests` checks the memoized
/// path against, bit for bit.
#[cfg(test)]
fn ground_truth_reference(
    spec: &ComputeSpec,
    registry: &ObjectRegistry,
    view: TierView<'_>,
    cache: &CacheModel,
    bw: &BwClient,
    now: VTime,
) -> (VDur, Vec<GroundTruth>, PhaseContention) {
    let phase_total: Bytes = spec.accesses.iter().map(|a| a.touched).sum();
    let mut sites: Vec<AccessSite> = Vec::new();
    for acc in &spec.accesses {
        let obj = registry.get(acc.obj);
        let chunks = obj.chunks;
        let frac = 1.0 / f64::from(chunks);
        for unit in obj.units() {
            let a = if chunks == 1 { *acc } else { acc.scaled(frac) };
            let est = cache.misses(&a, phase_total);
            if est.misses == 0 {
                continue;
            }
            match view {
                TierView::Sets { in_dram, all_dram } => {
                    let tier = if all_dram || in_dram.contains(unit) {
                        TierKind::Dram
                    } else {
                        TierKind::Nvm
                    };
                    sites.push(AccessSite {
                        unit,
                        tier,
                        misses: est.misses,
                        miss_bytes: est.miss_bytes,
                        mlp: a.pattern.mlp(),
                        mix: a.mix,
                    });
                }
                TierView::Fraction(hit) => {
                    let hit = hit.clamp(0.0, 1.0);
                    let dram_misses = ((est.misses as f64) * hit).round() as u64;
                    let dram_bytes = Bytes((est.miss_bytes.as_f64() * hit).round() as u64);
                    let nvm_misses = est.misses - dram_misses;
                    let nvm_bytes = est.miss_bytes - dram_bytes;
                    for (tier, misses, miss_bytes) in [
                        (TierKind::Dram, dram_misses, dram_bytes),
                        (TierKind::Nvm, nvm_misses, nvm_bytes),
                    ] {
                        if misses == 0 {
                            continue;
                        }
                        sites.push(AccessSite {
                            unit,
                            tier,
                            misses,
                            miss_bytes,
                            mlp: a.pattern.mlp(),
                            mix: a.mix,
                        });
                    }
                }
            }
        }
    }
    let site_time = |s: &AccessSite, dram: &TierParams, nvm: &TierParams| {
        let p = match s.tier {
            TierKind::Dram => dram,
            TierKind::Nvm => nvm,
        };
        p.access_time(s.misses, s.miss_bytes, s.mlp, s.mix)
    };
    let mem_time = |dram: &TierParams, nvm: &TierParams| -> VDur {
        sites.iter().map(|s| site_time(s, dram, nvm)).sum()
    };

    // Pass 1 — the rank's plain share of the node, no helper flows: this
    // fixes the window the flow accounting is evaluated over.
    let base_d = bw.effective(TierKind::Dram, now, now, FlowScope::None);
    let base_n = bw.effective(TierKind::Nvm, now, now, FlowScope::None);
    let t_base = mem_time(&base_d, &base_n);
    let w1 = now + spec.cpu + t_base;

    // Pass 2 — charge helper flows over the window: own traffic alone
    // (attribution), then own + fenced-visible neighbor traffic (the
    // clock that actually advances).
    let own_d = bw.effective(TierKind::Dram, now, w1, FlowScope::Own);
    let own_n = bw.effective(TierKind::Nvm, now, w1, FlowScope::Own);
    let t_own = mem_time(&own_d, &own_n);
    let all_d = bw.effective(TierKind::Dram, now, w1, FlowScope::All);
    let all_n = bw.effective(TierKind::Nvm, now, w1, FlowScope::All);

    // A phase may carry several descriptors for the same object (e.g. a
    // streaming factor pass plus a dependent back-substitution); traffic
    // merges per placement unit for the sampler, at contended times.
    let mut truths: Vec<GroundTruth> = Vec::new();
    let mut t_full = VDur::ZERO;
    for s in &sites {
        let t = site_time(s, &all_d, &all_n);
        t_full += t;
        match truths.iter_mut().find(|g| g.unit == s.unit) {
            Some(g) => {
                g.misses += s.misses;
                g.miss_bytes += s.miss_bytes;
                g.mem_time += t;
            }
            None => truths.push(GroundTruth {
                unit: s.unit,
                misses: s.misses,
                miss_bytes: s.miss_bytes,
                mem_time: t,
            }),
        }
    }
    let contention = PhaseContention {
        total: t_full.saturating_sub(t_base),
        neighbors: t_full.saturating_sub(t_own),
    };
    (spec.cpu + t_full, truths, contention)
}

/// Resolve one bulk-synchronous communication round: every rank has
/// paused on a communication step ([`RankTask::paused_step`]). This is
/// the rendezvous — the only place rank clocks interact: the
/// synchronized clocks are a pure function of the entry clocks and the
/// ledger's fenced history, whatever order the round advanced its tasks
/// in. A collective also fences the run's ledger at its departure,
/// publishing each rank's traffic of the closing epoch to its node's
/// other ranks while no task runs. A flat-comm run prices every step as
/// if its ranks shared one node.
fn resolve_comm(tasks: &mut [RankTask], run: &Run) {
    let room = (!run.spec.flat_comm).then_some(&run.spec.room);
    let Some((kind, bytes)) = tasks[0].paused_step().collective() else {
        return resolve_halo(tasks, room);
    };
    assert!(
        tasks
            .iter()
            .all(|t| t.paused_step().collective() == Some((kind, bytes))),
        "collective steps must agree across ranks"
    );
    let clocks: Vec<VTime> = tasks.iter().map(|t| t.time.now()).collect();
    let timing = collective_timing(&clocks, kind, bytes, room);
    let leave = if timing.inter.is_zero() {
        // Flat (or a zero-cost inter phase): the legacy single-level
        // rendezvous, bit for bit.
        timing.leave
    } else {
        // The inter-node phase shares each node's link with whatever
        // migration traffic the ledger has published over the
        // uncontended window; the slowest leader paces the tree. At zero
        // load the ratio is exactly 1.
        let mut slow = 1.0f64;
        for &leader in &timing.leaders {
            let client = &tasks[leader].client;
            for dir in [Channel::LinkUp, Channel::LinkDown] {
                let eff = client.effective_link(dir, timing.t_meet, timing.leave);
                let ratio = LINK_BW.bytes_per_s() / eff.bytes_per_s();
                if ratio > slow {
                    slow = ratio;
                }
            }
        }
        let leave = timing.t_meet + timing.inter * slow;
        // Every leader moves `bytes` both ways (reduce up, result down),
        // visible to neighbors from the fence below.
        for &leader in &timing.leaders {
            tasks[leader]
                .client
                .post_link(timing.t_meet, leave, bytes, bytes);
        }
        leave
    };
    for t in tasks.iter_mut() {
        t.time.depart(leave);
    }
    run.bw.fence(leave);
}

/// Resolve a pairwise halo exchange: time it from every rank's paused
/// step ([`halo_timing`]: the k-th wait of r on s takes the k-th send of
/// s to r), post its cross-node flows on the link channels and set every
/// departure. Halos never fence, so the link traffic surfaces to
/// neighbours at the next collective — the same rule as helper copies.
fn resolve_halo(tasks: &mut [RankTask], room: Option<&ClusterTopology>) {
    let halos: Vec<(VTime, &[usize], Bytes)> = tasks
        .iter()
        .map(|t| match t.paused_step() {
            StepSpec::Halo { neighbors, bytes } => (t.time.now(), neighbors.as_slice(), *bytes),
            _ => panic!("communication steps must agree across ranks"),
        })
        .collect();
    let (leave, flows) = halo_timing(&halos, room);
    for (rank, start, end, up, down) in flows {
        tasks[rank].client.post_link(start, end, up, down);
    }
    for (t, c) in tasks.iter_mut().zip(leave) {
        t.time.depart(c);
    }
}

/// One link flow of a halo exchange, `(rank, start, end, up, down)`: the
/// rank's link carries `up` bytes out and `down` bytes in over the window.
type LinkFlow = (usize, VTime, VTime, Bytes, Bytes);

/// The timing of one halo exchange, a pure function of its inputs: rank
/// `r` enters at `halos[r].0` and sends `halos[r].2` bytes to each rank
/// of `halos[r].1`. Returns every departure and the link flows of the
/// cross-node messages in posting order: by sender and list position,
/// the sender's upstream flow before the receiver's downstream one.
///
/// Each rank sends eagerly in list order, one overhead per isend (added
/// one by one: overhead × count would round differently), then waits in
/// list order, one overhead per wait, until the message has landed. The
/// k-th wait of r on s takes the k-th send of s to r (FIFO per pair).
/// Ring lists of small worlds repeat a peer, or name the rank itself, so
/// the lists must be multiset-symmetric: exactly then every wait finds
/// its send. Cross-node messages take the room's link time.
fn halo_timing(
    halos: &[(VTime, &[usize], Bytes)],
    room: Option<&ClusterTopology>,
) -> (Vec<VTime>, Vec<LinkFlow>) {
    let n = halos.len();
    let net = NetParams::NODE;
    // Send pass: each send's arrival lands at its sender's offset plus
    // its list position; `leave` holds each rank's clock after its sends.
    let mut leave = Vec::with_capacity(n);
    let mut offset = Vec::with_capacity(n);
    let mut arrival = Vec::with_capacity(halos.iter().map(|h| h.1.len()).sum());
    let mut flows = Vec::new();
    for (s, &(mut c, nbrs, bytes)) in halos.iter().enumerate() {
        offset.push(arrival.len());
        for &dst in nbrs {
            assert!(dst < n, "halo neighbor {dst} out of range for rank {s}");
            c += net.overhead;
            let cross = room.is_some_and(|room| room.node_of(s) != room.node_of(dst));
            let wire = if cross { NetParams::LINK } else { net }.p2p_time(bytes);
            arrival.push(c + wire);
            if cross {
                flows.push((s, c, c + wire, bytes, Bytes::ZERO));
                flows.push((dst, c, c + wire, Bytes::ZERO, bytes));
            }
        }
        leave.push(c);
    }
    // Wait pass, in list order.
    for (r, &(_, nbrs, _)) in halos.iter().enumerate() {
        let mut c = leave[r];
        for (i, &src) in nbrs.iter().enumerate() {
            let k = nbrs[..i].iter().filter(|&&x| x == src).count();
            let sent = halos[src].1;
            let Some(j) = (0..sent.len()).filter(|&j| sent[j] == r).nth(k) else {
                let to = nbrs.iter().filter(|&&x| x == src).count();
                let from = sent.iter().filter(|&&x| x == r).count();
                panic!("halo lists must be symmetric ({r} sends {to} to {src}, receives {from})");
            };
            c = (c + net.overhead).max(arrival[offset[src] + j]);
        }
        leave[r] = c;
    }
    (leave, flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::memo_holds;
    use crate::policy::PolicyId;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use unimem_cache::AccessPattern;
    use unimem_hms::object::{ObjId, UnitSet};
    use unimem_hms::topology::{ClusterSpec, NodeSpec};
    use unimem_perf::SamplerConfig;
    use unimem_sim::DetRng;

    /// Two-object synthetic workload: a streaming-hot `hot` and a cold
    /// `cold`, two compute phases and an allreduce per iteration.
    struct Synth {
        iters: usize,
    }

    impl Workload for Synth {
        fn name(&self) -> String {
            "synth".into()
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

    fn machine() -> MachineConfig {
        MachineConfig::nvm_bw_fraction(0.5)
    }

    #[test]
    fn dram_only_faster_than_nvm_only() {
        let w = Synth { iters: 4 };
        let m = machine();
        let c = CacheModel::platform_a();
        let dram = run_workload(&w, &m, &c, 2, &Policy::DramOnly);
        let nvm = run_workload(&w, &m, &c, 2, &Policy::NvmOnly);
        assert!(
            nvm.time().secs() > dram.time().secs() * 1.2,
            "dram={} nvm={}",
            dram.time(),
            nvm.time()
        );
    }

    #[test]
    fn unimem_lands_between_and_close_to_dram() {
        let w = Synth { iters: 10 };
        let m = machine();
        let c = CacheModel::platform_a();
        let dram = run_workload(&w, &m, &c, 2, &Policy::DramOnly).time();
        let nvm = run_workload(&w, &m, &c, 2, &Policy::NvmOnly).time();
        let uni = run_workload(&w, &m, &c, 2, &Policy::unimem()).time();
        assert!(uni.secs() <= nvm.secs() * 1.01, "uni={uni} nvm={nvm}");
        assert!(uni.secs() >= dram.secs() * 0.99, "uni={uni} dram={dram}");
        // The hot object dominates; Unimem should close most of the gap.
        let gap_closed = (nvm.secs() - uni.secs()) / (nvm.secs() - dram.secs());
        assert!(gap_closed > 0.5, "gap closed only {gap_closed:.2}");
    }

    #[test]
    fn static_pin_of_hot_object_helps() {
        let w = Synth { iters: 4 };
        let m = machine();
        let c = CacheModel::platform_a();
        let nvm = run_workload(&w, &m, &c, 1, &Policy::NvmOnly).time();
        let pinned = run_workload(
            &w,
            &m,
            &c,
            1,
            &Policy::Static {
                in_dram: vec!["hot".into()],
                label: "pin hot".into(),
            },
        )
        .time();
        assert!(pinned.secs() < nvm.secs());
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Synth { iters: 5 };
        let m = machine();
        let c = CacheModel::platform_a();
        let a = run_workload(&w, &m, &c, 4, &Policy::unimem());
        let b = run_workload(&w, &m, &c, 4, &Policy::unimem());
        assert_eq!(a.time().secs(), b.time().secs());
        assert_eq!(a.job.migrations, b.job.migrations);
    }

    #[test]
    fn report_json_names_workload_policy_and_ranks() {
        let w = Synth { iters: 3 };
        let m = machine();
        let c = CacheModel::platform_a();
        let rep = run_workload(&w, &m, &c, 2, &Policy::unimem());
        let j = rep.to_json();
        assert_eq!(j.get("workload").and_then(|v| v.as_str()), Some("synth"));
        assert_eq!(j.get("policy").and_then(|v| v.as_str()), Some("Unimem"));
        assert!(j.get("plan_kind").and_then(|v| v.as_str()).is_some());
        assert_eq!(
            j.get("per_rank").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn unimem_reports_stats() {
        let w = Synth { iters: 6 };
        let m = machine();
        let c = CacheModel::platform_a();
        let rep = run_workload(&w, &m, &c, 1, &Policy::unimem());
        assert!(rep.plan_kind.is_some());
        assert!(
            rep.job.pure_runtime_cost() < 0.05,
            "cost={}",
            rep.job.pure_runtime_cost()
        );
        assert_eq!(rep.job.iterations, 6);
        // Initial placement put `hot` in DRAM already (est_refs), so few
        // migrations are expected — but profiling must have happened.
        assert!(rep.job.profiling_overhead > VDur::ZERO);
    }

    #[test]
    fn ablation_rungs_monotonically_enable() {
        let c0 = UnimemConfig::ablation(1);
        assert!(c0.use_global && !c0.use_local && !c0.partitioning && !c0.initial_placement);
        let c3 = UnimemConfig::ablation(4);
        assert!(c3.use_global && c3.use_local && c3.partitioning && c3.initial_placement);
    }

    #[test]
    fn online_guidance_lands_between_dram_and_nvm() {
        let w = Synth { iters: 10 };
        let m = machine();
        let c = CacheModel::platform_a();
        let dram = run_workload(&w, &m, &c, 2, &Policy::DramOnly).time();
        let nvm = run_workload(&w, &m, &c, 2, &Policy::NvmOnly).time();
        let online = run_workload(&w, &m, &c, 2, &Policy::online_guidance());
        assert_eq!(online.policy, "Online-guidance");
        let t = online.time();
        assert!(t.secs() <= nvm.secs() * 1.001, "online={t} nvm={nvm}");
        assert!(t.secs() >= dram.secs() * 0.999, "online={t} dram={dram}");
        // The first interval runs cold, but promotion of `hot` must
        // close most of the gap afterwards.
        let gap_closed = (nvm.secs() - t.secs()) / (nvm.secs() - dram.secs());
        assert!(gap_closed > 0.4, "gap closed only {gap_closed:.2}");
        assert!(online.job.migrations.count > 0, "no promotions happened");
    }

    #[test]
    fn hw_cache_lands_between_dram_and_nvm_with_zero_software_cost() {
        let w = Synth { iters: 10 };
        let m = machine();
        let c = CacheModel::platform_a();
        let dram = run_workload(&w, &m, &c, 2, &Policy::DramOnly).time();
        let nvm = run_workload(&w, &m, &c, 2, &Policy::NvmOnly).time();
        let hw = run_workload(&w, &m, &c, 2, &Policy::hw_cache());
        assert_eq!(hw.policy, "HW-cache");
        let t = hw.time();
        assert!(t.secs() <= nvm.secs() * 1.001, "hw={t} nvm={nvm}");
        assert!(t.secs() >= dram.secs() * 0.999, "hw={t} dram={dram}");
        // Hardware management charges the software nothing.
        assert_eq!(hw.job.pure_runtime_cost(), 0.0);
        assert_eq!(hw.job.migrations.count, 0);
    }

    /// [`Synth`] whose cold object is mostly written, so NVM-write
    /// traffic (journal flushes included) slows its phases.
    struct WriteCold(Synth);

    impl Workload for WriteCold {
        fn name(&self) -> String {
            self.0.name()
        }

        fn objects(&self, rank: usize, nranks: usize) -> Vec<ObjectSpec> {
            self.0.objects(rank, nranks)
        }

        fn script_epoch(&self, _iter: usize) -> usize {
            0
        }

        fn script(&self, rank: usize, nranks: usize, epoch: usize) -> Vec<StepSpec> {
            let mut steps = self.0.script(rank, nranks, epoch);
            if let StepSpec::Compute(spec) = &mut steps[0] {
                spec.accesses[1] = spec.accesses[1].with_mix(AccessMix::new(0.2));
            }
            steps
        }

        fn iterations(&self) -> usize {
            self.0.iterations()
        }
    }

    /// `w` under Unimem in `room`, journaled in `journal`'s mode when
    /// given: the report JSON and every rank's journal.
    fn run_room(
        w: &dyn Workload,
        room: RunSpec,
        journal: Option<DurabilityMode>,
    ) -> (String, Vec<Vec<u8>>) {
        let spec = RunSpec { journal, ..room };
        let (report, journals) = run(
            &spec,
            w,
            &CacheModel::platform_a(),
            &Policy::unimem(),
            Vec::new(),
        );
        let journals = journals.into_iter().map(|j| j.bytes).collect();
        (report.to_json().to_pretty(), journals)
    }

    /// `nranks` ranks of `m` in the flat world.
    fn flat_room(m: &MachineConfig, nranks: usize) -> RunSpec {
        RunSpec::flat(m, nranks, &CapacitySchedule::constant(m.dram_capacity))
    }

    /// [`Synth`]'s objects and compute step, then the communication steps
    /// `comm(rank, nranks)` lists, in each of two iterations.
    struct Scripted<F>(F);

    impl<F: Fn(usize, usize) -> Vec<StepSpec> + Sync> Workload for Scripted<F> {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn objects(&self, rank: usize, nranks: usize) -> Vec<ObjectSpec> {
            Synth { iters: 2 }.objects(rank, nranks)
        }

        fn script_epoch(&self, _iter: usize) -> usize {
            0
        }

        fn script(&self, rank: usize, nranks: usize, epoch: usize) -> Vec<StepSpec> {
            let mut steps = Synth { iters: 2 }.script(rank, nranks, epoch);
            steps.truncate(1);
            steps.extend((self.0)(rank, nranks));
            steps
        }

        fn iterations(&self) -> usize {
            2
        }
    }

    /// Run `comm` on three ranks of the flat world.
    fn run_comm(comm: impl Fn(usize, usize) -> Vec<StepSpec> + Sync) {
        run_room(&Scripted(comm), flat_room(&machine(), 3), None);
    }

    fn halo(neighbors: Vec<usize>) -> Vec<StepSpec> {
        vec![StepSpec::Halo {
            neighbors,
            bytes: Bytes::kib(4),
        }]
    }

    #[test]
    #[should_panic(expected = "halo lists must be symmetric")]
    fn one_way_halo_ring_is_rejected() {
        run_comm(|r, n| halo(vec![(r + 1) % n]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn halo_neighbor_past_the_last_rank_is_rejected() {
        run_comm(|r, n| halo(vec![(r + 1) % n, (r + n - 1) % n, n]));
    }

    #[test]
    #[should_panic(expected = "collective steps must agree across ranks")]
    fn collectives_of_different_sizes_are_rejected() {
        run_comm(|r, _| {
            vec![StepSpec::AllreduceSum {
                bytes: Bytes(64 << r),
            }]
        });
    }

    #[test]
    #[should_panic(expected = "communication steps must agree across ranks")]
    fn halo_against_a_barrier_is_rejected() {
        run_comm(|r, _| match r {
            0 => halo(vec![0]),
            _ => vec![StepSpec::Barrier],
        });
    }

    #[test]
    #[should_panic(expected = "every rank must reach the same communication steps")]
    fn a_rank_finishing_while_others_pause_is_rejected() {
        run_comm(|r, _| match r {
            0 => vec![StepSpec::Barrier],
            _ => Vec::new(),
        });
    }

    /// [`halo_timing`] with one FIFO queue of arrivals per (sender,
    /// receiver) pair in a hash map: the matching rule stated directly,
    /// the oracle the list-position matcher is checked against.
    fn halo_timing_reference(
        halos: &[(VTime, &[usize], Bytes)],
        room: Option<&ClusterTopology>,
    ) -> (Vec<VTime>, Vec<LinkFlow>) {
        let net = NetParams::NODE;
        let mut avail: HashMap<(usize, usize), VecDeque<VTime>> = HashMap::new();
        let mut after_sends = Vec::new();
        let mut link_posts = Vec::new();
        for (s, &(mut c, nbrs, bytes)) in halos.iter().enumerate() {
            for &dst in nbrs {
                c += net.overhead;
                let cross = room.is_some_and(|room| room.node_of(s) != room.node_of(dst));
                let wire = if cross {
                    NetParams::LINK.p2p_time(bytes)
                } else {
                    net.p2p_time(bytes)
                };
                avail.entry((s, dst)).or_default().push_back(c + wire);
                if cross {
                    link_posts.push((s, dst, c, c + wire));
                }
            }
            after_sends.push(c);
        }
        let mut flows = Vec::new();
        for (s, dst, start, end) in link_posts {
            let bytes = halos[s].2;
            flows.push((s, start, end, bytes, Bytes::ZERO));
            flows.push((dst, start, end, Bytes::ZERO, bytes));
        }
        let mut leave = Vec::new();
        for (r, &(_, nbrs, _)) in halos.iter().enumerate() {
            let mut c = after_sends[r];
            for &src in nbrs {
                let at = avail
                    .get_mut(&(src, r))
                    .and_then(VecDeque::pop_front)
                    .expect("symmetric halo lists guarantee a matching send");
                c = (c + net.overhead).max(at);
            }
            leave.push(c);
        }
        (leave, flows)
    }

    /// A random halo exchange over `n` ranks: multiset-symmetric lists of
    /// up to 8 neighbours in random order — self-messages and repeated,
    /// often non-adjacent neighbours included — with per-rank payloads
    /// from 0 B to 1 MiB and entry clocks spread over 200 µs.
    fn random_exchange(rng: &mut DetRng, n: usize) -> Vec<(VTime, Vec<usize>, Bytes)> {
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        for a in 0..n {
            for _ in 0..rng.index(9) {
                let b = match rng.index(6) {
                    0 => a,
                    1 if !lists[a].is_empty() => lists[a][rng.index(lists[a].len())],
                    _ => rng.index(n),
                };
                if a == b && lists[a].len() < 8 {
                    lists[a].push(a);
                } else if a != b && lists[a].len() < 8 && lists[b].len() < 8 {
                    lists[a].push(b);
                    lists[b].push(a);
                }
            }
        }
        for l in &mut lists {
            rng.shuffle(l);
        }
        lists
            .into_iter()
            .map(|l| {
                let clock = VTime(rng.range_f64(0.0, 200e-6));
                match rng.index(22) {
                    21 => (clock, l, Bytes::ZERO),
                    e => (clock, l, Bytes(1 << e)),
                }
            })
            .collect()
    }

    /// A room of nodes with 1–8 rank slots each, enough for `n` ranks.
    fn uneven_room(rng: &mut DetRng, n: usize) -> ClusterTopology {
        let mut nodes: Vec<NodeSpec> = Vec::new();
        while nodes.iter().map(|node| node.slots).sum::<usize>() < n {
            nodes.push(NodeSpec {
                machine: machine(),
                slots: 1 + rng.index(8),
            });
        }
        ClusterTopology::contiguous(ClusterSpec { nodes }, n)
    }

    /// Departures by bits and link flows field by field.
    #[allow(clippy::type_complexity)]
    fn timing_bits(
        t: &(Vec<VTime>, Vec<LinkFlow>),
    ) -> (Vec<u64>, Vec<(usize, u64, u64, u64, u64)>) {
        (
            t.0.iter().map(|c| c.secs().to_bits()).collect(),
            t.1.iter()
                .map(|&(rank, start, end, up, down)| {
                    (
                        rank,
                        start.secs().to_bits(),
                        end.secs().to_bits(),
                        up.get(),
                        down.get(),
                    )
                })
                .collect(),
        )
    }

    /// Random exchanges of 1 to `max_ranks` ranks, one per seed, each
    /// timed flat and in an uneven room by [`halo_timing`] and by the
    /// reference: departures must agree by bits and the flows exactly.
    fn check_halo_matcher(seeds: std::ops::Range<u64>, max_ranks: usize) {
        let cases = seeds.end - seeds.start;
        let (mut wide, mut repeated, mut selfs, mut crossing) = (0, 0, 0, 0);
        for seed in seeds {
            let mut rng = DetRng::seed(seed);
            let n = 1 + rng.index(max_ranks);
            let halos = random_exchange(&mut rng, n);
            let room = uneven_room(&mut rng, n);
            let halos: Vec<(VTime, &[usize], Bytes)> = halos
                .iter()
                .map(|(c, l, b)| (*c, l.as_slice(), *b))
                .collect();
            for room in [None, Some(&room)] {
                let got = halo_timing(&halos, room);
                let want = halo_timing_reference(&halos, room);
                assert!(
                    timing_bits(&got) == timing_bits(&want),
                    "seed {seed}, {n} ranks, in a room: {}",
                    room.is_some()
                );
                crossing += u64::from(!got.1.is_empty());
            }
            wide += u64::from(
                halos
                    .iter()
                    .any(|(_, l, _)| l.iter().collect::<BTreeSet<_>>().len() >= 3),
            );
            repeated += u64::from(halos.iter().any(|(_, l, _)| {
                (0..l.len()).any(|i| l[i + 1..].iter().skip(1).any(|&x| x == l[i]))
            }));
            selfs += u64::from(
                halos
                    .iter()
                    .enumerate()
                    .any(|(r, (_, l, _))| l.contains(&r)),
            );
        }
        for (what, count) in [
            ("three or more distinct neighbours", wide),
            ("a non-adjacent repeated neighbour", repeated),
            ("a self-message", selfs),
            ("cross-node flows", crossing),
        ] {
            assert!(
                count * 4 >= cases,
                "only {count} of {cases} cases had {what}"
            );
        }
    }

    /// The list-position matcher equals the per-pair FIFO reference by
    /// bits on exchanges of up to 24 ranks.
    #[test]
    fn halo_matcher_matches_the_reference() {
        check_halo_matcher(0..300, 24);
    }

    /// [`halo_matcher_matches_the_reference`] at scale: thousands of
    /// exchanges of up to 1,024 ranks.
    #[test]
    #[ignore = "thousands of exchanges of up to 1,024 ranks; run in release"]
    fn deep_halo_matcher_matches_the_reference() {
        check_halo_matcher(1 << 32..(1 << 32) + 2_048, 1_024);
    }

    /// 12 ranks at 4 per node, in the flat world and in a 3-node room
    /// with two-level comm: in Strict mode every journal append posts a
    /// flush the rank's neighbours read as NVM-write traffic. Two runs of
    /// each mode give the same report and journal bytes, and in the room
    /// an InMemory journal leaves the report as the plain run's.
    #[test]
    fn journaled_runs_repeat_byte_for_byte() {
        let w = WriteCold(Synth { iters: 4 });
        let m = machine().with_ranks_per_node(4);
        let nranks = 12;
        let room = |clustered: bool| {
            if clustered {
                let spec = ClusterSpec::homogeneous(m.clone(), 3, 4);
                RunSpec::clustered(ClusterTopology::contiguous(spec, nranks))
            } else {
                flat_room(&m, nranks)
            }
        };
        for clustered in [false, true] {
            for mode in DurabilityMode::ALL {
                let first = run_room(&w, room(clustered), Some(mode));
                assert_eq!(first.1.len(), nranks, "every rank journals");
                let (report, journals) = run_room(&w, room(clustered), Some(mode));
                assert!(
                    report == first.0,
                    "clustered={clustered}, {mode:?}: report differs between runs"
                );
                assert!(
                    journals == first.1,
                    "clustered={clustered}, {mode:?}: journals differ between runs"
                );
            }
        }
        let (plain, _) = run_room(&w, room(true), None);
        let (in_memory, _) = run_room(&w, room(true), Some(DurabilityMode::InMemory));
        assert!(
            plain == in_memory,
            "InMemory journaling perturbed the room's report"
        );
    }

    #[test]
    fn new_policies_replay_deterministically() {
        let w = Synth { iters: 6 };
        let m = machine();
        let c = CacheModel::platform_a();
        for policy in [Policy::online_guidance(), Policy::hw_cache()] {
            let a = run_workload(&w, &m, &c, 4, &policy);
            let b = run_workload(&w, &m, &c, 4, &policy);
            assert_eq!(
                a.to_json().to_pretty(),
                b.to_json().to_pretty(),
                "{} replay diverged",
                policy.label()
            );
        }
    }

    /// Each Unimem rank calibrates Eq. 1 against its own share of its
    /// node, under the policy's sampler, and no other policy calibrates.
    /// The machines sit ulps away from any other test's, so whatever the
    /// memo holds for them this test put there.
    #[test]
    fn each_unimem_rank_calibrates_its_own_share() {
        let c = CacheModel::platform_a();
        let default = SamplerConfig::default();
        let tuned = SamplerConfig {
            event_period: 100,
            ..default
        };
        let held = |m: &MachineConfig, occ: usize, sampler: SamplerConfig| {
            let [dram, nvm] = [TierKind::Dram, TierKind::Nvm].map(|t| m.rank_share(t, occ));
            memo_holds(&dram, &nvm, &c, sampler, 0x5eed)
        };
        let pcram = MachineConfig::technology(unimem_hms::profiles::table1_pcram(), "pcram");
        let [a, b, other] = [(machine(), 7_001), (pcram, 7_002), (machine(), 7_003)].map(
            |(mut m, ulps): (MachineConfig, u64)| {
                m.nvm.write_lat.0 = f64::from_bits(m.nvm.write_lat.0.to_bits() + ulps);
                m
            },
        );
        // Two ranks on node 0, one on node 1.
        let room =
            ClusterTopology::contiguous(ClusterSpec::mixed(vec![a.clone(), b.clone()], 2), 3);
        let unimem = Policy::Unimem(UnimemConfig {
            sampler: tuned,
            ..UnimemConfig::default()
        });
        run_workload_clustered(&Synth { iters: 2 }, &room, &c, &unimem);
        for (m, occ) in [(&a, 2), (&b, 1)] {
            assert!(held(m, occ, tuned), "{}: share not calibrated", m.label);
            assert!(!held(m, occ, default), "{}: default sampler", m.label);
        }
        for policy in [
            Policy::DramOnly,
            Policy::NvmOnly,
            Policy::Static {
                in_dram: vec!["hot".to_string()],
                label: "pin hot".to_string(),
            },
            Policy::online_guidance(),
            Policy::hw_cache(),
        ] {
            run_workload(&Synth { iters: 2 }, &other, &c, 2, &policy);
            for sampler in [default, tuned] {
                assert!(!held(&other, 1, sampler), "{} calibrated", policy.label());
            }
        }
    }

    /// A script whose step count grows at its second epoch, iteration 1.
    struct Growing;

    impl Workload for Growing {
        fn name(&self) -> String {
            "growing".into()
        }

        fn objects(&self, rank: usize, nranks: usize) -> Vec<ObjectSpec> {
            Synth { iters: 2 }.objects(rank, nranks)
        }

        fn script_epoch(&self, iter: usize) -> usize {
            iter.min(1)
        }

        fn script(&self, rank: usize, nranks: usize, epoch: usize) -> Vec<StepSpec> {
            let mut steps = Synth { iters: 2 }.script(rank, nranks, epoch);
            steps.truncate(1 + epoch);
            steps
        }

        fn iterations(&self) -> usize {
            2
        }
    }

    #[test]
    #[should_panic(expected = "phase structure changed")]
    #[cfg(debug_assertions)]
    fn varying_structure_is_caught() {
        run_room(&Growing, flat_room(&machine(), 1), None);
    }

    /// [`Synth`]'s script in epochs of two iterations, counting how often
    /// it is built.
    struct Counted {
        builds: AtomicUsize,
    }

    impl Workload for Counted {
        fn name(&self) -> String {
            "counted".into()
        }

        fn objects(&self, rank: usize, nranks: usize) -> Vec<ObjectSpec> {
            Synth { iters: 6 }.objects(rank, nranks)
        }

        fn script_epoch(&self, iter: usize) -> usize {
            iter / 2
        }

        fn script(&self, rank: usize, nranks: usize, epoch: usize) -> Vec<StepSpec> {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Synth { iters: 6 }.script(rank, nranks, epoch)
        }

        fn iterations(&self) -> usize {
            6
        }
    }

    /// Each rank builds its script once per epoch: 4 ranks over 3 epochs
    /// of 2 iterations make 12 builds, where one per iteration makes 24.
    #[test]
    fn scripts_are_built_once_per_epoch() {
        let w = Counted {
            builds: AtomicUsize::new(0),
        };
        run_room(&w, flat_room(&machine(), 4), None);
        assert_eq!(w.builds.load(Ordering::Relaxed), 12);
    }

    /// The time oracle's workload: a hot and a cold compute phase around
    /// a halo ring and an allreduce, over [`Synth`]'s objects. The two
    /// objects trade roles at iteration 3, where the second script epoch
    /// begins: a drift the variation monitor answers by re-profiling.
    struct Drift;

    impl Workload for Drift {
        fn name(&self) -> String {
            "drift".into()
        }

        fn objects(&self, rank: usize, nranks: usize) -> Vec<ObjectSpec> {
            Synth { iters: 6 }.objects(rank, nranks)
        }

        fn script_epoch(&self, iter: usize) -> usize {
            usize::from(iter >= 3)
        }

        fn script(&self, rank: usize, nranks: usize, epoch: usize) -> Vec<StepSpec> {
            let (hot, cold) = if epoch == 0 { (0, 1) } else { (1, 0) };
            let sweep = |label, obj, accesses| {
                StepSpec::Compute(ComputeSpec {
                    label,
                    cpu: VDur::from_millis(2.0),
                    accesses: vec![ObjAccess::new(
                        ObjId(obj),
                        accesses,
                        Bytes::mib(100),
                        AccessPattern::Streaming { stride: Bytes(8) },
                    )
                    .with_mix(AccessMix::new(0.6))],
                })
            };
            vec![
                sweep("hot", hot, 40_000_000),
                StepSpec::Halo {
                    neighbors: vec![(rank + 1) % nranks, (rank + nranks - 1) % nranks],
                    bytes: Bytes::kib(64),
                },
                sweep("cold", cold, 400_000),
                StepSpec::AllreduceSum { bytes: Bytes(64) },
            ]
        }

        fn iterations(&self) -> usize {
            6
        }
    }

    /// Every [`Cause`], indexed by its discriminant.
    const CAUSES: [Cause; 6] = [
        Cause::App,
        Cause::Profiling,
        Cause::Modeling,
        Cause::Sync,
        Cause::Stall,
        Cause::Journal,
    ];

    /// Replay one rank's [`RankTime`] record from time zero: the clock it
    /// ends at, and each cause's total in record order, a departure's
    /// wait counting as application time.
    fn replay(log: &[TimeEvent]) -> (VTime, [VDur; 6]) {
        let mut clock = VTime::ZERO;
        let mut by_cause = [VDur::ZERO; 6];
        for event in log {
            match event {
                TimeEvent::Charge(parts) => {
                    let mut total = VDur::ZERO;
                    for &(cause, d) in parts {
                        by_cause[cause as usize] += d;
                        total += d;
                    }
                    clock += total;
                }
                TimeEvent::Depart(t) => {
                    by_cause[Cause::App as usize] += *t - clock;
                    clock = *t;
                }
            }
        }
        (clock, by_cause)
    }

    /// The time oracle: for every policy, journal mode and room, each
    /// rank's record of charges and departures, replayed from zero, ends
    /// at the rank's `total_time` and sums to each `RunStats` time
    /// category bit for bit, and the six causes add up to the total. A
    /// clock move or a category update outside [`RankTime::charge`] and
    /// [`RankTime::depart`] breaks one of the three. The adaptive
    /// policies also run under a moving lease, so lease re-plans charge
    /// through the same path.
    #[test]
    fn rank_time_records_replay_to_the_reported_stats() {
        let m = machine();
        let lease = CapacitySchedule::constant(m.dram_capacity);
        let shrinking =
            CapacitySchedule::from_epochs(vec![m.dram_capacity, m.dram_capacity, Bytes::mib(96)])
                .expect("non-empty lease");
        let room_3 = ClusterTopology::contiguous(ClusterSpec::homogeneous(m.clone(), 3, 2), 5);
        let mut seen = [VDur::ZERO; 6];
        let (mut departures, mut replans, mut reprofiles) = (0, 0, 0);
        for id in PolicyId::ALL {
            let policy = match id {
                PolicyId::Unimem => Policy::unimem(),
                // X-Mem's offline pass yields a static pin list.
                PolicyId::Xmem => Policy::Static {
                    in_dram: vec!["hot".into()],
                    label: "X-Mem".into(),
                },
                PolicyId::DramOnly => Policy::DramOnly,
                PolicyId::NvmOnly => Policy::NvmOnly,
                PolicyId::OnlineGuidance => Policy::online_guidance(),
                PolicyId::HwCache => Policy::hw_cache(),
            };
            let mut rooms = vec![
                ("1 rank", flat_room(&m, 1)),
                (
                    "4 ranks, 2 per node",
                    RunSpec::flat(&m.clone().with_ranks_per_node(2), 4, &lease),
                ),
                ("3-node room", RunSpec::clustered(room_3.clone())),
            ];
            if policy.supports_moving_lease() {
                rooms.push(("moving lease", RunSpec::flat(&m, 2, &shrinking)));
            }
            for (name, room) in rooms {
                for journal in [
                    None,
                    Some(DurabilityMode::Buffered),
                    Some(DurabilityMode::Strict),
                ] {
                    let spec = RunSpec {
                        room: room.room.clone(),
                        flat_comm: room.flat_comm,
                        leases: room.leases.clone(),
                        journal,
                    };
                    let cache = CacheModel::platform_a();
                    let (report, _) = run(&spec, &Drift, &cache, &policy, Vec::new());
                    assert_eq!(report.time_logs.len(), report.per_rank.len());
                    for (rank, (stats, log)) in
                        report.per_rank.iter().zip(&report.time_logs).enumerate()
                    {
                        let ctx =
                            format!("{} in {name}, journal {journal:?}, rank {rank}", id.name());
                        let (clock, by_cause) = replay(log);
                        assert_eq!(
                            (clock - VTime::ZERO).secs().to_bits(),
                            stats.total_time.secs().to_bits(),
                            "{ctx}: the record replays to {clock}, the rank reports {}",
                            stats.total_time
                        );
                        let categories = [
                            stats.app_time,
                            stats.profiling_overhead,
                            stats.modeling_overhead,
                            stats.sync_overhead,
                            stats.migration_stall,
                        ];
                        for (cause, category) in CAUSES.iter().zip(categories) {
                            assert_eq!(
                                by_cause[*cause as usize].secs().to_bits(),
                                category.secs().to_bits(),
                                "{ctx}: {cause:?} charges sum to {}, the category holds {category}",
                                by_cause[*cause as usize]
                            );
                        }
                        let sum: VDur = by_cause.iter().copied().sum();
                        let total = stats.total_time.secs();
                        assert!(
                            (sum.secs() - total).abs() <= 1e-9 * total,
                            "{ctx}: causes sum to {sum}, total {total}"
                        );
                        for (s, d) in seen.iter_mut().zip(by_cause) {
                            *s += d;
                        }
                        departures += log
                            .iter()
                            .filter(|e| matches!(e, TimeEvent::Depart(_)))
                            .count();
                        replans += stats.lease_replans;
                        reprofiles += stats.reprofiles;
                    }
                }
            }
        }
        for (cause, total) in CAUSES.iter().zip(seen) {
            assert!(total > VDur::ZERO, "no run charged {cause:?}");
        }
        assert!(departures > 0, "no rank departed a communication point");
        assert!(replans > 0, "no lease re-plan ran");
        assert!(reprofiles > 0, "no re-profile ran");
    }

    /// Every field of a [`ground_truth`] result, as bits.
    #[allow(clippy::type_complexity)]
    fn priced_bits(
        r: &(VDur, Vec<GroundTruth>, PhaseContention),
    ) -> (u64, Vec<(UnitId, u64, u64, u64)>, u64, u64) {
        (
            r.0.secs().to_bits(),
            r.1.iter()
                .map(|g| {
                    (
                        g.unit,
                        g.misses,
                        g.miss_bytes.get(),
                        g.mem_time.secs().to_bits(),
                    )
                })
                .collect(),
            r.2.total.secs().to_bits(),
            r.2.neighbors.secs().to_bits(),
        )
    }

    /// Price `spec` through `memo` and through [`ground_truth_reference`]
    /// and require the same bits.
    fn assert_memo_matches(
        memo: &mut Option<StepMemo>,
        spec: &ComputeSpec,
        registry: &ObjectRegistry,
        view: TierView<'_>,
        bw: &BwClient,
        now: VTime,
        ctx: &str,
    ) {
        let cache = CacheModel::platform_a();
        let got = ground_truth(memo, spec, registry, view, &cache, bw, now);
        let want = ground_truth_reference(spec, registry, view, &cache, bw, now);
        assert_eq!(priced_bits(&got), priced_bits(&want), "{ctx}");
    }

    /// Four partitionable objects of 1–4 chunks each.
    fn chunked_registry(rng: &mut DetRng) -> ObjectRegistry {
        let mut registry = ObjectRegistry::new();
        for k in 0..4 {
            let spec = ObjectSpec::new(format!("o{k}"), Bytes::mib(64)).partitionable(true);
            let id = registry.register(spec);
            registry.set_chunks(id, 1 + rng.index(4) as u16);
        }
        registry
    }

    /// A step of 1–4 descriptors over [`chunked_registry`]'s objects, in
    /// all five patterns with read fractions 0, 1 or between; about a
    /// quarter of the descriptors fit the cache. With `fits`, all of them
    /// do and the step has no CPU time, so its window has zero length.
    fn random_step(rng: &mut DetRng, fits: bool) -> ComputeSpec {
        let accesses = (0..1 + rng.index(4))
            .map(|_| {
                let touched = if fits || rng.index(4) == 0 {
                    Bytes::kib(1 + rng.index(256) as u64)
                } else {
                    Bytes::mib(1 + rng.index(128) as u64)
                };
                let span = Bytes((touched.as_f64() * rng.range_f64(0.5, 4.0)) as u64);
                let pattern = match rng.index(5) {
                    0 => AccessPattern::Streaming {
                        stride: Bytes(8 << rng.index(5)),
                    },
                    1 => AccessPattern::Random,
                    2 => AccessPattern::PointerChase,
                    3 => AccessPattern::Gather { index_span: span },
                    _ => AccessPattern::Stencil { reuse_bytes: span },
                };
                let read_frac = match rng.index(4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.f64(),
                };
                let obj = ObjId(rng.index(4) as u32);
                ObjAccess::new(obj, 1 + rng.u64() % 50_000_000, touched, pattern)
                    .with_mix(AccessMix::new(read_frac))
            })
            .collect();
        ComputeSpec {
            label: "step",
            cpu: if fits {
                VDur::ZERO
            } else {
                VDur::from_millis(rng.range_f64(0.0, 5.0))
            },
            accesses,
        }
    }

    /// An owned [`TierView`].
    struct View {
        in_dram: UnitSet,
        all_dram: bool,
        hit: Option<f64>,
    }

    impl View {
        fn sets(in_dram: UnitSet) -> View {
            View {
                in_dram,
                all_dram: false,
                hit: None,
            }
        }

        fn get(&self) -> TierView<'_> {
            match self.hit {
                Some(hit) => TierView::Fraction(hit),
                None => TierView::Sets {
                    in_dram: &self.in_dram,
                    all_dram: self.all_dram,
                },
            }
        }
    }

    /// A random DRAM subset, all DRAM, or a hit fraction at 0, at 1,
    /// next to either (where a site's DRAM or NVM part rounds to zero
    /// misses) or between.
    fn random_view(rng: &mut DetRng, registry: &ObjectRegistry) -> View {
        let fraction = |hit| View {
            hit: Some(hit),
            ..View::sets(UnitSet::new())
        };
        match rng.index(9) {
            0 => View {
                all_dram: true,
                ..View::sets(UnitSet::new())
            },
            1 => fraction(0.0),
            2 => fraction(1.0),
            3 => fraction(1e-12),
            4 => fraction(1.0 - 1e-12),
            5 => fraction(rng.f64()),
            _ => View::sets(
                registry
                    .units()
                    .into_iter()
                    .filter(|_| rng.index(2) == 0)
                    .collect(),
            ),
        }
    }

    /// The memoized [`ground_truth`] equals the reference bit for bit
    /// over generated steps, views and ledgers: no flows, own copies that
    /// overlap the window or end inside it, fenced neighbour traffic, and
    /// zero-length windows. Each case prices one memo slot under a view,
    /// the same view again, another view and the first one back.
    #[test]
    fn memoized_ground_truth_matches_the_reference() {
        let (mut loud, mut empty) = (0, 0);
        for seed in 0..400 {
            let mut rng = DetRng::seed(seed);
            let registry = chunked_registry(&mut rng);
            let spec = random_step(&mut rng, seed % 10 == 0);
            let ledger = rng.index(4);
            let m = machine().with_ranks_per_node(2);
            let bw = SharedBandwidth::from_topology(&ClusterTopology::homogeneous(&m, 2));
            let (me, neighbor) = (bw.client(0), bw.client(1));
            let now = VTime(1.0);
            let ms = VDur::from_millis;
            let to = [TierKind::Dram, TierKind::Nvm][rng.index(2)];
            let bytes = Bytes::mib(1 + rng.index(64) as u64);
            match ledger {
                1 => me.post_copy(to, VTime(0.999), now + ms(rng.range_f64(0.0, 20.0)), bytes),
                2 => me.post_copy(to, VTime(0.998), now + ms(1e-4), bytes),
                3 => {
                    neighbor.post_copy(to, VTime(0.5), VTime(0.75), bytes);
                    bw.fence(now);
                }
                _ => {}
            }
            if !me.tier_loads(now, now + ms(5.0)).is_quiet() {
                loud += 1;
            }
            let (a, b) = (
                random_view(&mut rng, &registry),
                random_view(&mut rng, &registry),
            );
            let mut memo = None;
            for (k, view) in [&a, &a, &b, &a].into_iter().enumerate() {
                let ctx = format!("seed {seed}, call {k}");
                assert_memo_matches(&mut memo, &spec, &registry, view.get(), &me, now, &ctx);
            }
            if spec.cpu + memo.expect("memo filled").t_base == VDur::ZERO {
                empty += 1;
            }
        }
        assert!(loud > 100, "only {loud} of 400 cases had a loaded window");
        assert!(
            empty >= 40,
            "only {empty} of 400 cases had a zero-length window"
        );
    }

    /// One memo slot through every branch: a fresh entry (as at every
    /// epoch's first iteration), a repeat in a quiet window, a repeat
    /// after an own copy makes the window loud, a placement change, and
    /// the placement changed back.
    #[test]
    fn one_memo_slot_runs_every_branch_bit_for_bit() {
        let registry = chunked_registry(&mut DetRng::seed(7));
        let m = machine().with_ranks_per_node(2);
        let bw = SharedBandwidth::from_topology(&ClusterTopology::homogeneous(&m, 2));
        let me = bw.client(0);
        let now = VTime(1.0);
        let spec = ComputeSpec {
            label: "sweep",
            cpu: VDur::from_millis(5.0),
            accesses: vec![
                ObjAccess::new(
                    ObjId(0),
                    40_000_000,
                    Bytes::mib(64),
                    AccessPattern::Streaming { stride: Bytes(8) },
                ),
                ObjAccess::new(ObjId(1), 400_000, Bytes::mib(64), AccessPattern::Random)
                    .with_mix(AccessMix::new(0.3)),
                ObjAccess::new(
                    ObjId(0),
                    2_000_000,
                    Bytes::mib(64),
                    AccessPattern::PointerChase,
                ),
            ],
        };
        let nvm = View::sets(UnitSet::new());
        let hot = View::sets(registry.get(ObjId(0)).units().collect());
        let window = |memo: &Option<StepMemo>| {
            let t_base = memo.as_ref().expect("memo filled").t_base;
            me.tier_loads(now, now + spec.cpu + t_base)
        };
        let mut memo = None;
        let check = |memo: &mut Option<StepMemo>, view: &View, ctx: &str| {
            assert_memo_matches(memo, &spec, &registry, view.get(), &me, now, ctx);
        };

        check(&mut memo, &nvm, "fresh entry");
        assert!(window(&memo).is_quiet());
        check(&mut memo, &nvm, "quiet hit");

        me.post_copy(
            TierKind::Dram,
            now,
            now + VDur::from_millis(2.0),
            Bytes::mib(8),
        );
        assert!(!window(&memo).is_quiet());
        check(&mut memo, &nvm, "loud hit");

        let placed = |memo: &Option<StepMemo>, view: &View| {
            let m = memo.as_ref().expect("memo filled");
            m.placement.matches(view.get(), &m.raw)
        };
        assert!(!placed(&memo, &hot));
        check(&mut memo, &hot, "placement changed");
        assert!(placed(&memo, &hot) && !placed(&memo, &nvm));
        check(&mut memo, &nvm, "placement changed back");
        assert!(placed(&memo, &nvm));
    }
}
