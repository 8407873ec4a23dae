//! Crash-consistent recovery: journaled runs, deterministic crash
//! injection, and replay back to an equivalent execution.
//!
//! The redo journal (`unimem_hms::journal`) records, per rank, every
//! placement-relevant event — the object table, the initial placement,
//! migration intents and requirement stalls, compute observations, comm
//! durations — committed at MPI-fence epochs. Because the simulator is
//! deterministic, a crash at virtual time `T` leaves exactly the durable
//! prefix the chosen [`DurabilityMode`] guarantees by `T`. Recovery
//! rebuilds no placement from that prefix, because the re-run recomputes
//! it: [`ReplayedState::replay`] reads back only the compute
//! observations, the comm durations, the record count and the last
//! commit. The placement records stay in the log for the write-ahead
//! rule and the flush cost they charge. Recovery then *re-runs* the
//! workload with each rank's journaled compute observations substituted
//! for the ground-truth model (an oracle). Replayed work skips the
//! expensive modeling; once a rank's log runs out — the crash point —
//! it falls back to live execution seamlessly, which is safe precisely
//! because the clean run and the recovery run are the same deterministic
//! function of the same inputs. Communication always executes for real
//! (collectives must rendezvous every rank); the journaled durations are
//! verified bitwise against the re-run instead.
//!
//! Equivalence is therefore checkable in the strongest possible sense:
//! the recovered run's full [`RunReport`] JSON and its regenerated
//! per-rank journals must be byte-identical to the uninterrupted run's.

use crate::exec::{
    run, CapacitySchedule, Policy, RankJournalOut, RankOracle, RunReport, RunSpec, Workload,
};
use unimem_cache::CacheModel;
use unimem_hms::journal::{durable_prefix, DurabilityMode, JournalStats, ReplayedState};
use unimem_hms::tier::TierKind;
use unimem_hms::MachineConfig;
use unimem_sim::{Bytes, CrashSpec, Json, VDur, VTime};

/// CPU cost modeled per journal record during replay (decode + apply).
const REPLAY_CPU: VDur = VDur(2.0e-6);

/// Everything needed to run, crash, and recover one job.
pub struct RecoverySetup<'a> {
    pub workload: &'a dyn Workload,
    pub machine: &'a MachineConfig,
    pub cache: &'a CacheModel,
    pub nranks: usize,
    pub policy: &'a Policy,
}

/// A completed journaled run: the report plus each rank's full journal.
pub struct JournaledRun {
    pub report: RunReport,
    /// Per-rank journal byte streams, in rank order.
    pub journals: Vec<Vec<u8>>,
    /// Per-rank journal accounting.
    pub stats: Vec<JournalStats>,
}

/// What one rank's durable journal replayed into, plus how the oracle
/// fared during the recovery re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Durable journal bytes surviving the crash (torn tail included).
    pub durable_bytes: u64,
    /// Records replayed ([`ReplayedState::records`]).
    pub records: u64,
    /// Torn trailing bytes detected and discarded by the frame parser.
    pub torn_bytes_discarded: u64,
    /// Append vtime of the last durable record.
    pub last_at: f64,
    /// Latest committed epoch generation, if any survived.
    pub last_commit: Option<u64>,
    /// Compute phases served from the journal during the re-run.
    pub replayed_observes: u64,
    /// Journaled comm durations that did not match the re-run bitwise.
    /// Any non-zero count means the replay was not tracking the clean
    /// run — equivalence has already failed.
    pub comm_mismatches: u64,
}

/// Result of a recovery re-run from durable journal prefixes.
pub struct RecoveredRun {
    pub report: RunReport,
    /// The journals the *recovery* run wrote (should equal the clean
    /// run's journals byte-for-byte).
    pub journals: Vec<Vec<u8>>,
    pub summaries: Vec<ReplaySummary>,
}

/// Analytic cost of one recovery, against the restart-from-scratch
/// baseline. All times are job-level (slowest rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryStats {
    pub mode: DurabilityMode,
    /// Virtual time of the injected crash.
    pub crash_at: VTime,
    /// Whether the crash tore the in-flight record.
    pub torn: bool,
    /// Durable journal bytes across all ranks.
    pub durable_bytes: u64,
    /// Records replayed across all ranks.
    pub replayed_records: u64,
    /// Reading + applying the durable journal (slowest rank).
    pub replay_time: VDur,
    /// Re-executing from the last journaled point to completion.
    pub redo_time: VDur,
    /// `replay_time + redo_time`.
    pub recovery_time: VDur,
    /// The baseline: rerunning the whole job from scratch.
    pub restart_time: VDur,
}

impl RecoveryStats {
    /// Restart-over-recovery speedup. `1.0` means journaling bought
    /// nothing (e.g. `InMemory` mode, whose journal never survives).
    pub fn advantage(&self) -> f64 {
        if self.recovery_time.is_zero() {
            f64::INFINITY
        } else {
            self.restart_time.secs() / self.recovery_time.secs()
        }
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj_with_capacity(10);
        o.field("mode", self.mode.name())
            .field("crash_at_s", self.crash_at.secs())
            .field("torn", self.torn)
            .field("durable_bytes", self.durable_bytes)
            .field("replayed_records", self.replayed_records)
            .field("replay_time_s", self.replay_time)
            .field("redo_time_s", self.redo_time)
            .field("recovery_time_s", self.recovery_time)
            .field("restart_time_s", self.restart_time)
            .field("advantage", self.advantage());
        o
    }
}

/// Outcome of one injected crash: the recovered run, its equivalence
/// verdicts against the clean run, and the analytic cost model.
pub struct CrashOutcome {
    pub crash: CrashSpec,
    pub mode: DurabilityMode,
    pub recovered: RunReport,
    pub summaries: Vec<ReplaySummary>,
    pub stats: RecoveryStats,
    /// Recovered report JSON is byte-identical to the clean run's.
    pub report_equal: bool,
    /// Recovery re-run regenerated every rank's journal byte-for-byte.
    pub journals_equal: bool,
}

impl CrashOutcome {
    /// The crash-consistency contract: report and journals identical,
    /// and every journaled comm duration matched the re-run bitwise.
    pub fn equivalent(&self) -> bool {
        self.report_equal
            && self.journals_equal
            && self.summaries.iter().all(|s| s.comm_mismatches == 0)
    }
}

impl RecoverySetup<'_> {
    /// Run the job journaled in `mode`, replaying `oracles` (one per
    /// rank, or none): the report and every rank's journal.
    fn run_with(
        &self,
        mode: DurabilityMode,
        oracles: Vec<RankOracle>,
    ) -> (RunReport, Vec<RankJournalOut>) {
        let lease = CapacitySchedule::constant(self.machine.dram_capacity);
        let spec = RunSpec {
            journal: Some(mode),
            ..RunSpec::flat(self.machine, self.nranks, &lease)
        };
        run(&spec, self.workload, self.cache, self.policy, oracles)
    }

    /// Run the job uninterrupted with journaling enabled.
    pub fn run_journaled(&self, mode: DurabilityMode) -> JournaledRun {
        let (report, outs) = self.run_with(mode, Vec::new());
        let (journals, stats) = outs.into_iter().map(|o| (o.bytes, o.stats)).unzip();
        JournaledRun {
            report,
            journals,
            stats,
        }
    }

    /// Recover from per-rank durable journal prefixes: replay each into
    /// a [`ReplayedState`], hand its observations and comm durations to
    /// the rank's oracle, and re-run to completion.
    pub fn recover(&self, mode: DurabilityMode, durable: &[Vec<u8>]) -> RecoveredRun {
        assert_eq!(durable.len(), self.nranks, "one durable journal per rank");
        let mut states: Vec<ReplayedState> =
            durable.iter().map(|b| ReplayedState::replay(b)).collect();
        let oracles = states
            .iter_mut()
            .map(|st| {
                RankOracle::new(
                    std::mem::take(&mut st.observes),
                    std::mem::take(&mut st.comms),
                )
            })
            .collect();
        let (report, outs) = self.run_with(mode, oracles);
        let mut journals = Vec::with_capacity(self.nranks);
        let mut summaries = Vec::with_capacity(self.nranks);
        for (out, (st, bytes)) in outs.into_iter().zip(states.iter().zip(durable)) {
            summaries.push(ReplaySummary {
                durable_bytes: bytes.len() as u64,
                records: st.records as u64,
                torn_bytes_discarded: st.torn_bytes_discarded as u64,
                last_at: st.last_at,
                last_commit: st.last_commit.map(|(g, _)| g),
                replayed_observes: out.replayed_observes,
                comm_mismatches: out.comm_mismatches,
            });
            journals.push(out.bytes);
        }
        RecoveredRun {
            report,
            journals,
            summaries,
        }
    }

    /// Inject `crash` into `clean` and recover: truncate every rank's
    /// journal to its durable prefix at the crash instant, replay, re-run,
    /// and judge equivalence against the uninterrupted run.
    pub fn crash_and_recover(
        &self,
        mode: DurabilityMode,
        crash: CrashSpec,
        clean: &JournaledRun,
    ) -> CrashOutcome {
        let durable: Vec<Vec<u8>> = clean
            .journals
            .iter()
            .map(|j| durable_prefix(j, mode, crash))
            .collect();
        let rec = self.recover(mode, &durable);

        let report_equal = rec.report.to_json().to_pretty() == clean.report.to_json().to_pretty();
        let journals_equal = rec.journals == clean.journals;

        // Analytic cost model. Replay reads this rank's durable prefix
        // from its share of the node NVM read path and applies each
        // record; redo re-executes from the last journaled instant to
        // the clean completion time. Restart is the full clean run.
        let occ = self.machine.ranks_per_node.min(self.nranks.max(1));
        let nvm_share = self.machine.rank_share(TierKind::Nvm, occ);
        let restart_time = clean.report.time();
        let mut replay_time = VDur::ZERO;
        let mut redo_time = VDur::ZERO;
        for s in &rec.summaries {
            let read = Bytes(s.durable_bytes) / nvm_share.read_bw;
            let apply = VDur(REPLAY_CPU.secs() * s.records as f64);
            replay_time = replay_time.max(read + apply);
            redo_time = redo_time.max(VDur(restart_time.secs() - s.last_at).max(VDur::ZERO));
        }
        let stats = RecoveryStats {
            mode,
            crash_at: crash.at,
            torn: crash.torn,
            durable_bytes: rec.summaries.iter().map(|s| s.durable_bytes).sum(),
            replayed_records: rec.summaries.iter().map(|s| s.records).sum(),
            replay_time,
            redo_time,
            recovery_time: replay_time + redo_time,
            restart_time,
        };
        CrashOutcome {
            crash,
            mode,
            recovered: rec.report,
            summaries: rec.summaries,
            stats,
            report_equal,
            journals_equal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_workload, ComputeSpec, StepSpec};
    use unimem_cache::{AccessPattern, ObjAccess};
    use unimem_hms::object::{ObjId, ObjectSpec};
    use unimem_sim::sample_kill_points;

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

    fn setup<'a>(
        w: &'a Synth,
        m: &'a MachineConfig,
        c: &'a CacheModel,
        policy: &'a Policy,
    ) -> RecoverySetup<'a> {
        RecoverySetup {
            workload: w,
            machine: m,
            cache: c,
            nranks: 2,
            policy,
        }
    }

    #[test]
    fn journaled_run_matches_plain_run_in_memory_mode() {
        let w = Synth { iters: 4 };
        let c = CacheModel::platform_a();
        for p in [
            Policy::unimem(),
            Policy::online_guidance(),
            Policy::hw_cache(),
        ] {
            // One rank per node, a shared node, and three full nodes.
            for (nranks, per_node) in [(2, 1), (4, 2), (12, 4)] {
                let m = MachineConfig::nvm_bw_fraction(0.5).with_ranks_per_node(per_node);
                let plain = run_workload(&w, &m, &c, nranks, &p);
                let journaled = RecoverySetup {
                    nranks,
                    ..setup(&w, &m, &c, &p)
                }
                .run_journaled(DurabilityMode::InMemory);
                assert_eq!(
                    plain.to_json().to_pretty(),
                    journaled.report.to_json().to_pretty(),
                    "InMemory journaling perturbed {} at {nranks} ranks, {per_node} per node",
                    p.label()
                );
                assert!(journaled.journals.iter().all(|j| !j.is_empty()));
            }
        }
    }

    #[test]
    fn recovery_from_full_journal_is_equivalent() {
        let w = Synth { iters: 4 };
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let c = CacheModel::platform_a();
        let p = Policy::unimem();
        let s = setup(&w, &m, &c, &p);
        let clean = s.run_journaled(DurabilityMode::Strict);
        // Crash after completion: everything durable, pure replay.
        let crash = CrashSpec::at(VTime::ZERO + clean.report.time() + VDur(1.0));
        let out = s.crash_and_recover(DurabilityMode::Strict, crash, &clean);
        assert!(
            out.equivalent(),
            "report={} journals={}",
            out.report_equal,
            out.journals_equal
        );
        assert!(out.summaries.iter().all(|s| s.replayed_observes > 0));
    }

    #[test]
    fn sampled_crashes_recover_equivalently_in_every_mode() {
        let w = Synth { iters: 4 };
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let c = CacheModel::platform_a();
        let p = Policy::unimem();
        let s = setup(&w, &m, &c, &p);
        for mode in DurabilityMode::ALL {
            let clean = s.run_journaled(mode);
            let horizon = VTime::ZERO + clean.report.time();
            for crash in sample_kill_points(7, horizon, 2) {
                let out = s.crash_and_recover(mode, crash, &clean);
                assert!(
                    out.equivalent(),
                    "mode={mode:?} crash={crash:?}: report_equal={} journals_equal={} \
                     mismatches={:?}",
                    out.report_equal,
                    out.journals_equal,
                    out.summaries
                        .iter()
                        .map(|s| s.comm_mismatches)
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn late_strict_crash_beats_restart() {
        let w = Synth { iters: 6 };
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let c = CacheModel::platform_a();
        let p = Policy::unimem();
        let s = setup(&w, &m, &c, &p);
        let clean = s.run_journaled(DurabilityMode::Strict);
        let crash = CrashSpec::at(VTime::ZERO + VDur(clean.report.time().secs() * 0.75));
        let out = s.crash_and_recover(DurabilityMode::Strict, crash, &clean);
        assert!(out.equivalent());
        assert!(
            out.stats.advantage() > 1.2,
            "late-crash recovery should clearly beat restart: advantage={}",
            out.stats.advantage()
        );
    }

    #[test]
    fn in_memory_mode_recovers_by_rerunning_from_scratch() {
        let w = Synth { iters: 3 };
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let c = CacheModel::platform_a();
        let p = Policy::unimem();
        let s = setup(&w, &m, &c, &p);
        let clean = s.run_journaled(DurabilityMode::InMemory);
        let crash = CrashSpec::at(VTime::ZERO + VDur(clean.report.time().secs() * 0.5));
        let out = s.crash_and_recover(DurabilityMode::InMemory, crash, &clean);
        assert!(out.equivalent());
        assert_eq!(
            out.stats.durable_bytes, 0,
            "InMemory journal never survives"
        );
        assert!((out.stats.advantage() - 1.0).abs() < 1e-9);
    }
}
