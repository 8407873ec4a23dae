//! Journal/recovery edge cases over a real workload: empty journals,
//! crashes landing exactly on a fence epoch, crashes mid-first-copy,
//! torn final records, and well-framed records that name units the rank
//! never registered. Each case must still recover to a run
//! byte-identical to the uninterrupted one — the crash-consistency
//! contract has no easy inputs.

use unimem_repro::cache::CacheModel;
use unimem_repro::hms::journal::{
    durable_prefix, read_journal, DurabilityMode, Journal, Record, ReplayedState,
};
use unimem_repro::hms::object::{ObjId, UnitId};
use unimem_repro::runtime::exec::Policy;
use unimem_repro::runtime::recovery::RecoverySetup;
use unimem_repro::sim::{CrashSpec, VTime};
use unimem_repro::workloads::{select, Class};

struct Rig {
    machine: unimem_repro::hms::MachineConfig,
    cache: CacheModel,
    policy: Policy,
    workload: Box<dyn unimem_repro::runtime::Workload>,
}

impl Rig {
    fn new() -> Rig {
        let mut selection = select(&["CG"], Class::C).expect("CG selects");
        Rig {
            machine: unimem_repro::hms::MachineConfig::nvm_bw_fraction(0.5),
            cache: CacheModel::platform_a(),
            policy: Policy::unimem(),
            workload: selection.remove(0).1,
        }
    }

    fn setup(&self) -> RecoverySetup<'_> {
        RecoverySetup {
            workload: self.workload.as_ref(),
            machine: &self.machine,
            cache: &self.cache,
            nranks: 2,
            policy: &self.policy,
        }
    }
}

#[test]
fn empty_journals_recover_by_running_from_scratch() {
    let rig = Rig::new();
    let s = rig.setup();
    let clean = s.run_journaled(DurabilityMode::Strict);
    // Nothing durable at all — recovery must degenerate to a clean run.
    let rec = s.recover(DurabilityMode::Strict, &[Vec::new(), Vec::new()]);
    assert_eq!(
        rec.report.to_json().to_pretty(),
        clean.report.to_json().to_pretty()
    );
    assert_eq!(rec.journals, clean.journals);
    for sum in &rec.summaries {
        assert_eq!(sum.records, 0, "an empty journal replays nothing");
        assert_eq!(sum.replayed_observes, 0);
        assert_eq!(sum.comm_mismatches, 0);
    }
}

#[test]
fn crash_exactly_at_a_fence_epoch_recovers_the_committed_prefix() {
    let rig = Rig::new();
    let s = rig.setup();
    let clean = s.run_journaled(DurabilityMode::Buffered);
    // A commit instant straight from rank 0's journal: the knife-edge
    // case where the crash lands on the epoch boundary itself.
    let commits: Vec<(u64, f64)> = read_journal(&clean.journals[0])
        .0
        .into_iter()
        .filter_map(|(rec, _)| match rec {
            Record::EpochCommit { gen, at } => Some((gen, at)),
            _ => None,
        })
        .collect();
    assert!(commits.len() > 1, "a multi-iteration run commits epochs");
    assert!(
        commits
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
        "epochs commit in generation and time order"
    );
    let (mid_gen, mid_at) = commits[commits.len() / 2];

    let out = s.crash_and_recover(
        DurabilityMode::Buffered,
        CrashSpec::at(VTime(mid_at)),
        &clean,
    );
    assert!(out.equivalent(), "fence-epoch crash must recover cleanly");
    // The epoch committed at exactly the crash instant is durable
    // (its flush completes at the fence), later ones are not.
    for sum in &out.summaries {
        let last = sum.last_commit.expect("committed epochs survive");
        assert!(last <= mid_gen, "epoch {last} committed after the crash");
    }
}

#[test]
fn crash_during_the_first_migration_resumes_the_torn_copy() {
    let rig = Rig::new();
    let s = rig.setup();
    let clean = s.run_journaled(DurabilityMode::Strict);
    // Find the first migration either rank enqueued and crash midway
    // through its copy window: the intent record is durable (appended
    // before the copy starts), the copy itself is torn.
    let (start, done) = clean
        .journals
        .iter()
        .flat_map(|j| read_journal(j).0)
        .filter_map(|(rec, _)| match rec {
            Record::MigIntent { start, done, .. } => Some((start, done)),
            _ => None,
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("Unimem migrates on this workload");
    assert!(done > start);
    let mid = VTime(0.5 * (start + done));

    let out = s.crash_and_recover(DurabilityMode::Strict, CrashSpec::at(mid), &clean);
    assert!(out.equivalent(), "mid-copy crash must recover cleanly");
    // At least one rank's durable journal holds an intent whose copy is
    // in flight at the crash instant — the recovery path had a torn copy
    // to redo.
    let in_flight = clean.journals.iter().any(|j| {
        let durable = durable_prefix(j, DurabilityMode::Strict, CrashSpec::at(mid));
        read_journal(&durable).0.iter().any(|(rec, _)| {
            matches!(*rec, Record::MigIntent { enqueued, done, .. }
                if enqueued <= mid.secs() && done > mid.secs())
        })
    });
    assert!(in_flight, "crash point missed the migration window");
}

#[test]
fn torn_final_record_is_detected_and_discarded() {
    let rig = Rig::new();
    let s = rig.setup();
    let clean = s.run_journaled(DurabilityMode::Strict);
    let st_full = ReplayedState::replay(&clean.journals[0]);
    // Crash midway with a torn in-flight record on the medium.
    let crash = CrashSpec::torn(VTime(st_full.last_at * 0.5));

    // The torn fragment parses as garbage-free: replay sees only whole
    // frames and reports the discarded tail.
    let durable = durable_prefix(&clean.journals[0], DurabilityMode::Strict, crash);
    let st = ReplayedState::replay(&durable);
    assert!(st.torn_bytes_discarded > 0, "the tear left no fragment");
    let (records, torn) = read_journal(&durable);
    assert_eq!(torn, st.torn_bytes_discarded);
    assert!(!records.is_empty());

    let out = s.crash_and_recover(DurabilityMode::Strict, crash, &clean);
    assert!(out.equivalent(), "torn-record crash must recover cleanly");
    assert!(
        out.summaries.iter().any(|s| s.torn_bytes_discarded > 0),
        "recovery should report the discarded fragment"
    );
}

#[test]
fn header_records_identify_the_run() {
    let rig = Rig::new();
    let s = rig.setup();
    let clean = s.run_journaled(DurabilityMode::InMemory);
    for (rank, journal) in clean.journals.iter().enumerate() {
        let (records, _) = read_journal(journal);
        let Record::RunHeader {
            rank: r,
            nranks,
            iterations,
        } = records[0].0
        else {
            panic!("record 0 is the run header: {:?}", records[0]);
        };
        assert_eq!(r as usize, rank);
        assert_eq!(nranks, 2);
        assert!(iterations > 0);
        assert!(
            matches!(records[1].0, Record::ObjectReg { .. }),
            "the object table follows the header"
        );
    }
}

/// `journal` re-framed record by record, with the first unit of its
/// `nth` non-empty `Observe` renamed to `(obj, chunk)`: the frames and
/// checksums are valid, only the content lies. Also returns how many
/// observations precede the forged one.
fn forge_observe(journal: &[u8], nth: usize, obj: u32, chunk: u16) -> (Vec<u8>, u64) {
    let mut out = Journal::new(DurabilityMode::InMemory);
    let (mut observes, mut non_empty, mut before) = (0, 0, None);
    for (mut rec, at) in read_journal(journal).0 {
        if let Record::Observe { units, .. } = &mut rec {
            if let Some(first) = units.first_mut() {
                if non_empty == nth {
                    first.unit = UnitId {
                        obj: ObjId(obj),
                        chunk,
                    };
                    before = Some(observes);
                }
                non_empty += 1;
            }
            observes += 1;
        }
        out.append(&rec, at);
    }
    let before = before.expect("enough observations to forge");
    (out.bytes().to_vec(), before)
}

/// A checksummed observation naming a chunk past the object's chunk
/// count, or an object the rank never registered, used to reach the
/// policies and index the registry with it. Recovery now ends the log at
/// that record, so the live model prices the rest of the run and the
/// recovered run is the clean one.
#[test]
fn forged_observe_units_end_the_replayed_log() {
    for policy in [
        Policy::unimem(),
        Policy::online_guidance(),
        Policy::hw_cache(),
    ] {
        let rig = Rig {
            policy,
            ..Rig::new()
        };
        let s = rig.setup();
        let clean = s.run_journaled(DurabilityMode::Strict);
        let label = rig.policy.label();
        for (obj, chunk) in [(0, 70), (99, 0)] {
            let mut durable = clean.journals.clone();
            let (forged, before) = forge_observe(&clean.journals[0], 1, obj, chunk);
            durable[0] = forged;
            let rec = s.recover(DurabilityMode::Strict, &durable);
            assert_eq!(
                rec.report.to_json().to_pretty(),
                clean.report.to_json().to_pretty(),
                "{label}: obj {obj} chunk {chunk}"
            );
            assert_eq!(rec.journals, clean.journals, "{label}");
            assert_eq!(
                rec.summaries[0].replayed_observes, before,
                "{label}: the observations before the forged one replay"
            );
            assert_eq!(rec.summaries[0].comm_mismatches, 0, "{label}");
        }
    }
}
