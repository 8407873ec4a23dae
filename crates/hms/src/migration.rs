//! Virtual-time migration engine: the helper thread model.
//!
//! The paper's runtime hands data-movement requests to a helper thread over
//! a FIFO queue; the helper performs copies asynchronously so movement
//! overlaps application execution, and the main thread checks the queue at
//! each phase start (§3.3). In virtual time this becomes:
//!
//! * the helper thread is a single serial resource — migrations execute in
//!   FIFO order, each taking `bytes / copy_rate`;
//! * a migration enqueued at `t` starts at `max(t, helper_free_at)`;
//! * when the main thread *requires* a unit at a phase start, any remaining
//!   copy time is exposed as a stall — that stall is exactly the
//!   non-overlapped data movement cost of Eq. 4, and the overlapped/exposed
//!   split is what Table 4 reports as "% overlap".
//!
//! The engine does not own a private copy bandwidth: it is a client of
//! the node's shared-bandwidth model through a [`BwClient`]. Its copy
//! rate is the node copy path's fair per-helper slice, and every
//! scheduled copy is posted to the node ledger so overlapping compute —
//! this rank's and, after the next fence, its co-located neighbors' —
//! pays for the bandwidth the copy consumes.

use crate::contention::BwClient;
use crate::journal::{JournalHandle, Record};
use crate::object::{UnitId, UnitMap};
use crate::tier::TierKind;
use unimem_sim::{Bytes, VDur, VTime};

/// One migration's lifecycle record.
#[derive(Debug, Clone, PartialEq)]
pub struct MigRecord {
    pub unit: UnitId,
    pub to: TierKind,
    pub bytes: Bytes,
    pub enqueued: VTime,
    pub start: VTime,
    pub done: VTime,
    /// When the main thread first required the unit (phase start), if ever.
    pub required_at: Option<VTime>,
}

impl MigRecord {
    pub fn duration(&self) -> VDur {
        self.done - self.start
    }

    /// Portion of the copy hidden behind application execution.
    pub fn overlapped(&self) -> VDur {
        match self.required_at {
            None => self.duration(),
            Some(req) => self.duration().saturating_sub(self.done.since(req)),
        }
    }

    /// Portion exposed on the critical path.
    pub fn exposed(&self) -> VDur {
        self.duration().saturating_sub(self.overlapped())
    }
}

/// Aggregate migration statistics (Table 4 columns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationStats {
    /// Times of migration (both directions, as the paper counts).
    pub count: u64,
    /// Total migrated bytes.
    pub bytes: Bytes,
    pub to_dram_count: u64,
    pub to_nvm_count: u64,
    /// Copy time hidden behind computation.
    pub overlapped: VDur,
    /// Copy time exposed as stalls.
    pub exposed: VDur,
}

impl MigrationStats {
    /// Table 4's "% overlap": share of data movement cost hidden. `None`
    /// when the run never moved a byte — a report must not claim perfect
    /// overlap for migrations that never happened (it serializes as JSON
    /// `null`).
    pub fn overlap_pct(&self) -> Option<f64> {
        let total = self.overlapped + self.exposed;
        if self.count == 0 && total.is_zero() {
            None
        } else if total.is_zero() {
            // Zero-duration copies only: nothing was exposed.
            Some(100.0)
        } else {
            Some(100.0 * self.overlapped.ratio(total))
        }
    }

    pub fn merge(&mut self, other: &MigrationStats) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.to_dram_count += other.to_dram_count;
        self.to_nvm_count += other.to_nvm_count;
        self.overlapped += other.overlapped;
        self.exposed += other.exposed;
    }
}

/// The virtual-time helper thread.
#[derive(Debug)]
pub struct MigrationEngine {
    client: BwClient,
    helper_free_at: VTime,
    records: Vec<MigRecord>,
    /// Index of the most recent record per unit.
    latest: UnitMap<usize>,
    /// Redo journal: every intent is appended *before* its copy is
    /// posted, so a crash mid-copy still knows what was moving where.
    journal: Option<JournalHandle>,
}

impl MigrationEngine {
    /// An engine copying at `client`'s rate, whose copies are posted to
    /// the node ledger so overlapping compute pays for them.
    pub fn new(client: BwClient) -> MigrationEngine {
        MigrationEngine {
            client,
            helper_free_at: VTime::ZERO,
            records: Vec::new(),
            latest: UnitMap::new(),
            journal: None,
        }
    }

    /// Attach the rank's redo journal (when crash consistency is on):
    /// every enqueue appends a `MigIntent` before the copy is posted,
    /// every first requirement a `MigRequire`.
    pub fn with_journal(mut self, journal: Option<JournalHandle>) -> MigrationEngine {
        self.journal = journal;
        self
    }

    /// Predicted copy duration for `bytes` at the helper's fair slice of
    /// the node copy path (the `data_size / mem_copy_bw` term of Eq. 4).
    pub fn copy_time(&self, bytes: Bytes) -> VDur {
        bytes / self.client.copy_rate()
    }

    /// Enqueue a migration at virtual time `now`. Returns its completion
    /// time. FIFO: it starts when the helper thread frees up. The copy is
    /// posted to the shared ledger so overlapping compute pays for the
    /// bandwidth it consumes on both tiers.
    pub fn enqueue(&mut self, unit: UnitId, to: TierKind, bytes: Bytes, now: VTime) -> VTime {
        let start = now.max(self.helper_free_at);
        let done = start + self.copy_time(bytes);
        self.helper_free_at = done;
        // Redo rule: the intent reaches the journal before the copy is
        // scheduled, so no copy can be in flight unjournaled.
        if let Some(j) = &self.journal {
            j.borrow_mut().append(
                &Record::MigIntent {
                    seq: self.records.len() as u64,
                    obj: unit.obj.0,
                    chunk: unit.chunk,
                    to_dram: to == TierKind::Dram,
                    bytes: bytes.get(),
                    enqueued: now.secs(),
                    start: start.secs(),
                    done: done.secs(),
                },
                now,
            );
        }
        self.client.post_copy(to, start, done, bytes);
        let idx = self.records.len();
        self.records.push(MigRecord {
            unit,
            to,
            bytes,
            enqueued: now,
            start,
            done,
            required_at: None,
        });
        self.latest.insert(unit, idx);
        done
    }

    /// Main thread requires `unit` at `now` (phase start). Returns the stall
    /// needed before the unit is usable and records the requirement for
    /// overlap accounting. Only the first requirement after a migration
    /// counts — later phases see the data already resident.
    pub fn require(&mut self, unit: UnitId, now: VTime) -> VDur {
        let Some(&idx) = self.latest.get(unit) else {
            return VDur::ZERO;
        };
        let rec = &mut self.records[idx];
        if rec.required_at.is_none() {
            rec.required_at = Some(now);
        } else {
            return VDur::ZERO;
        }
        let stall = rec.done.since(now);
        if let Some(j) = &self.journal {
            j.borrow_mut().append(
                &Record::MigRequire {
                    seq: idx as u64,
                    at: now.secs(),
                    stall: stall.secs(),
                },
                now,
            );
        }
        stall
    }

    pub fn records(&self) -> &[MigRecord] {
        &self.records
    }

    /// Aggregate statistics over all recorded migrations.
    pub fn stats(&self) -> MigrationStats {
        let mut s = MigrationStats::default();
        for r in &self.records {
            s.count += 1;
            s.bytes += r.bytes;
            match r.to {
                TierKind::Dram => s.to_dram_count += 1,
                TierKind::Nvm => s.to_nvm_count += 1,
            }
            s.overlapped += r.overlapped();
            s.exposed += r.exposed();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::SharedBandwidth;
    use crate::object::ObjId;
    use crate::profiles::MachineConfig;
    use crate::topology::ClusterTopology;
    use unimem_sim::Bandwidth;

    fn unit(n: u32) -> UnitId {
        UnitId::whole(ObjId(n))
    }

    fn engine() -> MigrationEngine {
        // One rank alone on a node with a 1 GB/s copy path: 1 MB copies
        // take 1 ms.
        let mut m = MachineConfig::nvm_bw_fraction(0.5);
        m.copy_bw = Bandwidth::gb_per_s(1.0);
        let room = ClusterTopology::homogeneous(&m, 1);
        MigrationEngine::new(SharedBandwidth::from_topology(&room).client(0))
    }

    #[test]
    fn copy_time_is_size_over_bw() {
        let e = engine();
        assert!((e.copy_time(Bytes(1_000_000)).millis() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_serializes_the_helper_thread() {
        let mut e = engine();
        let d1 = e.enqueue(unit(0), TierKind::Dram, Bytes(1_000_000), VTime(0.0));
        let d2 = e.enqueue(unit(1), TierKind::Dram, Bytes(1_000_000), VTime(0.0));
        assert!((d1.secs() - 0.001).abs() < 1e-12);
        // Second starts only when the first finishes.
        assert!((d2.secs() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn fully_overlapped_when_required_late() {
        let mut e = engine();
        e.enqueue(unit(0), TierKind::Dram, Bytes(1_000_000), VTime(0.0));
        let stall = e.require(unit(0), VTime(0.010));
        assert!(stall.is_zero());
        let s = e.stats();
        assert_eq!(s.overlap_pct(), Some(100.0));
        assert_eq!(s.exposed, VDur::ZERO);
    }

    #[test]
    fn exposed_when_required_early() {
        let mut e = engine();
        e.enqueue(unit(0), TierKind::Dram, Bytes(1_000_000), VTime(0.0));
        // Required immediately: the whole 1 ms copy is exposed.
        let stall = e.require(unit(0), VTime(0.0));
        assert!((stall.millis() - 1.0).abs() < 1e-9);
        let s = e.stats();
        assert!((s.exposed.millis() - 1.0).abs() < 1e-9);
        assert!(s.overlap_pct().expect("migrations happened") < 1e-9);
    }

    #[test]
    fn partial_overlap() {
        let mut e = engine();
        e.enqueue(unit(0), TierKind::Dram, Bytes(1_000_000), VTime(0.0));
        // Required halfway through the copy: 0.5 ms exposed, 0.5 ms hidden.
        let stall = e.require(unit(0), VTime(0.0005));
        assert!((stall.millis() - 0.5).abs() < 1e-9);
        let s = e.stats();
        assert!((s.overlap_pct().expect("migrations happened") - 50.0).abs() < 1e-6);
    }

    #[test]
    fn second_require_is_free() {
        let mut e = engine();
        e.enqueue(unit(0), TierKind::Dram, Bytes(1_000_000), VTime(0.0));
        let _ = e.require(unit(0), VTime(0.0));
        assert!(e.require(unit(0), VTime(0.0)).is_zero());
    }

    #[test]
    fn unmigrated_unit_needs_no_wait() {
        let mut e = engine();
        assert!(e.require(unit(9), VTime(0.0)).is_zero());
    }

    #[test]
    fn eviction_counts_as_fully_overlapped() {
        let mut e = engine();
        e.enqueue(unit(0), TierKind::Nvm, Bytes(2_000_000), VTime(0.0));
        let s = e.stats();
        assert_eq!(s.to_nvm_count, 1);
        assert_eq!(s.overlap_pct(), Some(100.0));
    }

    #[test]
    fn stats_accumulate_counts_and_bytes() {
        let mut e = engine();
        e.enqueue(unit(0), TierKind::Dram, Bytes(100), VTime(0.0));
        e.enqueue(unit(1), TierKind::Nvm, Bytes(200), VTime(0.0));
        e.enqueue(unit(0), TierKind::Nvm, Bytes(100), VTime(1.0));
        let s = e.stats();
        assert_eq!(s.count, 3);
        assert_eq!(s.bytes, Bytes(400));
        assert_eq!(s.to_dram_count, 1);
        assert_eq!(s.to_nvm_count, 2);
    }

    #[test]
    fn empty_stats_report_no_overlap_figure() {
        let e = engine();
        assert_eq!(
            e.stats().overlap_pct(),
            None,
            "zero migrations must not claim perfect overlap"
        );
    }

    #[test]
    fn zero_duration_copies_report_full_overlap_not_null() {
        let mut e = engine();
        e.enqueue(unit(0), TierKind::Dram, Bytes(0), VTime(0.0));
        assert_eq!(e.stats().overlap_pct(), Some(100.0));
    }

    // MigRecord overlapped/exposed edge cases: the accounting invariant
    // `overlapped + exposed == duration` must hold for every ordering of
    // (enqueued, start, done, required_at), including requirements that
    // precede the copy's start.

    fn record(start: f64, done: f64, required_at: Option<f64>) -> MigRecord {
        MigRecord {
            unit: unit(0),
            to: TierKind::Dram,
            bytes: Bytes(1),
            enqueued: VTime(0.0),
            start: VTime(start),
            done: VTime(done),
            required_at: required_at.map(VTime),
        }
    }

    #[test]
    fn required_before_start_is_fully_exposed() {
        // Enqueued at 0, helper busy until 2, required at 1 — before the
        // copy even starts. The whole copy is on the critical path.
        let r = record(2.0, 3.0, Some(1.0));
        assert_eq!(r.overlapped(), VDur::ZERO);
        assert_eq!(r.exposed(), r.duration());
    }

    #[test]
    fn zero_duration_record_accounts_zero_both_ways() {
        for req in [None, Some(0.0), Some(1.0)] {
            let r = record(2.0, 2.0, req);
            assert_eq!(r.duration(), VDur::ZERO);
            assert_eq!(r.overlapped(), VDur::ZERO);
            assert_eq!(r.exposed(), VDur::ZERO);
        }
    }

    #[test]
    fn journaled_engine_records_intent_and_requirement() {
        use crate::journal::{read_journal, DurabilityMode, Journal};
        let j = Journal::new(DurabilityMode::Strict).into_handle();
        let mut e = engine().with_journal(Some(j.clone()));
        e.enqueue(unit(0), TierKind::Dram, Bytes(1_000_000), VTime(0.0));
        let _ = e.require(unit(0), VTime(0.0005));
        let (records, torn) = read_journal(j.borrow().bytes());
        assert_eq!(torn, 0);
        match &records[..] {
            [(
                Record::MigIntent {
                    seq: 0,
                    to_dram: true,
                    bytes: 1_000_000,
                    enqueued,
                    done,
                    ..
                },
                _,
            ), (Record::MigRequire { seq: 0, at, .. }, _)] => {
                assert_eq!(*at, 0.0005);
                // The copy is still in flight when the main thread needs it.
                assert!(*enqueued <= *at && *at < *done);
            }
            other => panic!("expected an intent and its requirement, got {other:?}"),
        }
    }

    #[test]
    fn required_exactly_at_done_is_fully_overlapped() {
        let r = record(1.0, 2.0, Some(2.0));
        assert_eq!(r.overlapped(), r.duration());
        assert_eq!(r.exposed(), VDur::ZERO);
    }
}
