//! Crash-consistent redo journal for placement state.
//!
//! NVM's defining property is persistence, and until this module the
//! runtime treated it as slow RAM: a kill mid-migration lost the object
//! table and every in-flight copy. The journal is a per-rank redo log of
//! everything placement-relevant — object registrations, the initial
//! DRAM residency, every migration *intent* (appended before the copy is
//! scheduled), phase observations, and epoch commit marks riding the MPI
//! fences the bandwidth ledger already defines. Recovery
//! (`unimem::recovery`) re-runs the deterministic job and reads back
//! only what [`ReplayedState::replay`] keeps: the observations, the comm
//! durations, the record count and the last commit. The placement
//! records stay in the log for the write-ahead rule and its flush cost.
//!
//! ## Durability modes
//!
//! Following the WAL shape of strata-core (SNIPPETS.md §2), the journal
//! offers three durability/throughput trade-offs:
//!
//! | mode       | records on NVM after a crash at `T`          | write cost charged            |
//! |------------|----------------------------------------------|-------------------------------|
//! | `InMemory` | none — the log lives in DRAM and dies with it | zero                          |
//! | `Buffered` | all records up to the last epoch commit ≤ `T` | one flush per fence epoch     |
//! | `Strict`   | every record appended at or before `T`        | one flush per appended record |
//!
//! Flushes are not free bandwidth: each one is charged as NVM-write
//! traffic through the node's shared [`BwClient`] ledger (when linked),
//! so journal durability contends with application accesses and helper
//! copies exactly like any other writer, and its CPU + write time is
//! drained into the rank's virtual clock by the execution driver.
//!
//! ## Wire format
//!
//! The log is a flat byte stream of self-validating frames:
//!
//! ```text
//! [len: u32 LE] [at: f64 LE]  [crc: u64 LE]   [payload: len bytes]
//!  payload len   append vtime  FNV-1a(at ∥ payload)
//! ```
//!
//! A crash can truncate the stream at any byte. [`read_journal`] accepts
//! the longest prefix of structurally valid frames and reports every
//! trailing byte past it as torn — a half-written frame fails the length
//! or CRC check and is discarded, never replayed. Because append times
//! are monotone, the set of records durable at a crash instant is always
//! a prefix, which is what [`durable_prefix`] computes per mode.

use crate::contention::BwClient;
use crate::object::{GroundTruth, ObjId, UnitId};
use crate::tier::TierKind;
use std::cell::RefCell;
use std::rc::Rc;
use unimem_sim::{Bandwidth, Bytes, CrashSpec, Fnv64, VDur, VTime};

/// Frame header: payload length, append vtime, payload checksum.
const FRAME_HEADER: usize = 4 + 8 + 8;

/// When the log flushes to NVM — strata-core's WAL vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DurabilityMode {
    /// Never: the log is a DRAM-resident trace. Zero cost, zero
    /// durability — recovery degenerates to a full restart.
    InMemory,
    /// At epoch commits (MPI fences): group-commit batching. A crash
    /// loses at most one epoch of records.
    Buffered,
    /// On every append: each record is durable before the action it
    /// describes starts. A crash loses nothing that was appended.
    Strict,
}

impl DurabilityMode {
    pub const ALL: [DurabilityMode; 3] = [
        DurabilityMode::InMemory,
        DurabilityMode::Buffered,
        DurabilityMode::Strict,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            DurabilityMode::InMemory => "in-memory",
            DurabilityMode::Buffered => "buffered",
            DurabilityMode::Strict => "strict",
        }
    }

    pub fn parse(s: &str) -> Option<DurabilityMode> {
        DurabilityMode::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// One journal record. The placement records (`ObjectReg`, `InitPlace`,
/// `MigIntent`, `MigRequire`) describe each placement action before it
/// runs; the observations and comm durations let a recovery re-run skip
/// recomputing ground truth.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Run identity, appended first.
    RunHeader {
        rank: u32,
        nranks: u32,
        iterations: u64,
    },
    /// One `unimem_malloc`ed object, with its final chunking.
    ObjectReg { obj: u32, size: u64, chunks: u16 },
    /// One unit initially resident in DRAM (estimate-driven placement).
    InitPlace { obj: u32, chunk: u16 },
    /// A migration scheduled on the helper queue. Appended *before* the
    /// copy is posted — the redo rule — so a crash mid-copy still knows
    /// the copy's destination and schedule.
    MigIntent {
        seq: u64,
        obj: u32,
        chunk: u16,
        to_dram: bool,
        bytes: u64,
        enqueued: f64,
        start: f64,
        done: f64,
    },
    /// The main thread first required migration `seq` (overlap/stall
    /// accounting).
    MigRequire { seq: u64, at: f64, stall: f64 },
    /// One observed compute phase: its ground-truth time, contention
    /// split, and per-unit sampler inputs.
    Observe {
        seq: u64,
        phase: u32,
        time: f64,
        cont_total: f64,
        cont_neighbors: f64,
        units: Vec<GroundTruth>,
    },
    /// One communication phase and its synchronized duration.
    Comm { seq: u64, phase: u32, dt: f64 },
    /// An MPI-fence epoch commit: ledger generation and fence instant.
    EpochCommit { gen: u64, at: f64 },
}

// ---------------------------------------------------------------------------
// Encoding

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor-style reader; every getter fails on a short buffer.
struct Rd<'a> {
    b: &'a [u8],
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.b.len() < n {
            return None;
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
    }
    fn done(&self) -> bool {
        self.b.is_empty()
    }
}

const TAG_RUN_HEADER: u8 = 0;
const TAG_OBJECT_REG: u8 = 1;
const TAG_INIT_PLACE: u8 = 2;
const TAG_MIG_INTENT: u8 = 3;
const TAG_MIG_REQUIRE: u8 = 4;
const TAG_OBSERVE: u8 = 5;
const TAG_COMM: u8 = 6;
const TAG_EPOCH_COMMIT: u8 = 7;

/// Encoded size of one `Observe` unit: obj, chunk, misses, miss bytes,
/// time.
const OBS_UNIT_BYTES: usize = 4 + 2 + 8 + 8 + 8;

impl Record {
    /// Serialize the payload (tag byte + fields, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        match self {
            Record::RunHeader {
                rank,
                nranks,
                iterations,
            } => {
                b.push(TAG_RUN_HEADER);
                put_u32(&mut b, *rank);
                put_u32(&mut b, *nranks);
                put_u64(&mut b, *iterations);
            }
            Record::ObjectReg { obj, size, chunks } => {
                b.push(TAG_OBJECT_REG);
                put_u32(&mut b, *obj);
                put_u64(&mut b, *size);
                put_u16(&mut b, *chunks);
            }
            Record::InitPlace { obj, chunk } => {
                b.push(TAG_INIT_PLACE);
                put_u32(&mut b, *obj);
                put_u16(&mut b, *chunk);
            }
            Record::MigIntent {
                seq,
                obj,
                chunk,
                to_dram,
                bytes,
                enqueued,
                start,
                done,
            } => {
                b.push(TAG_MIG_INTENT);
                put_u64(&mut b, *seq);
                put_u32(&mut b, *obj);
                put_u16(&mut b, *chunk);
                b.push(u8::from(*to_dram));
                put_u64(&mut b, *bytes);
                put_f64(&mut b, *enqueued);
                put_f64(&mut b, *start);
                put_f64(&mut b, *done);
            }
            Record::MigRequire { seq, at, stall } => {
                b.push(TAG_MIG_REQUIRE);
                put_u64(&mut b, *seq);
                put_f64(&mut b, *at);
                put_f64(&mut b, *stall);
            }
            Record::Observe {
                seq,
                phase,
                time,
                cont_total,
                cont_neighbors,
                units,
            } => {
                b.push(TAG_OBSERVE);
                put_u64(&mut b, *seq);
                put_u32(&mut b, *phase);
                put_f64(&mut b, *time);
                put_f64(&mut b, *cont_total);
                put_f64(&mut b, *cont_neighbors);
                put_u32(&mut b, units.len() as u32);
                for u in units {
                    put_u32(&mut b, u.unit.obj.0);
                    put_u16(&mut b, u.unit.chunk);
                    put_u64(&mut b, u.misses);
                    put_u64(&mut b, u.miss_bytes.get());
                    put_f64(&mut b, u.mem_time.secs());
                }
            }
            Record::Comm { seq, phase, dt } => {
                b.push(TAG_COMM);
                put_u64(&mut b, *seq);
                put_u32(&mut b, *phase);
                put_f64(&mut b, *dt);
            }
            Record::EpochCommit { gen, at } => {
                b.push(TAG_EPOCH_COMMIT);
                put_u64(&mut b, *gen);
                put_f64(&mut b, *at);
            }
        }
        b
    }

    /// Parse one payload. `None` on any structural problem (unknown tag,
    /// short or over-long buffer) — the caller treats that as a torn
    /// record.
    pub fn decode(payload: &[u8]) -> Option<Record> {
        let mut r = Rd { b: payload };
        let rec = match r.u8()? {
            TAG_RUN_HEADER => Record::RunHeader {
                rank: r.u32()?,
                nranks: r.u32()?,
                iterations: r.u64()?,
            },
            TAG_OBJECT_REG => Record::ObjectReg {
                obj: r.u32()?,
                size: r.u64()?,
                chunks: r.u16()?,
            },
            TAG_INIT_PLACE => Record::InitPlace {
                obj: r.u32()?,
                chunk: r.u16()?,
            },
            TAG_MIG_INTENT => Record::MigIntent {
                seq: r.u64()?,
                obj: r.u32()?,
                chunk: r.u16()?,
                to_dram: r.u8()? != 0,
                bytes: r.u64()?,
                enqueued: r.f64()?,
                start: r.f64()?,
                done: r.f64()?,
            },
            TAG_MIG_REQUIRE => Record::MigRequire {
                seq: r.u64()?,
                at: r.f64()?,
                stall: r.f64()?,
            },
            TAG_OBSERVE => {
                let seq = r.u64()?;
                let phase = r.u32()?;
                let time = r.f64()?;
                let cont_total = r.f64()?;
                let cont_neighbors = r.f64()?;
                let n = r.u32()?;
                // The count is untrusted: reserve no more units than the
                // rest of the payload can hold.
                let mut units = Vec::with_capacity((n as usize).min(r.b.len() / OBS_UNIT_BYTES));
                for _ in 0..n {
                    units.push(GroundTruth {
                        unit: UnitId {
                            obj: ObjId(r.u32()?),
                            chunk: r.u16()?,
                        },
                        misses: r.u64()?,
                        miss_bytes: Bytes(r.u64()?),
                        mem_time: VDur(r.f64()?),
                    });
                }
                Record::Observe {
                    seq,
                    phase,
                    time,
                    cont_total,
                    cont_neighbors,
                    units,
                }
            }
            TAG_COMM => Record::Comm {
                seq: r.u64()?,
                phase: r.u32()?,
                dt: r.f64()?,
            },
            TAG_EPOCH_COMMIT => Record::EpochCommit {
                gen: r.u64()?,
                at: r.f64()?,
            },
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

/// FNV-1a 64 over the frame's vtime bytes and payload
/// ([`unimem_sim::Fnv64`], the sweep cache's digest family).
fn crc64(at: f64, payload: &[u8]) -> u64 {
    Fnv64::new()
        .update(&at.to_le_bytes())
        .update(payload)
        .finish()
}

fn encode_frame(buf: &mut Vec<u8>, rec: &Record, at: VTime) {
    let payload = rec.encode();
    put_u32(buf, payload.len() as u32);
    put_f64(buf, at.secs());
    put_u64(buf, crc64(at.secs(), &payload));
    buf.extend_from_slice(&payload);
}

/// Parse a (possibly truncated) journal byte stream: the longest valid
/// frame prefix, plus the count of trailing torn bytes that failed the
/// length or CRC check and must not be replayed.
pub fn read_journal(bytes: &[u8]) -> (Vec<(Record, VTime)>, usize) {
    let mut out = Vec::new();
    let mut off = 0usize;
    while bytes.len() - off >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let at = f64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap());
        let crc = u64::from_le_bytes(bytes[off + 12..off + 20].try_into().unwrap());
        let start = off + FRAME_HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            break; // torn: frame extends past the medium
        };
        let payload = &bytes[start..end];
        if crc64(at, payload) != crc {
            break; // torn: partial frame body overwritten the header lied about
        }
        let Some(rec) = Record::decode(payload) else {
            break; // torn: structurally invalid payload
        };
        out.push((rec, VTime(at)));
        off = end;
    }
    (out, bytes.len() - off)
}

/// The bytes actually on NVM after a crash at `crash.at`, given the full
/// journal `bytes` an uninterrupted run would have written. Determinism
/// makes this exact: a run killed at `T` behaves identically to the
/// clean run up to `T`, so its durable log is a prefix of the clean log.
///
/// With `crash.torn`, the first record past the durable point is half
/// written — a partial frame recovery must detect and discard.
pub fn durable_prefix(bytes: &[u8], mode: DurabilityMode, crash: CrashSpec) -> Vec<u8> {
    if mode == DurabilityMode::InMemory {
        return Vec::new();
    }
    let t = crash.at.secs();
    let mut cut = 0usize;
    let mut off = 0usize;
    while bytes.len() - off >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let at = f64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap());
        let end = off + FRAME_HEADER + len;
        if end > bytes.len() || at > t {
            break;
        }
        let durable = match mode {
            DurabilityMode::Strict => true,
            // Buffered flushes whole epochs at the commit record.
            // A zero-length payload has no tag byte to read.
            DurabilityMode::Buffered => bytes.get(off + FRAME_HEADER) == Some(&TAG_EPOCH_COMMIT),
            DurabilityMode::InMemory => unreachable!(),
        };
        if durable {
            cut = end;
        }
        off = end;
    }
    let mut out = bytes[..cut].to_vec();
    if crash.torn && cut + FRAME_HEADER <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[cut..cut + 4].try_into().unwrap()) as usize + FRAME_HEADER;
        let torn_len = (len / 2).max(1).min(len - 1);
        out.extend_from_slice(&bytes[cut..(cut + torn_len).min(bytes.len())]);
    }
    out
}

// ---------------------------------------------------------------------------
// The journal writer

/// Aggregate journal accounting, for recovery reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JournalStats {
    /// Records appended.
    pub records: u64,
    /// Total bytes appended (frames included).
    pub appended_bytes: u64,
    /// Bytes flushed to NVM.
    pub flushed_bytes: u64,
    /// NVM flush operations.
    pub flushes: u64,
    /// Epoch commits.
    pub commits: u64,
    /// Total virtual time charged for appends and flushes.
    pub write_cost: VDur,
}

/// Per-rank redo journal writer. Each rank owns one, and only that
/// rank's program order touches it.
#[derive(Debug)]
pub struct Journal {
    mode: DurabilityMode,
    /// This rank's share of the node NVM write path, for flush timing.
    write_bw: Bandwidth,
    /// CPU cost of formatting + appending one record (non-`InMemory`).
    append_cpu: VDur,
    /// Fixed per-flush latency (write barrier / persist fence).
    flush_lat: VDur,
    link: Option<BwClient>,
    buf: Vec<u8>,
    /// Offset of the first byte not yet flushed to NVM.
    unflushed: usize,
    /// Virtual time owed to the rank's clock, drained by the driver.
    pending: VDur,
    next_seq: u64,
    stats: JournalStats,
}

/// Shared per-rank handle: the execution driver and the migration
/// engine append to the same per-rank journal, on the one thread that
/// runs the run.
pub type JournalHandle = Rc<RefCell<Journal>>;

impl Journal {
    pub fn new(mode: DurabilityMode) -> Journal {
        Journal {
            mode,
            write_bw: Bandwidth::gb_per_s(1.0),
            append_cpu: VDur::from_nanos(60.0),
            flush_lat: VDur::from_nanos(800.0),
            link: None,
            buf: Vec::new(),
            unflushed: 0,
            pending: VDur::ZERO,
            next_seq: 0,
            stats: JournalStats::default(),
        }
    }

    /// Time a flush against `bw` (the rank's NVM write share).
    pub fn with_write_bw(mut self, bw: Bandwidth) -> Journal {
        self.write_bw = bw;
        self
    }

    /// Post flushes as NVM-write flows on the node ledger, so journal
    /// traffic contends with application and helper writers.
    pub fn with_link(mut self, client: BwClient) -> Journal {
        self.link = Some(client);
        self
    }

    /// Wrap into the shared per-rank handle.
    pub fn into_handle(self) -> JournalHandle {
        Rc::new(RefCell::new(self))
    }

    /// Next record sequence number (observation/communication stream).
    pub fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Append one record at virtual time `now`. `Strict` flushes it
    /// immediately; `Buffered` leaves it for the next commit; `InMemory`
    /// costs nothing and never reaches NVM.
    pub fn append(&mut self, rec: &Record, now: VTime) {
        let before = self.buf.len();
        encode_frame(&mut self.buf, rec, now);
        self.stats.records += 1;
        self.stats.appended_bytes += (self.buf.len() - before) as u64;
        match self.mode {
            DurabilityMode::InMemory => {}
            DurabilityMode::Buffered => {
                self.pending += self.append_cpu;
                self.stats.write_cost += self.append_cpu;
            }
            DurabilityMode::Strict => {
                self.pending += self.append_cpu;
                self.stats.write_cost += self.append_cpu;
                self.flush(now);
            }
        }
    }

    /// Epoch commit at an MPI fence: append the commit mark and make the
    /// epoch durable (`Buffered` group-commits everything buffered since
    /// the last fence).
    pub fn commit(&mut self, gen: u64, now: VTime) {
        self.append(
            &Record::EpochCommit {
                gen,
                at: now.secs(),
            },
            now,
        );
        self.stats.commits += 1;
        if self.mode == DurabilityMode::Buffered {
            self.flush(now);
        }
    }

    fn flush(&mut self, now: VTime) {
        let n = self.buf.len() - self.unflushed;
        if n == 0 {
            return;
        }
        let bytes = Bytes(n as u64);
        let dt = bytes / self.write_bw + self.flush_lat;
        if let Some(c) = &self.link {
            c.post_write(TierKind::Nvm, now, now + dt, bytes);
        }
        self.pending += dt;
        self.stats.write_cost += dt;
        self.stats.flushes += 1;
        self.stats.flushed_bytes += n as u64;
        self.unflushed = self.buf.len();
    }

    /// Drain the virtual time owed for appends and flushes since the
    /// last drain; the driver advances the rank clock by this much.
    pub fn take_cost(&mut self) -> VDur {
        std::mem::take(&mut self.pending)
    }

    /// The full byte stream appended so far (durable or not — what a
    /// clean run's journal looks like; [`durable_prefix`] projects it
    /// onto a crash).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Replay

/// One replayed compute observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedPhase {
    pub time: f64,
    pub cont_total: f64,
    pub cont_neighbors: f64,
    pub units: Vec<GroundTruth>,
}

/// What recovery reads back from a (possibly truncated) journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayedState {
    /// Compute observations, in append order.
    pub observes: Vec<ObservedPhase>,
    /// Communication durations in seconds, in append order.
    pub comms: Vec<f64>,
    /// Records replayed. A `MigRequire` does not count: it only annotates
    /// the migration its `MigIntent` already counted.
    pub records: usize,
    /// The last epoch commit: `(generation, vtime)`.
    pub last_commit: Option<(u64, f64)>,
    /// Append vtime of the latest replayed record.
    pub last_at: f64,
    /// Torn trailing bytes detected and discarded by the frame parser.
    pub torn_bytes_discarded: usize,
}

impl ReplayedState {
    /// Replay a journal byte stream (tolerates a torn tail) in one pass
    /// over its records in append order.
    pub fn replay(bytes: &[u8]) -> ReplayedState {
        let (records, torn) = read_journal(bytes);
        let mut st = ReplayedState {
            torn_bytes_discarded: torn,
            ..ReplayedState::default()
        };
        for (rec, at) in records {
            st.last_at = st.last_at.max(at.secs());
            match rec {
                Record::MigRequire { .. } => continue,
                Record::Observe {
                    time,
                    cont_total,
                    cont_neighbors,
                    units,
                    ..
                } => st.observes.push(ObservedPhase {
                    time,
                    cont_total,
                    cont_neighbors,
                    units,
                }),
                Record::Comm { dt, .. } => st.comms.push(dt),
                Record::EpochCommit { gen, at } => st.last_commit = Some((gen, at)),
                _ => {}
            }
            st.records += 1;
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_truth() -> GroundTruth {
        GroundTruth {
            unit: UnitId::whole(ObjId(0)),
            misses: 1000,
            miss_bytes: Bytes(64000),
            mem_time: VDur(0.2),
        }
    }

    fn sample_records() -> Vec<(Record, VTime)> {
        vec![
            (
                Record::RunHeader {
                    rank: 0,
                    nranks: 4,
                    iterations: 10,
                },
                VTime(0.0),
            ),
            (
                Record::ObjectReg {
                    obj: 0,
                    size: 1 << 20,
                    chunks: 2,
                },
                VTime(0.0),
            ),
            (Record::InitPlace { obj: 0, chunk: 0 }, VTime(0.0)),
            (
                Record::MigIntent {
                    seq: 0,
                    obj: 0,
                    chunk: 1,
                    to_dram: true,
                    bytes: 1 << 19,
                    enqueued: 0.5,
                    start: 0.5,
                    done: 0.9,
                },
                VTime(0.5),
            ),
            (
                Record::Observe {
                    seq: 0,
                    phase: 3,
                    time: 0.25,
                    cont_total: 0.01,
                    cont_neighbors: 0.004,
                    units: vec![sample_truth()],
                },
                VTime(0.75),
            ),
            (
                Record::Comm {
                    seq: 1,
                    phase: 4,
                    dt: 0.05,
                },
                VTime(0.8),
            ),
            (Record::EpochCommit { gen: 1, at: 0.8 }, VTime(0.8)),
            (
                Record::MigRequire {
                    seq: 0,
                    at: 1.0,
                    stall: 0.0,
                },
                VTime(1.0),
            ),
        ]
    }

    fn journal_bytes(mode: DurabilityMode) -> Vec<u8> {
        let mut j = Journal::new(mode);
        for (rec, at) in sample_records() {
            match rec {
                Record::EpochCommit { gen, .. } => j.commit(gen, at),
                rec => j.append(&rec, at),
            }
        }
        j.bytes().to_vec()
    }

    #[test]
    fn roundtrip_every_record_kind() {
        for (rec, _) in sample_records() {
            let enc = rec.encode();
            assert_eq!(Record::decode(&enc).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_short_buffers() {
        let mut enc = (Record::Comm {
            seq: 1,
            phase: 2,
            dt: 0.5,
        })
        .encode();
        assert!(Record::decode(&enc[..enc.len() - 1]).is_none());
        enc.push(0);
        assert!(Record::decode(&enc).is_none());
        assert!(Record::decode(&[99]).is_none(), "unknown tag");
    }

    /// An `Observe` payload with every field zero and a forged unit count
    /// of `u32::MAX`: 37 bytes of fields and the 4-byte count.
    fn forged_observe_payload() -> Vec<u8> {
        let mut p = vec![TAG_OBSERVE];
        p.extend_from_slice(&[0; 8 + 4 + 3 * 8]);
        put_u32(&mut p, u32::MAX);
        p
    }

    #[test]
    fn decode_bounds_an_untrusted_unit_count() {
        // Reserving u32::MAX units up front would be a 137 GB request,
        // which aborts the process instead of returning None.
        assert!(Record::decode(&forged_observe_payload()).is_none());
    }

    #[test]
    fn forged_unit_count_behind_a_valid_checksum_is_a_torn_tail() {
        let payload = forged_observe_payload();
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_f64(&mut bytes, 0.0);
        put_u64(&mut bytes, crc64(0.0, &payload));
        bytes.extend_from_slice(&payload);
        let (recs, torn) = read_journal(&bytes);
        assert!(recs.is_empty());
        assert_eq!(torn, bytes.len());
        assert_eq!(
            ReplayedState::replay(&bytes).torn_bytes_discarded,
            bytes.len()
        );
    }

    #[test]
    fn durable_prefix_survives_a_zero_length_final_frame() {
        // len 0, at 0.0, crc 0: a frame header with no payload (no tag).
        let bytes = [0u8; FRAME_HEADER];
        let crash = CrashSpec::at(VTime(1.0));
        assert!(durable_prefix(&bytes, DurabilityMode::Buffered, crash).is_empty());
        assert_eq!(durable_prefix(&bytes, DurabilityMode::Strict, crash), bytes);
    }

    #[test]
    fn read_journal_roundtrips_a_full_stream() {
        let bytes = journal_bytes(DurabilityMode::Strict);
        let (recs, torn) = read_journal(&bytes);
        assert_eq!(torn, 0);
        let expect: Vec<_> = sample_records();
        assert_eq!(recs.len(), expect.len());
        for ((got, gat), (want, wat)) in recs.iter().zip(&expect) {
            assert_eq!(got, want);
            assert_eq!(gat, wat);
        }
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let bytes = journal_bytes(DurabilityMode::Strict);
        for cut in [1, FRAME_HEADER - 1, FRAME_HEADER + 3] {
            let torn = &bytes[..bytes.len() - cut];
            let (recs, discarded) = read_journal(torn);
            assert_eq!(recs.len(), sample_records().len() - 1, "cut {cut}");
            assert!(discarded > 0, "cut {cut}");
            let st = ReplayedState::replay(torn);
            assert_eq!(st.torn_bytes_discarded, discarded);
        }
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_frame() {
        let mut bytes = journal_bytes(DurabilityMode::Strict);
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // flip inside the last frame's payload
        let (recs, discarded) = read_journal(&bytes);
        assert_eq!(recs.len(), sample_records().len() - 1);
        assert!(discarded > 0);
    }

    #[test]
    fn empty_journal_replays_to_the_default_state() {
        let st = ReplayedState::replay(&[]);
        assert_eq!(st, ReplayedState::default());
        assert_eq!(st.records, 0);
    }

    #[test]
    fn replay_keeps_observations_comms_counts_and_the_last_commit() {
        let bytes = journal_bytes(DurabilityMode::Strict);
        let st = ReplayedState::replay(&bytes);
        assert_eq!(
            st.observes,
            [ObservedPhase {
                time: 0.25,
                cont_total: 0.01,
                cont_neighbors: 0.004,
                units: vec![sample_truth()],
            }]
        );
        assert_eq!(st.comms, [0.05]);
        // The trailing MigRequire annotates the MigIntent: 7 of 8.
        assert_eq!(st.records, 7);
        assert_eq!(st.last_commit, Some((1, 0.8)));
        assert_eq!(st.last_at, 1.0);
        assert_eq!(st.torn_bytes_discarded, 0);
    }

    #[test]
    fn durable_prefix_in_memory_is_always_empty() {
        let bytes = journal_bytes(DurabilityMode::InMemory);
        assert!(!bytes.is_empty(), "the in-memory log still accumulates");
        let d = durable_prefix(
            &bytes,
            DurabilityMode::InMemory,
            CrashSpec::torn(VTime(0.7)),
        );
        assert!(d.is_empty());
    }

    #[test]
    fn durable_prefix_strict_cuts_at_append_time() {
        let bytes = journal_bytes(DurabilityMode::Strict);
        let d = durable_prefix(&bytes, DurabilityMode::Strict, CrashSpec::at(VTime(0.6)));
        let st = ReplayedState::replay(&d);
        // The four records at 0.0 and 0.5 survive; the 0.75 observe does not.
        assert_eq!(st.records, 4);
        assert_eq!(st.last_at, 0.5);
        assert!(st.observes.is_empty());
        assert_eq!(st.torn_bytes_discarded, 0);
    }

    #[test]
    fn durable_prefix_buffered_cuts_at_the_last_commit() {
        let bytes = journal_bytes(DurabilityMode::Buffered);
        // Crash after the fence at 0.8: the whole first epoch is durable.
        let d = durable_prefix(&bytes, DurabilityMode::Buffered, CrashSpec::at(VTime(0.9)));
        let st = ReplayedState::replay(&d);
        assert_eq!(st.last_commit, Some((1, 0.8)));
        assert_eq!(st.observes.len(), 1);
        // Crash before any fence: nothing was ever flushed.
        let none = durable_prefix(&bytes, DurabilityMode::Buffered, CrashSpec::at(VTime(0.7)));
        assert!(none.is_empty());
    }

    #[test]
    fn crash_exactly_at_a_fence_epoch_keeps_the_commit() {
        let bytes = journal_bytes(DurabilityMode::Buffered);
        let d = durable_prefix(&bytes, DurabilityMode::Buffered, CrashSpec::at(VTime(0.8)));
        let st = ReplayedState::replay(&d);
        assert_eq!(
            st.last_commit,
            Some((1, 0.8)),
            "a commit at the crash instant is durable (flush happens at the fence)"
        );
    }

    #[test]
    fn torn_crash_leaves_a_fragment_replay_ignores() {
        let bytes = journal_bytes(DurabilityMode::Strict);
        let clean = durable_prefix(&bytes, DurabilityMode::Strict, CrashSpec::at(VTime(0.6)));
        let torn = durable_prefix(&bytes, DurabilityMode::Strict, CrashSpec::torn(VTime(0.6)));
        assert!(torn.len() > clean.len(), "a fragment must be present");
        let a = ReplayedState::replay(&clean);
        let mut b = ReplayedState::replay(&torn);
        assert!(b.torn_bytes_discarded > 0);
        b.torn_bytes_discarded = 0;
        assert_eq!(a, b, "the fragment must not change replayed state");
    }

    #[test]
    fn journal_costs_follow_the_mode() {
        let mk = |mode| {
            let mut j = Journal::new(mode).with_write_bw(Bandwidth::gb_per_s(1.0));
            for (rec, at) in sample_records() {
                match rec {
                    Record::EpochCommit { gen, .. } => j.commit(gen, at),
                    rec => j.append(&rec, at),
                }
            }
            (j.take_cost(), j.stats())
        };
        let (c_mem, s_mem) = mk(DurabilityMode::InMemory);
        let (c_buf, s_buf) = mk(DurabilityMode::Buffered);
        let (c_strict, s_strict) = mk(DurabilityMode::Strict);
        assert_eq!(c_mem, VDur::ZERO);
        assert_eq!(s_mem.flushes, 0);
        assert!(c_buf > VDur::ZERO && c_strict > c_buf);
        assert_eq!(s_buf.flushes, 1, "one group commit");
        assert_eq!(s_strict.flushes, s_strict.records, "flush per append");
        assert!(
            s_buf.flushed_bytes < s_buf.appended_bytes,
            "the record appended after the last commit stays buffered"
        );
        assert_eq!(s_strict.flushed_bytes, s_strict.appended_bytes);
    }

    #[test]
    fn take_cost_drains() {
        let mut j = Journal::new(DurabilityMode::Strict);
        j.append(&Record::InitPlace { obj: 0, chunk: 0 }, VTime(0.0));
        assert!(j.take_cost() > VDur::ZERO);
        assert_eq!(j.take_cost(), VDur::ZERO);
    }

    #[test]
    fn durability_mode_names_parse() {
        for m in DurabilityMode::ALL {
            assert_eq!(DurabilityMode::parse(m.name()), Some(m));
        }
        assert_eq!(DurabilityMode::parse("wal"), None);
    }
}
