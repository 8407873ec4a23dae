//! Content-addressed on-disk cell cache: the cross-run half of the
//! sweep's incremental-reuse layer, so that a sweep re-runs only the
//! cells no earlier sweep has run.
//!
//! Growing the matrix re-runs every cell from scratch even when only one
//! axis value was added. This module makes sweep results **reusable
//! across runs**: every `(workload, policy, profile, ranks, layout,
//! topology)` cell — and every `(profile, mix)` co-run group — is keyed
//! by a digest of its *canonical configuration document*, and finished
//! results are persisted under that digest. A later sweep that contains
//! the same cell loads the result instead of recomputing it, so adding
//! `nodes256` to yesterday's matrix costs only the new cells.
//!
//! Three design rules keep the cache invisible in the output:
//!
//! * **Byte-identity.** A warm sweep must serialize byte-identically to a
//!   cold one. Cached payloads therefore carry the cell's *raw* state
//!   (including the non-serialized `overlapped`/`exposed` migration
//!   durations that `RunStats::to_json` only exposes as a derived
//!   percentage) so reconstruction is exact, not approximate. The
//!   integration property tests assert `cold == warm` on the serialized
//!   report text.
//! * **Conservative keys.** The key document includes the cache schema
//!   ([`SCHEMA`]), the sweep report schema ([`crate::sweep::report::SCHEMA`]),
//!   an engine fingerprint ([`ENGINE_FINGERPRINT`]) bumped on any
//!   behavior-affecting engine change, and a caller salt — any of them
//!   changing strands old entries harmlessly (content-addressing means
//!   they are simply never looked up again). FNV-1a is not
//!   cryptographic, so the full canonical key text is stored inside the
//!   entry and compared on load as text, byte for byte, without decoding
//!   it; a digest collision degrades to a miss, never to wrong data.
//! * **Corruption is a miss.** Entries are framed with the redo
//!   journal's discipline — magic, length, FNV-1a-64 checksum — and any
//!   verification failure (truncation, bit flip, bad magic, unparsable
//!   payload, key mismatch) logs a warning and falls back to
//!   recomputation. A corrupt cache can cost time, never correctness.
//!
//! A load decodes the payload in one pass with a [`Reader`], straight
//! into the cell, reading members in the order the writer puts them. A
//! member reordered, missing or added is a miss, and so is a key document
//! re-spaced or re-escaped, since the key is compared as text. The reader
//! and the writer must therefore stay in step: `entry_format_is_pinned`
//! pins the bytes, and the tests check every verdict against a tree
//! decoder.
//!
//! Entries are written atomically (temp file + rename) so a crashed
//! sweep leaves either a complete entry or none.

use crate::sweep::matrix::{NvmProfile, PolicyKind, SweepConfig, TopologySpec};
use crate::sweep::report::SCHEMA as SWEEP_SCHEMA;
use crate::sweep::runner::{CorunCell, SweepCell};
use std::io;
use std::path::{Path, PathBuf};
use unimem::exec::RunReport;
use unimem::search::SearchKind;
use unimem::stats::RunStats;
use unimem_hms::arbiter::ArbiterPolicy;
use unimem_hms::migration::MigrationStats;
use unimem_sim::json::Reader;
use unimem_sim::{Bytes, Fnv128, Fnv64, Json, VDur};
use unimem_workloads::corun::CorunMix;

/// Cache entry schema tag; part of every key document. Bump when the
/// entry payload layout changes.
pub const SCHEMA: &str = "unimem-sweep-cache/v1";

/// Engine fingerprint; part of every key document. Bump whenever a
/// change anywhere in the execution engine (simulator, runtime model,
/// policies, workload models, machine profiles) can alter any cell's
/// numbers — stale entries then become unreachable instead of wrong.
/// It is the last entry of [`ENGINE_HISTORY`].
pub const ENGINE_FINGERPRINT: &str = ENGINE_HISTORY[ENGINE_HISTORY.len() - 1].0;

/// Every engine fingerprint, oldest first, with the `Fnv128` hex digest
/// of the reduced-matrix report (`BENCH_sweep.json`) that engine wrote.
/// A change that moves report bytes appends a new fingerprint and the new
/// digest; `tests/golden.rs` fails until it does.
pub const ENGINE_HISTORY: [(&str, &str); 2] = [
    ("unimem-engine/pr10", "5983608cb4167214236e23fd8d7758ec"),
    (
        "unimem-engine/hw-cache-dram-fill",
        "f460c1b10b891498f6fcd462ad1146f6",
    ),
];

/// On-disk entry magic ("UNIMEMSC" — UNIMEM Sweep Cache).
const MAGIC: &[u8; 8] = b"UNIMEMSC";

/// Framed header size: magic (8) + payload length (4) + FNV-1a-64 (8).
const HEADER_LEN: usize = 20;

/// A content-addressed store of finished sweep cells under one
/// directory. Cheap to construct; all state is on disk.
#[derive(Debug, Clone)]
pub struct SweepCache {
    dir: PathBuf,
    salt: String,
}

impl SweepCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SweepCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SweepCache {
            dir,
            salt: String::new(),
        })
    }

    /// Replace the key salt (default empty). Every distinct salt is a
    /// disjoint key space inside the same directory — the property tests
    /// use this to prove a salt change forces a 0% hit rate.
    pub fn with_salt(mut self, salt: impl Into<String>) -> SweepCache {
        self.salt = salt.into();
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Key for one single-tenant cell. `ranks_per_node` is the *row*
    /// layout (clustered rooms derive their real packing from the
    /// topology, so the row value identifies the configuration).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn cell_key(
        &self,
        cfg: &SweepConfig,
        workload: &str,
        policy: PolicyKind,
        profile: NvmProfile,
        nranks: usize,
        ranks_per_node: usize,
        topology: &TopologySpec,
    ) -> CacheKey {
        let mut doc = key_preamble("cell", &self.salt, cfg, 6);
        doc.field("workload", workload)
            .field("policy", policy.name())
            .field("profile", profile.name())
            .field("nranks", nranks)
            .field("ranks_per_node", ranks_per_node)
            .field("topology", topology.name());
        CacheKey::of(doc, "cell")
    }

    /// Key for one co-run group: a `(profile, mix)` pair covering every
    /// arbiter in `cfg.arbiters` (the group is the unit of execution, so
    /// it is also the unit of caching). The member slots and the arbiter
    /// list are spelled out because both shape the results.
    pub(crate) fn corun_key(
        &self,
        cfg: &SweepConfig,
        mix: &CorunMix,
        profile: NvmProfile,
        nranks: usize,
    ) -> CacheKey {
        let mut doc = key_preamble("corun", &self.salt, cfg, 5);
        let members: Vec<Json> = mix
            .members
            .iter()
            .map(|m| {
                let mut o = Json::obj_with_capacity(4);
                o.field("workload", m.workload.as_str())
                    .field("tenant", m.tenant.as_str())
                    .field("weight", u64::from(m.weight))
                    .field("start_epoch", m.start_epoch);
                o
            })
            .collect();
        let arbiters: Vec<Json> = cfg.arbiters.iter().map(|a| Json::from(a.name())).collect();
        doc.field("mix", mix.label())
            .field("members", members)
            .field("arbiters", arbiters)
            .field("profile", profile.name())
            .field("nranks", nranks);
        CacheKey::of(doc, "corun")
    }

    /// Look a cell up. `None` on miss — silently when the entry does not
    /// exist, with a stderr warning when it exists but fails
    /// verification (the caller recomputes either way).
    pub(crate) fn load_cell(&self, key: &CacheKey) -> Option<SweepCell> {
        self.load(key, "cell", read_cell)
    }

    /// Persist a finished cell under its key. Write failures warn and
    /// drop the entry: a read-only or full cache directory degrades the
    /// cache to a no-op, it does not fail the sweep.
    pub(crate) fn store_cell(&self, key: &CacheKey, cell: &SweepCell) {
        self.store(key, "cell", &cell_to_json(cell));
    }

    /// Look a co-run group up (all arbiters × tenants of one
    /// `(profile, mix)` pair, in canonical order).
    pub(crate) fn load_corun(&self, key: &CacheKey) -> Option<Vec<CorunCell>> {
        self.load(key, "cells", |r| array_of(r, read_corun_cell))
    }

    /// Persist a finished co-run group under its key.
    pub(crate) fn store_corun(&self, key: &CacheKey, cells: &[CorunCell]) {
        let items: Vec<Json> = cells.iter().map(corun_cell_to_json).collect();
        self.store(key, "cells", &Json::from(items));
    }

    fn load<T>(
        &self,
        key: &CacheKey,
        member: &str,
        decode: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
    ) -> Option<T> {
        let path = key.path_in(&self.dir);
        match read_entry(&path, &key.canon, member, decode) {
            Ok(value) => Some(value),
            Err(ReadError::Missing) => None,
            Err(ReadError::Corrupt(why)) => {
                eprintln!(
                    "sweep cache: discarding corrupt entry {}: {why}",
                    path.display()
                );
                None
            }
        }
    }

    /// Write `{"key":<key doc>,"<member>":<value>}` in compact form, with
    /// the key document as its canonical text.
    fn store(&self, key: &CacheKey, member: &str, value: &Json) {
        let payload = format!(
            "{{\"key\":{},\"{member}\":{}}}",
            key.canon,
            value.to_compact()
        );
        let path = key.path_in(&self.dir);
        if let Err(e) = write_entry(&path, payload.as_bytes()) {
            eprintln!("sweep cache: failed to write {}: {e}", path.display());
        }
    }
}

/// The shared head of every key document: schemas, fingerprint, salt,
/// and the config axes that apply to every cell kind (workload class and
/// the DRAM-capacity override reshape every machine). The document has
/// room for the `more` members its caller appends.
fn key_preamble(entry: &str, salt: &str, cfg: &SweepConfig, more: usize) -> Json {
    let mut doc = Json::obj_with_capacity(7 + more);
    doc.field("entry", entry)
        .field("cache", SCHEMA)
        .field("sweep", SWEEP_SCHEMA)
        .field("engine", ENGINE_FINGERPRINT)
        .field("salt", salt)
        .field("class", cfg.class.name())
        .field(
            "dram_capacity",
            match cfg.dram_capacity {
                Some(b) => Json::UInt(b.0),
                None => Json::Null,
            },
        );
    doc
}

/// A derived cache key: the compact text of the canonical key document
/// (stored in the entry and compared on load — the collision guard), and
/// the digest of that text that names the entry file.
#[derive(Debug, Clone)]
pub(crate) struct CacheKey {
    canon: String,
    hex: String,
    kind: &'static str,
}

impl CacheKey {
    /// The text is hashed as `json_digest_hex` would hash the document,
    /// without serializing it a second time.
    fn of(doc: Json, kind: &'static str) -> CacheKey {
        let canon = doc.to_compact();
        let hex = Fnv128::new().update(canon.as_bytes()).finish_hex();
        CacheKey { canon, hex, kind }
    }

    fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.{}", self.hex, self.kind))
    }
}

/// FNV-1a-64 over the payload bytes — the journal's checksum, reused as
/// the entry framing checksum.
fn crc64(payload: &[u8]) -> u64 {
    Fnv64::new().update(payload).finish()
}

/// Write one framed entry atomically: temp file in the same directory,
/// then rename over the final name.
fn write_entry(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, path)
}

#[derive(Debug)]
enum ReadError {
    /// No entry on disk — the silent miss.
    Missing,
    /// An entry exists but failed verification — warn, then miss.
    Corrupt(String),
}

/// Read, verify and decode one entry: [`read_frame`], then
/// [`decode_entry`].
fn read_entry<T>(
    path: &Path,
    expected_canon: &str,
    member: &str,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<T, ReadError> {
    let text = read_frame(path)?;
    decode_entry(&text, expected_canon, member, decode).map_err(ReadError::Corrupt)
}

/// Read one framed entry and verify its magic, exact length, checksum and
/// UTF-8; the payload text.
fn read_frame(path: &Path) -> Result<String, ReadError> {
    use ReadError::Corrupt;
    let mut buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ReadError::Missing),
        Err(e) => return Err(Corrupt(format!("read failed: {e}"))),
    };
    if buf.len() < HEADER_LEN {
        return Err(Corrupt(format!("truncated header ({} bytes)", buf.len())));
    }
    if &buf[..8] != MAGIC {
        return Err(Corrupt("bad magic".into()));
    }
    let len = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
    let crc = u64::from_le_bytes(buf[12..20].try_into().expect("8 bytes"));
    let payload = &buf[HEADER_LEN..];
    if payload.len() != len {
        return Err(Corrupt(format!(
            "length mismatch (header says {len}, file holds {})",
            payload.len()
        )));
    }
    if crc64(payload) != crc {
        return Err(Corrupt("checksum mismatch".into()));
    }
    buf.drain(..HEADER_LEN);
    String::from_utf8(buf).map_err(|e| Corrupt(format!("not UTF-8: {}", e.utf8_error())))
}

/// Decode a verified payload, `{"key":<key doc>,"<member>":<value>}`: the
/// key compared with `expected_canon` byte for byte, then the value read
/// by `decode`, then nothing else.
fn decode_entry<T>(
    text: &str,
    expected_canon: &str,
    member: &str,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut r = Reader::new(text);
    r.begin_object()
        .and_then(|()| r.member("key"))
        .map_err(|e| format!("unparsable payload: {e}"))?;
    if !r.verbatim(expected_canon) {
        return Err("key mismatch (digest collision or misnamed file)".into());
    }
    r.member(member)?;
    let value = decode(&mut r)?;
    r.end_object()?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------
// Full-fidelity (de)serialization.
//
// `RunStats::to_json` (the report path) derives `overlap_pct` and drops
// the raw overlapped/exposed durations; reconstruction from the report
// form would not be exact. The cache therefore carries every raw field
// and nothing derived — decode(encode(x)) rebuilds `x` so the warm
// report serializes byte-identically to the cold one.
// ---------------------------------------------------------------------

fn stats_to_json(s: &RunStats) -> Json {
    let mut o = Json::obj_with_capacity(17);
    o.field("total_time_s", s.total_time)
        .field("app_time_s", s.app_time)
        .field("profiling_overhead_s", s.profiling_overhead)
        .field("modeling_overhead_s", s.modeling_overhead)
        .field("sync_overhead_s", s.sync_overhead)
        .field("migration_stall_s", s.migration_stall)
        .field("contention_time_s", s.contention_time)
        .field("neighbor_contention_time_s", s.neighbor_contention_time)
        .field("mig_count", s.migrations.count)
        .field("mig_bytes", s.migrations.bytes)
        .field("mig_to_dram", s.migrations.to_dram_count)
        .field("mig_to_nvm", s.migrations.to_nvm_count)
        .field("mig_overlapped_s", s.migrations.overlapped)
        .field("mig_exposed_s", s.migrations.exposed)
        .field("reprofiles", s.reprofiles)
        .field("lease_replans", s.lease_replans)
        .field("iterations", s.iterations);
    o
}

fn report_to_json(r: &RunReport) -> Json {
    let per_rank: Vec<Json> = r.per_rank.iter().map(stats_to_json).collect();
    let mut o = Json::obj_with_capacity(5);
    o.field("workload", r.workload.as_str())
        .field("policy", r.policy.as_str())
        .field("plan_kind", r.plan_kind_json())
        .field("job", stats_to_json(&r.job))
        .field("per_rank", per_rank);
    o
}

fn cell_to_json(c: &SweepCell) -> Json {
    let mut o = Json::obj_with_capacity(9);
    o.field("workload", c.workload.as_str())
        .field("full_name", c.full_name.as_str())
        .field("policy", c.policy.name())
        .field("profile", c.profile.name())
        .field("nranks", c.nranks)
        .field("ranks_per_node", c.ranks_per_node)
        .field("topology", c.topology.name())
        .field("normalized_to_dram", c.normalized_to_dram)
        .field("report", report_to_json(&c.report));
    o
}

fn corun_cell_to_json(c: &CorunCell) -> Json {
    let mut o = Json::obj_with_capacity(13);
    o.field("mix", c.mix.as_str())
        .field("workload", c.workload.as_str())
        .field("tenant", c.tenant.as_str())
        .field("weight", u64::from(c.weight))
        .field("start_epoch", c.start_epoch)
        .field("arbiter", c.arbiter.name())
        .field("profile", c.profile.name())
        .field("nranks", c.nranks)
        .field("solo_time_s", c.solo_time_s)
        .field("slowdown", c.slowdown)
        .field("lease_min", c.lease_min)
        .field("lease_max", c.lease_max)
        .field("report", report_to_json(&c.report));
    o
}

// ---------------------------------------------------------------------
// Typed decoding: one pass over the payload, straight into the cell.
// Each reader takes the members in the order the serializer above writes
// them; any other shape is an error, which surfaces verbatim in the
// corrupt-entry warning.
// ---------------------------------------------------------------------

fn read_stats(r: &mut Reader<'_>) -> Result<RunStats, String> {
    r.begin_object()?;
    let stats = RunStats {
        total_time: secs_member(r, "total_time_s")?,
        app_time: secs_member(r, "app_time_s")?,
        profiling_overhead: secs_member(r, "profiling_overhead_s")?,
        modeling_overhead: secs_member(r, "modeling_overhead_s")?,
        sync_overhead: secs_member(r, "sync_overhead_s")?,
        migration_stall: secs_member(r, "migration_stall_s")?,
        contention_time: secs_member(r, "contention_time_s")?,
        neighbor_contention_time: secs_member(r, "neighbor_contention_time_s")?,
        migrations: MigrationStats {
            count: u64_member(r, "mig_count")?,
            bytes: Bytes(u64_member(r, "mig_bytes")?),
            to_dram_count: u64_member(r, "mig_to_dram")?,
            to_nvm_count: u64_member(r, "mig_to_nvm")?,
            overlapped: secs_member(r, "mig_overlapped_s")?,
            exposed: secs_member(r, "mig_exposed_s")?,
        },
        reprofiles: u64_member(r, "reprofiles")?,
        lease_replans: u64_member(r, "lease_replans")?,
        iterations: u64_member(r, "iterations")?,
    };
    r.end_object()?;
    Ok(stats)
}

fn read_report(r: &mut Reader<'_>) -> Result<RunReport, String> {
    r.begin_object()?;
    let workload = string_member(r, "workload")?;
    let policy = string_member(r, "policy")?;
    r.member("plan_kind")?;
    let plan_kind = match r.peek() {
        Some(b'n') => {
            r.null()?;
            None
        }
        _ => {
            let name = r.str()?;
            let kind = SearchKind::from_name(&name);
            Some(kind.ok_or_else(|| format!("unknown plan kind {name:?}"))?)
        }
    };
    r.member("job")?;
    let job = read_stats(r)?;
    r.member("per_rank")?;
    let per_rank = array_of(r, read_stats)?;
    r.end_object()?;
    Ok(RunReport {
        workload,
        policy,
        per_rank,
        job,
        plan_kind,
    })
}

fn read_cell(r: &mut Reader<'_>) -> Result<SweepCell, String> {
    r.begin_object()?;
    let cell = SweepCell {
        workload: string_member(r, "workload")?,
        full_name: string_member(r, "full_name")?,
        policy: named_member(r, "policy", PolicyKind::from_name)?,
        profile: named_member(r, "profile", NvmProfile::parse)?,
        nranks: usize_member(r, "nranks")?,
        ranks_per_node: usize_member(r, "ranks_per_node")?,
        topology: named_member(r, "topology", TopologySpec::parse)?,
        normalized_to_dram: f64_member(r, "normalized_to_dram")?,
        report: {
            r.member("report")?;
            read_report(r)?
        },
    };
    r.end_object()?;
    Ok(cell)
}

fn read_corun_cell(r: &mut Reader<'_>) -> Result<CorunCell, String> {
    r.begin_object()?;
    let cell = CorunCell {
        mix: string_member(r, "mix")?,
        workload: string_member(r, "workload")?,
        tenant: string_member(r, "tenant")?,
        weight: u32::try_from(u64_member(r, "weight")?).map_err(|_| "weight exceeds u32")?,
        start_epoch: usize_member(r, "start_epoch")?,
        arbiter: named_member(r, "arbiter", ArbiterPolicy::parse)?,
        profile: named_member(r, "profile", NvmProfile::parse)?,
        nranks: usize_member(r, "nranks")?,
        solo_time_s: f64_member(r, "solo_time_s")?,
        slowdown: f64_member(r, "slowdown")?,
        lease_min: Bytes(u64_member(r, "lease_min")?),
        lease_max: Bytes(u64_member(r, "lease_max")?),
        report: {
            r.member("report")?;
            read_report(r)?
        },
    };
    r.end_object()?;
    Ok(cell)
}

/// An array whose every element `item` reads.
fn array_of<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    r.begin_array()?;
    let mut items = Vec::new();
    while r.item()? {
        items.push(item(r)?);
    }
    r.end_array()?;
    Ok(items)
}

// Member readers: the named member must come next.

fn u64_member(r: &mut Reader<'_>, name: &str) -> Result<u64, String> {
    r.member(name)?;
    r.u64()
}

fn usize_member(r: &mut Reader<'_>, name: &str) -> Result<usize, String> {
    usize::try_from(u64_member(r, name)?).map_err(|_| format!("member {name:?} exceeds usize"))
}

fn f64_member(r: &mut Reader<'_>, name: &str) -> Result<f64, String> {
    r.member(name)?;
    r.f64()
}

fn secs_member(r: &mut Reader<'_>, name: &str) -> Result<VDur, String> {
    f64_member(r, name).map(VDur)
}

fn string_member(r: &mut Reader<'_>, name: &str) -> Result<String, String> {
    r.member(name)?;
    Ok(r.str()?.into_owned())
}

/// A member that names one value of a closed set: a policy, profile,
/// arbiter or topology.
fn named_member<T>(
    r: &mut Reader<'_>,
    name: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    r.member(name)?;
    let value = r.str()?;
    parse(&value).ok_or_else(|| format!("unknown {name} {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use unimem_sim::DetRng;
    use unimem_workloads::Class;
    use ReadError::Corrupt;

    // -----------------------------------------------------------------
    // The reference: tree decoders. The whole payload is parsed into a
    // tree, the key member is re-serialized and compared with the
    // canonical text, and each field is looked up by name, in any order.
    // -----------------------------------------------------------------

    fn reference_entry<T>(
        path: &Path,
        expected_canon: &str,
        member: &str,
        decode: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, ReadError> {
        let text = read_frame(path)?;
        let doc = Json::parse(&text).map_err(|e| Corrupt(format!("unparsable payload: {e}")))?;
        let key = doc
            .get("key")
            .ok_or_else(|| Corrupt("entry has no \"key\" member".into()))?;
        if key.to_compact() != expected_canon {
            return Err(Corrupt(
                "key mismatch (digest collision or misnamed file)".into(),
            ));
        }
        doc.get(member)
            .ok_or_else(|| format!("entry has no {member:?} member"))
            .and_then(decode)
            .map_err(Corrupt)
    }

    fn stats_from_json(v: &Json) -> Result<RunStats, String> {
        Ok(RunStats {
            total_time: vdur(v, "total_time_s")?,
            app_time: vdur(v, "app_time_s")?,
            profiling_overhead: vdur(v, "profiling_overhead_s")?,
            modeling_overhead: vdur(v, "modeling_overhead_s")?,
            sync_overhead: vdur(v, "sync_overhead_s")?,
            migration_stall: vdur(v, "migration_stall_s")?,
            contention_time: vdur(v, "contention_time_s")?,
            neighbor_contention_time: vdur(v, "neighbor_contention_time_s")?,
            migrations: MigrationStats {
                count: uint(v, "mig_count")?,
                bytes: Bytes(uint(v, "mig_bytes")?),
                to_dram_count: uint(v, "mig_to_dram")?,
                to_nvm_count: uint(v, "mig_to_nvm")?,
                overlapped: vdur(v, "mig_overlapped_s")?,
                exposed: vdur(v, "mig_exposed_s")?,
            },
            reprofiles: uint(v, "reprofiles")?,
            lease_replans: uint(v, "lease_replans")?,
            iterations: uint(v, "iterations")?,
        })
    }

    fn report_from_json(v: &Json) -> Result<RunReport, String> {
        let plan_kind = match field(v, "plan_kind")? {
            Json::Null => None,
            Json::Str(s) => {
                Some(SearchKind::from_name(s).ok_or_else(|| format!("unknown plan kind {s:?}"))?)
            }
            other => return Err(format!("plan_kind is neither null nor a string: {other:?}")),
        };
        let per_rank = field(v, "per_rank")?
            .as_arr()
            .ok_or("per_rank is not an array")?
            .iter()
            .map(stats_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunReport {
            workload: string(v, "workload")?,
            policy: string(v, "policy")?,
            per_rank,
            job: stats_from_json(field(v, "job")?)?,
            plan_kind,
        })
    }

    fn cell_from_json(v: &Json) -> Result<SweepCell, String> {
        let policy = string(v, "policy")?;
        let profile = string(v, "profile")?;
        let topology = string(v, "topology")?;
        Ok(SweepCell {
            workload: string(v, "workload")?,
            full_name: string(v, "full_name")?,
            policy: PolicyKind::from_name(&policy)
                .ok_or_else(|| format!("unknown policy {policy:?}"))?,
            profile: NvmProfile::parse(&profile)
                .ok_or_else(|| format!("unknown profile {profile:?}"))?,
            nranks: uint(v, "nranks")? as usize,
            ranks_per_node: uint(v, "ranks_per_node")? as usize,
            topology: TopologySpec::parse(&topology)
                .ok_or_else(|| format!("unknown topology {topology:?}"))?,
            normalized_to_dram: float(v, "normalized_to_dram")?,
            report: report_from_json(field(v, "report")?)?,
        })
    }

    fn corun_cell_from_json(v: &Json) -> Result<CorunCell, String> {
        let arbiter = string(v, "arbiter")?;
        let profile = string(v, "profile")?;
        Ok(CorunCell {
            mix: string(v, "mix")?,
            workload: string(v, "workload")?,
            tenant: string(v, "tenant")?,
            weight: u32::try_from(uint(v, "weight")?).map_err(|_| "weight exceeds u32")?,
            start_epoch: uint(v, "start_epoch")? as usize,
            arbiter: ArbiterPolicy::parse(&arbiter)
                .ok_or_else(|| format!("unknown arbiter {arbiter:?}"))?,
            profile: NvmProfile::parse(&profile)
                .ok_or_else(|| format!("unknown profile {profile:?}"))?,
            nranks: uint(v, "nranks")? as usize,
            solo_time_s: float(v, "solo_time_s")?,
            slowdown: float(v, "slowdown")?,
            lease_min: Bytes(uint(v, "lease_min")?),
            lease_max: Bytes(uint(v, "lease_max")?),
            report: report_from_json(field(v, "report")?)?,
        })
    }

    fn field<'a>(v: &'a Json, k: &str) -> Result<&'a Json, String> {
        v.get(k).ok_or_else(|| format!("missing member {k:?}"))
    }

    fn string(v: &Json, k: &str) -> Result<String, String> {
        field(v, k)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("member {k:?} is not a string"))
    }

    fn uint(v: &Json, k: &str) -> Result<u64, String> {
        field(v, k)?
            .as_u64()
            .ok_or_else(|| format!("member {k:?} is not an unsigned integer"))
    }

    fn float(v: &Json, k: &str) -> Result<f64, String> {
        field(v, k)?
            .as_f64()
            .ok_or_else(|| format!("member {k:?} is not a number"))
    }

    fn vdur(v: &Json, k: &str) -> Result<VDur, String> {
        Ok(VDur(float(v, k)?))
    }

    /// Whether the entry under `key` is a hit, by both decoders: the typed
    /// one `load` uses and the tree reference. They must agree, and on a
    /// hit they must have decoded the same cells, byte for byte in the
    /// full-fidelity form.
    fn same_verdict(cache: &SweepCache, key: &CacheKey) -> bool {
        let path = key.path_in(cache.dir());
        let group = |cells: Vec<CorunCell>| {
            Json::from(cells.iter().map(corun_cell_to_json).collect::<Vec<_>>())
        };
        let (typed, reference) = match key.kind {
            "cell" => (
                read_entry(&path, &key.canon, "cell", read_cell).map(|c| cell_to_json(&c)),
                reference_entry(&path, &key.canon, "cell", cell_from_json)
                    .map(|c| cell_to_json(&c)),
            ),
            _ => (
                read_entry(&path, &key.canon, "cells", |r| array_of(r, read_corun_cell)).map(group),
                reference_entry(&path, &key.canon, "cells", |v| {
                    let items = v.as_arr().ok_or("\"cells\" is not an array")?;
                    items.iter().map(corun_cell_from_json).collect()
                })
                .map(group),
            ),
        };
        match (typed, reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.to_compact(), b.to_compact(), "{}", path.display());
                true
            }
            (Err(_), Err(_)) => false,
            (a, b) => panic!(
                "the decoders disagree on {}: typed {:?}, reference {:?}",
                path.display(),
                a.err(),
                b.err()
            ),
        }
    }

    fn tmp_dir() -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "unimem-sweep-cache-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_stats(seed: u64) -> RunStats {
        let f = seed as f64;
        RunStats {
            total_time: VDur(10.125 + f),
            app_time: VDur(8.0625 + f),
            profiling_overhead: VDur(0.031 + f / 7.0),
            modeling_overhead: VDur(0.011),
            sync_overhead: VDur(0.007),
            migration_stall: VDur(0.503),
            contention_time: VDur(0.101),
            neighbor_contention_time: VDur(0.041),
            migrations: MigrationStats {
                count: 12 + seed,
                bytes: Bytes(u64::MAX - 3 - seed), // above 2^53: must not round through f64
                to_dram_count: 7,
                to_nvm_count: 5 + seed,
                overlapped: VDur(0.375),
                exposed: VDur(0.128 + f / 3.0),
            },
            reprofiles: 2,
            lease_replans: seed,
            iterations: 50,
        }
    }

    fn sample_cell() -> SweepCell {
        SweepCell {
            workload: "CG".into(),
            full_name: "CG.C".into(),
            policy: PolicyKind::Unimem,
            profile: NvmProfile::BwHalf,
            nranks: 4,
            ranks_per_node: 1,
            topology: TopologySpec::Nodes { count: 4 },
            normalized_to_dram: 1.3706293706293706,
            report: RunReport {
                workload: "CG.C".into(),
                policy: "Unimem".into(),
                per_rank: vec![sample_stats(0), sample_stats(1)],
                job: sample_stats(2),
                plan_kind: Some(SearchKind::Global),
            },
        }
    }

    fn sample_config() -> SweepConfig {
        SweepConfig {
            class: Class::S,
            workloads: vec!["CG".into()],
            policies: vec![PolicyKind::DramOnly, PolicyKind::Unimem],
            profiles: vec![NvmProfile::BwHalf],
            ranks: vec![4],
            ranks_per_node: vec![1],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: vec![],
            arbiters: vec![],
        }
    }

    fn key_for(cache: &SweepCache) -> CacheKey {
        cache.cell_key(
            &sample_config(),
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            4,
            1,
            &TopologySpec::Nodes { count: 4 },
        )
    }

    #[test]
    fn cell_roundtrip_is_exact() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = key_for(&cache);
        let cell = sample_cell();
        assert!(cache.load_cell(&key).is_none(), "empty cache misses");
        cache.store_cell(&key, &cell);
        let loaded = cache.load_cell(&key).expect("hit after store");
        // Exactness proxy: the full-fidelity serialization of original
        // and reconstruction must match byte for byte (covers every
        // field, including the u64 > 2^53 byte counter and plan_kind).
        assert_eq!(
            cell_to_json(&loaded).to_compact(),
            cell_to_json(&cell).to_compact()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_group() -> Vec<CorunCell> {
        vec![
            CorunCell {
                mix: "CG+FT".into(),
                workload: "CG".into(),
                tenant: "CG".into(),
                weight: 4,
                start_epoch: 0,
                arbiter: ArbiterPolicy::FairShare,
                profile: NvmProfile::Pcram,
                nranks: 8,
                solo_time_s: 4.203125,
                slowdown: 1.2109375,
                lease_min: Bytes(1 << 27),
                lease_max: Bytes(1 << 28),
                report: sample_cell().report,
            },
            CorunCell {
                mix: "CG+FT".into(),
                workload: "FT".into(),
                tenant: "FT".into(),
                weight: 1,
                start_epoch: 2,
                arbiter: ArbiterPolicy::Priority,
                profile: NvmProfile::Pcram,
                nranks: 8,
                solo_time_s: 7.75,
                slowdown: 1.046875,
                lease_min: Bytes(0),
                lease_max: Bytes(1 << 26),
                report: sample_cell().report,
            },
        ]
    }

    fn corun_key_for(cache: &SweepCache) -> CacheKey {
        let mut cfg = sample_config();
        cfg.arbiters = vec![ArbiterPolicy::FairShare, ArbiterPolicy::Priority];
        let mix = CorunMix::parse("CG+FT").expect("mix parses");
        cache.corun_key(&cfg, &mix, NvmProfile::Pcram, 8)
    }

    #[test]
    fn corun_group_roundtrip_is_exact() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = corun_key_for(&cache);
        let group = sample_group();
        assert!(cache.load_corun(&key).is_none());
        cache.store_corun(&key, &group);
        let loaded = cache.load_corun(&key).expect("hit after store");
        assert_eq!(loaded.len(), 2);
        for (a, b) in group.iter().zip(&loaded) {
            assert_eq!(
                corun_cell_to_json(a).to_compact(),
                corun_cell_to_json(b).to_compact()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The number of objects in `v`, each checked to hold borrowed keys
    /// in a member vector of exact size.
    fn borrowed_exact_objects(v: &Json, what: &str) -> usize {
        match v {
            Json::Arr(items) => items.iter().map(|x| borrowed_exact_objects(x, what)).sum(),
            Json::Obj(ms) => {
                assert_eq!(ms.capacity(), ms.len(), "{what}: an object's size");
                let mut objects = 1;
                for (k, x) in ms {
                    assert!(matches!(k, Cow::Borrowed(_)), "{what}: key {k:?} is copied");
                    objects += borrowed_exact_objects(x, what);
                }
                objects
            }
            _ => 0,
        }
    }

    /// Every report and cache writer stores its literal keys borrowed, in
    /// objects created at their final size. A writer that goes back to
    /// `Json::push` with a literal key, or sizes an object wrongly, fails
    /// here while its bytes stay the same.
    #[test]
    fn writers_borrow_every_key_in_objects_of_exact_size() {
        let mut cfg = sample_config();
        cfg.topologies.push(TopologySpec::Nodes { count: 4 });
        cfg.coruns = unimem_workloads::parse_mixes(&["CG+LU"]).expect("mix parses");
        cfg.arbiters = vec![ArbiterPolicy::FairShare];
        let report = crate::sweep::run_sweep_cached(&cfg, 1, None).expect("micro matrix runs");
        assert!(report
            .cells
            .iter()
            .any(|c| c.topology != TopologySpec::Flat));
        assert!(!report.corun_cells.is_empty());
        // A cell, its run, the job and one object per rank.
        let objects = |r: &RunReport| 3 + r.per_rank.len();
        let mut in_report = 1;
        for c in &report.cells {
            assert_eq!(
                borrowed_exact_objects(&cell_to_json(c), &c.coords()),
                objects(&c.report)
            );
            in_report += objects(&c.report);
        }
        for c in &report.corun_cells {
            assert_eq!(
                borrowed_exact_objects(&corun_cell_to_json(c), &c.coords()),
                objects(&c.report)
            );
            in_report += objects(&c.report);
        }
        assert_eq!(
            borrowed_exact_objects(&report.to_json(), "report"),
            in_report
        );
        assert_eq!(
            borrowed_exact_objects(&key_preamble("cell", "", &cfg, 0), "key"),
            1
        );
    }

    #[test]
    fn salt_and_axes_change_the_digest() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let base = key_for(&cache);
        let salted = key_for(&cache.clone().with_salt("x"));
        assert_ne!(base.hex, salted.hex, "salt must reshape every key");
        let other_rank = cache.cell_key(
            &sample_config(),
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            8,
            1,
            &TopologySpec::Nodes { count: 4 },
        );
        assert_ne!(base.hex, other_rank.hex);
        let mut capped = sample_config();
        capped.dram_capacity = Some(Bytes(1 << 30));
        let with_cap = cache.cell_key(
            &capped,
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            4,
            1,
            &TopologySpec::Nodes { count: 4 },
        );
        assert_ne!(base.hex, with_cap.hex, "dram capacity is part of the key");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every corruption mode must degrade to a miss (`None`), never a
    /// panic or a wrong cell — the robustness satellite's core claim.
    #[test]
    fn corrupt_entries_fall_back_to_miss() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = key_for(&cache);
        let cell = sample_cell();
        let path = key.path_in(cache.dir());

        // Truncated mid-payload.
        cache.store_cell(&key, &cell);
        let whole = std::fs::read(&path).expect("entry exists");
        std::fs::write(&path, &whole[..whole.len() / 2]).expect("truncate");
        assert!(cache.load_cell(&key).is_none(), "truncated entry misses");

        // Truncated inside the header.
        std::fs::write(&path, &whole[..HEADER_LEN - 5]).expect("truncate header");
        assert!(cache.load_cell(&key).is_none(), "headerless entry misses");

        // A flipped bit in the payload breaks the checksum.
        let mut flipped = whole.clone();
        let at = HEADER_LEN + 10;
        flipped[at] ^= 0x01;
        std::fs::write(&path, &flipped).expect("bit flip");
        assert!(cache.load_cell(&key).is_none(), "bit-flipped entry misses");

        // Wrong magic.
        let mut bad_magic = whole.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).expect("bad magic");
        assert!(cache.load_cell(&key).is_none(), "bad-magic entry misses");

        // A well-formed entry filed under the wrong name (what a digest
        // collision would look like): the stored canonical key disagrees,
        // in its length or only in one byte (8 ranks instead of 4).
        for (nranks, topology) in [
            (8, TopologySpec::Flat),
            (8, TopologySpec::Nodes { count: 4 }),
        ] {
            let other = cache.cell_key(
                &sample_config(),
                "CG",
                PolicyKind::Unimem,
                NvmProfile::BwHalf,
                nranks,
                1,
                &topology,
            );
            std::fs::write(&path, &whole).expect("restore");
            let misfiled = other.path_in(cache.dir());
            std::fs::rename(&path, &misfiled).expect("misfile");
            assert!(cache.load_cell(&other).is_none(), "key mismatch misses");
            std::fs::remove_file(&misfiled).expect("clean up");
        }

        // And after all that abuse, a fresh store still works.
        cache.store_cell(&key, &cell);
        assert!(cache.load_cell(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A frame whose magic, length and checksum all verify around a
    /// payload nested 200,000 levels deep: a corrupt entry (warned about
    /// and discarded) instead of a stack overflow, and the sweep
    /// recomputes the cell. The typed decoder stops at the first bracket;
    /// the tree reference stops at its depth limit.
    #[test]
    fn forged_deep_payload_is_discarded_and_recomputed() {
        let dir = tmp_dir();
        let store = SweepCache::open(&dir).expect("open");
        let cfg = sample_config();
        let cold = crate::sweep::run_sweep_cached(&cfg, 1, Some(&store)).expect("cold run");
        let key = store.cell_key(
            &cfg,
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            4,
            1,
            &TopologySpec::Flat,
        );
        let path = key.path_in(store.dir());
        assert!(path.exists(), "the cold run stored the cell");

        // Built from raw bytes: `write_entry` serializes recursively and
        // cannot produce this payload.
        let payload = "[".repeat(200_000).into_bytes();
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        std::fs::write(&path, &frame).expect("forge");
        match read_entry(&path, &key.canon, "cell", read_cell) {
            Err(Corrupt(why)) => assert!(why.contains("unparsable payload"), "{why}"),
            _ => panic!("a forged deep payload must read as a corrupt entry"),
        }

        let warm = crate::sweep::run_sweep_cached(&cfg, 1, Some(&store)).expect("warm run");
        assert_eq!(
            warm.cache_hits + 1,
            warm.cache_lookups,
            "only the forged entry misses"
        );
        assert_eq!(warm.to_json().to_compact(), cold.to_json().to_compact());
        assert!(
            store.load_cell(&key).is_some(),
            "the recompute stores the entry again"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A payload that frames and checksums correctly but decodes to the
    /// wrong shape is still a miss (exercises the decode error path).
    #[test]
    fn wrong_shape_payload_is_a_miss() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = key_for(&cache);
        let payload = format!("{{\"key\":{},\"cell\":\"not an object\"}}", key.canon);
        write_entry(&key.path_in(cache.dir()), payload.as_bytes()).expect("write");
        assert!(cache.load_cell(&key).is_none());
        assert!(!same_verdict(&cache, &key));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Apply `f` to every node of `v`, parents before children.
    fn visit(v: &mut Json, f: &mut dyn FnMut(&mut Json)) {
        f(v);
        match v {
            Json::Arr(xs) => xs.iter_mut().for_each(|x| visit(x, f)),
            Json::Obj(ms) => ms.iter_mut().for_each(|(_, x)| visit(x, f)),
            _ => {}
        }
    }

    /// Members that name a policy, profile, arbiter, topology or plan kind.
    const NAMED: [&str; 5] = ["policy", "profile", "arbiter", "topology", "plan_kind"];

    /// Names that match none of them.
    const UNKNOWN_NAMES: [&str; 8] = [
        "",
        "quartz",
        "nodes0",
        "nodes18446744073709551616",
        "mixed:",
        "mixed:bw-half+",
        "fair share",
        "globall",
    ];

    /// Whether edit `kind` of [`mutate`] applies to `v`.
    fn applies(kind: usize, v: &Json) -> bool {
        match (kind, v) {
            (0, Json::Obj(ms)) => !ms.is_empty(),
            (1, _) | (2 | 3, Json::UInt(_)) => true,
            (4, v) => v.get("per_rank").is_some(),
            (5, Json::Obj(ms)) => ms.iter().any(|(k, _)| NAMED.contains(&k.as_ref())),
            _ => false,
        }
    }

    /// One of six hostile edits of a decoded payload, made at about two
    /// of the nodes it applies to.
    fn mutate(payload: &mut Json, kind: usize, rng: &mut DetRng) {
        let mut eligible = 0;
        visit(payload, &mut |v| eligible += usize::from(applies(kind, v)));
        let odds = 2.0 / eligible.max(1) as f64;
        let variants = [
            Json::Null,
            Json::Bool(true),
            Json::UInt(3),
            Json::Int(-3),
            Json::Num(0.5),
            Json::from("x"),
            Json::Arr(Vec::new()),
            Json::obj(),
        ];
        visit(payload, &mut |v| {
            if !applies(kind, v) || rng.f64() >= odds {
                return;
            }
            match (kind, v) {
                // A member dropped.
                (0, Json::Obj(ms)) => {
                    ms.remove(rng.index(ms.len()));
                }
                // A value of another variant.
                (1, v) => {
                    let d = std::mem::discriminant(&*v);
                    let others: Vec<&Json> = variants
                        .iter()
                        .filter(|w| std::mem::discriminant(*w) != d)
                        .collect();
                    *v = others[rng.index(others.len())].clone();
                }
                // An integer at 0 or u64::MAX.
                (2, Json::UInt(u)) => *u = [0, u64::MAX][rng.index(2)],
                // A fractional or negative number where an integer belongs.
                (3, v) => {
                    *v = [Json::Num(2.5), Json::Num(-1.0), Json::Int(-1)][rng.index(3)].clone()
                }
                // per_rank emptied or doubled.
                (4, Json::Obj(ms)) => {
                    for (k, x) in ms.iter_mut() {
                        if let ("per_rank", Json::Arr(xs)) = (k.as_ref(), x) {
                            if rng.index(2) == 0 {
                                xs.clear();
                            } else {
                                xs.extend(xs.clone());
                            }
                        }
                    }
                }
                // Names that match nothing.
                (_, Json::Obj(ms)) => {
                    for (k, x) in ms.iter_mut() {
                        if NAMED.contains(&k.as_ref()) && rng.index(2) == 0 {
                            *x = Json::from(UNKNOWN_NAMES[rng.index(UNKNOWN_NAMES.len())]);
                        }
                    }
                }
                _ => unreachable!("`applies` admits no other node"),
            }
        });
    }

    /// Arbitrary bytes under a cell's and a co-run group's entry names, and
    /// `mutated` mutated copies of each real entry re-framed with correct
    /// magic, length, checksum and key: every load is a hit or a miss,
    /// never a panic, the typed decoder and the tree reference agree on
    /// every verdict and every hit's bytes, and the untouched entries still
    /// load afterwards.
    fn hostile_entries(mutated: usize) {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let (cell_key, corun_key) = (key_for(&cache), corun_key_for(&cache));
        cache.store_cell(&cell_key, &sample_cell());
        cache.store_corun(&corun_key, &sample_group());
        let loads = |key: &CacheKey| match key.kind {
            "cell" => cache.load_cell(key).is_some(),
            _ => cache.load_corun(key).is_some(),
        };
        let mut rng = DetRng::seed(0xbad_b17e5);
        let json_bytes = b"{}[]\":,.-+eE0123456789 truefalsnul\\";
        let mut hits = 0;
        for (key, member) in [(&cell_key, "cell"), (&corun_key, "cells")] {
            let path = key.path_in(cache.dir());
            let whole = std::fs::read(&path).expect("stored");
            let text = std::str::from_utf8(&whole[HEADER_LEN..]).expect("UTF-8");
            let doc = Json::parse(text).expect("parses");
            for case in 0..300 {
                let len = rng.index(160);
                let payload: Vec<u8> = match case % 2 {
                    0 => (0..len).map(|_| rng.u64() as u8).collect(),
                    _ => (0..len)
                        .map(|_| json_bytes[rng.index(json_bytes.len())])
                        .collect(),
                };
                // Raw bytes; a valid frame around them; a valid magic and
                // checksum around a forged length.
                let bytes = match case % 3 {
                    0 => payload,
                    kind => {
                        let framed = match kind {
                            1 => len as u32,
                            _ => [
                                len as u32 + 1,
                                len.saturating_sub(1) as u32,
                                rng.u64() as u32,
                            ][rng.index(3)],
                        };
                        let mut frame = MAGIC.to_vec();
                        frame.extend_from_slice(&framed.to_le_bytes());
                        frame.extend_from_slice(&crc64(&payload).to_le_bytes());
                        frame.extend_from_slice(&payload);
                        frame
                    }
                };
                std::fs::write(&path, &bytes).expect("write");
                same_verdict(&cache, key);
            }
            for case in 0..mutated {
                let mut mutated = doc.clone();
                if let Json::Obj(ms) = &mut mutated {
                    for (k, x) in ms.iter_mut() {
                        if k == member {
                            mutate(x, case % 6, &mut rng);
                        }
                    }
                }
                write_entry(&path, mutated.to_compact().as_bytes()).expect("write");
                hits += usize::from(same_verdict(&cache, key));
            }
            std::fs::write(&path, &whole).expect("restore");
            assert!(loads(&cell_key) && loads(&corun_key));
        }
        // Some mutations keep an entry decodable (a string renamed, a
        // per-rank list emptied): the oracle compares hits as well as
        // misses.
        assert!(hits > 0 && hits < 2 * mutated, "{hits} hits");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_entries_load_or_miss_without_panicking() {
        hostile_entries(600);
    }

    /// About 20,000 mutated entries; run at `--release` with `--ignored`.
    #[test]
    #[ignore]
    fn deep_hostile_entries_decode_like_the_reference() {
        hostile_entries(10_000);
    }

    /// The framed bytes and the file names of both entry kinds, pinned by
    /// digest: caches written by earlier builds of the same engine must
    /// keep loading as hits, and the strict-order reader must stay in step
    /// with the writer. The key holds [`ENGINE_FINGERPRINT`], so a bump
    /// moves both pins.
    #[test]
    fn entry_format_is_pinned() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let (cell_key, corun_key) = (key_for(&cache), corun_key_for(&cache));
        cache.store_cell(&cell_key, &sample_cell());
        cache.store_corun(&corun_key, &sample_group());
        for (key, name, len, digest) in [
            (
                &cell_key,
                "2074eeb88a4e720a1bb0668452ba8304.cell",
                1773,
                "f83425b79c04704e687dfeaaf19c5d24",
            ),
            (
                &corun_key,
                "f2b3c29427077d66b02f93e5b4053187.corun",
                3430,
                "fe302d56f8b8e20cc1dd5f0f8b99a371",
            ),
        ] {
            let path = key.path_in(cache.dir());
            assert_eq!(path.file_name().and_then(|n| n.to_str()), Some(name));
            let bytes = std::fs::read(&path).expect("stored");
            let hex = Fnv128::new().update(&bytes).finish_hex();
            assert_eq!((bytes.len(), hex.as_str()), (len, digest), "{name}");
        }
        assert!(same_verdict(&cache, &cell_key) && same_verdict(&cache, &corun_key));
        std::fs::remove_dir_all(&dir).ok();
    }
}
