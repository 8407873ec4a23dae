//! Target data objects and their registry.
//!
//! A *target data object* is an array the programmer registered with
//! `unimem_malloc` (paper Table 2). The runtime decides placement per
//! object — or, when large-object partitioning (§3.2) applies, per *chunk*
//! of an object. [`UnitId`] names a placement unit (object + chunk index);
//! an unpartitioned object is a single chunk. [`UnitSet`] and [`UnitMap`]
//! are the dense per-rank tables over units: object ids are small and
//! dense, and no object has more than [`MAX_CHUNKS`] chunks.

use std::fmt;
use unimem_sim::{Bytes, VDur};

/// Most chunks one object may be split into. A [`UnitSet`] keeps one
/// `u64` word per object, one bit per chunk, so the cap is the word's
/// width; [`ObjectRegistry::set_chunks`] enforces it.
pub const MAX_CHUNKS: u16 = u64::BITS as u16;

/// Identifier of a registered data object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A placement unit: one chunk of one object. Unpartitioned objects have a
/// single chunk with index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId {
    pub obj: ObjId,
    pub chunk: u16,
}

impl UnitId {
    pub fn whole(obj: ObjId) -> UnitId {
        UnitId { obj, chunk: 0 }
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.chunk == 0 {
            write!(f, "{}", self.obj)
        } else {
            write!(f, "{}#{}", self.obj, self.chunk)
        }
    }
}

/// What one compute phase did to one unit: the ground truth the sampler
/// observes, and what the journal's `Observe` record carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    pub unit: UnitId,
    /// True LLC misses to the unit in the phase.
    pub misses: u64,
    /// Bytes those misses moved.
    pub miss_bytes: Bytes,
    /// Time the phase spent with this unit's memory traffic in flight.
    pub mem_time: VDur,
}

/// Panic unless `u` fits the one-word-per-object layout. Callers build
/// units from a registry whose chunk counts [`ObjectRegistry::set_chunks`]
/// capped, so a unit past the cap is a broken invariant.
fn check_cap(u: UnitId) {
    assert!(
        u.chunk < MAX_CHUNKS,
        "unit {u}: chunk index past the {MAX_CHUNKS}-chunk cap"
    );
}

/// Chunk bit of `chunk` in an object's word; zero past the cap, so a
/// lookup of such a chunk finds nothing.
fn chunk_bit(chunk: u16) -> u64 {
    1u64.checked_shl(u32::from(chunk)).unwrap_or(0)
}

/// The units whose bits `words` sets, word `o` holding object `o`'s
/// chunks, in [`UnitId`] order.
fn units_of_words(words: impl Iterator<Item = u64>) -> impl Iterator<Item = UnitId> {
    words.enumerate().flat_map(|(o, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let chunk = w.trailing_zeros() as u16;
                w &= w - 1;
                UnitId {
                    obj: ObjId(o as u32),
                    chunk,
                }
            })
        })
    })
}

/// A set of placement units: one `u64` word per object, bit `chunk` set
/// for each member unit. Iterates in [`UnitId`] order (object, then
/// chunk). The words never end in a zero word, so two sets with the same
/// members are `==` however they were built.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct UnitSet {
    words: Vec<u64>,
}

impl UnitSet {
    pub fn new() -> UnitSet {
        UnitSet::default()
    }

    /// Add `u`; true when it was not already a member. Panics when `u`'s
    /// chunk is at or past [`MAX_CHUNKS`].
    pub fn insert(&mut self, u: UnitId) -> bool {
        check_cap(u);
        let o = u.obj.0 as usize;
        if o >= self.words.len() {
            self.words.resize(o + 1, 0);
        }
        let bit = chunk_bit(u.chunk);
        let fresh = self.words[o] & bit == 0;
        self.words[o] |= bit;
        fresh
    }

    /// Drop `u`; true when it was a member.
    pub fn remove(&mut self, u: UnitId) -> bool {
        let bit = chunk_bit(u.chunk);
        match self.words.get_mut(u.obj.0 as usize) {
            Some(w) if *w & bit != 0 => *w &= !bit,
            _ => return false,
        }
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        true
    }

    pub fn contains(&self, u: UnitId) -> bool {
        self.words
            .get(u.obj.0 as usize)
            .is_some_and(|w| w & chunk_bit(u.chunk) != 0)
    }

    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The members in [`UnitId`] order.
    pub fn iter(&self) -> impl Iterator<Item = UnitId> + '_ {
        units_of_words(self.words.iter().copied())
    }

    /// The members of `self` that `other` lacks, in [`UnitId`] order.
    pub fn difference<'a>(&'a self, other: &'a UnitSet) -> impl Iterator<Item = UnitId> + 'a {
        units_of_words(
            self.words
                .iter()
                .enumerate()
                .map(|(o, w)| w & !other.words.get(o).copied().unwrap_or(0)),
        )
    }
}

impl fmt::Debug for UnitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<UnitId> for UnitSet {
    fn extend<I: IntoIterator<Item = UnitId>>(&mut self, units: I) {
        for u in units {
            self.insert(u);
        }
    }
}

impl FromIterator<UnitId> for UnitSet {
    fn from_iter<I: IntoIterator<Item = UnitId>>(units: I) -> UnitSet {
        let mut set = UnitSet::new();
        set.extend(units);
        set
    }
}

impl<const N: usize> From<[UnitId; N]> for UnitSet {
    fn from(units: [UnitId; N]) -> UnitSet {
        units.into_iter().collect()
    }
}

/// A map keyed by placement unit: one row per object, one slot per chunk.
/// Iterates in [`UnitId`] order (object, then chunk).
pub struct UnitMap<V> {
    rows: Vec<Vec<Option<V>>>,
}

impl<V> Default for UnitMap<V> {
    fn default() -> UnitMap<V> {
        UnitMap { rows: Vec::new() }
    }
}

impl<V> UnitMap<V> {
    pub fn new() -> UnitMap<V> {
        UnitMap::default()
    }

    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    pub fn get(&self, u: UnitId) -> Option<&V> {
        self.rows
            .get(u.obj.0 as usize)?
            .get(usize::from(u.chunk))?
            .as_ref()
    }

    /// The slot of `u`, grown into existence. Panics when `u`'s chunk is
    /// at or past [`MAX_CHUNKS`].
    fn slot(&mut self, u: UnitId) -> &mut Option<V> {
        check_cap(u);
        let (o, c) = (u.obj.0 as usize, usize::from(u.chunk));
        if o >= self.rows.len() {
            self.rows.resize_with(o + 1, Vec::new);
        }
        let row = &mut self.rows[o];
        if c >= row.len() {
            row.resize_with(c + 1, || None);
        }
        &mut row[c]
    }

    /// Map `u` to `v`; the value it replaced, if any. Panics when `u`'s
    /// chunk is at or past [`MAX_CHUNKS`].
    pub fn insert(&mut self, u: UnitId, v: V) -> Option<V> {
        self.slot(u).replace(v)
    }

    /// The value of `u`, inserting `default` first when `u` is absent.
    pub fn get_or_insert(&mut self, u: UnitId, default: V) -> &mut V {
        self.slot(u).get_or_insert(default)
    }

    pub fn remove(&mut self, u: UnitId) -> Option<V> {
        self.rows
            .get_mut(u.obj.0 as usize)?
            .get_mut(usize::from(u.chunk))?
            .take()
    }

    /// Empty the map, keeping its rows for reuse.
    pub fn clear(&mut self) {
        self.rows.iter_mut().flatten().for_each(|slot| *slot = None);
    }

    /// The entries in [`UnitId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (UnitId, &V)> + '_ {
        self.rows.iter().enumerate().flat_map(|(o, row)| {
            row.iter().enumerate().filter_map(move |(c, slot)| {
                let u = UnitId {
                    obj: ObjId(o as u32),
                    chunk: c as u16,
                };
                slot.as_ref().map(|v| (u, v))
            })
        })
    }

    /// The values in [`UnitId`] order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.rows.iter_mut().flatten().flatten()
    }
}

impl<V: fmt::Debug> fmt::Debug for UnitMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One registered target data object.
///
/// The object's name is not stored here: the owning [`ObjectRegistry`]
/// keeps it, so ask the registry via [`ObjectRegistry::name_of`].
#[derive(Debug, Clone)]
pub struct DataObject {
    pub id: ObjId,
    /// Modeled size (the size the placement problem sees).
    pub size: Bytes,
    /// True for 1-D arrays with regular references — the only case the
    /// paper's conservative partitioner handles (§3.2).
    pub partitionable: bool,
    /// True when memory aliases created outside the main loop prevent
    /// pointer fix-up after chunk migration (the MG situation in §5).
    pub aliased: bool,
    /// Compiler-estimated number of memory references per iteration
    /// (the symbolic formula of §3.2, already evaluated); drives initial
    /// data placement. Zero when the estimate is unavailable at startup.
    pub est_refs: f64,
    /// Current number of chunks (≥ 1). Set by the runtime's partitioner.
    pub chunks: u16,
}

impl DataObject {
    /// Size of chunk `idx`. Chunks split evenly; the last absorbs remainder.
    pub fn chunk_size(&self, idx: u16) -> Bytes {
        assert!(idx < self.chunks, "chunk {idx} of {}", self.chunks);
        let n = u64::from(self.chunks);
        let base = self.size.get() / n;
        if u64::from(idx) == n - 1 {
            Bytes(self.size.get() - base * (n - 1))
        } else {
            Bytes(base)
        }
    }

    /// All placement units of this object.
    pub fn units(&self) -> impl Iterator<Item = UnitId> + '_ {
        (0..self.chunks).map(move |c| UnitId {
            obj: self.id,
            chunk: c,
        })
    }
}

/// Builder-style description used at registration time.
#[derive(Debug, Clone)]
pub struct ObjectSpec {
    pub name: String,
    pub size: Bytes,
    pub partitionable: bool,
    pub aliased: bool,
    pub est_refs: f64,
}

impl ObjectSpec {
    pub fn new(name: impl Into<String>, size: Bytes) -> ObjectSpec {
        ObjectSpec {
            name: name.into(),
            size,
            partitionable: false,
            aliased: false,
            est_refs: 0.0,
        }
    }

    pub fn partitionable(mut self, yes: bool) -> ObjectSpec {
        self.partitionable = yes;
        self
    }

    pub fn aliased(mut self, yes: bool) -> ObjectSpec {
        self.aliased = yes;
        self
    }

    pub fn est_refs(mut self, refs: f64) -> ObjectSpec {
        self.est_refs = refs;
        self
    }
}

/// Registry of all target data objects of one rank.
///
/// `names[i]` is the name of `ObjId(i)`. A rank registers about ten
/// objects once per run, so name lookup is a linear scan.
#[derive(Debug, Default, Clone)]
pub struct ObjectRegistry {
    objects: Vec<DataObject>,
    names: Vec<String>,
}

impl ObjectRegistry {
    pub fn new() -> ObjectRegistry {
        ObjectRegistry::default()
    }

    /// Register a new object. Panics on invalid specs — see
    /// [`ObjectRegistry::try_register`] for the fallible form; workload
    /// definitions are code, so a bad spec is a bug, not a data error.
    pub fn register(&mut self, spec: ObjectSpec) -> ObjId {
        self.try_register(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Register a new object, rejecting invalid specs with an error:
    /// duplicate names (they identify objects in workload descriptors and
    /// harness output) and non-finite `est_refs` (a NaN estimate would
    /// poison every placement comparison downstream).
    pub fn try_register(&mut self, spec: ObjectSpec) -> Result<ObjId, String> {
        if self.lookup(&spec.name).is_some() {
            return Err(format!("duplicate data object name: {}", spec.name));
        }
        if !spec.est_refs.is_finite() {
            return Err(format!(
                "object {}: est_refs must be finite, got {}",
                spec.name, spec.est_refs
            ));
        }
        let id = ObjId(self.objects.len() as u32);
        self.names.push(spec.name);
        self.objects.push(DataObject {
            id,
            size: spec.size,
            partitionable: spec.partitionable,
            aliased: spec.aliased,
            est_refs: spec.est_refs,
            chunks: 1,
        });
        Ok(id)
    }

    pub fn get(&self, id: ObjId) -> &DataObject {
        &self.objects[id.0 as usize]
    }

    /// The name `id` was registered under.
    pub fn name_of(&self, id: ObjId) -> &str {
        &self.names[id.0 as usize]
    }

    pub fn lookup(&self, name: &str) -> Option<ObjId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| ObjId(i as u32))
    }

    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &DataObject> {
        self.objects.iter()
    }

    /// Split `id` into `chunks` pieces (partitioner). Panics unless
    /// `chunks` is within `1..=MAX_CHUNKS`, and if the object was
    /// declared non-partitionable or aliased.
    pub fn set_chunks(&mut self, id: ObjId, chunks: u16) {
        assert!(
            (1..=MAX_CHUNKS).contains(&chunks),
            "{chunks} chunks: an object has 1 to {MAX_CHUNKS}"
        );
        let o = &self.objects[id.0 as usize];
        assert!(
            chunks == 1 || (o.partitionable && !o.aliased),
            "object {} cannot be partitioned",
            self.name_of(id)
        );
        self.objects[id.0 as usize].chunks = chunks;
    }

    /// All placement units across all objects.
    pub fn units(&self) -> Vec<UnitId> {
        self.objects.iter().flat_map(|o| o.units()).collect()
    }

    /// True when `u` names a registered object and one of its chunks.
    pub fn has_unit(&self, u: UnitId) -> bool {
        self.objects
            .get(u.obj.0 as usize)
            .is_some_and(|o| u.chunk < o.chunks)
    }

    /// Size of one placement unit.
    pub fn unit_size(&self, u: UnitId) -> Bytes {
        self.get(u.obj).chunk_size(u.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(names: &[(&str, u64)]) -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        for (n, sz) in names {
            r.register(ObjectSpec::new(*n, Bytes(*sz)));
        }
        r
    }

    #[test]
    fn register_and_lookup() {
        let r = reg_with(&[("a", 100), ("b", 200)]);
        let a = r.lookup("a").unwrap();
        assert_eq!(r.get(a).size, Bytes(100));
        assert_eq!(r.lookup("c"), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        let mut r = ObjectRegistry::new();
        r.register(ObjectSpec::new("a", Bytes(1)));
        r.register(ObjectSpec::new("a", Bytes(2)));
    }

    #[test]
    fn try_register_rejects_duplicates_and_non_finite_estimates() {
        let mut r = ObjectRegistry::new();
        assert!(r.try_register(ObjectSpec::new("a", Bytes(1))).is_ok());
        let dup = r.try_register(ObjectSpec::new("a", Bytes(2)));
        assert!(dup.unwrap_err().contains("duplicate"));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = r
                .try_register(ObjectSpec::new("b", Bytes(1)).est_refs(bad))
                .unwrap_err();
            assert!(err.contains("est_refs must be finite"), "{err}");
        }
        // The rejected spec must not have consumed the name or an id.
        assert!(r
            .try_register(ObjectSpec::new("b", Bytes(1)).est_refs(7.0))
            .is_ok());
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "est_refs must be finite")]
    fn register_panics_on_nan_estimate() {
        let mut r = ObjectRegistry::new();
        r.register(ObjectSpec::new("x", Bytes(1)).est_refs(f64::NAN));
    }

    #[test]
    fn chunk_sizes_cover_object() {
        let mut r = ObjectRegistry::new();
        let id = r.register(ObjectSpec::new("big", Bytes(1003)).partitionable(true));
        r.set_chunks(id, 4);
        let o = r.get(id);
        let total: u64 = (0..4).map(|i| o.chunk_size(i).get()).sum();
        assert_eq!(total, 1003);
        assert_eq!(o.chunk_size(0), Bytes(250));
        assert_eq!(o.chunk_size(3), Bytes(253));
    }

    #[test]
    #[should_panic(expected = "cannot be partitioned")]
    fn non_partitionable_rejects_chunks() {
        let mut r = ObjectRegistry::new();
        let id = r.register(ObjectSpec::new("x", Bytes(100)));
        r.set_chunks(id, 2);
    }

    #[test]
    #[should_panic(expected = "cannot be partitioned")]
    fn aliased_rejects_chunks() {
        let mut r = ObjectRegistry::new();
        let id = r.register(
            ObjectSpec::new("mg_u", Bytes(100))
                .partitionable(true)
                .aliased(true),
        );
        r.set_chunks(id, 2);
    }

    #[test]
    fn units_enumerate_chunks() {
        let mut r = ObjectRegistry::new();
        let big = r.register(ObjectSpec::new("big", Bytes(100)).partitionable(true));
        r.set_chunks(big, 3);
        let s = r.register(ObjectSpec::new("s", Bytes(10)));
        assert_eq!(r.units().len(), 4);
        assert!(r.has_unit(UnitId { obj: big, chunk: 2 }));
        assert!(!r.has_unit(UnitId { obj: big, chunk: 3 }));
        assert!(!r.has_unit(UnitId { obj: s, chunk: 1 }));
        assert!(!r.has_unit(UnitId::whole(ObjId(2))));
    }

    #[test]
    #[should_panic(expected = "an object has 1 to 64")]
    fn chunks_past_the_cap_are_rejected() {
        let mut r = ObjectRegistry::new();
        let id = r.register(ObjectSpec::new("big", Bytes(1 << 20)).partitionable(true));
        r.set_chunks(id, MAX_CHUNKS + 1);
    }

    #[test]
    #[should_panic(expected = "an object has 1 to 64")]
    fn zero_chunks_are_rejected() {
        let mut r = ObjectRegistry::new();
        let id = r.register(ObjectSpec::new("x", Bytes(100)));
        r.set_chunks(id, 0);
    }

    #[test]
    #[should_panic(expected = "chunk index past the 64-chunk cap")]
    fn inserting_past_the_cap_panics() {
        UnitSet::new().insert(UnitId {
            obj: ObjId(0),
            chunk: MAX_CHUNKS,
        });
    }
}
