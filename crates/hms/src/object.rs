//! Target data objects and their registry.
//!
//! A *target data object* is an array the programmer registered with
//! `unimem_malloc` (paper Table 2). The runtime decides placement per
//! object — or, when large-object partitioning (§3.2) applies, per *chunk*
//! of an object. [`UnitId`] names a placement unit (object + chunk index);
//! an unpartitioned object is a single chunk.

use std::fmt;
use unimem_sim::Bytes;

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

    /// Split `id` into `chunks` pieces (partitioner). Panics if the object
    /// was declared non-partitionable or aliased.
    pub fn set_chunks(&mut self, id: ObjId, chunks: u16) {
        assert!(chunks >= 1);
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

    /// Size of one placement unit.
    pub fn unit_size(&self, u: UnitId) -> Bytes {
        self.get(u.obj).chunk_size(u.chunk)
    }

    /// Total modeled footprint.
    pub fn total_size(&self) -> Bytes {
        self.objects.iter().map(|o| o.size).sum()
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
        assert_eq!(r.total_size(), Bytes(300));
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
        r.register(ObjectSpec::new("s", Bytes(10)));
        assert_eq!(r.units().len(), 4);
    }
}
