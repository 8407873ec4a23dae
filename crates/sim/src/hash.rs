//! Deterministic content hashing: FNV-1a, 64- and 128-bit, and the
//! digest convention content-addressed storage shares.
//!
//! Two properties matter and are what the unit tests pin:
//!
//! * **Determinism across hosts and runs** — a digest is a pure function
//!   of the input bytes: no per-process seed (unlike
//!   `std::collections::hash_map::RandomState`), no host endianness
//!   dependence, no allocation. The sweep's content-addressed cell cache
//!   (`unimem_bench::sweep::cache`) derives on-disk file names from these
//!   digests, and the redo journal (`unimem_hms::journal`) checks every
//!   frame with [`Fnv64`], so a digest that varied per process would
//!   orphan every cached entry and fail every journal.
//! * **Reference-exact constants** — offset basis and prime are the
//!   published FNV parameters, so digests can be checked against any
//!   independent FNV-1a implementation (the `known_vectors` test does).
//!
//! The convention: **hash the canonical compact JSON form**. The cell
//! cache names its entries by [`json_digest_hex`] of a
//! canonically-constructed [`Json`] document (it hashes the compact text
//! it already holds, which gives the same digest), so two processes — or
//! two runs months apart — that describe the same cell configuration
//! land on the same file. The [`Json`] type already guarantees the canonical
//! part: objects keep insertion order, floats render in shortest
//! round-trip form, and nothing consults locale or host state. Hashing
//! that text (rather than an ad-hoc field concatenation) means the key
//! derivation is readable in one place and unambiguous — adding a field
//! to the key document changes every digest, which is exactly the
//! invalidation semantics a content-addressed cache wants.
//!
//! FNV-1a is *not* cryptographic: collisions can be constructed.
//! Consumers that cannot tolerate a constructed collision must store the
//! canonical text next to the payload and compare it on load (the sweep
//! cache does); the hash only names the file.

use crate::json::Json;

/// FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime (2^88 + 2^8 + 0x3b).
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 64-bit FNV-1a hasher.
///
/// ```
/// use unimem_sim::Fnv64;
/// let h = Fnv64::new().update(b"hello ").update(b"world").finish();
/// assert_eq!(h, Fnv64::new().update(b"hello world").finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    /// Fold `bytes` into the state, returning the hasher for chaining.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Fnv64 {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
        self
    }

    /// The digest of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Incremental 128-bit FNV-1a hasher — the content-addressing digest.
/// 128 bits keep accidental collisions out of reach for any realistic
/// cache population (birthday bound ~2^64 entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv128(u128);

impl Fnv128 {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }

    /// Fold `bytes` into the state, returning the hasher for chaining.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Fnv128 {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
        self
    }

    /// The digest of everything folded in so far.
    pub fn finish(self) -> u128 {
        self.0
    }

    /// The digest as 32 lower-case hex characters — the cache's on-disk
    /// file-name form (fixed width, no separators, shell-safe).
    pub fn finish_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

/// 128-bit FNV-1a digest of the value's compact JSON form, as 32
/// lower-case hex characters — fixed-width, separator-free, safe as a
/// file name on every platform the workspace targets.
pub fn json_digest_hex(value: &Json) -> String {
    Fnv128::new()
        .update(value.to_compact().as_bytes())
        .finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv64(bytes: &[u8]) -> u64 {
        Fnv64::new().update(bytes).finish()
    }

    fn fnv128(bytes: &[u8]) -> u128 {
        Fnv128::new().update(bytes).finish()
    }

    /// Published FNV-1a test vectors (from the FNV reference material):
    /// digests must match any independent implementation byte for byte.
    #[test]
    fn known_vectors() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv128(b""), FNV128_OFFSET);
        // 128-bit single-byte fold, computable by hand:
        // (basis ^ 'a') * prime mod 2^128.
        assert_eq!(
            fnv128(b"a"),
            (FNV128_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV128_PRIME)
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let parts = Fnv64::new().update(b"un").update(b"im").update(b"em");
        assert_eq!(parts.finish(), fnv64(b"unimem"));
        let parts = Fnv128::new().update(b"sweep").update(b"-cache");
        assert_eq!(parts.finish(), fnv128(b"sweep-cache"));
    }

    #[test]
    fn hex_form_is_fixed_width() {
        let h = Fnv128::new().update(b"x").finish_hex();
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
        // Deterministic: same input, same name, every process.
        assert_eq!(h, Fnv128::new().update(b"x").finish_hex());
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Not a collision-resistance claim, just a sanity probe over the
        // kinds of near-miss keys the cache produces.
        let keys = [
            "schema=v5|salt=|CG|unimem|bw-half|r4x1",
            "schema=v5|salt=|CG|unimem|bw-half|r4x2",
            "schema=v5|salt=|CG|unimem|lat-4x|r4x1",
            "schema=v5|salt=s|CG|unimem|bw-half|r4x1",
        ];
        let mut seen = std::collections::BTreeSet::new();
        for k in keys {
            assert!(seen.insert(fnv128(k.as_bytes())), "collision on {k}");
        }
    }

    fn key(salt: &str) -> Json {
        let mut o = Json::obj();
        o.push("schema", "unimem-bench-sweep/v5")
            .push("salt", salt)
            .push("workload", "CG")
            .push("nranks", 4u64);
        o
    }

    #[test]
    fn digest_is_deterministic_and_fixed_width() {
        let a = json_digest_hex(&key(""));
        assert_eq!(a, json_digest_hex(&key("")));
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn any_field_change_changes_the_digest() {
        let base = json_digest_hex(&key(""));
        assert_ne!(base, json_digest_hex(&key("s")), "salt must invalidate");
        let mut reordered = Json::obj();
        reordered
            .push("salt", "")
            .push("schema", "unimem-bench-sweep/v5")
            .push("workload", "CG")
            .push("nranks", 4u64);
        // Member order is part of the canonical form on purpose: keys are
        // constructed by one function, never merged from maps.
        assert_ne!(base, json_digest_hex(&reordered));
    }

    #[test]
    fn digest_matches_hashing_the_compact_text() {
        let k = key("x");
        assert_eq!(
            json_digest_hex(&k),
            Fnv128::new().update(k.to_compact().as_bytes()).finish_hex()
        );
    }
}
