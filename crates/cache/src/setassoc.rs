//! Set-associative LRU cache simulator.
//!
//! Trace-driven reference model used to validate the analytic miss model on
//! miniature workloads (see `trace` and the crate's integration tests). Not
//! used at class scale — a CLASS D run issues ~10¹² references.

use unimem_sim::Bytes;

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `sets[s]` holds up to `assoc` tags, most-recently-used last.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build a cache of `size` bytes with `line`-byte lines and `assoc`-way
    /// sets. `size / (line * assoc)` must be a power of two.
    pub fn new(size: Bytes, line: Bytes, assoc: usize) -> SetAssocCache {
        assert!(assoc >= 1);
        assert!(line.get().is_power_of_two(), "line must be a power of two");
        let n_sets = size.get() / (line.get() * assoc as u64);
        assert!(
            n_sets >= 1 && n_sets.is_power_of_two(),
            "set count must be a power of two, got {n_sets}"
        );
        SetAssocCache {
            sets: vec![Vec::with_capacity(assoc); n_sets as usize],
            assoc,
            line_shift: line.get().trailing_zeros(),
            set_mask: n_sets - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Reference byte address `addr`; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let tag = addr >> self.line_shift;
        let set = &mut self.sets[(tag & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.push(t);
            self.hits += 1;
            true
        } else {
            if set.len() == self.assoc {
                set.remove(0); // evict LRU
            }
            set.push(tag);
            self.misses += 1;
            false
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Forget statistics but keep contents (to measure steady state after a
    /// warm-up pass).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Drop contents and statistics.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 KiB, 64 B lines, 4-way → 16 sets.
        SetAssocCache::new(Bytes::kib(4), Bytes(64), 4)
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SetAssocCache::new(Bytes(256), Bytes(64), 2); // 2 sets, 2-way
                                                                  // Set 0 receives lines 0, 2, 4 (stride 128 → same set).
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(!c.access(256)); // evicts line 0
        assert!(!c.access(0)); // line 0 gone
    }

    #[test]
    fn lru_refreshes_on_hit() {
        let mut c = SetAssocCache::new(Bytes(256), Bytes(64), 2);
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0)); // refresh line 0 → 128 becomes LRU
        assert!(!c.access(256)); // evicts 128
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn working_set_fitting_reaches_zero_steady_state_misses() {
        let mut c = tiny();
        let lines = 4 * 1024 / 64;
        for pass in 0..3 {
            if pass == 1 {
                c.reset_stats();
            }
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        assert_eq!(c.misses(), 0, "warm fully-fitting set should not miss");
    }

    #[test]
    fn streaming_over_capacity_misses_every_line() {
        let mut c = tiny();
        // 64 KiB stream through a 4 KiB cache, twice.
        for _ in 0..2 {
            for i in 0..1024 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.misses(), 2048);
    }

    #[test]
    fn one_set_cache_has_no_conflict_misses() {
        // Stride-128 pattern conflicts in a 2-set cache but fits a fully
        // associative (FA) one: a single set of 256 / 64 = 4 ways.
        let mut sa = SetAssocCache::new(Bytes(256), Bytes(64), 2);
        let mut fa = SetAssocCache::new(Bytes(256), Bytes(64), 4);
        let addrs: Vec<u64> = (0..4).map(|i| i * 128).collect();
        for _ in 0..10 {
            for &a in &addrs {
                sa.access(a);
                fa.access(a);
            }
        }
        assert_eq!(fa.misses(), 4, "FA: compulsory only");
        assert!(sa.misses() > fa.misses());
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.accesses(), 0);
        assert!(!c.access(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(Bytes(3 * 64 * 4), Bytes(64), 4);
    }
}
