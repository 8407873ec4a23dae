//! User-level DRAM space allocator.
//!
//! The paper's DRAM service uses "a simple memory allocator without
//! consideration of memory allocation efficiency and fragmentation, because
//! we expect that data movement should not be frequent" (§3.3). We implement
//! the same thing honestly: a first-fit free list over a byte range, with
//! coalescing on free so long runs stay allocatable. Offsets are virtual —
//! the simulation never backs them with real memory (the [`crate::pools`]
//! module does that for the wall-clock path).

use unimem_sim::Bytes;

/// A granted region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    pub offset: u64,
    pub len: u64,
}

/// First-fit free-list allocator over `[0, capacity)`.
#[derive(Debug, Clone)]
pub struct SpaceAllocator {
    capacity: u64,
    /// Sorted, pairwise-disjoint, coalesced free runs.
    free: Vec<Region>,
    allocated: u64,
}

impl SpaceAllocator {
    pub fn new(capacity: Bytes) -> SpaceAllocator {
        SpaceAllocator {
            capacity: capacity.get(),
            free: if capacity.is_zero() {
                Vec::new()
            } else {
                vec![Region {
                    offset: 0,
                    len: capacity.get(),
                }]
            },
            allocated: 0,
        }
    }

    pub fn capacity(&self) -> Bytes {
        Bytes(self.capacity)
    }

    pub fn allocated(&self) -> Bytes {
        Bytes(self.allocated)
    }

    pub fn available(&self) -> Bytes {
        Bytes(self.capacity - self.allocated)
    }

    /// Largest single free run (what the largest admissible object is).
    pub fn largest_free_run(&self) -> Bytes {
        Bytes(self.free.iter().map(|r| r.len).max().unwrap_or(0))
    }

    /// First-fit allocation. Zero-length requests are rejected.
    pub fn alloc(&mut self, size: Bytes) -> Option<Region> {
        let need = size.get();
        if need == 0 {
            return None;
        }
        let idx = self.free.iter().position(|r| r.len >= need)?;
        let run = self.free[idx];
        let granted = Region {
            offset: run.offset,
            len: need,
        };
        if run.len == need {
            self.free.remove(idx);
        } else {
            self.free[idx] = Region {
                offset: run.offset + need,
                len: run.len - need,
            };
        }
        self.allocated += need;
        Some(granted)
    }

    /// Return a region. Panics on double free or out-of-range (both are
    /// runtime bugs, not recoverable conditions).
    pub fn free(&mut self, region: Region) {
        assert!(region.len > 0, "freeing empty region");
        assert!(
            region.offset + region.len <= self.capacity,
            "free out of range"
        );
        // Find insertion point keeping `free` sorted by offset.
        let pos = self.free.partition_point(|r| r.offset < region.offset);
        // Overlap checks against neighbours = double-free detection.
        if pos > 0 {
            let prev = self.free[pos - 1];
            assert!(
                prev.offset + prev.len <= region.offset,
                "double free / overlap with previous free run"
            );
        }
        if pos < self.free.len() {
            let next = self.free[pos];
            assert!(
                region.offset + region.len <= next.offset,
                "double free / overlap with next free run"
            );
        }
        self.free.insert(pos, region);
        self.allocated -= region.len;
        self.coalesce_around(pos);
    }

    fn coalesce_around(&mut self, pos: usize) {
        // Merge with next first so `pos` stays valid.
        if pos + 1 < self.free.len() {
            let (a, b) = (self.free[pos], self.free[pos + 1]);
            if a.offset + a.len == b.offset {
                self.free[pos] = Region {
                    offset: a.offset,
                    len: a.len + b.len,
                };
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (a, b) = (self.free[pos - 1], self.free[pos]);
            if a.offset + a.len == b.offset {
                self.free[pos - 1] = Region {
                    offset: a.offset,
                    len: a.len + b.len,
                };
                self.free.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocator_is_one_run() {
        let a = SpaceAllocator::new(Bytes(1000));
        assert_eq!(a.available(), Bytes(1000));
        assert_eq!(a.largest_free_run(), Bytes(1000));
    }

    #[test]
    fn alloc_free_roundtrip_restores_state() {
        let mut a = SpaceAllocator::new(Bytes(1000));
        let r = a.alloc(Bytes(300)).unwrap();
        assert_eq!(a.allocated(), Bytes(300));
        a.free(r);
        assert_eq!(a.allocated(), Bytes(0));
        assert_eq!(a.largest_free_run(), Bytes(1000));
    }

    #[test]
    fn first_fit_order() {
        let mut a = SpaceAllocator::new(Bytes(100));
        let r1 = a.alloc(Bytes(40)).unwrap();
        let _r2 = a.alloc(Bytes(40)).unwrap();
        a.free(r1);
        // First fit places a 30-byte request in the hole at offset 0.
        let r3 = a.alloc(Bytes(30)).unwrap();
        assert_eq!(r3.offset, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = SpaceAllocator::new(Bytes(100));
        assert!(a.alloc(Bytes(100)).is_some());
        assert!(a.alloc(Bytes(1)).is_none());
    }

    #[test]
    fn fragmentation_blocks_large_alloc_but_coalescing_heals() {
        let mut a = SpaceAllocator::new(Bytes(100));
        let r1 = a.alloc(Bytes(25)).unwrap();
        let r2 = a.alloc(Bytes(25)).unwrap();
        let r3 = a.alloc(Bytes(25)).unwrap();
        let _r4 = a.alloc(Bytes(25)).unwrap();
        a.free(r1);
        a.free(r3);
        // 50 bytes free but split 25+25.
        assert_eq!(a.available(), Bytes(50));
        assert!(a.alloc(Bytes(50)).is_none());
        a.free(r2);
        // Now 75 contiguous at the front (r4 still allocated at the back).
        assert_eq!(a.largest_free_run(), Bytes(75));
        assert!(a.alloc(Bytes(75)).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = SpaceAllocator::new(Bytes(100));
        let r = a.alloc(Bytes(10)).unwrap();
        a.free(r);
        a.free(r);
    }

    #[test]
    fn zero_sized_alloc_rejected() {
        let mut a = SpaceAllocator::new(Bytes(100));
        assert!(a.alloc(Bytes(0)).is_none());
    }

    #[test]
    fn zero_capacity_allocator() {
        let mut a = SpaceAllocator::new(Bytes(0));
        assert!(a.alloc(Bytes(1)).is_none());
        assert_eq!(a.largest_free_run(), Bytes(0));
    }
}
