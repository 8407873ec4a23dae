//! The programmer-facing API of Table 2, over real memory.
//!
//! | API | Functionality |
//! |---|---|
//! | `unimem_init` | initialize counters, timers, helper thread |
//! | `unimem_start` | identify the beginning of the main computation loop |
//! | `unimem_end` | identify the end of the main computation loop |
//! | `unimem_malloc` | identify and allocate target data objects |
//! | `unimem_free` | free target data objects |
//!
//! This is the *real-memory* embodiment the `quickstart` example runs:
//! objects live in the two accounted pools of `unimem_hms`, migration
//! goes through the real helper thread and its FIFO queue, and pointer
//! fix-up is the handle swap under the object's lock. Hardware miss
//! sampling is not available to a plain user-space process, so this mode
//! counts accesses in software (the workload reports touches); the full
//! sampling→model→knapsack pipeline is exercised by the simulation driver
//! in [`crate::exec`].

use crate::knapsack::{self, Item};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use unimem_hms::pools::{HelperThread, RealHms, RealObject, Ticket};
use unimem_hms::tier::TierKind;
use unimem_sim::Bytes;

/// Real-mode Unimem runtime handle (Table 2's API).
///
/// # Example — the five calls end to end
///
/// ```
/// use unimem::Unimem;
/// use unimem_sim::Bytes;
///
/// let rt = Unimem::init(Bytes::mib(1));        // unimem_init
/// let field = rt.malloc("field", Bytes::kib(64)); // unimem_malloc (starts in NVM)
/// rt.start();                                  // unimem_start
/// rt.record_access("field", 1_000_000);        // hot: >1 touch per byte
/// rt.end_iteration();                          // decide + enqueue moves
/// let (migrations, dram_used) = rt.end();      // unimem_end (quiesces)
/// assert_eq!(migrations, 1, "the hot object moved to DRAM");
/// assert_eq!(dram_used, Bytes::kib(64));
/// assert_eq!(field.tier(), unimem_hms::TierKind::Dram);
/// rt.free("field");                            // unimem_free
/// ```
pub struct Unimem {
    hms: RealHms,
    helper: HelperThread,
    objects: Mutex<HashMap<String, Arc<RealObject>>>,
    touches: Mutex<HashMap<String, u64>>,
    pending: Mutex<Vec<Ticket>>,
    migrations: Mutex<u64>,
}

impl Unimem {
    /// `unimem_init`: set up pools, counters and the helper thread.
    pub fn init(dram_capacity: Bytes) -> Unimem {
        Unimem {
            hms: RealHms::new(dram_capacity),
            helper: HelperThread::spawn(),
            objects: Mutex::new(HashMap::new()),
            touches: Mutex::new(HashMap::new()),
            pending: Mutex::new(Vec::new()),
            migrations: Mutex::new(0),
        }
    }

    /// `unimem_malloc`: register and allocate a target data object. All
    /// objects start in NVM (the paper's default initial placement).
    pub fn malloc(&self, name: &str, len: Bytes) -> Arc<RealObject> {
        let obj = self
            .hms
            .alloc(name, len, TierKind::Nvm)
            .expect("NVM pool is unbounded");
        self.objects().insert(name.to_string(), Arc::clone(&obj));
        self.touches().insert(name.to_string(), 0);
        obj
    }

    /// `unimem_free`: drop a target data object.
    pub fn free(&self, name: &str) {
        self.objects().remove(name);
        self.touches().remove(name);
    }

    /// `unimem_start`: the main computation loop begins. Real mode keeps
    /// no loop state: placement is decided at [`Unimem::end_iteration`],
    /// so this is Table 2's marker and nothing more.
    pub fn start(&self) {}

    /// Software access accounting (stands in for the hardware counters the
    /// simulation path models; see module docs).
    pub fn record_access(&self, name: &str, count: u64) {
        if let Some(t) = self.touches().get_mut(name) {
            *t += count;
        }
    }

    /// End of one loop iteration: after the first iteration, decide the
    /// placement with the runtime's 0-1 knapsack ([`knapsack::solve`]) —
    /// touches as weights, object lengths as sizes, the free DRAM as
    /// capacity — and enqueue the moves on the helper thread (proactive,
    /// overlapping the next iteration's work). Objects already in DRAM
    /// stay, and so does anything under one touch per byte, where the
    /// movement cannot pay off.
    pub fn end_iteration(&self) {
        let objects = self.objects();
        let touches = self.touches();
        // Name order, so equal weights break ties the same way every run.
        let mut candidates: Vec<(&String, &Arc<RealObject>, u64)> = touches
            .iter()
            .filter_map(|(n, &t)| {
                let obj = objects.get(n)?;
                let dense = t as f64 >= obj.len().max(1) as f64;
                (dense && obj.tier() != TierKind::Dram).then_some((n, obj, t))
            })
            .collect();
        candidates.sort_unstable_by_key(|&(n, _, _)| n);
        let items: Vec<Item> = candidates
            .iter()
            .map(|&(_, obj, t)| Item {
                weight: t as f64,
                size: Bytes(obj.len() as u64),
            })
            .collect();
        let accounts = self.hms.accounts();
        let free = accounts.dram_capacity() - accounts.dram_used();
        let (chosen, _) = knapsack::solve(&items, free);

        let mut pending = self.pending.lock().expect("pending tickets poisoned");
        for i in chosen {
            let obj = candidates[i].1;
            pending.push(self.helper.migrate(Arc::clone(obj), TierKind::Dram));
            *self.migrations.lock().expect("migration count poisoned") += 1;
        }
    }

    /// Block until all enqueued migrations finished (the per-phase queue
    /// check of §3.3, collapsed to one call in real mode).
    pub fn quiesce(&self) -> usize {
        let mut pending = self.pending.lock().expect("pending tickets poisoned");
        let n = pending.len();
        for t in pending.drain(..) {
            t.wait();
        }
        n
    }

    /// `unimem_end`: the loop finished; returns (migrations, DRAM bytes).
    pub fn end(&self) -> (u64, Bytes) {
        self.quiesce();
        (
            *self.migrations.lock().expect("migration count poisoned"),
            self.hms.accounts().dram_used(),
        )
    }

    pub fn dram_used(&self) -> Bytes {
        self.hms.accounts().dram_used()
    }

    pub fn tier_of(&self, name: &str) -> Option<TierKind> {
        self.objects().get(name).map(|o| o.tier())
    }

    fn objects(&self) -> MutexGuard<'_, HashMap<String, Arc<RealObject>>> {
        self.objects.lock().expect("object table poisoned")
    }

    fn touches(&self) -> MutexGuard<'_, HashMap<String, u64>> {
        self.touches.lock().expect("touch counts poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_starts_in_nvm() {
        let rt = Unimem::init(Bytes::mib(1));
        let a = rt.malloc("a", Bytes::kib(64));
        assert_eq!(a.tier(), TierKind::Nvm);
        assert_eq!(rt.tier_of("a"), Some(TierKind::Nvm));
    }

    #[test]
    fn hottest_object_moves_to_dram() {
        let rt = Unimem::init(Bytes::kib(128));
        let _a = rt.malloc("hot", Bytes::kib(64));
        let _b = rt.malloc("cold", Bytes::kib(64));
        let _c = rt.malloc("big", Bytes::kib(128));
        rt.start();
        rt.record_access("hot", 1_000_000);
        rt.record_access("cold", 10);
        rt.record_access("big", 500_000); // dense too, but hot fills first
        rt.end_iteration();
        rt.quiesce();
        assert_eq!(rt.tier_of("hot"), Some(TierKind::Dram));
        assert_eq!(rt.tier_of("cold"), Some(TierKind::Nvm));
        // hot (64K) leaves 64K free: big (128K) cannot fit.
        assert_eq!(rt.tier_of("big"), Some(TierKind::Nvm));
    }

    #[test]
    fn capacity_respected_across_iterations() {
        let rt = Unimem::init(Bytes::kib(100));
        for i in 0..5 {
            let name = format!("o{i}");
            rt.malloc(&name, Bytes::kib(40));
            // Density above 1 touch/byte, decreasing with i.
            rt.record_access(&name, 10 * 40 * 1024 - i);
        }
        rt.start();
        rt.end_iteration();
        let (migs, used) = rt.end();
        assert_eq!(migs, 2, "two 40K objects fit in 100K");
        assert_eq!(used, Bytes::kib(80));
    }

    #[test]
    fn untouched_objects_stay_put() {
        let rt = Unimem::init(Bytes::mib(1));
        rt.malloc("idle", Bytes::kib(4));
        rt.start();
        rt.end_iteration();
        let (migs, _) = rt.end();
        assert_eq!(migs, 0);
    }

    #[test]
    fn free_removes_object() {
        let rt = Unimem::init(Bytes::mib(1));
        rt.malloc("a", Bytes::kib(4));
        rt.free("a");
        assert_eq!(rt.tier_of("a"), None);
    }

    #[test]
    fn data_survives_migration() {
        let rt = Unimem::init(Bytes::mib(1));
        let a = rt.malloc("a", Bytes::kib(16));
        a.with_write(|b| {
            b.iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = (i % 251) as u8)
        });
        rt.record_access("a", 100_000);
        rt.start();
        rt.end_iteration();
        rt.quiesce();
        assert_eq!(a.tier(), TierKind::Dram);
        a.with_read(|b| {
            assert!(b.iter().enumerate().all(|(i, &x)| x == (i % 251) as u8));
        });
    }
}
