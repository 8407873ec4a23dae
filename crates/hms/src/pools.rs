//! Real two-pool backing store and a real helper thread.
//!
//! The virtual-time engine in [`crate::migration`] models *when* copies
//! happen; this module implements the actual mechanics the paper describes —
//! two accounted memory pools, objects whose storage can be swapped between
//! them while application pointers stay valid, and a helper thread consuming
//! a FIFO queue of migration requests — with real memory and real threads.
//! The `quickstart` example and this module's tests use this path, so the
//! concurrency machinery is exercised with real threads, not just
//! simulated.
//!
//! Pointer fix-up: the paper updates the application's pointer after a move.
//! In Rust the equivalent is a handle ([`RealObject`]) holding the storage
//! behind an `RwLock`; readers/writers see whichever pool's buffer is
//! current, and migration atomically swaps the buffer under the write lock.

use crate::tier::TierKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use unimem_sim::Bytes;

/// Accounting for the two pools. DRAM is capacity-limited; NVM unbounded
/// (16–32 GB in the paper — effectively never the binding constraint).
#[derive(Debug)]
pub struct PoolAccounts {
    dram_capacity: u64,
    dram_used: AtomicU64,
    nvm_used: AtomicU64,
}

impl PoolAccounts {
    pub fn new(dram_capacity: Bytes) -> PoolAccounts {
        PoolAccounts {
            dram_capacity: dram_capacity.get(),
            dram_used: AtomicU64::new(0),
            nvm_used: AtomicU64::new(0),
        }
    }

    pub fn dram_used(&self) -> Bytes {
        Bytes(self.dram_used.load(Ordering::Acquire))
    }

    pub fn nvm_used(&self) -> Bytes {
        Bytes(self.nvm_used.load(Ordering::Acquire))
    }

    pub fn dram_capacity(&self) -> Bytes {
        Bytes(self.dram_capacity)
    }

    /// Try to account `len` bytes in `tier`; DRAM may refuse.
    fn charge(&self, tier: TierKind, len: u64) -> bool {
        match tier {
            TierKind::Dram => {
                let mut cur = self.dram_used.load(Ordering::Acquire);
                loop {
                    if cur + len > self.dram_capacity {
                        return false;
                    }
                    match self.dram_used.compare_exchange_weak(
                        cur,
                        cur + len,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return true,
                        Err(actual) => cur = actual,
                    }
                }
            }
            TierKind::Nvm => {
                self.nvm_used.fetch_add(len, Ordering::AcqRel);
                true
            }
        }
    }

    fn refund(&self, tier: TierKind, len: u64) {
        let ctr = match tier {
            TierKind::Dram => &self.dram_used,
            TierKind::Nvm => &self.nvm_used,
        };
        let prev = ctr.fetch_sub(len, Ordering::AcqRel);
        debug_assert!(prev >= len, "pool accounting underflow");
    }
}

/// A real data object: named storage residing in one pool at a time.
#[derive(Debug)]
pub struct RealObject {
    pub name: String,
    storage: RwLock<Vec<u8>>,
    tier: Mutex<TierKind>,
    accounts: Arc<PoolAccounts>,
}

impl RealObject {
    pub fn len(&self) -> usize {
        self.storage.read().expect("object storage poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn tier(&self) -> TierKind {
        *self.tier.lock().expect("object tier poisoned")
    }

    /// Read access to the bytes.
    pub fn with_read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.storage.read().expect("object storage poisoned"))
    }

    /// Write access to the bytes.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.storage.write().expect("object storage poisoned"))
    }

    /// Synchronous migration: accounts space in the destination pool,
    /// copies, then releases the source accounting. Returns false when the
    /// destination (DRAM) has no room — the object stays where it is.
    pub fn migrate_sync(&self, to: TierKind) -> bool {
        let mut tier = self.tier.lock().expect("object tier poisoned");
        if *tier == to {
            return true;
        }
        let len = self.storage.read().expect("object storage poisoned").len() as u64;
        if !self.accounts.charge(to, len) {
            return false;
        }
        {
            // The "copy": allocate in the destination pool and move bytes.
            // Both pools are host RAM here; what matters for the machinery
            // is the accounting transfer and the pointer swap under lock.
            let mut guard = self.storage.write().expect("object storage poisoned");
            let mut fresh = Vec::with_capacity(guard.len());
            fresh.extend_from_slice(&guard);
            *guard = fresh;
        }
        self.accounts.refund(*tier, len);
        *tier = to;
        true
    }
}

impl Drop for RealObject {
    fn drop(&mut self) {
        // Drop must not panic: both reads are valid even after a panic
        // elsewhere poisoned the locks.
        let len = self
            .storage
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as u64;
        let tier = *self.tier.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.accounts.refund(tier, len);
    }
}

/// Completion ticket for an asynchronous migration.
#[derive(Debug, Clone)]
pub struct Ticket {
    state: Arc<(Mutex<Option<bool>>, Condvar)>,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            state: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    fn complete(&self, ok: bool) {
        let (lock, cv) = &*self.state;
        *lock.lock().expect("ticket poisoned") = Some(ok);
        cv.notify_all();
    }

    /// Block until the migration finished; returns whether it succeeded.
    pub fn wait(&self) -> bool {
        let (lock, cv) = &*self.state;
        let st = cv
            .wait_while(lock.lock().expect("ticket poisoned"), |st| st.is_none())
            .expect("ticket poisoned");
        st.expect("wait_while returns once the ticket is set")
    }
}

enum Request {
    Migrate {
        obj: Arc<RealObject>,
        to: TierKind,
        ticket: Ticket,
    },
    Shutdown,
}

/// The real helper thread with its FIFO queue.
pub struct HelperThread {
    tx: Sender<Request>,
    handle: Option<JoinHandle<()>>,
}

impl HelperThread {
    pub fn spawn() -> HelperThread {
        let (tx, rx) = mpsc::channel::<Request>();
        let handle = std::thread::Builder::new()
            .name("unimem-helper".into())
            .spawn(move || {
                // Until `Shutdown` or a closed queue.
                while let Ok(Request::Migrate { obj, to, ticket }) = rx.recv() {
                    ticket.complete(obj.migrate_sync(to));
                }
            })
            .expect("spawn helper thread");
        HelperThread {
            tx,
            handle: Some(handle),
        }
    }

    /// Put a data-movement request on the queue; returns immediately.
    pub fn migrate(&self, obj: Arc<RealObject>, to: TierKind) -> Ticket {
        let ticket = Ticket::new();
        self.tx
            .send(Request::Migrate {
                obj,
                to,
                ticket: ticket.clone(),
            })
            .expect("helper thread alive");
        ticket
    }
}

impl Drop for HelperThread {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The real HMS: pool accounts plus object construction.
#[derive(Debug, Clone)]
pub struct RealHms {
    accounts: Arc<PoolAccounts>,
}

impl RealHms {
    pub fn new(dram_capacity: Bytes) -> RealHms {
        RealHms {
            accounts: Arc::new(PoolAccounts::new(dram_capacity)),
        }
    }

    pub fn accounts(&self) -> &PoolAccounts {
        &self.accounts
    }

    /// Allocate a zero-initialized object in `tier`. Fails (None) when DRAM
    /// has no room, mirroring the DRAM service's non-blocking refusal.
    pub fn alloc(&self, name: &str, len: Bytes, tier: TierKind) -> Option<Arc<RealObject>> {
        if !self.accounts.charge(tier, len.get()) {
            return None;
        }
        Some(Arc::new(RealObject {
            name: name.to_string(),
            storage: RwLock::new(vec![0u8; len.get() as usize]),
            tier: Mutex::new(tier),
            accounts: Arc::clone(&self.accounts),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_accounts_space() {
        let hms = RealHms::new(Bytes(1000));
        let _a = hms.alloc("a", Bytes(400), TierKind::Dram).unwrap();
        assert_eq!(hms.accounts().dram_used(), Bytes(400));
        assert!(hms.alloc("b", Bytes(700), TierKind::Dram).is_none());
        let _c = hms.alloc("c", Bytes(700), TierKind::Nvm).unwrap();
        assert_eq!(hms.accounts().nvm_used(), Bytes(700));
    }

    #[test]
    fn drop_refunds_space() {
        let hms = RealHms::new(Bytes(1000));
        {
            let _a = hms.alloc("a", Bytes(400), TierKind::Dram).unwrap();
            assert_eq!(hms.accounts().dram_used(), Bytes(400));
        }
        assert_eq!(hms.accounts().dram_used(), Bytes(0));
    }

    #[test]
    fn sync_migration_moves_accounting_and_preserves_data() {
        let hms = RealHms::new(Bytes(1000));
        let a = hms.alloc("a", Bytes(100), TierKind::Nvm).unwrap();
        a.with_write(|b| b.iter_mut().enumerate().for_each(|(i, x)| *x = i as u8));
        assert!(a.migrate_sync(TierKind::Dram));
        assert_eq!(a.tier(), TierKind::Dram);
        assert_eq!(hms.accounts().dram_used(), Bytes(100));
        assert_eq!(hms.accounts().nvm_used(), Bytes(0));
        a.with_read(|b| assert!(b.iter().enumerate().all(|(i, &x)| x == i as u8)));
    }

    #[test]
    fn migration_to_full_dram_fails_gracefully() {
        let hms = RealHms::new(Bytes(100));
        let _big = hms.alloc("big", Bytes(90), TierKind::Dram).unwrap();
        let a = hms.alloc("a", Bytes(50), TierKind::Nvm).unwrap();
        assert!(!a.migrate_sync(TierKind::Dram));
        assert_eq!(a.tier(), TierKind::Nvm);
    }

    #[test]
    fn migrate_to_same_tier_is_noop_success() {
        let hms = RealHms::new(Bytes(100));
        let a = hms.alloc("a", Bytes(10), TierKind::Nvm).unwrap();
        assert!(a.migrate_sync(TierKind::Nvm));
    }

    #[test]
    fn helper_thread_processes_fifo() {
        let hms = RealHms::new(Bytes::mib(16));
        let helper = HelperThread::spawn();
        let objs: Vec<_> = (0..8)
            .map(|i| {
                hms.alloc(&format!("o{i}"), Bytes::kib(64), TierKind::Nvm)
                    .unwrap()
            })
            .collect();
        let tickets: Vec<_> = objs
            .iter()
            .map(|o| helper.migrate(Arc::clone(o), TierKind::Dram))
            .collect();
        for t in &tickets {
            assert!(t.wait());
        }
        for o in &objs {
            assert_eq!(o.tier(), TierKind::Dram);
        }
    }

    #[test]
    fn readers_see_consistent_data_during_migration() {
        let hms = RealHms::new(Bytes::mib(8));
        let helper = HelperThread::spawn();
        let o = hms.alloc("o", Bytes::mib(4), TierKind::Nvm).unwrap();
        o.with_write(|b| b.fill(0xAB));
        let reader = {
            let o = Arc::clone(&o);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    o.with_read(|b| {
                        assert!(b.iter().all(|&x| x == 0xAB));
                    });
                }
            })
        };
        let t = helper.migrate(Arc::clone(&o), TierKind::Dram);
        assert!(t.wait());
        reader.join().unwrap();
    }

    #[test]
    fn concurrent_dram_charging_never_overcommits() {
        let accounts = Arc::new(PoolAccounts::new(Bytes(1000)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    (0..100).filter(|_| a.charge(TierKind::Dram, 3)).count() as u64
                })
            })
            .collect();
        let granted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(granted * 3 <= 1000);
        assert_eq!(accounts.dram_used().get(), granted * 3);
    }
}
