//! Run-wide shared calibration memo — the intra-run half of the sweep's
//! incremental-reuse layer.
//!
//! Eq. 1's offline calibration (`unimem_perf::calibrate`) is a pure
//! deterministic function of the machine share it probes, the cache
//! model, the sampler configuration, and the seed — nothing else. PR 8
//! already deduplicated it *within* one job (once per distinct node
//! class × occupancy pair); this module lifts that into a process-wide
//! memo, so a sweep running hundreds of cells over the same handful of
//! NVM profiles calibrates each distinct platform **once per process**
//! instead of once per cell.
//!
//! Correctness rests on purity: because the result is a pure function of
//! the key, memoization cannot change any run's numbers — the
//! byte-identity property tests cover this transitively. The memo key is
//! *bit-exact* ([`f64::to_bits`] of every parameter the calibration
//! reads), so two machines that differ in the last ulp memoize
//! separately rather than sharing a almost-right result.
//!
//! One mutex guards one map: a full matrix makes about 385 lookups, too
//! few for the lock to be contended enough to matter. The computation
//! itself runs outside the lock; two workers racing on the same cold key
//! may both compute (identical) results and one insert wins — a benign
//! duplicate beats serializing every worker behind the slowest
//! calibration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};
use unimem_cache::CacheModel;
use unimem_hms::MachineConfig;
use unimem_perf::{calibrate, Calibration, SamplerConfig};

static MEMO: LazyLock<Mutex<HashMap<[u64; 15], Calibration>>> = LazyLock::new(Default::default);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// The bit-exact memo key: the raw bits of every parameter
/// [`calibrate`](fn@calibrate) reads — ten floats, then five integers.
/// `f64::to_bits` (not `Display`) because the key must distinguish
/// values that print alike: -0.0 vs 0.0, or NaNs with different
/// payloads, would otherwise alias.
fn key(machine: &MachineConfig, cache: &CacheModel, cfg: SamplerConfig, seed: u64) -> [u64; 15] {
    [
        machine.dram.read_lat.0.to_bits(),
        machine.dram.write_lat.0.to_bits(),
        machine.dram.read_bw.0.to_bits(),
        machine.dram.write_bw.0.to_bits(),
        machine.nvm.read_lat.0.to_bits(),
        machine.nvm.write_lat.0.to_bits(),
        machine.nvm.read_bw.0.to_bits(),
        machine.nvm.write_bw.0.to_bits(),
        cfg.cpu_hz.to_bits(),
        cfg.per_window_cost.0.to_bits(),
        cache.size.0,
        cache.line.0,
        cfg.window_cycles,
        cfg.event_period,
        seed,
    ]
}

/// [`calibrate`](fn@calibrate), memoized process-wide. Returns exactly what a direct
/// call would (the function is pure); repeat calls with bit-identical
/// inputs return the memoized copy without re-running the
/// micro-benchmarks.
pub fn calibrate_memoized(
    machine: &MachineConfig,
    cache: &CacheModel,
    cfg: SamplerConfig,
    seed: u64,
) -> Calibration {
    let k = key(machine, cache, cfg, seed);
    if let Some(cal) = MEMO.lock().expect("calibration memo poisoned").get(&k) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return *cal;
    }
    let cal = calibrate(machine, cache, cfg, seed);
    MISSES.fetch_add(1, Ordering::Relaxed);
    MEMO.lock()
        .expect("calibration memo poisoned")
        .insert(k, cal);
    cal
}

/// Lifetime (process-wide) memo counters: `(hits, misses)`. Test and
/// diagnostics surface; the sweep's user-facing hit rate is the on-disk
/// cache's, not this one's.
pub fn memo_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine no other test calibrates: unique last-ulp offsets keep
    /// this test's keys disjoint from the rest of the (parallel) suite,
    /// so the counter deltas below are attributable.
    fn unique_machine(ulp_steps: u64) -> MachineConfig {
        let mut m = MachineConfig::nvm_bw_fraction(0.5);
        m.dram.read_bw.0 = f64::from_bits(m.dram.read_bw.0.to_bits() + ulp_steps);
        m
    }

    #[test]
    fn memoized_result_equals_direct_and_repeats_hit() {
        let m = unique_machine(1);
        let cache = CacheModel::platform_a();
        let cfg = SamplerConfig::default();
        let direct = calibrate(&m, &cache, cfg, 42);
        let first = calibrate_memoized(&m, &cache, cfg, 42);
        assert_eq!(first, direct, "memoization must not change the result");
        let (hits_before, _) = memo_stats();
        let again = calibrate_memoized(&m, &cache, cfg, 42);
        assert_eq!(again, direct);
        let (hits_after, _) = memo_stats();
        assert!(hits_after > hits_before, "second call must hit the memo");
    }

    #[test]
    fn last_ulp_and_seed_changes_miss() {
        let cache = CacheModel::platform_a();
        let cfg = SamplerConfig::default();
        let (_, misses_before) = memo_stats();
        calibrate_memoized(&unique_machine(2), &cache, cfg, 42);
        calibrate_memoized(&unique_machine(3), &cache, cfg, 42);
        calibrate_memoized(&unique_machine(2), &cache, cfg, 43);
        let (_, misses_after) = memo_stats();
        assert!(
            misses_after - misses_before >= 3,
            "ulp-distinct machines and distinct seeds are distinct keys"
        );
    }

    #[test]
    fn key_is_bit_exact_not_display_based() {
        let cache = CacheModel::platform_a();
        let cfg = SamplerConfig::default();
        let mut a = MachineConfig::nvm_bw_fraction(0.5);
        let mut b = MachineConfig::nvm_bw_fraction(0.5);
        a.dram.read_lat.0 = 0.0;
        b.dram.read_lat.0 = -0.0;
        assert_ne!(
            key(&a, &cache, cfg, 1),
            key(&b, &cache, cfg, 1),
            "0.0 and -0.0 print alike but are different bit patterns"
        );
        assert_eq!(key(&a, &cache, cfg, 1), key(&a.clone(), &cache, cfg, 1));
    }
}
