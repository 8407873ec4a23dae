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
    use unimem_hms::profiles;
    use unimem_hms::tier::{TierKind, TierParams};
    use unimem_sim::{Bytes, DetRng, VDur};

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

    fn bits(c: Calibration) -> [u64; 3] {
        [
            c.cf_bw.to_bits(),
            c.cf_lat.to_bits(),
            c.bw_peak_sampled.to_bits(),
        ]
    }

    /// The memo returns exactly what a direct calibration computes, on
    /// its first lookup and on a repeat, for the five sweep profiles'
    /// rank shares at occupancies 1–4 (the machines `exec::run`
    /// calibrates), under the default sampler and two drawn ones, at
    /// three drawn seeds each.
    #[test]
    fn memoized_calibration_matches_direct_by_bits() {
        let mut rng = DetRng::seed(0xca11);
        let cache = CacheModel::platform_a();
        let mut cfgs = vec![SamplerConfig::default()];
        for _ in 0..2 {
            cfgs.push(SamplerConfig {
                window_cycles: 250 + rng.index(4_000) as u64,
                cpu_hz: rng.range_f64(1.5e9, 3.5e9),
                event_period: 100 + rng.index(2_000) as u64,
                per_window_cost: VDur::from_nanos(rng.range_f64(0.1, 2.0)),
            });
        }
        let profiles = [
            MachineConfig::nvm_bw_fraction(profiles::ANCHOR_BW_FRACTION),
            MachineConfig::nvm_lat_multiple(profiles::ANCHOR_LAT_MULTIPLE),
            MachineConfig::technology(profiles::table1_stt_ram(), "Table-1 STT-RAM"),
            MachineConfig::technology(profiles::table1_pcram(), "Table-1 PCRAM"),
            MachineConfig::technology(profiles::table1_reram(), "Table-1 ReRAM"),
        ];
        for machine in &profiles {
            for occ in 1..=4 {
                let mut share = machine.clone();
                share.dram = machine.rank_share(TierKind::Dram, occ);
                share.nvm = machine.rank_share(TierKind::Nvm, occ);
                for &cfg in &cfgs {
                    for _ in 0..3 {
                        let seed = rng.u64();
                        let direct = bits(calibrate(&share, &cache, cfg, seed));
                        for call in ["first", "repeat"] {
                            assert_eq!(
                                bits(calibrate_memoized(&share, &cache, cfg, seed)),
                                direct,
                                "{}, occupancy {occ}, {cfg:?}, seed {seed}: {call} lookup",
                                machine.label
                            );
                        }
                    }
                }
            }
        }
    }

    /// Calibration's inputs: the machine share, the cache, the sampler
    /// and the seed.
    type Inputs = (MachineConfig, CacheModel, SamplerConfig, u64);

    /// A move of one input field.
    type Nudge = fn(&mut Inputs);

    fn up(x: &mut f64) {
        *x = x.next_up();
    }

    /// Every input field, moved by one ulp or one unit, either changes
    /// the key or leaves `calibrate`'s result bit-identical, so no two
    /// inputs share a memo entry they would calibrate differently. The
    /// fields calibration never reads must move neither. The input types
    /// are destructured without `..`: a new field fails to compile here
    /// until it has a case.
    #[test]
    fn key_covers_every_field_calibration_reads() {
        let base: Inputs = (
            MachineConfig::nvm_bw_fraction(0.5),
            CacheModel::platform_a(),
            SamplerConfig::default(),
            42,
        );
        let MachineConfig {
            dram,
            nvm,
            dram_capacity: _,
            nvm_capacity: _,
            copy_bw: _,
            ranks_per_node: _,
            helper_contention: _,
            label: _,
        } = &base.0;
        for TierParams {
            read_lat: _,
            write_lat: _,
            read_bw: _,
            write_bw: _,
        } in [dram, nvm]
        {}
        let CacheModel { size: _, line: _ } = base.1;
        let SamplerConfig {
            window_cycles: _,
            cpu_hz: _,
            event_period: _,
            per_window_cost: _,
        } = base.2;
        // (field, whether the key must move, the move)
        let cases: [(&str, bool, Nudge); 21] = [
            ("dram.read_lat", true, |i| up(&mut i.0.dram.read_lat.0)),
            ("dram.write_lat", true, |i| up(&mut i.0.dram.write_lat.0)),
            ("dram.read_bw", true, |i| up(&mut i.0.dram.read_bw.0)),
            ("dram.write_bw", true, |i| up(&mut i.0.dram.write_bw.0)),
            ("nvm.read_lat", true, |i| up(&mut i.0.nvm.read_lat.0)),
            ("nvm.write_lat", true, |i| up(&mut i.0.nvm.write_lat.0)),
            ("nvm.read_bw", true, |i| up(&mut i.0.nvm.read_bw.0)),
            ("nvm.write_bw", true, |i| up(&mut i.0.nvm.write_bw.0)),
            ("dram_capacity", false, |i| i.0.dram_capacity += Bytes(1)),
            ("nvm_capacity", false, |i| i.0.nvm_capacity += Bytes(1)),
            ("copy_bw", false, |i| up(&mut i.0.copy_bw.0)),
            ("ranks_per_node", false, |i| i.0.ranks_per_node += 1),
            ("helper_contention", false, |i| {
                i.0.helper_contention ^= true
            }),
            ("label", false, |i| i.0.label.push('.')),
            ("cache.size", true, |i| i.1.size += Bytes(1)),
            ("cache.line", true, |i| i.1.line += Bytes(1)),
            ("window_cycles", true, |i| i.2.window_cycles += 1),
            ("cpu_hz", true, |i| up(&mut i.2.cpu_hz)),
            ("event_period", true, |i| i.2.event_period += 1),
            ("per_window_cost", true, |i| up(&mut i.2.per_window_cost.0)),
            ("seed", true, |i| i.3 += 1),
        ];
        let (m, c, s, sd) = &base;
        let (base_key, base_cal) = (key(m, c, *s, *sd), bits(calibrate(m, c, *s, *sd)));
        for (field, keyed, nudge) in cases {
            let mut moved = base.clone();
            nudge(&mut moved);
            let (m, c, s, sd) = &moved;
            let key_moved = key(m, c, *s, *sd) != base_key;
            assert_eq!(key_moved, keyed, "{field}: the key moved: {key_moved}");
            if !key_moved {
                assert_eq!(
                    bits(calibrate(m, c, *s, *sd)),
                    base_cal,
                    "{field} moves the calibration but not the key"
                );
            }
        }
    }
}
