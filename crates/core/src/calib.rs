//! Process-wide calibration memo — the intra-run half of the sweep's
//! incremental-reuse layer.
//!
//! Eq. 1's offline calibration (`unimem_perf::calibrate`) is a pure
//! deterministic function of the two tiers it probes, the cache model,
//! the sampler configuration, and the seed — nothing else. Each Unimem
//! rank asks this memo for the calibration of its own share of its node
//! (`policy::unimem::init_rank`), so a sweep running hundreds of cells
//! over the same handful of NVM profiles calibrates each distinct rank
//! share **once per process** instead of once per rank or per cell. The
//! memo key is the one definition of "same platform": ranks whose shares
//! agree bit for bit share an entry, whichever node or run they are in.
//!
//! Correctness rests on purity: because the result is a pure function of
//! the key, memoization cannot change any run's numbers — the
//! byte-identity property tests cover this transitively. The memo key is
//! *bit-exact* ([`f64::to_bits`] of every parameter the calibration
//! reads), so two machines that differ in the last ulp memoize
//! separately rather than sharing a almost-right result.
//!
//! One mutex guards one map, taken once per Unimem rank at set-up and
//! never while a rank runs. The computation itself runs outside the
//! lock; two workers racing on the same cold key may both compute
//! (identical) results and one insert wins — a benign duplicate beats
//! serializing every worker behind the slowest calibration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};
use unimem_cache::CacheModel;
use unimem_hms::tier::TierParams;
use unimem_perf::{calibrate, Calibration, SamplerConfig};

static MEMO: LazyLock<Mutex<HashMap<[u64; 15], Calibration>>> = LazyLock::new(Default::default);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// The bit-exact memo key: the raw bits of every parameter
/// [`calibrate`](fn@calibrate) reads — ten floats, then five integers.
/// `f64::to_bits` (not `Display`) because the key must distinguish
/// values that print alike: -0.0 vs 0.0, or NaNs with different
/// payloads, would otherwise alias.
fn key(
    dram: &TierParams,
    nvm: &TierParams,
    cache: &CacheModel,
    cfg: SamplerConfig,
    seed: u64,
) -> [u64; 15] {
    [
        dram.read_lat.0.to_bits(),
        dram.write_lat.0.to_bits(),
        dram.read_bw.0.to_bits(),
        dram.write_bw.0.to_bits(),
        nvm.read_lat.0.to_bits(),
        nvm.write_lat.0.to_bits(),
        nvm.read_bw.0.to_bits(),
        nvm.write_bw.0.to_bits(),
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
    dram: &TierParams,
    nvm: &TierParams,
    cache: &CacheModel,
    cfg: SamplerConfig,
    seed: u64,
) -> Calibration {
    let k = key(dram, nvm, cache, cfg, seed);
    if let Some(cal) = MEMO.lock().expect("calibration memo poisoned").get(&k) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return *cal;
    }
    let cal = calibrate(dram, nvm, cache, cfg, seed);
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

/// Whether the memo holds these inputs' calibration. It reads no
/// counter: the parallel test suite moves those from every thread.
#[cfg(test)]
pub(crate) fn memo_holds(
    dram: &TierParams,
    nvm: &TierParams,
    cache: &CacheModel,
    cfg: SamplerConfig,
    seed: u64,
) -> bool {
    MEMO.lock()
        .expect("calibration memo poisoned")
        .contains_key(&key(dram, nvm, cache, cfg, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::profiles::{self, MachineConfig};
    use unimem_hms::tier::TierKind;
    use unimem_sim::{Bytes, DetRng, VDur};

    /// A DRAM tier no other test calibrates: unique last-ulp offsets keep
    /// this test's keys disjoint from the rest of the (parallel) suite,
    /// so the counter deltas below are attributable.
    fn unique_tiers(ulp_steps: u64) -> (TierParams, TierParams) {
        let mut m = MachineConfig::nvm_bw_fraction(0.5);
        m.dram.read_bw.0 = f64::from_bits(m.dram.read_bw.0.to_bits() + ulp_steps);
        (m.dram, m.nvm)
    }

    #[test]
    fn memoized_result_equals_direct_and_repeats_hit() {
        let (dram, nvm) = unique_tiers(1);
        let cache = CacheModel::platform_a();
        let cfg = SamplerConfig::default();
        let direct = calibrate(&dram, &nvm, &cache, cfg, 42);
        let first = calibrate_memoized(&dram, &nvm, &cache, cfg, 42);
        assert_eq!(first, direct, "memoization must not change the result");
        let (hits_before, _) = memo_stats();
        let again = calibrate_memoized(&dram, &nvm, &cache, cfg, 42);
        assert_eq!(again, direct);
        let (hits_after, _) = memo_stats();
        assert!(hits_after > hits_before, "second call must hit the memo");
    }

    #[test]
    fn last_ulp_and_seed_changes_miss() {
        let cache = CacheModel::platform_a();
        let cfg = SamplerConfig::default();
        let (_, misses_before) = memo_stats();
        for (ulps, seed) in [(2, 42), (3, 42), (2, 43)] {
            let (dram, nvm) = unique_tiers(ulps);
            calibrate_memoized(&dram, &nvm, &cache, cfg, seed);
        }
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
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let (mut a, mut b) = (m.dram, m.dram);
        a.read_lat.0 = 0.0;
        b.read_lat.0 = -0.0;
        assert_ne!(
            key(&a, &m.nvm, &cache, cfg, 1),
            key(&b, &m.nvm, &cache, cfg, 1),
            "0.0 and -0.0 print alike but are different bit patterns"
        );
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
    /// rank shares at occupancies 1–4 (what Unimem ranks calibrate),
    /// under the default sampler and two drawn ones, at three drawn
    /// seeds each.
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
                let dram = machine.rank_share(TierKind::Dram, occ);
                let nvm = machine.rank_share(TierKind::Nvm, occ);
                for &cfg in &cfgs {
                    for _ in 0..3 {
                        let seed = rng.u64();
                        let direct = bits(calibrate(&dram, &nvm, &cache, cfg, seed));
                        for call in ["first", "repeat"] {
                            assert_eq!(
                                bits(calibrate_memoized(&dram, &nvm, &cache, cfg, seed)),
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

    /// Calibration's inputs: the two tiers, the cache, the sampler and
    /// the seed.
    type Inputs = (TierParams, TierParams, CacheModel, SamplerConfig, u64);

    /// A move of one input field.
    type Nudge = fn(&mut Inputs);

    fn up(x: &mut f64) {
        *x = x.next_up();
    }

    /// Every input field, moved by one ulp or one unit, changes the key,
    /// so no two inputs share a memo entry they might calibrate
    /// differently. The input types are destructured without `..`: a new
    /// field fails to compile here until it has a case.
    #[test]
    fn key_covers_every_field_calibration_reads() {
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let base: Inputs = (
            m.dram,
            m.nvm,
            CacheModel::platform_a(),
            SamplerConfig::default(),
            42,
        );
        for TierParams {
            read_lat: _,
            write_lat: _,
            read_bw: _,
            write_bw: _,
        } in [base.0, base.1]
        {}
        let CacheModel { size: _, line: _ } = base.2;
        let SamplerConfig {
            window_cycles: _,
            cpu_hz: _,
            event_period: _,
            per_window_cost: _,
        } = base.3;
        let cases: [(&str, Nudge); 15] = [
            ("dram.read_lat", |i| up(&mut i.0.read_lat.0)),
            ("dram.write_lat", |i| up(&mut i.0.write_lat.0)),
            ("dram.read_bw", |i| up(&mut i.0.read_bw.0)),
            ("dram.write_bw", |i| up(&mut i.0.write_bw.0)),
            ("nvm.read_lat", |i| up(&mut i.1.read_lat.0)),
            ("nvm.write_lat", |i| up(&mut i.1.write_lat.0)),
            ("nvm.read_bw", |i| up(&mut i.1.read_bw.0)),
            ("nvm.write_bw", |i| up(&mut i.1.write_bw.0)),
            ("cache.size", |i| i.2.size += Bytes(1)),
            ("cache.line", |i| i.2.line += Bytes(1)),
            ("window_cycles", |i| i.3.window_cycles += 1),
            ("cpu_hz", |i| up(&mut i.3.cpu_hz)),
            ("event_period", |i| i.3.event_period += 1),
            ("per_window_cost", |i| up(&mut i.3.per_window_cost.0)),
            ("seed", |i| i.4 += 1),
        ];
        let key_of = |(d, n, c, s, sd): &Inputs| key(d, n, c, *s, *sd);
        for (field, nudge) in cases {
            let mut moved = base;
            nudge(&mut moved);
            assert_ne!(
                key_of(&moved),
                key_of(&base),
                "{field} does not move the key"
            );
        }
    }
}
