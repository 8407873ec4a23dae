//! Offline calibration of the performance-model constant factors.
//!
//! The paper (§3.1.2) measures, once per platform:
//!
//! * `CF_bw` — ratio between STREAM's measured time and the time predicted
//!   from sampled counts as `#data_access × cacheline / DRAM_bw`;
//! * `CF_lat` — same for a single-threaded pointer-chasing benchmark with
//!   predicted time `#data_access × DRAM_lat`;
//! * `BW_peak` — NVM peak bandwidth *as seen through Eq. 1 and the
//!   counters* (so classification thresholds compare like with like).
//!
//! Both factors absorb the event-sampling undercount (≈ the capture
//! period) plus whatever the lightweight model ignores (overlap, prefetch,
//! eviction traffic).

use crate::eq1::eq1_bandwidth;
use crate::sampler::{Sampler, SamplerConfig};
use unimem_cache::{AccessPattern, CacheModel, ObjAccess};
use unimem_hms::object::{GroundTruth, ObjId, UnitId};
use unimem_hms::tier::{AccessMix, TierParams};
use unimem_sim::Bytes;

/// Platform constants produced by offline calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Eq. 2 constant factor (bandwidth model).
    pub cf_bw: f64,
    /// Eq. 3 constant factor (latency model).
    pub cf_lat: f64,
    /// Peak NVM bandwidth in sampled units (bytes/s), for Eq. 1 thresholds.
    pub bw_peak_sampled: f64,
}

/// STREAM working set: far larger than any LLC, as the benchmark requires.
const STREAM_BYTES: u64 = 192 * (1 << 20);
/// Pointer-chase working set (pChase defaults to tens of MiB).
const PCHASE_BYTES: u64 = 64 * (1 << 20);

fn stream_descriptor() -> ObjAccess {
    // Triad: a[i] = b[i] + s·c[i] over three arrays, modeled as one object
    // (the calibration only needs aggregate counts): 8-byte elements,
    // 1/3 writes.
    ObjAccess::new(
        ObjId(0),
        STREAM_BYTES / 8,
        Bytes(STREAM_BYTES),
        AccessPattern::Streaming { stride: Bytes(8) },
    )
    .with_mix(AccessMix::new(2.0 / 3.0))
}

fn pchase_descriptor() -> ObjAccess {
    ObjAccess::new(
        ObjId(0),
        PCHASE_BYTES / 8,
        Bytes(PCHASE_BYTES),
        AccessPattern::PointerChase,
    )
    .with_mix(AccessMix::READ_ONLY)
}

/// Run one calibration micro-benchmark on `tier`, returning
/// (measured time, recorded accesses, windows_hit, windows).
fn run_micro(
    tier: &TierParams,
    cache: &CacheModel,
    sampler: &mut Sampler,
    acc: &ObjAccess,
) -> (unimem_sim::VDur, u64, u64, u64) {
    let est = cache.misses(acc, acc.touched);
    let mem_time = tier.access_time(est.misses, est.miss_bytes, acc.pattern.mlp(), acc.mix);
    // The micro-benchmarks are pure memory loops: phase time = memory time.
    let profile = sampler.sample_phase(
        mem_time,
        &[GroundTruth {
            unit: UnitId::whole(acc.obj),
            misses: est.misses,
            miss_bytes: est.miss_bytes,
            mem_time,
        }],
    );
    let s = &profile.samples[0];
    (mem_time, s.recorded, s.windows_hit, profile.windows)
}

/// Perform the offline calibration for a platform's two tiers: `dram`
/// and `nvm` are the tier parameters the sampled phases will see (a
/// rank's share of its node, under multi-rank nodes).
pub fn calibrate(
    dram: &TierParams,
    nvm: &TierParams,
    cache: &CacheModel,
    cfg: SamplerConfig,
    seed: u64,
) -> Calibration {
    let mut sampler = Sampler::new(cfg, seed ^ 0xca11_b8a7e);

    // CF_bw: STREAM on DRAM.
    let stream = stream_descriptor();
    let (measured, recorded, _, _) = run_micro(dram, cache, &mut sampler, &stream);
    let predicted = Bytes(recorded * 64) / dram.bandwidth(stream.mix);
    let cf_bw = if predicted.is_zero() {
        1.0
    } else {
        measured.secs() / predicted.secs()
    };

    // CF_lat: pointer chase on DRAM (single thread, no concurrency).
    let chase = pchase_descriptor();
    let (measured_l, recorded_l, _, _) = run_micro(dram, cache, &mut sampler, &chase);
    let predicted_l = dram.latency(chase.mix) * recorded_l as f64;
    let cf_lat = if predicted_l.is_zero() {
        1.0
    } else {
        measured_l.secs() / predicted_l.secs()
    };

    // BW_peak: STREAM on NVM, evaluated through Eq. 1.
    let (t_nvm, rec_nvm, hit_nvm, win_nvm) = run_micro(nvm, cache, &mut sampler, &stream);
    let bw_peak_sampled = eq1_bandwidth(rec_nvm, hit_nvm, win_nvm, t_nvm);

    Calibration {
        cf_bw,
        cf_lat,
        bw_peak_sampled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::profiles::MachineConfig;

    fn setup() -> (MachineConfig, CacheModel) {
        (
            MachineConfig::nvm_bw_fraction(0.5),
            CacheModel::platform_a(),
        )
    }

    #[test]
    fn cf_factors_absorb_sampling_period() {
        let (m, c) = setup();
        let cal = calibrate(&m.dram, &m.nvm, &c, SamplerConfig::default(), 42);
        // Event period 1000 → counts undercount ×1000 → CF ≈ 1000 up to
        // model error (mix blending, MLP) within a factor of a few.
        assert!(
            cal.cf_bw > 200.0 && cal.cf_bw < 5000.0,
            "cf_bw={}",
            cal.cf_bw
        );
        assert!(
            cal.cf_lat > 200.0 && cal.cf_lat < 5000.0,
            "cf_lat={}",
            cal.cf_lat
        );
    }

    #[test]
    fn bw_peak_is_sampled_scale() {
        let (m, c) = setup();
        let cal = calibrate(&m.dram, &m.nvm, &c, SamplerConfig::default(), 42);
        let physical_nvm_bw = m.nvm.read_bw.bytes_per_s();
        // Sampled peak ≈ physical / event_period (harmonic-mix corrections
        // aside): strictly below physical, well above physical/10^5.
        assert!(cal.bw_peak_sampled < physical_nvm_bw);
        assert!(cal.bw_peak_sampled > physical_nvm_bw / 100_000.0);
    }

    #[test]
    fn calibration_is_deterministic() {
        let (m, c) = setup();
        let a = calibrate(&m.dram, &m.nvm, &c, SamplerConfig::default(), 7);
        let b = calibrate(&m.dram, &m.nvm, &c, SamplerConfig::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn latency_config_shifts_peak_little_bw_config_halves_it() {
        let c = CacheModel::platform_a();
        let peak = |fraction| {
            let m = MachineConfig::nvm_bw_fraction(fraction);
            calibrate(&m.dram, &m.nvm, &c, SamplerConfig::default(), 9).bw_peak_sampled
        };
        let ratio = peak(0.5) / peak(1.0);
        assert!((ratio - 0.5).abs() < 0.05, "ratio={ratio}");
    }
}
