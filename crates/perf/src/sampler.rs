//! The simulated sampling performance counter.
//!
//! Two sampling mechanisms coexist, as on real PMUs:
//!
//! * **event-based address capture**: every `event_period`-th LLC miss
//!   records its address. Mapping addresses to objects gives the per-object
//!   *recorded access count* — the paper's `#data_access`. Captured counts
//!   systematically underestimate true misses by roughly the period; the
//!   paper's constant factors absorb that scale.
//! * **time-based windows**: a sample fires every `window_cycles` CPU
//!   cycles (the paper uses 1000). A window "has data accesses" to an
//!   object when the object's memory traffic is in flight at that instant,
//!   which happens with probability equal to the object's memory duty
//!   cycle. The ratio `windows_hit / windows` is Eq. 1's
//!   `#samples_with_data_accesses / #samples`.
//!
//! Both are thinned with deterministic binomial noise so repeated profiling
//! of identical phases shows realistic (but reproducible) jitter.

use unimem_hms::object::{GroundTruth, UnitId};
use unimem_sim::{DetRng, VDur};

/// Sampler configuration (defaults match the paper's §4 setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Time-based sampling interval in CPU cycles (paper: 1000).
    pub window_cycles: u64,
    /// CPU frequency (both paper platforms: 2.4 GHz).
    pub cpu_hz: f64,
    /// Event-based address-capture period: one address per this many LLC
    /// misses.
    pub event_period: u64,
    /// Cost charged per time window while profiling is active (PMU read +
    /// buffer drain, amortized). Keeps "pure runtime cost" honest.
    pub per_window_cost: VDur,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            window_cycles: 1000,
            cpu_hz: 2.4e9,
            event_period: 1000,
            per_window_cost: VDur::from_nanos(0.5),
        }
    }
}

/// What the counters reported for one object in one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjSample {
    pub unit: UnitId,
    /// Sampled access count (`#data_access`): addresses captured in this
    /// object. True miss count ≈ `recorded × event_period`.
    pub recorded: u64,
    /// Time windows that observed traffic to this object.
    pub windows_hit: u64,
}

/// Profile of one phase execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Total time-based windows in the phase (`#samples`).
    pub windows: u64,
    /// Phase execution time the profile covers.
    pub time: VDur,
    pub samples: Vec<ObjSample>,
    /// Profiling overhead to charge the runtime.
    pub overhead: VDur,
}

impl PhaseProfile {
    /// Sampled accesses for `unit`, zero if unseen.
    pub fn recorded(&self, unit: UnitId) -> u64 {
        self.samples
            .iter()
            .find(|s| s.unit == unit)
            .map_or(0, |s| s.recorded)
    }
}

/// The simulated PMU.
#[derive(Debug, Clone)]
pub struct Sampler {
    pub cfg: SamplerConfig,
    rng: DetRng,
}

impl Sampler {
    pub fn new(cfg: SamplerConfig, seed: u64) -> Sampler {
        Sampler {
            cfg,
            rng: DetRng::derive(seed, "pebs-sampler"),
        }
    }

    /// Number of time windows in a span.
    pub fn windows_in(&self, time: VDur) -> u64 {
        (time.secs() * self.cfg.cpu_hz / self.cfg.window_cycles as f64) as u64
    }

    /// Observe one phase execution.
    pub fn sample_phase(&mut self, time: VDur, truth: &[GroundTruth]) -> PhaseProfile {
        let windows = self.windows_in(time);
        let p_capture = 1.0 / self.cfg.event_period as f64;
        let samples = truth
            .iter()
            .filter(|t| t.misses > 0)
            .map(|t| {
                let recorded = self.rng.binomial(t.misses, p_capture);
                let duty = (t.mem_time.secs() / time.secs().max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
                let windows_hit = self.rng.binomial(windows, duty);
                ObjSample {
                    unit: t.unit,
                    recorded,
                    windows_hit,
                }
            })
            .filter(|s| s.recorded > 0 || s.windows_hit > 0)
            .collect();
        PhaseProfile {
            windows,
            time,
            samples,
            overhead: self.cfg.per_window_cost * windows as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_hms::object::ObjId;
    use unimem_sim::Bytes;

    fn unit(n: u32) -> UnitId {
        UnitId::whole(ObjId(n))
    }

    fn truth(n: u32, misses: u64, mem_frac: f64, time: VDur) -> GroundTruth {
        GroundTruth {
            unit: unit(n),
            misses,
            miss_bytes: Bytes(misses * 64),
            mem_time: time * mem_frac,
        }
    }

    #[test]
    fn window_count_matches_paper_example() {
        // Paper §3.1.2: 10 s phase, 1000-cycle interval, 1 GHz → 10^7 samples.
        let s = Sampler::new(
            SamplerConfig {
                cpu_hz: 1e9,
                ..SamplerConfig::default()
            },
            0,
        );
        assert_eq!(s.windows_in(VDur::from_secs(10.0)), 10_000_000);
    }

    #[test]
    fn recorded_counts_undercount_by_period() {
        let mut s = Sampler::new(SamplerConfig::default(), 1);
        let t = VDur::from_secs(1.0);
        let p = s.sample_phase(t, &[truth(0, 1_000_000, 0.5, t)]);
        let rec = p.recorded(unit(0));
        // Expect ≈ misses / event_period = 1000, with binomial noise.
        assert!((800..1200).contains(&rec), "recorded={rec}");
    }

    #[test]
    fn duty_cycle_drives_windows_hit() {
        let mut s = Sampler::new(SamplerConfig::default(), 2);
        let t = VDur::from_secs(0.1);
        let p = s.sample_phase(t, &[truth(0, 100_000, 0.25, t), truth(1, 100_000, 1.0, t)]);
        let w0 = p.samples.iter().find(|x| x.unit == unit(0)).unwrap();
        let w1 = p.samples.iter().find(|x| x.unit == unit(1)).unwrap();
        let f0 = w0.windows_hit as f64 / p.windows as f64;
        let f1 = w1.windows_hit as f64 / p.windows as f64;
        assert!((f0 - 0.25).abs() < 0.02, "f0={f0}");
        assert!((f1 - 1.0).abs() < 0.001, "f1={f1}");
    }

    #[test]
    fn zero_miss_objects_are_invisible() {
        let mut s = Sampler::new(SamplerConfig::default(), 3);
        let t = VDur::from_secs(0.1);
        let p = s.sample_phase(t, &[truth(0, 0, 0.5, t)]);
        assert!(p.samples.is_empty());
        assert_eq!(p.recorded(unit(0)), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = Sampler::new(SamplerConfig::default(), seed);
            let t = VDur::from_secs(0.5);
            s.sample_phase(t, &[truth(0, 500_000, 0.7, t)])
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).recorded(unit(0)), run(8).recorded(unit(0)));
    }

    #[test]
    fn overhead_scales_with_windows() {
        let mut s = Sampler::new(SamplerConfig::default(), 4);
        let t1 = VDur::from_secs(0.1);
        let t2 = VDur::from_secs(0.2);
        let p1 = s.sample_phase(t1, &[]);
        let p2 = s.sample_phase(t2, &[]);
        assert!((p2.overhead.secs() / p1.overhead.secs() - 2.0).abs() < 0.01);
        // 0.5 ns per 1000-cycle window @2.4 GHz ≈ 0.12% overhead.
        assert!(p1.overhead.secs() / t1.secs() < 0.002);
    }
}
