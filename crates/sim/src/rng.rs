//! Deterministic randomness for the simulation.
//!
//! All stochastic elements of the reproduction (sampling noise in the
//! PEBS-style profiler, randomized workload geometry, property tests) draw
//! from [`DetRng`], an xoshiro256++ generator seeded through SplitMix64.
//! Seeds are always explicit so runs are reproducible; helpers derive
//! independent substreams from a parent seed plus a label, so adding a
//! consumer never perturbs existing ones.
//!
//! The generator lives here rather than behind a crate because its bit
//! stream is part of the output contract: the binomial thinning of the
//! sampled miss counts feeds every number in `BENCH_sweep.json`, so the
//! stream must not change under a dependency upgrade. The known-answer
//! test below pins it.

/// Deterministic RNG with the distributions the simulator needs.
#[derive(Debug, Clone)]
pub struct DetRng {
    /// xoshiro256++ state.
    s: [u64; 4],
}

/// One SplitMix64 step: expands a 64-bit seed into well-mixed state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create from an explicit seed.
    pub fn seed(seed: u64) -> DetRng {
        let mut st = seed;
        DetRng {
            s: [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ],
        }
    }

    /// Derive an independent substream for `label` under `parent` seed.
    /// Uses an FNV-1a mix so distinct labels give uncorrelated streams.
    pub fn derive(parent: u64, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ parent.rotate_left(17);
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        DetRng::seed(h)
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one draw, scaled by 2⁻⁵³.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` by Lemire's multiply-shift (bias below
    /// 2⁻⁶⁴ per draw). `n` must be positive.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        ((self.u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64: empty range");
        let v = lo + self.f64() * (hi - lo);
        if v < hi {
            return v;
        }
        // Rounded up to the excluded endpoint. Step back by a relative
        // epsilon of the width (the historical guard, which the stream
        // contract keeps), or by one float where the interval is too
        // narrow for that step to leave `hi`.
        let back = lo.max(hi - (hi - lo) * f64::EPSILON);
        if back < hi {
            back
        } else {
            hi.next_down()
        }
    }

    /// Standard normal deviate (Box–Muller; one value per call for
    /// simplicity — this is not a hot path).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = self.range_f64(f64::MIN_POSITIVE, 1.0);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Binomial(n, p) deviate.
    ///
    /// The sampler thins per-object miss counts with this: a phase with `n`
    /// misses on an object observed at sampling probability `p` records
    /// `Binomial(n, p)` samples. Exact inversion is used for small `n·p`,
    /// a normal approximation (clamped to `[0, n]`) for large, which is
    /// accurate far beyond what the placement decisions are sensitive to.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mean = n as f64 * p;
        let var = mean * (1.0 - p);
        if n <= 64 {
            // Exact: n Bernoulli trials.
            let mut k = 0;
            for _ in 0..n {
                if self.f64() < p {
                    k += 1;
                }
            }
            k
        } else if var > 25.0 {
            // Normal approximation with continuity correction.
            let x = mean + var.sqrt() * self.std_normal();
            x.round().clamp(0.0, n as f64) as u64
        } else {
            // Moderate n, small p: Poisson-style inversion on the count of
            // successes via geometric skips (BG algorithm).
            let mut k: u64 = 0;
            let mut i: u64 = 0;
            let log_q = (1.0 - p).ln();
            loop {
                let u = self.range_f64(f64::MIN_POSITIVE, 1.0);
                let skip = (u.ln() / log_q).floor() as u64;
                i = i.saturating_add(skip).saturating_add(1);
                if i > n {
                    return k;
                }
                k += 1;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Raw 64 random bits: one xoshiro256++ step.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream is an output contract (see the module docs). These are
    /// the first draws of each kind as the generator produced them while
    /// it was still the `SmallRng` of a vendored `rand` stand-in.
    #[test]
    fn known_answers_pin_the_stream() {
        // Seeding and the xoshiro256++ step.
        let mut r = DetRng::seed(42);
        assert_eq!(r.u64(), 0xd076_4d4f_4476_689f);
        assert_eq!(r.u64(), 0x519e_4174_576f_3791);
        assert_eq!(r.u64(), 0xfbe0_7cfb_0c24_ed8c);
        assert_eq!(r.u64(), 0xb37d_9f60_0cd8_35b8);

        // Each mapping, applied to the first draws of `seed(42)`.
        assert_eq!(DetRng::seed(42).f64().to_bits(), 0x3fea_0ec9_a9e8_8ecd);
        let mut r = DetRng::seed(42);
        assert_eq!(r.range_f64(-2.0, 3.0).to_bits(), 0x4000_927c_1462_b280);
        assert_eq!(r.range_f64(-2.0, 3.0).to_bits(), 0xbfd9_fa2e_2e92_b504);
        let mut r = DetRng::seed(42);
        let got: Vec<usize> = (0..8).map(|_| r.index(10)).collect();
        assert_eq!(got, [8, 3, 9, 7, 7, 5, 1, 6]);

        // The label mix of `derive`, then every draw kind interleaved on
        // its stream, including the normal deviate and all three
        // binomial branches.
        let mut r = DetRng::derive(7, "sampler");
        assert_eq!(r.u64(), 0x0159_7089_4ccc_99eb);
        assert_eq!(r.f64().to_bits(), 0x3fe7_9753_8163_2709);
        assert_eq!(r.index(1000), 0x353);
        assert_eq!(r.range_f64(-2.0, 3.0).to_bits(), 0x3fde_ec56_c4f2_c208);
        assert_eq!(r.std_normal().to_bits(), 0xbff1_e58f_bcb1_6696);
        assert_eq!(r.binomial(40, 0.3), 15);
        assert_eq!(r.binomial(500, 0.01), 7);
        assert_eq!(r.binomial(1_000_000, 0.001), 957);

        // A long-run fingerprint over 100k mixed draws.
        let mut r = DetRng::seed(12345);
        let mut acc: u64 = 0;
        for i in 0..100_000u64 {
            let v = match i % 5 {
                0 => r.u64(),
                1 => r.f64().to_bits(),
                2 => r.index(977) as u64,
                3 => r.range_f64(-1e3, 1e3).to_bits(),
                _ => r.binomial(200, 0.02),
            };
            acc = acc.rotate_left(7) ^ v;
        }
        assert_eq!(acc, 0xd72f_e57b_4641_2c16);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed(2);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::seed(3);
        for _ in 0..10_000 {
            let v = 5 + r.index(12);
            assert!((5..17).contains(&v));
            let f = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn range_guard_never_returns_the_excluded_endpoint() {
        // One ulp wide: `lo + x * (hi - lo)` rounds up to `hi` for about
        // half of all draws, so the guard is exercised constantly.
        let lo = 1.0f64;
        let hi = f64::from_bits(lo.to_bits() + 1);
        let mut r = DetRng::seed(6);
        for _ in 0..1_000 {
            let v = r.range_f64(lo, hi);
            assert!((lo..hi).contains(&v), "{v} escaped [{lo}, {hi})");
        }
    }

    #[test]
    fn unit_f64_mean_is_half() {
        let mut r = DetRng::seed(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = DetRng::seed(42);
        let mut b = DetRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn derive_differs_by_label() {
        let mut a = DetRng::derive(7, "sampler");
        let mut b = DetRng::derive(7, "workload");
        assert_ne!(a.u64(), b.u64());
    }

    #[test]
    fn derive_is_deterministic() {
        let mut a = DetRng::derive(7, "x");
        let mut b = DetRng::derive(7, "x");
        assert_eq!(a.u64(), b.u64());
    }

    #[test]
    fn binomial_edges() {
        let mut r = DetRng::seed(1);
        assert_eq!(r.binomial(0, 0.5), 0);
        assert_eq!(r.binomial(100, 0.0), 0);
        assert_eq!(r.binomial(100, 1.0), 100);
    }

    #[test]
    fn binomial_mean_small_n() {
        let mut r = DetRng::seed(2);
        let trials = 20_000;
        let total: u64 = (0..trials).map(|_| r.binomial(20, 0.3)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 6.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn binomial_mean_large_n_normal_path() {
        let mut r = DetRng::seed(3);
        let trials = 2_000;
        let total: u64 = (0..trials).map(|_| r.binomial(1_000_000, 0.001)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 1000.0).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn binomial_mean_geometric_path() {
        // n in the hundreds with tiny p exercises the BG branch (var < 25).
        let mut r = DetRng::seed(4);
        let trials = 50_000;
        let total: u64 = (0..trials).map(|_| r.binomial(500, 0.01)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut r = DetRng::seed(5);
        for _ in 0..1000 {
            assert!(r.binomial(80, 0.9) <= 80);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn std_normal_moments() {
        let mut r = DetRng::seed(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.std_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
