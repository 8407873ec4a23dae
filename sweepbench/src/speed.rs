//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! between ops, that scales every host time to one reference speed.
//!
//! The host shares its cores with other machines, and their load changes
//! how fast it runs for tens of seconds to minutes at a time: on the
//! 2-vCPU Xeon KVM guest this benchmark was tuned on, the same full-cold
//! op took 1.3, 1.6 or 2.1 s depending on the stretch it ran in, with
//! under 1% hypervisor steal. The kernel below slows with the op: over
//! ten 25-second runs on separate seeds, the run medians of that op
//! spread 23% of their median in host seconds (interquartile range) and
//! 4.9% once each op was scaled by the kernel timed around it.
//!
//! The kernel does the kinds of work the simulator spends its time on,
//! in fixed amounts: hashing into a map, sorting floats, floating-point
//! arithmetic and small allocations. It depends on no crate of the
//! repository, so no change to the program moves it.
//!
//! It runs on one thread also for `rooms`, whose rank pool keeps two
//! busy: timed on two threads at once, it tracked that workload worse
//! (run medians spread 12% over five seeds, against 2.6% on one).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::host::cpu_seconds;

/// Keys hashed into the map, floats sorted and summed per kernel run.
const N: usize = 24_000;
/// Kernel runs per measurement; the measurement is their median.
const RUNS: usize = 7;
/// The kernel's time at reference speed: about its time on the tuning
/// host in that host's fastest stretches. Scaled seconds are host
/// seconds times `REF_S` ÷ the kernel's time measured alongside them.
pub const REF_S: f64 = 0.0025;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One run of the kernel; returns a checksum so no part is optimized
/// away.
fn kernel() -> u64 {
    let mut s = 0x9e37_79b9_7f4a_7c15_u64;
    let range = 4 * N as u64;
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..N as u64 {
        map.insert(xorshift(&mut s) % range, i);
    }
    let mut found = 0u64;
    for _ in 0..N {
        if let Some(v) = map.get(&(xorshift(&mut s) % range)) {
            found = found.wrapping_add(*v);
        }
    }
    let mut xs: Vec<f64> = (0..N)
        .map(|_| (xorshift(&mut s) >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    xs.sort_by(f64::total_cmp);
    let mut acc = 0.0f64;
    for (i, x) in xs.iter().enumerate() {
        acc += (x * 3.0 + 1.0).ln() * (i as f64 + 1.0).sqrt() / (1.0 + x.exp());
    }
    let boxes: Vec<Vec<u64>> = (0..N / 8).map(|i| vec![i as u64; 1 + i % 16]).collect();
    let total: u64 = boxes.iter().map(|b| b.iter().sum::<u64>()).sum();
    found ^ total ^ acc.to_bits()
}

/// The kernel's wall and CPU seconds at one moment of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Speed {
    /// Time the kernel [`RUNS`] times; the median of each clock.
    pub fn measure() -> Result<Speed, String> {
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        for _ in 0..RUNS {
            let cpu0 = cpu_seconds()?;
            let t0 = Instant::now();
            black_box(kernel());
            walls.push(t0.elapsed().as_secs_f64());
            cpus.push(cpu_seconds()? - cpu0);
        }
        walls.sort_by(f64::total_cmp);
        cpus.sort_by(f64::total_cmp);
        Ok(Speed {
            wall_s: walls[RUNS / 2],
            cpu_s: cpus[RUNS / 2],
        })
    }

    /// The speed over an interval measured at its two ends.
    pub fn between(a: Speed, b: Speed) -> Speed {
        Speed {
            wall_s: (a.wall_s + b.wall_s) / 2.0,
            cpu_s: (a.cpu_s + b.cpu_s) / 2.0,
        }
    }

    /// `wall_s` host wall seconds, scaled to reference speed.
    pub fn wall(self, wall_s: f64) -> f64 {
        wall_s * REF_S / self.wall_s
    }

    /// `cpu_s` host CPU seconds (summed over threads), scaled to
    /// reference speed.
    pub fn cpu(self, cpu_s: f64) -> f64 {
        cpu_s * REF_S / self.cpu_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work_and_scaling_divides_by_it() {
        assert_eq!(kernel(), kernel());
        let s = Speed::measure().unwrap();
        assert!(s.wall_s > 0.0 && s.cpu_s > 0.0);
        let slow = Speed {
            wall_s: 2.0 * REF_S,
            cpu_s: 4.0 * REF_S,
        };
        assert_eq!(slow.wall(3.0), 1.5);
        assert_eq!(slow.cpu(3.0), 0.75);
        let zero = Speed {
            wall_s: 0.0,
            cpu_s: 0.0,
        };
        assert_eq!(Speed::between(slow, zero).wall_s, REF_S);
    }
}
