//! FT — 3-D FFT PDE solver (NPB).
//!
//! Table 3: `u, u0, u1, u2, twiddle` cover 99% of the footprint. The state
//! arrays are complex grids far larger than the DRAM of the paper's HMS
//! (CLASS C: 2 GB each over 4 ranks = 512 MB per rank vs. 256 MB DRAM), so
//! whole-object placement is impossible — FT is the benchmark where
//! large-object partitioning pays off (58% of Unimem's improvement,
//! Fig. 11). Every pass streams: FT is bandwidth-sensitive throughout.

use crate::classes::{scaled_bytes, Class};
use crate::helpers::{stream, stream_rw};
use unimem::exec::{ComputeSpec, StepSpec, Workload};
use unimem_hms::object::ObjectSpec;
use unimem_sim::{Bytes, VDur};

pub const U: u32 = 0;
pub const U0: u32 = 1;
pub const U1: u32 = 2;
pub const U2: u32 = 3;
pub const TWIDDLE: u32 = 4;

/// CLASS C totals: 512³ complex doubles = 2 GiB per state array.
const STATE_C: u64 = 2 << 30;
const ROOTS_C: u64 = 16 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Ft {
    pub class: Class,
}

impl Ft {
    pub fn new(class: Class) -> Ft {
        Ft { class }
    }
}

impl Workload for Ft {
    fn name(&self) -> String {
        format!("FT.{}", self.class.name())
    }

    fn objects(&self, _rank: usize, nranks: usize) -> Vec<ObjectSpec> {
        let st = scaled_bytes(STATE_C, self.class, nranks);
        let tw = scaled_bytes(STATE_C, self.class, nranks);
        let roots = scaled_bytes(ROOTS_C, self.class, nranks);
        let it = self.class.iterations() as f64;
        vec![
            ObjectSpec::new("u", Bytes(roots)).est_refs(it * roots as f64),
            // The big 1-D state arrays: regular references, partitionable.
            ObjectSpec::new("u0", Bytes(st))
                .partitionable(true)
                .est_refs(it * st as f64 / 8.0),
            ObjectSpec::new("u1", Bytes(st))
                .partitionable(true)
                .est_refs(it * 2.0 * st as f64 / 8.0),
            ObjectSpec::new("u2", Bytes(st))
                .partitionable(true)
                .est_refs(it * st as f64 / 8.0),
            ObjectSpec::new("twiddle", Bytes(tw))
                .partitionable(true)
                .est_refs(it * tw as f64 / 8.0),
        ]
    }

    fn script_epoch(&self, _iter: usize) -> usize {
        0
    }

    fn script(&self, _rank: usize, nranks: usize, _epoch: usize) -> Vec<StepSpec> {
        let st = scaled_bytes(STATE_C, self.class, nranks);
        let roots = scaled_bytes(ROOTS_C, self.class, nranks);
        // Transpose exchanges the whole state across ranks.
        let a2a = st / nranks.max(1) as u64;
        vec![
            // evolve: u0 = u0·twiddle, u1 = u0
            StepSpec::Compute(ComputeSpec {
                label: "evolve",
                cpu: VDur::from_millis(st as f64 / 8.0 / 1.2e5),
                accesses: vec![
                    stream_rw(U0, st, 1.0, 0.6),
                    stream(TWIDDLE, st, 1.0),
                    stream_rw(U1, st, 1.0, 0.0),
                ],
            }),
            // local FFT passes over u1 (multiple butterflies = sweeps)
            StepSpec::Compute(ComputeSpec {
                label: "fft-local",
                cpu: VDur::from_millis(st as f64 / 8.0 / 1.5e5),
                accesses: vec![stream_rw(U1, st, 3.0, 0.5), stream(U, roots, 2.0)],
            }),
            // global transpose
            StepSpec::Alltoall { bytes: Bytes(a2a) },
            // FFT along the distributed dimension into u2
            StepSpec::Compute(ComputeSpec {
                label: "fft-transposed",
                cpu: VDur::from_millis(st as f64 / 8.0 / 1.7e5),
                accesses: vec![
                    stream(U1, st, 1.0),
                    stream_rw(U2, st, 2.0, 0.4),
                    stream(U, roots, 1.0),
                ],
            }),
            // checksum reduction
            StepSpec::AllreduceSum { bytes: Bytes(16) },
        ]
    }

    fn iterations(&self) -> usize {
        self.class.iterations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem::exec::{run_workload, Policy, UnimemConfig};
    use unimem_cache::CacheModel;
    use unimem_hms::MachineConfig;

    #[test]
    fn state_arrays_exceed_class_c_dram() {
        let ft = Ft::new(Class::C);
        let objs = ft.objects(0, 4);
        // 512 MiB per rank > 256 MiB DRAM.
        assert_eq!(objs[1].size, Bytes(512 << 20));
        assert!(objs[1].partitionable);
    }

    #[test]
    fn ft_is_bandwidth_sensitive() {
        let ft = Ft::new(Class::S);
        let cache = CacheModel::new(Bytes::kib(256));
        let dram = run_workload(
            &ft,
            &MachineConfig::nvm_bw_fraction(0.5),
            &cache,
            1,
            &Policy::DramOnly,
        )
        .time();
        let bw = run_workload(
            &ft,
            &MachineConfig::nvm_bw_fraction(0.5),
            &cache,
            1,
            &Policy::NvmOnly,
        )
        .time();
        let lat = run_workload(
            &ft,
            &MachineConfig::nvm_lat_multiple(4.0),
            &cache,
            1,
            &Policy::NvmOnly,
        )
        .time();
        let s_bw = bw.secs() / dram.secs();
        let s_lat = lat.secs() / dram.secs();
        assert!(
            s_bw > 1.15,
            "FT must suffer from halved bandwidth, got {s_bw:.2}"
        );
        assert!(s_bw > s_lat, "bw {s_bw:.2} vs lat {s_lat:.2}");
    }

    #[test]
    fn partitioning_unlocks_placement() {
        // Without partitioning no state array fits DRAM; with it, chunks
        // do — Unimem-with-partitioning must beat Unimem-without.
        let ft = Ft::new(Class::C);
        let cache = CacheModel::platform_a();
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let without = run_workload(
            &ft,
            &m,
            &cache,
            1,
            &Policy::Unimem(UnimemConfig {
                partitioning: false,
                ..UnimemConfig::default()
            }),
        )
        .time();
        let with = run_workload(&ft, &m, &cache, 1, &Policy::unimem()).time();
        assert!(
            with.secs() < without.secs() * 0.995,
            "with={with} without={without}"
        );
    }
}
