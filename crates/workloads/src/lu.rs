//! LU — SSOR-based LU factorization solver (NPB).
//!
//! Table 3: `u, rsd, frct, flux, a, b, c, d, buf, buf1` (99% of the
//! footprint). The RHS evaluation streams enormous volumes (several sweeps
//! over the five-component grids and four jacobian arrays), making LU the
//! most bandwidth-hungry benchmark of the suite — the paper measures 2.19×
//! slowdown already at ½ DRAM bandwidth. The SSOR lower/upper sweeps add a
//! dependent wavefront along the diagonal (latency component).

use crate::classes::{scaled_bytes, Class};
use crate::helpers::{chase, stream, stream_rw};
use unimem::exec::{ComputeSpec, StepSpec, Workload};
use unimem_hms::object::ObjectSpec;
use unimem_sim::{Bytes, VDur};

pub const U: u32 = 0;
pub const RSD: u32 = 1;
pub const FRCT: u32 = 2;
pub const FLUX: u32 = 3;
pub const JA: u32 = 4;
pub const JB: u32 = 5;
pub const JC: u32 = 6;
pub const JD: u32 = 7;
pub const BUF: u32 = 8;
pub const BUF1: u32 = 9;

const GRID5_C: u64 = 170 << 20;
const FLUX_C: u64 = 34 << 20;
const JACOBIAN_C: u64 = 200 << 20; // 25 coefficients per point, per array
const BUF_C: u64 = 16 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Lu {
    pub class: Class,
}

impl Lu {
    pub fn new(class: Class) -> Lu {
        Lu { class }
    }
}

impl Workload for Lu {
    fn name(&self) -> String {
        format!("LU.{}", self.class.name())
    }

    fn objects(&self, _rank: usize, nranks: usize) -> Vec<ObjectSpec> {
        let s = |b: u64| scaled_bytes(b, self.class, nranks);
        let it = self.class.iterations() as f64;
        let grid5 = s(GRID5_C);
        let jac = s(JACOBIAN_C);
        let mut objs = vec![
            ObjectSpec::new("u", Bytes(grid5)).est_refs(it * 3.0 * grid5 as f64 / 8.0),
            ObjectSpec::new("rsd", Bytes(grid5)).est_refs(it * 6.0 * grid5 as f64 / 8.0),
            ObjectSpec::new("frct", Bytes(grid5)).est_refs(it * 2.0 * grid5 as f64 / 8.0),
            ObjectSpec::new("flux", Bytes(s(FLUX_C))).est_refs(it * 2.0 * s(FLUX_C) as f64 / 8.0),
        ];
        for name in ["a", "b", "c", "d"] {
            objs.push(
                ObjectSpec::new(name, Bytes(jac))
                    .partitionable(true)
                    .est_refs(it * 2.0 * jac as f64 / 8.0),
            );
        }
        objs.push(ObjectSpec::new("buf", Bytes(s(BUF_C))).est_refs(it * s(BUF_C) as f64 / 8.0));
        objs.push(ObjectSpec::new("buf1", Bytes(s(BUF_C))).est_refs(it * s(BUF_C) as f64 / 8.0));
        objs
    }

    fn script_epoch(&self, _iter: usize) -> usize {
        0
    }

    fn script(&self, rank: usize, nranks: usize, _epoch: usize) -> Vec<StepSpec> {
        let s = |b: u64| scaled_bytes(b, self.class, nranks);
        let grid5 = s(GRID5_C);
        let jac = s(JACOBIAN_C);
        let left = (rank + nranks - 1) % nranks;
        let right = (rank + 1) % nranks;
        let sweep = |label: &'static str, lo: u32, hi: u32| {
            // jacld/jacu build the block jacobians (streaming), then
            // blts/buts substitute along the wavefront (dependent chain).
            StepSpec::Compute(ComputeSpec {
                label,
                cpu: VDur::from_millis(grid5 as f64 / 8.0 / 2.5e7),
                accesses: vec![
                    stream_rw(lo, jac, 1.0, 0.2),
                    stream_rw(hi, jac, 1.0, 0.2),
                    stream_rw(RSD, grid5, 1.0, 0.5),
                    stream(U, grid5, 1.0),
                    chase(RSD, grid5, grid5 / 8 / 20),
                ],
            })
        };
        vec![
            // RHS: several full-volume streams — the bandwidth hog.
            StepSpec::Compute(ComputeSpec {
                label: "rhs",
                cpu: VDur::from_millis(grid5 as f64 / 8.0 / 4e7),
                accesses: vec![
                    stream_rw(RSD, grid5, 2.0, 0.4),
                    stream(U, grid5, 2.0),
                    stream(FRCT, grid5, 1.0),
                    stream_rw(FLUX, s(FLUX_C), 3.0, 0.5),
                ],
            }),
            sweep("jacld+blts", JA, JB),
            sweep("jacu+buts", JC, JD),
            StepSpec::AllreduceSum { bytes: Bytes(40) },
            StepSpec::Compute(ComputeSpec {
                label: "update+pack",
                cpu: VDur::from_millis(grid5 as f64 / 8.0 / 6e7),
                accesses: vec![
                    stream_rw(U, grid5, 1.0, 0.5),
                    stream(RSD, grid5, 1.0),
                    stream_rw(BUF, s(BUF_C), 1.0, 0.5),
                    stream_rw(BUF1, s(BUF_C), 1.0, 0.5),
                ],
            }),
            StepSpec::Halo {
                neighbors: vec![left, right],
                bytes: Bytes(s(BUF_C) / 2),
            },
        ]
    }

    fn iterations(&self) -> usize {
        self.class.iterations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem::exec::{run_workload, Policy};
    use unimem_cache::CacheModel;
    use unimem_hms::MachineConfig;

    #[test]
    fn ten_target_objects() {
        let lu = Lu::new(Class::C);
        let names: Vec<String> = lu.objects(0, 4).iter().map(|o| o.name.clone()).collect();
        assert_eq!(
            names,
            vec!["u", "rsd", "frct", "flux", "a", "b", "c", "d", "buf", "buf1"]
        );
    }

    #[test]
    fn lu_suffers_most_from_halved_bandwidth() {
        // Fig. 2's headline: LU ≈ 2.19× at ½ bandwidth (our linear
        // roofline caps at 2×; shape check: LU > 1.5×).
        let lu = Lu::new(Class::S);
        let cache = CacheModel::new(Bytes::kib(256));
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let dram = run_workload(&lu, &m, &cache, 1, &Policy::DramOnly).time();
        let nvm = run_workload(&lu, &m, &cache, 1, &Policy::NvmOnly).time();
        let slowdown = nvm.secs() / dram.secs();
        assert!(slowdown > 1.5, "LU at ½ bw: {slowdown:.2}");
    }

    #[test]
    fn wavefront_adds_latency_sensitivity() {
        let lu = Lu::new(Class::S);
        let cache = CacheModel::new(Bytes::kib(256));
        let dram = run_workload(
            &lu,
            &MachineConfig::nvm_lat_multiple(2.0),
            &cache,
            1,
            &Policy::DramOnly,
        )
        .time();
        let nvm = run_workload(
            &lu,
            &MachineConfig::nvm_lat_multiple(2.0),
            &cache,
            1,
            &Policy::NvmOnly,
        )
        .time();
        // Fig. 3: LU ≈ 2.14× at 2× latency; shape: clearly above 1.3×.
        assert!(nvm.secs() / dram.secs() > 1.3);
    }
}
