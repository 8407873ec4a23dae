//! MG — multigrid V-cycle solver (NPB).
//!
//! Table 3: `buff, u, v, r` (99% of the footprint). `u` and `r` carry the
//! whole grid *hierarchy* and are referenced through memory aliases
//! created outside the main loop (per-level pointers into one backing
//! array) — the paper's compiler cannot partition them, which is exactly
//! why MG underuses a 128 MB DRAM in Fig. 13. `v` (the right-hand side,
//! finest level only) is alias-free but still a single high-dimensional
//! array the conservative partitioner leaves whole; it fits 256 MB but
//! not 128 MB, reproducing the Fig. 13 step.

use crate::classes::{scaled_bytes, Class};
use crate::helpers::{stencil, stream};
use unimem::exec::{ComputeSpec, StepSpec, Workload};
use unimem_hms::object::ObjectSpec;
use unimem_sim::{Bytes, VDur};

pub const BUFF: u32 = 0;
pub const U: u32 = 1;
pub const V: u32 = 2;
pub const R: u32 = 3;

/// CLASS C totals: 512³ doubles = 1 GiB finest grid; the hierarchy adds
/// ~14%. Per rank over 4 ranks: u, r ≈ 300 MiB; v = 150 MiB (kept at the
/// finest level's rank share minus ghost layers).
const U_C: u64 = 1200 << 20;
const V_C: u64 = 600 << 20;
const R_C: u64 = 1200 << 20;
const BUFF_C: u64 = 68 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Mg {
    pub class: Class,
}

impl Mg {
    pub fn new(class: Class) -> Mg {
        Mg { class }
    }
}

impl Workload for Mg {
    fn name(&self) -> String {
        format!("MG.{}", self.class.name())
    }

    fn objects(&self, _rank: usize, nranks: usize) -> Vec<ObjectSpec> {
        let s = |b: u64| scaled_bytes(b, self.class, nranks);
        let it = self.class.iterations() as f64;
        vec![
            ObjectSpec::new("buff", Bytes(s(BUFF_C))).est_refs(it * 4.0 * s(BUFF_C) as f64 / 8.0),
            ObjectSpec::new("u", Bytes(s(U_C)))
                .partitionable(true)
                .aliased(true)
                .est_refs(it * 2.0 * s(U_C) as f64 / 8.0),
            ObjectSpec::new("v", Bytes(s(V_C))).est_refs(it * 2.5 * s(V_C) as f64 / 8.0),
            ObjectSpec::new("r", Bytes(s(R_C)))
                .partitionable(true)
                .aliased(true)
                .est_refs(it * 3.0 * s(R_C) as f64 / 8.0),
        ]
    }

    fn script_epoch(&self, _iter: usize) -> usize {
        0
    }

    fn script(&self, rank: usize, nranks: usize, _epoch: usize) -> Vec<StepSpec> {
        let s = |b: u64| scaled_bytes(b, self.class, nranks);
        let left = (rank + nranks - 1) % nranks;
        let right = (rank + 1) % nranks;
        // Plane reuse window of a 27-point stencil on the rank's subgrid.
        let plane = (s(U_C) as f64).powf(2.0 / 3.0) as u64 * 3;
        vec![
            // resid: r = v − A·u over the V-cycle levels.
            StepSpec::Compute(ComputeSpec {
                label: "resid",
                cpu: VDur::from_millis(s(U_C) as f64 / 8.0 / 1.5e5),
                accesses: vec![
                    stencil(U, s(U_C), 0.4, plane),
                    stream(V, s(V_C), 2.0),
                    stencil(R, s(R_C), 0.4, plane),
                ],
            }),
            StepSpec::Halo {
                neighbors: vec![left, right],
                bytes: Bytes(s(BUFF_C) / 8),
            },
            // psinv: u += M·r (smoother), down/up the hierarchy.
            StepSpec::Compute(ComputeSpec {
                label: "psinv+cycle",
                cpu: VDur::from_millis(s(U_C) as f64 / 8.0 / 2.1e5),
                accesses: vec![
                    stencil(U, s(U_C), 0.5, plane),
                    stencil(R, s(R_C), 0.5, plane),
                    stream(BUFF, s(BUFF_C), 4.0),
                ],
            }),
            StepSpec::Halo {
                neighbors: vec![left, right],
                bytes: Bytes(s(BUFF_C) / 8),
            },
            // norm check
            StepSpec::AllreduceSum { bytes: Bytes(8) },
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
    fn hierarchy_arrays_are_alias_blocked() {
        let mg = Mg::new(Class::C);
        let objs = mg.objects(0, 4);
        let u = objs.iter().find(|o| o.name == "u").unwrap();
        let r = objs.iter().find(|o| o.name == "r").unwrap();
        let v = objs.iter().find(|o| o.name == "v").unwrap();
        assert!(u.aliased && r.aliased);
        assert!(!v.aliased);
        // Fig. 13 geometry: v fits 256 MiB but not 128 MiB.
        assert!(v.size > Bytes::mib(128) && v.size <= Bytes::mib(256));
        // u and r exceed DRAM entirely.
        assert!(u.size > Bytes::mib(256));
    }

    #[test]
    fn dram_size_step_between_128_and_256() {
        // The Fig. 13 effect: at 128 MiB DRAM Unimem can place only buff;
        // at 256 MiB it can also place v — the gap to DRAM-only shrinks.
        let mg = Mg::new(Class::C);
        let cache = CacheModel::platform_a();
        let m128 = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(128));
        let m256 = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(256));
        // Paper setup: 4 ranks, one per node.
        let dram = run_workload(&mg, &m256, &cache, 4, &Policy::DramOnly).time();
        let u128 = run_workload(&mg, &m128, &cache, 4, &Policy::unimem()).time();
        let u256 = run_workload(&mg, &m256, &cache, 4, &Policy::unimem()).time();
        let gap128 = u128.secs() / dram.secs() - 1.0;
        let gap256 = u256.secs() / dram.secs() - 1.0;
        assert!(
            gap128 > gap256 + 0.01,
            "gap128={gap128:.3} gap256={gap256:.3}"
        );
    }

    #[test]
    fn unimem_still_narrows_gap_at_128() {
        // Even alias-blocked, Unimem beats NVM-only at 128 MiB (paper: 35%
        // of the gap closed).
        let mg = Mg::new(Class::C);
        let cache = CacheModel::platform_a();
        let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(128));
        let nvm = run_workload(&mg, &m, &cache, 4, &Policy::NvmOnly).time();
        let uni = run_workload(&mg, &m, &cache, 4, &Policy::unimem()).time();
        assert!(uni.secs() < nvm.secs(), "uni={uni} nvm={nvm}");
    }
}
