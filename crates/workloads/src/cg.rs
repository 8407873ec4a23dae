//! CG — conjugate gradient with an irregular sparse matrix (NPB).
//!
//! The paper's running example (Fig. 1): the iteration alternates a sparse
//! matrix-vector product `q = A·p` with dot products (allreduce) and vector
//! updates. The matvec's indirection through `colidx` gives `a` and `p`
//! poor locality and *dependent* access chains — CG is the latency-
//! sensitive benchmark of the suite. Table 3: target objects `colidx, a,
//! w, z, p, q, r, rowstr, x` cover 42% of the footprint (the three large
//! initialization-only arrays `aelt/acol/arow` are deliberately excluded,
//! as in the paper).

use crate::classes::{scaled_bytes, Class};
use crate::helpers::{gather, stream, stream_rw};
use unimem::exec::{ComputeSpec, StepSpec, Workload};
use unimem_hms::object::ObjectSpec;
use unimem_sim::{Bytes, VDur};

/// Object indices (registration order).
pub const A: u32 = 0;
pub const COLIDX: u32 = 1;
pub const ROWSTR: u32 = 2;
pub const X: u32 = 3;
pub const Z: u32 = 4;
pub const P: u32 = 5;
pub const Q: u32 = 6;
pub const R: u32 = 7;
pub const W: u32 = 8;

/// CLASS C totals (bytes): `a` holds the nonzeros, `colidx` their column
/// indices, vectors are `na`-long.
const A_C: u64 = 288 << 20;
const COLIDX_C: u64 = 144 << 20;
const ROWSTR_C: u64 = 4 << 20;
const VEC_C: u64 = 12 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Cg {
    pub class: Class,
}

impl Cg {
    pub fn new(class: Class) -> Cg {
        Cg { class }
    }

    fn sz(&self, total_c: u64, nranks: usize) -> u64 {
        scaled_bytes(total_c, self.class, nranks)
    }
}

impl Workload for Cg {
    fn name(&self) -> String {
        format!("CG.{}", self.class.name())
    }

    fn objects(&self, _rank: usize, nranks: usize) -> Vec<ObjectSpec> {
        let a = self.sz(A_C, nranks);
        let colidx = self.sz(COLIDX_C, nranks);
        let rowstr = self.sz(ROWSTR_C, nranks);
        let vec = self.sz(VEC_C, nranks);
        let it = self.class.iterations() as f64;
        vec![
            ObjectSpec::new("a", Bytes(a))
                .partitionable(true)
                .est_refs(it * a as f64 / 8.0),
            ObjectSpec::new("colidx", Bytes(colidx))
                .partitionable(true)
                .est_refs(it * colidx as f64 / 4.0),
            ObjectSpec::new("rowstr", Bytes(rowstr))
                .partitionable(true)
                .est_refs(it * rowstr as f64 / 8.0),
            ObjectSpec::new("x", Bytes(vec)).est_refs(it * vec as f64 / 8.0),
            ObjectSpec::new("z", Bytes(vec)).est_refs(2.0 * it * vec as f64 / 8.0),
            ObjectSpec::new("p", Bytes(vec)).est_refs(4.0 * it * vec as f64 / 8.0),
            ObjectSpec::new("q", Bytes(vec)).est_refs(3.0 * it * vec as f64 / 8.0),
            ObjectSpec::new("r", Bytes(vec)).est_refs(3.0 * it * vec as f64 / 8.0),
            ObjectSpec::new("w", Bytes(vec)).est_refs(2.0 * it * vec as f64 / 8.0),
        ]
    }

    fn script_epoch(&self, _iter: usize) -> usize {
        0
    }

    fn script(&self, rank: usize, nranks: usize, _epoch: usize) -> Vec<StepSpec> {
        let a = self.sz(A_C, nranks);
        let colidx = self.sz(COLIDX_C, nranks);
        let vec = self.sz(VEC_C, nranks);
        let nnz = a / 8;
        let left = (rank + nranks - 1) % nranks;
        let right = (rank + 1) % nranks;
        vec![
            // q = A·p: the irregular heart. `a` is traversed through the
            // row/column indirection — modeled as a gather over its own
            // span; `p` is gathered through colidx.
            StepSpec::Compute(ComputeSpec {
                label: "matvec",
                cpu: VDur::from_millis(2.0 * nnz as f64 / 4e6),
                accesses: vec![
                    // CSR traversal of the nonzeros is sequential in `a`
                    // and `colidx`; the latency sensitivity comes from the
                    // indirect loads of `p` spread across the rank's whole
                    // column window (poor temporal reuse).
                    stream(A, a, 1.0),
                    stream(COLIDX, colidx, 1.0),
                    gather(P, vec, nnz / 2, colidx),
                    stream_rw(Q, vec, 1.0, 0.1),
                    stream(ROWSTR, self.sz(ROWSTR_C, nranks), 1.0),
                ],
            }),
            // d = p·q
            StepSpec::AllreduceSum { bytes: Bytes(8) },
            // z += alpha p ; r -= alpha q
            StepSpec::Compute(ComputeSpec {
                label: "axpy",
                cpu: VDur::from_millis(vec as f64 / 8.0 / 2e7),
                accesses: vec![
                    stream_rw(Z, vec, 1.0, 0.5),
                    stream_rw(R, vec, 1.0, 0.5),
                    stream(P, vec, 1.0),
                    stream(Q, vec, 1.0),
                ],
            }),
            // rho = r·r
            StepSpec::AllreduceSum { bytes: Bytes(8) },
            // p = r + beta p ; w workspace
            StepSpec::Compute(ComputeSpec {
                label: "p-update",
                cpu: VDur::from_millis(vec as f64 / 8.0 / 2e7),
                accesses: vec![
                    stream_rw(P, vec, 1.0, 0.5),
                    stream(R, vec, 1.0),
                    stream_rw(W, vec, 1.0, 0.3),
                ],
            }),
            // boundary exchange of p for the next matvec
            StepSpec::Halo {
                neighbors: vec![left, right],
                bytes: Bytes(vec / 8),
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
    fn objects_match_table3() {
        let cg = Cg::new(Class::C);
        let objs = cg.objects(0, 4);
        let names: Vec<&str> = objs.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["a", "colidx", "rowstr", "x", "z", "p", "q", "r", "w"]
        );
        // Per-rank CLASS C: a = 288 MiB / 4.
        assert_eq!(objs[0].size, Bytes(72 << 20));
    }

    #[test]
    fn footprint_shrinks_with_ranks() {
        let cg = Cg::new(Class::D);
        let at4: u64 = cg.objects(0, 4).iter().map(|o| o.size.get()).sum();
        let at16: u64 = cg.objects(0, 16).iter().map(|o| o.size.get()).sum();
        assert_eq!(at4, at16 * 4);
    }

    #[test]
    fn cg_is_latency_sensitive() {
        // 4× latency must hurt CG more than ½ bandwidth (Obs. 3 / Fig. 4).
        let cg = Cg::new(Class::S);
        let cache = CacheModel::new(Bytes::kib(256));
        let dram = run_workload(
            &cg,
            &MachineConfig::nvm_bw_fraction(0.5),
            &cache,
            1,
            &Policy::DramOnly,
        )
        .time();
        let bw = run_workload(
            &cg,
            &MachineConfig::nvm_bw_fraction(0.5),
            &cache,
            1,
            &Policy::NvmOnly,
        )
        .time();
        let lat = run_workload(
            &cg,
            &MachineConfig::nvm_lat_multiple(4.0),
            &cache,
            1,
            &Policy::NvmOnly,
        )
        .time();
        let s_bw = bw.secs() / dram.secs();
        let s_lat = lat.secs() / dram.secs();
        assert!(s_lat > s_bw, "lat slowdown {s_lat:.2} vs bw {s_bw:.2}");
    }

    #[test]
    fn script_phase_structure_is_stable() {
        let cg = Cg::new(Class::C);
        // One epoch: every iteration runs the same six steps.
        assert!((0..cg.iterations()).all(|it| cg.script_epoch(it) == 0));
        assert_eq!(cg.script(0, 4, 0).len(), 6);
    }
}
