//! BT — block-tridiagonal ADI solver (NPB).
//!
//! Table 3 lists fifteen target objects (99% of the footprint). The ADI
//! structure sweeps three directions per step, each through its own block
//! system (`lhsa`/`lhsb`/`lhsc` with the `fjac`/`njac` work arrays): the
//! working set *rotates* across phases, which is exactly where phase-local
//! search beats a single global placement (Fig. 11: +19% for BT).

use crate::classes::{scaled_bytes, Class};
use crate::helpers::{chase, stream, stream_rw};
use unimem::exec::{ComputeSpec, StepSpec, Workload};
use unimem_hms::object::ObjectSpec;
use unimem_sim::{Bytes, VDur};

pub const U: u32 = 0;
pub const RHS: u32 = 1;
pub const FORCING: u32 = 2;
pub const US: u32 = 3;
pub const VS: u32 = 4;
pub const WS: u32 = 5;
pub const QS: u32 = 6;
pub const RHO_I: u32 = 7;
pub const SQUARE: u32 = 8;
pub const FJAC: u32 = 9;
pub const NJAC: u32 = 10;
pub const LHSA: u32 = 11;
pub const LHSB: u32 = 12;
pub const LHSC: u32 = 13;
pub const BUFFERS: u32 = 14;

/// CLASS C totals.
const GRID5_C: u64 = 170 << 20; // 162³ × 5 components × 8 B
const GRID1_C: u64 = 34 << 20; // 162³ × 8 B
const JAC_C: u64 = 60 << 20;
const LHS_C: u64 = 150 << 20; // 5×5 blocks, one direction
const BUF_C: u64 = 32 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Bt {
    pub class: Class,
}

impl Bt {
    pub fn new(class: Class) -> Bt {
        Bt { class }
    }

    /// One directional solve: factor the blocks (streaming the jacobians
    /// and the direction's lhs) and back-substitute (a dependent
    /// recurrence along the lines, carried by rhs).
    fn solve(&self, lhs: u32, nranks: usize, label: &'static str) -> StepSpec {
        let lhs_b = scaled_bytes(LHS_C, self.class, nranks);
        let jac = scaled_bytes(JAC_C, self.class, nranks);
        let grid5 = scaled_bytes(GRID5_C, self.class, nranks);
        StepSpec::Compute(ComputeSpec {
            label,
            cpu: VDur::from_millis(grid5 as f64 / 8.0 / 2.5e7),
            accesses: vec![
                // Factor + forward + back-substitution: several passes
                // over this direction's blocks.
                stream_rw(lhs, lhs_b, 2.5, 0.45),
                stream(FJAC, jac, 0.3),
                stream(NJAC, jac, 0.3),
                stream_rw(RHS, grid5, 1.0, 0.5),
                // Back-substitution chains along each pencil.
                chase(RHS, grid5, grid5 / 8 / 24),
            ],
        })
    }
}

impl Workload for Bt {
    fn name(&self) -> String {
        format!("BT.{}", self.class.name())
    }

    fn objects(&self, _rank: usize, nranks: usize) -> Vec<ObjectSpec> {
        let s = |b: u64| scaled_bytes(b, self.class, nranks);
        let it = self.class.iterations() as f64;
        let grid5 = s(GRID5_C);
        let grid1 = s(GRID1_C);
        let mut objs = vec![
            ObjectSpec::new("u", Bytes(grid5)).est_refs(it * 2.0 * grid5 as f64 / 8.0),
            ObjectSpec::new("rhs", Bytes(grid5)).est_refs(it * 5.0 * grid5 as f64 / 8.0),
            ObjectSpec::new("forcing", Bytes(grid5)).est_refs(it * grid5 as f64 / 8.0),
        ];
        for name in ["us", "vs", "ws", "qs", "rho_i", "square"] {
            objs.push(ObjectSpec::new(name, Bytes(grid1)).est_refs(it * grid1 as f64 / 8.0));
        }
        objs.push(ObjectSpec::new("fjac", Bytes(s(JAC_C))).est_refs(it * s(JAC_C) as f64 / 2.0));
        objs.push(ObjectSpec::new("njac", Bytes(s(JAC_C))).est_refs(it * s(JAC_C) as f64 / 2.0));
        for name in ["lhsa", "lhsb", "lhsc"] {
            objs.push(
                ObjectSpec::new(name, Bytes(s(LHS_C)))
                    .partitionable(true)
                    .est_refs(it * s(LHS_C) as f64 / 8.0),
            );
        }
        objs.push(ObjectSpec::new("buffers", Bytes(s(BUF_C))).est_refs(it * s(BUF_C) as f64 / 4.0));
        objs
    }

    fn script_epoch(&self, _iter: usize) -> usize {
        0
    }

    fn script(&self, rank: usize, nranks: usize, _epoch: usize) -> Vec<StepSpec> {
        let s = |b: u64| scaled_bytes(b, self.class, nranks);
        let grid5 = s(GRID5_C);
        let grid1 = s(GRID1_C);
        let left = (rank + nranks - 1) % nranks;
        let right = (rank + 1) % nranks;
        vec![
            StepSpec::Compute(ComputeSpec {
                label: "compute_rhs",
                cpu: VDur::from_millis(grid5 as f64 / 8.0 / 3e7),
                accesses: vec![
                    stream(U, grid5, 1.0),
                    stream_rw(RHS, grid5, 1.0, 0.3),
                    stream(FORCING, grid5, 1.0),
                    stream(US, grid1, 1.0),
                    stream(VS, grid1, 1.0),
                    stream(WS, grid1, 1.0),
                    stream(QS, grid1, 1.0),
                    stream(RHO_I, grid1, 1.0),
                    stream(SQUARE, grid1, 1.0),
                    stream_rw(BUFFERS, s(BUF_C), 1.0, 0.5),
                ],
            }),
            StepSpec::Halo {
                neighbors: vec![left, right],
                bytes: Bytes(s(BUF_C) / 4),
            },
            self.solve(LHSA, nranks, "x_solve"),
            self.solve(LHSB, nranks, "y_solve"),
            self.solve(LHSC, nranks, "z_solve"),
            StepSpec::Compute(ComputeSpec {
                label: "add",
                cpu: VDur::from_millis(grid5 as f64 / 8.0 / 6e7),
                accesses: vec![stream_rw(U, grid5, 1.0, 0.5), stream(RHS, grid5, 1.0)],
            }),
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
    fn fifteen_target_objects() {
        let bt = Bt::new(Class::C);
        assert_eq!(bt.objects(0, 4).len(), 15);
    }

    #[test]
    fn directional_solves_use_distinct_lhs() {
        let bt = Bt::new(Class::C);
        let script = bt.script(0, 4, 0);
        let lhs_of = |step: &StepSpec| -> Option<u32> {
            if let StepSpec::Compute(c) = step {
                c.accesses
                    .first()
                    .map(|a| a.obj.0)
                    .filter(|_| c.label.ends_with("_solve"))
            } else {
                None
            }
        };
        let used: Vec<u32> = script.iter().filter_map(lhs_of).collect();
        assert_eq!(used, vec![LHSA, LHSB, LHSC]);
    }

    #[test]
    fn rotating_working_set_pressures_dram() {
        // All three lhs arrays plus the hot core exceed 256 MiB DRAM, but
        // any two lhs plus the core fit — swaps can be proactive.
        let bt = Bt::new(Class::C);
        let objs = bt.objects(0, 4);
        let lhs: Vec<u64> = objs
            .iter()
            .filter(|o| o.name.starts_with("lhs"))
            .map(|o| o.size.get())
            .collect();
        let core: u64 = objs
            .iter()
            .filter(|o| {
                ["u", "rhs", "us", "vs", "ws", "qs", "rho_i", "square"].contains(&o.name.as_str())
            })
            .map(|o| o.size.get())
            .sum();
        let total: u64 = objs.iter().map(|o| o.size.get()).sum();
        assert!(total > 256 << 20, "whole footprint must exceed DRAM");
        assert!(lhs[0] + lhs[1] + core <= 256 << 20);
    }

    #[test]
    fn unimem_narrows_bt_gap() {
        let bt = Bt::new(Class::S);
        let cache = CacheModel::new(Bytes::kib(512));
        let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::kib(900));
        let dram = run_workload(&bt, &m, &cache, 1, &Policy::DramOnly).time();
        let nvm = run_workload(&bt, &m, &cache, 1, &Policy::NvmOnly).time();
        let uni = run_workload(&bt, &m, &cache, 1, &Policy::unimem()).time();
        assert!(nvm > dram);
        assert!(uni.secs() <= nvm.secs() * 1.005, "uni={uni} nvm={nvm}");
    }
}
