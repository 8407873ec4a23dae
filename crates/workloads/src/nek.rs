//! Nek5000 "eddy" — a spectral-element CFD mini-app.
//!
//! The paper's production code: 48 target data objects (main simulation
//! variables and geometry arrays of the Nek5000 core, 35% of the
//! footprint), eddy test problem on a 256×256 mesh. What matters for the
//! reproduction is Nek5000's distinguishing behaviour: **memory access
//! patterns vary across phases and across iterations** (projection-space
//! growth in the pressure solver, shifting element workloads), which
//! (a) trips the >10% variation monitor so Unimem re-profiles and keeps
//! migrating (102 migrations, 1.1 GB moved in Table 4), and (b) defeats a
//! static offline-profiled placement — the 10% X-Mem gap of Fig. 9/10.
//!
//! The drift is deterministic and comes in script epochs of
//! `DRIFT_PERIOD` iterations (`Workload::script_epoch`): from one epoch
//! to the next the pressure solve's Krylov depth alternates, and the
//! "hot" geometry block rotates as the eddy advects across the element
//! layout. Inside an epoch every iteration runs the same script.

use crate::classes::{scaled_bytes, Class};
use crate::helpers::{gather, stream, stream_rw};
use unimem::exec::{ComputeSpec, StepSpec, Workload};
use unimem_hms::object::ObjectSpec;
use unimem_sim::{Bytes, VDur};

/// Simulation variables: vx, vy, vz, pr, t, plus three work fields.
const N_FIELDS: u32 = 8;
/// Geometry blocks: rxm1..tzm1-style metric arrays.
const N_GEOM: u32 = 6;
/// Small per-element work arrays to reach Nek5000's 48 target objects.
const N_WORK: u32 = 34;

const FIELD_C: u64 = 140 << 20;
const GEOM_C: u64 = 100 << 20;
const WORK_C: u64 = 12 << 20;

/// Advection period, in iterations: one script epoch, after which the
/// hot geometry block rotates.
const DRIFT_PERIOD: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Nek {
    pub class: Class,
}

impl Nek {
    pub fn new(class: Class) -> Nek {
        Nek { class }
    }

    fn field(&self, nranks: usize) -> u64 {
        scaled_bytes(FIELD_C, self.class, nranks)
    }

    fn geom(&self, nranks: usize) -> u64 {
        scaled_bytes(GEOM_C, self.class, nranks)
    }
}

impl Workload for Nek {
    fn name(&self) -> String {
        format!("Nek5000-eddy.{}", self.class.name())
    }

    fn objects(&self, _rank: usize, nranks: usize) -> Vec<ObjectSpec> {
        let it = self.class.iterations() as f64;
        let field = self.field(nranks);
        let geom = self.geom(nranks);
        let work = scaled_bytes(WORK_C, self.class, nranks);
        let names = ["vx", "vy", "vz", "pr", "t", "wk1", "wk2", "wk3"];
        let mut objs: Vec<ObjectSpec> = names
            .iter()
            .map(|n| ObjectSpec::new(*n, Bytes(field)).est_refs(it * field as f64 / 8.0))
            .collect();
        for g in 0..N_GEOM {
            // Geometry reference intensity depends on the advected eddy
            // position — unknown before the loop, so no static estimate
            // (est_refs = 0), exactly the paper's convergence-test caveat.
            objs.push(ObjectSpec::new(format!("geom{g}"), Bytes(geom)));
        }
        for w in 0..N_WORK {
            objs.push(
                ObjectSpec::new(format!("work{w}"), Bytes(work)).est_refs(it * work as f64 / 16.0),
            );
        }
        objs
    }

    fn script_epoch(&self, iter: usize) -> usize {
        iter / DRIFT_PERIOD
    }

    fn script(&self, rank: usize, nranks: usize, epoch: usize) -> Vec<StepSpec> {
        let field = self.field(nranks);
        let geom = self.geom(nranks);
        let work = scaled_bytes(WORK_C, self.class, nranks);
        let left = (rank + nranks - 1) % nranks;
        let right = (rank + 1) % nranks;

        // Drift: which geometry block is hot, and how deep the pressure
        // solve iterates this epoch (Krylov depth alternates 1x, 2.2x).
        let hot_geom = N_FIELDS + (epoch as u32 % N_GEOM);
        let krylov = 1.0 + 1.2 * (epoch % 2) as f64;

        let vx = 0u32;
        let vy = 1u32;
        let pr = 3u32;
        let t = 4u32;
        let wk1 = 5u32;
        vec![
            // makef: advection + forcing over the velocity fields.
            StepSpec::Compute(ComputeSpec {
                label: "makef",
                cpu: VDur::from_millis(field as f64 / 8.0 / 4e7),
                accesses: vec![
                    stream_rw(vx, field, 1.5, 0.6),
                    stream_rw(vy, field, 1.5, 0.6),
                    stream(hot_geom, geom, 2.0),
                    stream_rw(wk1, field, 1.0, 0.3),
                ],
            }),
            StepSpec::Halo {
                neighbors: vec![left, right],
                bytes: Bytes(field / 64),
            },
            // Pressure Poisson solve: gather-heavy spectral operators,
            // depth varies with the Krylov cycle.
            StepSpec::Compute(ComputeSpec {
                label: "pressure-solve",
                cpu: VDur::from_millis(krylov * field as f64 / 8.0 / 3e7),
                accesses: vec![
                    gather(pr, field, (krylov * (field / 8) as f64) as u64, field),
                    stream(hot_geom, geom, krylov),
                    stream_rw(wk1, field, krylov, 0.5),
                ],
            }),
            StepSpec::AllreduceSum { bytes: Bytes(8) },
            // Heat / scalar transport.
            StepSpec::Compute(ComputeSpec {
                label: "heat",
                cpu: VDur::from_millis(field as f64 / 8.0 / 5e7),
                accesses: vec![
                    stream_rw(t, field, 1.0, 0.5),
                    stream(vx, field, 0.5),
                    stream(vy, field, 0.5),
                    stream(N_FIELDS + N_GEOM, work, 1.0),
                ],
            }),
            StepSpec::AllreduceSum { bytes: Bytes(8) },
        ]
    }

    fn iterations(&self) -> usize {
        // The eddy case runs long; keep enough iterations to see several
        // drift periods.
        self.class.iterations().max(4 * DRIFT_PERIOD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem::exec::{run_workload, Policy};
    use unimem_cache::CacheModel;
    use unimem_hms::MachineConfig;

    #[test]
    fn forty_eight_target_objects() {
        let nek = Nek::new(Class::C);
        assert_eq!(nek.objects(0, 4).len(), 48);
    }

    #[test]
    fn geometry_estimates_are_unknown_statically() {
        let nek = Nek::new(Class::C);
        let objs = nek.objects(0, 4);
        assert!(objs
            .iter()
            .filter(|o| o.name.starts_with("geom"))
            .all(|o| o.est_refs == 0.0));
    }

    #[test]
    fn access_pattern_drifts_across_iterations() {
        let nek = Nek::new(Class::C);
        // The first epoch spans the first `DRIFT_PERIOD` iterations.
        assert!((0..DRIFT_PERIOD).all(|it| nek.script_epoch(it) == 0));
        assert_eq!(nek.script_epoch(DRIFT_PERIOD), 1);
        let s0 = nek.script(0, 4, 0);
        let s_next = nek.script(0, 4, 1);
        // Same structure...
        assert_eq!(s0.len(), s_next.len());
        // ...different hot geometry object.
        let hot = |s: &[StepSpec]| -> u32 {
            if let StepSpec::Compute(c) = &s[0] {
                c.accesses[2].obj.0
            } else {
                unreachable!()
            }
        };
        assert_ne!(hot(&s0), hot(&s_next));
    }

    #[test]
    fn unimem_adapts_and_keeps_migrating() {
        let nek = Nek::new(Class::S);
        let cache = CacheModel::new(Bytes::kib(512));
        let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(2));
        let rep = run_workload(&nek, &m, &cache, 1, &Policy::unimem());
        // Drift must trip the variation monitor at least once and cause
        // follow-up migrations (Table 4: Nek has by far the most).
        assert!(rep.job.reprofiles > 0, "no re-profiling happened");
        assert!(rep.job.migrations.count > 0);
    }
}
