//! SP — scalar-pentadiagonal ADI solver (NPB).
//!
//! The paper's placement case study (Fig. 4) uses SP's four critical data
//! objects: `lhs` (the pentadiagonal systems — forward/backward
//! elimination is a dependent recurrence: latency-sensitive, not
//! bandwidth), `rhs` (streamed in the RHS evaluation *and* chased in the
//! solves: sensitive to both), and the `in/out` message buffers (pure
//! pack/unpack streams: bandwidth-sensitive, not latency). Initial data
//! placement contributes most of Unimem's win on SP (87%, Fig. 11).

use crate::classes::{scaled_bytes, Class};
use crate::helpers::{chase, stream, stream_rw};
use unimem::exec::{ComputeSpec, StepSpec, Workload};
use unimem_hms::object::ObjectSpec;
use unimem_sim::{Bytes, VDur};

pub const U: u32 = 0;
pub const US: u32 = 1;
pub const VS: u32 = 2;
pub const WS: u32 = 3;
pub const QS: u32 = 4;
pub const RHO_I: u32 = 5;
pub const SQUARE: u32 = 6;
pub const SPEED: u32 = 7;
pub const RHS: u32 = 8;
pub const FORCING: u32 = 9;
pub const LHS: u32 = 10;
pub const OUT_BUFFER: u32 = 11;
pub const IN_BUFFER: u32 = 12;

const GRID5_C: u64 = 170 << 20;
const GRID1_C: u64 = 34 << 20;
const LHS_C: u64 = 510 << 20; // 15 coefficients per point
const BUF_C: u64 = 128 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Sp {
    pub class: Class,
}

impl Sp {
    pub fn new(class: Class) -> Sp {
        Sp { class }
    }

    fn solve(&self, nranks: usize, label: &'static str, vel: u32) -> StepSpec {
        let lhs = scaled_bytes(LHS_C, self.class, nranks);
        let grid5 = scaled_bytes(GRID5_C, self.class, nranks);
        let grid1 = scaled_bytes(GRID1_C, self.class, nranks);
        StepSpec::Compute(ComputeSpec {
            label,
            cpu: VDur::from_millis(grid5 as f64 / 8.0 / 3e7),
            accesses: vec![
                // Pentadiagonal elimination: dependent recurrences through
                // the factors — the latency-sensitive core of SP.
                chase(LHS, lhs, lhs / 8 / 6),
                stream(LHS, lhs, 0.3),
                stream_rw(RHS, grid5, 0.7, 0.5),
                chase(RHS, grid5, grid5 / 8 / 16),
                stream(vel, grid1, 1.0),
                stream(SPEED, grid1, 1.0),
            ],
        })
    }
}

impl Workload for Sp {
    fn name(&self) -> String {
        format!("SP.{}", self.class.name())
    }

    fn objects(&self, _rank: usize, nranks: usize) -> Vec<ObjectSpec> {
        let s = |b: u64| scaled_bytes(b, self.class, nranks);
        let it = self.class.iterations() as f64;
        let grid5 = s(GRID5_C);
        let grid1 = s(GRID1_C);
        let mut objs =
            vec![ObjectSpec::new("u", Bytes(grid5)).est_refs(it * 2.0 * grid5 as f64 / 8.0)];
        for name in ["us", "vs", "ws", "qs", "rho_i", "square", "speed"] {
            objs.push(ObjectSpec::new(name, Bytes(grid1)).est_refs(it * 2.0 * grid1 as f64 / 8.0));
        }
        objs.push(ObjectSpec::new("rhs", Bytes(grid5)).est_refs(it * 5.0 * grid5 as f64 / 8.0));
        objs.push(ObjectSpec::new("forcing", Bytes(grid5)).est_refs(it * grid5 as f64 / 8.0));
        objs.push(
            ObjectSpec::new("lhs", Bytes(s(LHS_C)))
                .partitionable(true)
                .est_refs(it * 4.0 * s(LHS_C) as f64 / 8.0),
        );
        objs.push(
            ObjectSpec::new("out_buffer", Bytes(s(BUF_C))).est_refs(it * s(BUF_C) as f64 / 8.0),
        );
        objs.push(
            ObjectSpec::new("in_buffer", Bytes(s(BUF_C))).est_refs(it * s(BUF_C) as f64 / 8.0),
        );
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
            // RHS evaluation + pack: streams everything once, fills the
            // outgoing halo buffer.
            StepSpec::Compute(ComputeSpec {
                label: "compute_rhs+pack",
                cpu: VDur::from_millis(grid5 as f64 / 8.0 / 3e7),
                accesses: vec![
                    stream(U, grid5, 1.0),
                    stream_rw(RHS, grid5, 1.5, 0.4),
                    stream(FORCING, grid5, 1.0),
                    stream(US, grid1, 1.0),
                    stream(VS, grid1, 1.0),
                    stream(WS, grid1, 1.0),
                    stream(QS, grid1, 1.0),
                    stream(RHO_I, grid1, 1.0),
                    stream(SQUARE, grid1, 1.0),
                    stream_rw(OUT_BUFFER, s(BUF_C), 1.5, 0.1),
                ],
            }),
            StepSpec::Halo {
                neighbors: vec![left, right],
                bytes: Bytes(s(BUF_C) / 8),
            },
            // Unpack the incoming halo.
            StepSpec::Compute(ComputeSpec {
                label: "unpack",
                cpu: VDur::from_millis(s(BUF_C) as f64 / 8.0 / 8e7),
                accesses: vec![
                    stream(IN_BUFFER, s(BUF_C), 1.5),
                    stream_rw(RHS, grid5, 0.3, 0.2),
                ],
            }),
            self.solve(nranks, "x_solve", US),
            self.solve(nranks, "y_solve", VS),
            self.solve(nranks, "z_solve", WS),
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
    use unimem_sim::VDur;

    fn slowdown(w: &Sp, m: &MachineConfig, pin: Option<&str>) -> f64 {
        let cache = CacheModel::new(Bytes::kib(512));
        let dram = run_workload(w, m, &cache, 1, &Policy::DramOnly).time();
        let policy = match pin {
            None => Policy::NvmOnly,
            Some(name) => Policy::Static {
                in_dram: vec![name.to_string()],
                label: format!("pin {name}"),
            },
        };
        let t: VDur = run_workload(w, m, &cache, 1, &policy).time();
        t.secs() / dram.secs()
    }

    #[test]
    fn thirteen_objects_match_table3() {
        let sp = Sp::new(Class::C);
        let names: Vec<String> = sp.objects(0, 4).iter().map(|o| o.name.clone()).collect();
        assert!(names.contains(&"lhs".to_string()));
        assert!(names.contains(&"in_buffer".to_string()));
        assert!(names.contains(&"out_buffer".to_string()));
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn fig4_lhs_is_latency_sensitive_not_bandwidth() {
        let sp = Sp::new(Class::S);
        let m_bw = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::gib(1));
        let m_lat = MachineConfig::nvm_lat_multiple(4.0).with_dram_capacity(Bytes::gib(1));
        // Pinning lhs recovers a bigger share of the gap under 4× latency
        // than under ½ bandwidth.
        let gain_lat = slowdown(&sp, &m_lat, None) - slowdown(&sp, &m_lat, Some("lhs"));
        let gain_bw = slowdown(&sp, &m_bw, None) - slowdown(&sp, &m_bw, Some("lhs"));
        assert!(
            gain_lat > gain_bw + 0.02,
            "lhs: lat gain {gain_lat:.3} vs bw gain {gain_bw:.3}"
        );
    }

    #[test]
    fn fig4_buffers_are_bandwidth_sensitive_not_latency() {
        let sp = Sp::new(Class::S);
        let m_bw = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::gib(1));
        let m_lat = MachineConfig::nvm_lat_multiple(4.0).with_dram_capacity(Bytes::gib(1));
        let base_bw = slowdown(&sp, &m_bw, None);
        let base_lat = slowdown(&sp, &m_lat, None);
        let pin_bw = {
            let cache = CacheModel::new(Bytes::kib(512));
            let dram = run_workload(&sp, &m_bw, &cache, 1, &Policy::DramOnly).time();
            let t = run_workload(
                &sp,
                &m_bw,
                &cache,
                1,
                &Policy::Static {
                    in_dram: vec!["in_buffer".into(), "out_buffer".into()],
                    label: "pin buffers".into(),
                },
            )
            .time();
            t.secs() / dram.secs()
        };
        let pin_lat = {
            let cache = CacheModel::new(Bytes::kib(512));
            let dram = run_workload(&sp, &m_lat, &cache, 1, &Policy::DramOnly).time();
            let t = run_workload(
                &sp,
                &m_lat,
                &cache,
                1,
                &Policy::Static {
                    in_dram: vec!["in_buffer".into(), "out_buffer".into()],
                    label: "pin buffers".into(),
                },
            )
            .time();
            t.secs() / dram.secs()
        };
        let gain_bw = base_bw - pin_bw;
        let gain_lat = base_lat - pin_lat;
        assert!(
            gain_bw > gain_lat,
            "buffers: bw gain {gain_bw:.3} vs lat gain {gain_lat:.3}"
        );
    }
}
