//! Refactor guards for the cluster-topology tentpole: the machine-room
//! code paths must be invisible where they are not asked for.
//!
//! Three claims pinned here (`tests/golden.rs` pins multi-node report
//! bytes):
//!
//! 1. **Flat ≡ single room** — `run_workload` (the legacy flat entry
//!    point) and `run_workload_clustered` on a one-node
//!    `ClusterSpec::homogeneous` room produce byte-identical
//!    `RunReport` JSON. The clustered driver is a strict
//!    generalization, not a parallel implementation that happens to
//!    agree.
//! 2. **Weak scaling** — the 64-rank weak-scaling probe (paper Fig. 12
//!    shape) passes under the default tolerances.
//! 3. **Slots, not `ranks_per_node`** — a room's node slot counts set
//!    each rank's DRAM share for the planner and the service alike, so
//!    the machine config's own `ranks_per_node` changes no byte.

use unimem_repro::bench::sweep::NvmProfile;
use unimem_repro::cache::CacheModel;
use unimem_repro::hms::topology::{ClusterSpec, ClusterTopology};
use unimem_repro::runtime::exec::{run_workload, run_workload_clustered, Policy};
use unimem_repro::workloads::{select, Class};

/// The (workload, machine, cache) tuple the identity test uses: CG
/// touches every collective kind and Class S keeps each run cheap.
fn rig() -> (
    Box<dyn unimem_repro::runtime::Workload>,
    unimem_repro::hms::MachineConfig,
    CacheModel,
) {
    let mut selection = select(&["CG"], Class::S).expect("CG is known");
    let (_, w) = selection.remove(0);
    let machine = NvmProfile::BwHalf.machine().with_ranks_per_node(4);
    (w, machine, CacheModel::platform_a())
}

#[test]
fn flat_run_is_byte_identical_to_a_single_room_clustered_run() {
    let (w, machine, cache) = rig();
    for policy in [Policy::DramOnly, Policy::unimem()] {
        let flat = run_workload(w.as_ref(), &machine, &cache, 4, &policy);
        let room = ClusterSpec::homogeneous(machine.clone(), 1, 4);
        let topo = ClusterTopology::contiguous(room, 4);
        let clustered = run_workload_clustered(w.as_ref(), &topo, &cache, &policy);
        assert_eq!(
            flat.to_json().to_pretty(),
            clustered.to_json().to_pretty(),
            "single-room clustered run diverged from the flat driver ({policy:?})"
        );
    }
}

#[test]
fn weak_scaling_probe_passes_at_64_ranks_under_default_tolerances() {
    use unimem_repro::bench::sweep::{check_weak_scaling, SweepConfig, Tolerances};

    // The probe reads only the first workload/profile; trimming the
    // config keeps this independent of future axis growth.
    let mut cfg = SweepConfig::reduced();
    cfg.workloads.truncate(1);
    cfg.profiles.truncate(1);
    let violations = check_weak_scaling(&cfg, &Tolerances::default());
    assert!(
        violations.is_empty(),
        "Fig. 12 weak-scaling shape violated: {violations:?}"
    );
}

#[test]
fn room_reports_ignore_the_machine_ranks_per_node() {
    let cache = CacheModel::platform_a();
    let room = |rpn: usize| {
        let machine = NvmProfile::BwHalf.machine().with_ranks_per_node(rpn);
        ClusterTopology::contiguous(ClusterSpec::homogeneous(machine, 2, 4), 8)
    };
    let (one, four) = (room(1), room(4));
    for (name, w) in select(&["CG", "Nek5000", "FT", "SP"], Class::C).expect("known workloads") {
        for policy in [
            Policy::unimem(),
            Policy::online_guidance(),
            Policy::hw_cache(),
        ] {
            assert_eq!(
                run_workload_clustered(w.as_ref(), &one, &cache, &policy)
                    .to_json()
                    .to_pretty(),
                run_workload_clustered(w.as_ref(), &four, &cache, &policy)
                    .to_json()
                    .to_pretty(),
                "{name} under {} read the machine's ranks_per_node",
                policy.label()
            );
        }
    }
}
