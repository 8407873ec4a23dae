//! Smoke test for the `unimem_repro` façade: every re-exported module must
//! resolve, and one load-bearing symbol per crate must be usable. Catches
//! manifest regressions (a crate dropped from the workspace or the façade)
//! at tier-1 before anything deeper runs.

use unimem_repro::{bench, cache, hms, mpi, perf, runtime, sim, workloads, xmem};

#[test]
fn facade_reexports_resolve() {
    // sim — units and deterministic RNG.
    let cap = sim::Bytes::mib(64);
    assert_eq!(cap.get(), 64 << 20);
    let mut rng = sim::DetRng::seed(7);
    assert_eq!(rng.u64(), sim::DetRng::seed(7).u64());

    // hms — tiering substrate.
    let m = hms::MachineConfig::nvm_bw_fraction(0.5);
    assert!(m.nvm.read_bw.bytes_per_s() < m.dram.read_bw.bytes_per_s());
    let _ = hms::TierKind::Dram;

    // cache — analytic model.
    let model = cache::CacheModel::new(sim::Bytes::kib(512));
    let acc = cache::ObjAccess::new(
        hms::object::ObjId(0),
        1_000,
        sim::Bytes::kib(64),
        cache::AccessPattern::Random,
    );
    assert!(model.misses(&acc, acc.touched).misses <= 1_000);

    // mpi — per-rank virtual clocks meet at a collective's departure.
    let busy = sim::VTime::ZERO + sim::VDur::from_millis(1.0);
    let timing = mpi::collective_timing(
        &[sim::VTime::ZERO, busy],
        mpi::CollectiveKind::Barrier,
        sim::Bytes::ZERO,
        None,
    );
    assert!(timing.leave > busy);

    // perf — Eq. 1 bandwidth estimate is finite and non-negative.
    let bw = perf::eq1_bandwidth(1_000, 50, 100, sim::VDur::from_millis(1.0));
    assert!(bw.is_finite() && bw >= 0.0);

    // runtime (core) — knapsack solver.
    let items = vec![
        runtime::knapsack::Item {
            weight: 5.0,
            size: sim::Bytes(10),
        },
        runtime::knapsack::Item {
            weight: 3.0,
            size: sim::Bytes(20),
        },
    ];
    let (chosen, w) = runtime::knapsack::solve(&items, sim::Bytes(15));
    assert_eq!(chosen, vec![0]);
    assert!((w - 5.0).abs() < 1e-12);

    // workloads — the NPB suite is populated.
    let w = workloads::by_name("CG", workloads::Class::S).expect("CG.S exists");
    assert_eq!(w.name(), "CG.S");

    // xmem + bench — baseline policy and harness helpers link.
    let cachem = cache::CacheModel::new(sim::Bytes::kib(512));
    let _policy = xmem::xmem_policy(w.as_ref(), &m, &cachem, 1);
    let _cache_from_bench = bench::cache();
}
