//! Wall-clock micro-benchmarks of the runtime machinery (criterion).
//!
//! These measure the *real* cost of the pieces the simulation charges
//! virtual costs for: the knapsack solver, the sampler, the analytic cache
//! model, the real helper thread + FIFO queue (actual memcpy between the
//! accounted pools), and one end-to-end `run_workload` call.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use unimem::exec::{run_workload, Policy};
use unimem::knapsack::{solve, Item};
use unimem_cache::{AccessPattern, CacheModel, ObjAccess};
use unimem_hms::object::ObjId;
use unimem_hms::pools::{HelperThread, RealHms};
use unimem_hms::tier::TierKind;
use unimem_hms::MachineConfig;
use unimem_perf::kernels::{build_chase_ring, pointer_chase, stream_triad};
use unimem_perf::sampler::{GroundTruth, Sampler, SamplerConfig};
use unimem_sim::{Bytes, DetRng, VDur};
use unimem_workloads::{by_name, Class};

fn bench_knapsack(c: &mut Criterion) {
    let mut rng = DetRng::seed(42);
    let items: Vec<Item> = (0..96)
        .map(|_| Item {
            weight: rng.range_f64(-1.0, 10.0),
            size: Bytes(1 + rng.u64() % (64 << 20)),
        })
        .collect();
    c.bench_function("knapsack_dp_96_items_256MB", |b| {
        b.iter(|| solve(black_box(&items), Bytes::mib(256)))
    });
}

fn bench_sampler(c: &mut Criterion) {
    let truths: Vec<GroundTruth> = (0..16)
        .map(|i| GroundTruth {
            unit: unimem_hms::object::UnitId::whole(ObjId(i)),
            misses: 1_000_000 + u64::from(i) * 50_000,
            miss_bytes: Bytes(64_000_000),
            mem_time: VDur::from_millis(5.0),
        })
        .collect();
    c.bench_function("sampler_phase_16_objects", |b| {
        b.iter_batched(
            || Sampler::new(SamplerConfig::default(), 7),
            |mut s| s.sample_phase(VDur::from_millis(80.0), black_box(&truths)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_cache_model(c: &mut Criterion) {
    let model = CacheModel::platform_a();
    let accs: Vec<ObjAccess> = (0..24)
        .map(|i| {
            ObjAccess::new(
                ObjId(i),
                10_000_000,
                Bytes::mib(64),
                if i % 2 == 0 {
                    AccessPattern::Streaming { stride: Bytes(8) }
                } else {
                    AccessPattern::Random
                },
            )
        })
        .collect();
    c.bench_function("cache_model_phase_24_objects", |b| {
        b.iter(|| model.phase_misses(black_box(&accs)))
    });
}

fn bench_helper_thread(c: &mut Criterion) {
    c.bench_function("helper_thread_migrate_4MB", |b| {
        let hms = RealHms::new(Bytes::mib(512));
        let helper = HelperThread::spawn();
        let obj = hms.alloc("bench", Bytes::mib(4), TierKind::Nvm).unwrap();
        let mut to_dram = true;
        b.iter(|| {
            let tier = if to_dram {
                TierKind::Dram
            } else {
                TierKind::Nvm
            };
            to_dram = !to_dram;
            helper.migrate(Arc::clone(&obj), tier).wait()
        });
    });
}

fn bench_driver(c: &mut Criterion) {
    let w = by_name("CG", Class::S).unwrap();
    let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(4));
    let cache = CacheModel::new(Bytes::kib(512));
    c.bench_function("driver_cg_class_s_unimem_1rank", |b| {
        b.iter(|| run_workload(black_box(w.as_ref()), &m, &cache, 1, &Policy::unimem()))
    });
}

fn bench_kernels(c: &mut Criterion) {
    let n = 1 << 20;
    let bvec = vec![1.0f64; n];
    let cvec = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    c.bench_function("stream_triad_8MB", |b| {
        b.iter(|| stream_triad(black_box(&mut a), &bvec, &cvec, 3.0))
    });
    let mut rng = DetRng::seed(1);
    let ring = build_chase_ring(1 << 18, &mut rng);
    c.bench_function("pointer_chase_256k_hops", |b| {
        b.iter(|| pointer_chase(black_box(&ring), 1 << 18))
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_knapsack,
    bench_sampler,
    bench_cache_model,
    bench_helper_thread,
    bench_driver,
    bench_kernels
);
criterion_main!(micro);
