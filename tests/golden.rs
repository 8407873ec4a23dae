//! Byte-identity guards: the committed `BENCH_sweep.json` is the
//! behaviour contract every refactor must keep.
//!
//! The sweep's output is virtual-time and schedule-independent by
//! construction, so the guards are maximal. The reduced matrix must
//! reproduce the committed bytes on the serial path and on pools of 4
//! and 8 workers (8 oversubscribes small hosts on purpose), and from a
//! cold and a fully-warm cell cache. The four legacy policies, run on
//! their own, must reproduce the committed report projected onto them:
//! the baseline the policy layer's rewrites have kept since those four
//! were its only policies.
//!
//! Multi-node reports are pinned by digest: the reduced matrix over the
//! topology axis CI's `topology-sweep` leg runs. The full matrix is
//! pinned too, at five DRAM capacities, and so is the repository
//! benchmark's `rooms` matrix. Those two tests are `#[ignore]`d because
//! a debug build runs them too slowly; run them on a release build:
//! `cargo test --release -q --test golden -- --ignored`.
//!
//! Reports see the order of a rank's migrations only through timing, so
//! the Strict journals of the two migrating software policies are pinned
//! by digest as well, record for record.

use unimem_repro::bench::sweep::cache::{ENGINE_FINGERPRINT, ENGINE_HISTORY};
use unimem_repro::bench::sweep::{
    run_sweep_cached, NvmProfile, PolicyKind, SweepCache, SweepConfig, TopologySpec,
};
use unimem_repro::cache::CacheModel;
use unimem_repro::hms::journal::DurabilityMode;
use unimem_repro::runtime::exec::Policy;
use unimem_repro::runtime::recovery::RecoverySetup;
use unimem_repro::sim::{json_digest_hex, Bytes, Fnv128, Json};
use unimem_repro::workloads::{select, Class, SUITE_NAMES};

const GOLDEN: &str = include_str!("../BENCH_sweep.json");

/// The policies the sweep had before `online-guidance` and `hw-cache`.
const LEGACY: [PolicyKind; 4] = [
    PolicyKind::Unimem,
    PolicyKind::Xmem,
    PolicyKind::DramOnly,
    PolicyKind::NvmOnly,
];

/// Panic with the first differing line when `got` is not `want`.
fn assert_same_bytes(what: &str, got: &str, want: &str) {
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1);
        panic!(
            "{what} diverges from the committed BENCH_sweep.json ({} vs {} bytes; \
             first differing line: {line:?})",
            got.len(),
            want.len(),
        );
    }
}

fn reduced_report(cfg: &SweepConfig, jobs: usize) -> String {
    run_sweep_cached(cfg, jobs, None)
        .expect("reduced sweep runs")
        .to_json()
        .to_pretty()
}

/// The committed report restricted to `policies`: the `policies` axis
/// and `n_cells` rewritten, the other policies' cells dropped, and
/// everything else, the co-run cells included, untouched.
fn golden_projected_onto(policies: &[PolicyKind]) -> Json {
    let mut report = Json::parse(GOLDEN).expect("the committed report parses");
    let Json::Obj(members) = &mut report else {
        panic!("the committed report is not a JSON object");
    };
    let kept = |v: &Json| policies.iter().any(|p| v.as_str() == Some(p.name()));
    let mut n_cells = 0;
    for (key, value) in members.iter_mut() {
        match (key.as_ref(), value) {
            ("policies", Json::Arr(names)) => names.retain(kept),
            ("cells", Json::Arr(cells)) => {
                cells.retain(|c| c.get("policy").is_some_and(kept));
                n_cells = cells.len();
            }
            _ => {}
        }
    }
    for (key, value) in members.iter_mut() {
        if key == "n_cells" {
            *value = Json::UInt(n_cells as u64);
        }
    }
    report
}

/// Every engine fingerprint names one reduced-matrix report: the
/// fingerprints are distinct, the current one is the last, and it carries
/// the committed `BENCH_sweep.json`'s digest. A change that moves report
/// bytes fails here until it appends a new fingerprint with the new
/// digest, so no sweep cache serves the old engine's cells.
#[test]
fn engine_fingerprint_pairs_with_the_committed_report() {
    let (current, digest) = ENGINE_HISTORY[ENGINE_HISTORY.len() - 1];
    assert_eq!(
        current, ENGINE_FINGERPRINT,
        "the current fingerprint is last"
    );
    assert_eq!(
        Fnv128::new().update(GOLDEN.as_bytes()).finish_hex(),
        digest,
        "BENCH_sweep.json moved: append a new fingerprint with its digest"
    );
    for (i, (a, da)) in ENGINE_HISTORY.iter().enumerate() {
        for (b, db) in &ENGINE_HISTORY[i + 1..] {
            assert!(a != b && da != db, "{a} and {b} repeat an entry");
        }
    }
}

#[test]
fn serial_path_reproduces_the_committed_sweep_bytes() {
    let got = reduced_report(&SweepConfig::reduced(), 1);
    assert_same_bytes("the serial sweep", &got, GOLDEN);
}

/// The journal hooks thread an `Option<JournalHandle>` through the
/// driver, the policies and the migration engine. With no journal (the
/// default) the run must be not merely cheap but invisible.
#[test]
fn journal_disabled_path_reproduces_the_committed_sweep_bytes() {
    let got = reduced_report(&SweepConfig::reduced(), 4);
    assert_same_bytes("the journal-free sweep on 4 workers", &got, GOLDEN);
}

#[test]
fn wide_pool_reproduces_the_committed_sweep_bytes() {
    let got = reduced_report(&SweepConfig::reduced(), 8);
    assert_same_bytes("the sweep on 8 workers", &got, GOLDEN);
}

/// A cold cached run and a fully-warm rerun must both reproduce the
/// committed bytes: on a warm run every cell is reconstructed from disk,
/// so this exercises the full-fidelity (de)serialization of every cell.
#[test]
fn cached_runs_reproduce_the_committed_sweep_bytes() {
    let dir = std::env::temp_dir().join(format!("unimem-golden-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = SweepCache::open(&dir).expect("cache opens");
    let cfg = SweepConfig::reduced();

    let cold = run_sweep_cached(&cfg, 1, Some(&store)).expect("cold cached sweep runs");
    assert_eq!(cold.cache_hits, 0, "cold cache cannot hit");
    assert_same_bytes("the cold cached run", &cold.to_json().to_pretty(), GOLDEN);

    let warm = run_sweep_cached(&cfg, 1, Some(&store)).expect("warm cached sweep runs");
    assert_eq!(
        warm.cache_hits, warm.cache_lookups,
        "a rerun of the identical matrix must answer every lookup from disk"
    );
    assert_same_bytes(
        "the warm (all-cells-from-disk) run",
        &warm.to_json().to_pretty(),
        GOLDEN,
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The placement-policy refactor guard: the four legacy policies,
/// regenerated through today's policy layer, produce exactly the
/// committed report's cells for those policies.
#[test]
fn legacy_policies_reproduce_the_projected_sweep_bytes() {
    let mut cfg = SweepConfig::reduced();
    cfg.policies = LEGACY.to_vec();
    assert_same_bytes(
        "the four-policy sweep",
        &reduced_report(&cfg, 4),
        &golden_projected_onto(&LEGACY).to_pretty(),
    );
}

/// The reduced matrix beside a two-node room per profile and a mixed
/// bw-half+pcram room: two-level collectives, link metering, per-room
/// DRAM-only baselines and per-node-class calibration, by digest.
#[test]
fn topology_axis_digest_is_pinned() {
    let cfg = SweepConfig {
        topologies: ["flat", "nodes2", "mixed:bw-half+pcram"]
            .map(|t| TopologySpec::parse(t).expect("topology parses"))
            .to_vec(),
        ..SweepConfig::reduced()
    };
    let report = run_sweep_cached(&cfg, 2, None).expect("topology sweep runs");
    assert_eq!(
        json_digest_hex(&report.to_json()),
        "6dbfd1c24f13bb1d4958539ff23811d0"
    );
}

/// `json_digest_hex` of the full-matrix report at each per-node DRAM
/// capacity (MiB) the repository benchmark draws from.
const FULL_MATRIX_DIGESTS: [(u64, &str); 5] = [
    (192, "0c2480f6fabb4809e5bbd74f5bf1cc16"),
    (224, "fe0bcf8b67998bed645b4673e4ee6200"),
    (256, "29680a69e4d879f9aeaeb3aeef98d9c1"),
    (288, "a8e734b227c3ce584d97316c67e15007"),
    (320, "6cd7fec025e11c20a4be6ee2a105c108"),
];

/// The committed file pins only the reduced matrix. The full matrix
/// reaches knapsack inputs the reduced one never builds (8 ranks, four
/// ranks per node, the Table-1 profiles, co-runs), and the capacities
/// move which items fit; these digests pin every one of those reports.
#[test]
#[ignore = "slow without optimizations; run with --release -- --ignored"]
fn full_matrix_digests_are_pinned() {
    for (mib, want) in FULL_MATRIX_DIGESTS {
        let cfg = SweepConfig {
            dram_capacity: Some(Bytes(mib << 20)),
            ..SweepConfig::full()
        };
        let report = run_sweep_cached(&cfg, 2, None).expect("full sweep runs");
        assert_eq!(
            json_digest_hex(&report.to_json()),
            want,
            "full matrix at {mib} MiB"
        );
    }
}

/// The repository benchmark's `rooms` matrix at 224 MiB: 256 ranks, four
/// per node, in a 64-node bw-half room.
#[test]
#[ignore = "slow without optimizations; run with --release -- --ignored"]
fn rooms_matrix_digest_is_pinned() {
    let cfg = SweepConfig {
        profiles: vec![NvmProfile::BwHalf],
        ranks: vec![256],
        ranks_per_node: vec![1],
        topologies: vec![TopologySpec::Nodes { count: 64 }],
        dram_capacity: Some(Bytes(224 << 20)),
        coruns: vec![],
        arbiters: vec![],
        ..SweepConfig::reduced()
    };
    let report = run_sweep_cached(&cfg, 1, None).expect("rooms sweep runs");
    assert_eq!(
        json_digest_hex(&report.to_json()),
        "1d7960830cf8ed9668ab13c27bcc7d0c"
    );
}

/// `Fnv128` of the Strict journals of a 4-rank run on the bw-half
/// profile, per reduced-matrix workload: `(workload, unimem,
/// online-guidance)`. Each rank's journal is folded in rank order, its
/// byte length first.
const JOURNAL_DIGESTS: [(&str, &str, &str); 7] = [
    (
        "CG",
        "db1fe0fba4eccea5e48012a0a1d8b6ed",
        "e564d087c68b58ef18fda1834a456525",
    ),
    (
        "FT",
        "bd54f658d81b7900a104a4682a72ece1",
        "5243043b7c415fc37cdfe2fe6c7173dd",
    ),
    (
        "BT",
        "9c17788f634a2f46c7f1106cb9258191",
        "62bbb7e0be79d6630a3df38153f0509f",
    ),
    (
        "LU",
        "5651ceec60aa5497372a490a4c6501dd",
        "3a8fd29e5bce7eaec38c3917e45b933a",
    ),
    (
        "SP",
        "09f1d2184e18557dd5e3a6bc95881a0d",
        "78f935cd9d882b7f598a87a0d49dda95",
    ),
    (
        "MG",
        "bbfdaaa0e4e7b4fd3f5d7178aa4c7b25",
        "b3794b20922a4b97e3bec89ac6c9c4dd",
    ),
    (
        "Nek5000",
        "c44183cc64871b539aa45f09ae269c4c",
        "8ff431d499325ef970d79e35aea29aee",
    ),
];

/// The journals record every migration intent in the order the rank's
/// placement sets iterate, which no report byte shows directly.
#[test]
fn strict_journal_digests_are_pinned() {
    assert_eq!(JOURNAL_DIGESTS.map(|(name, ..)| name), SUITE_NAMES);
    let machine = NvmProfile::BwHalf.machine();
    let cache = CacheModel::platform_a();
    for (name, unimem, online) in JOURNAL_DIGESTS {
        let (_, workload) = select(&[name], Class::C).expect("suite workload").remove(0);
        for (policy, want) in [
            (Policy::unimem(), unimem),
            (Policy::online_guidance(), online),
        ] {
            let setup = RecoverySetup {
                workload: workload.as_ref(),
                machine: &machine,
                cache: &cache,
                nranks: 4,
                policy: &policy,
            };
            let digest = setup
                .run_journaled(DurabilityMode::Strict)
                .journals
                .iter()
                .fold(Fnv128::new(), |h, j| {
                    h.update(&(j.len() as u64).to_le_bytes()).update(j)
                })
                .finish_hex();
            assert_eq!(digest, want, "{name} under {}", policy.label());
        }
    }
}
