//! Crash-injection sweep: journal clean runs, kill them at seeded
//! virtual-time points under every durability mode, recover from the
//! durable journal prefix, and report equivalence + recovery cost.
//!
//! ```text
//! cargo run --release --example crash_sweep                 # defaults
//! cargo run --release --example crash_sweep -- --check      # gate on it
//! cargo run --release --example crash_sweep -- --points 5 --seed 7 \
//!     --modes buffered,strict --workloads CG,Nek5000 --ranks 4 \
//!     --profile bw-half --class C --out BENCH_recovery.json
//! ```
//!
//! Every kill point is replayable from `(--seed, index)` alone — the
//! crash harness samples virtual times from a seeded substream, so a CI
//! failure names a crash any machine can reproduce exactly. `--check`
//! exits non-zero when any recovered run is not byte-identical to its
//! clean run, when recovery exceeds the restart-cost bound, or when the
//! forced late Strict crash shows no real advantage over restarting.

use std::path::PathBuf;
use std::process::ExitCode;
use unimem_repro::bench::sweep::{inject_crashes, NvmProfile, Tolerances, CRASH_SEED};
use unimem_repro::cache::CacheModel;
use unimem_repro::hms::journal::DurabilityMode;
use unimem_repro::runtime::exec::Policy;
use unimem_repro::runtime::recovery::RecoverySetup;
use unimem_repro::sim::Json;
use unimem_repro::workloads::{select, Class};

fn usage() -> ! {
    eprintln!(
        "usage: crash_sweep [--points N] [--seed S] [--modes CSV] [--workloads CSV]\n\
         \x20                  [--ranks N] [--profile NAME] [--class S|C|D]\n\
         \x20                  [--out PATH] [--check]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut points = 3usize;
    let mut seed = CRASH_SEED;
    let mut modes: Vec<DurabilityMode> = DurabilityMode::ALL.to_vec();
    let mut workloads: Vec<String> = vec!["CG".into(), "Nek5000".into()];
    let mut nranks = 4usize;
    let mut profile = NvmProfile::BwHalf;
    let mut class = Class::C;
    let mut out = PathBuf::from("BENCH_recovery.json");
    let mut check = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--points" => match value("--points").parse() {
                Ok(n) if n > 0 => points = n,
                _ => usage(),
            },
            "--seed" => match value("--seed").parse() {
                Ok(s) => seed = s,
                _ => usage(),
            },
            "--modes" => {
                modes = value("--modes")
                    .split(',')
                    .map(|s| {
                        DurabilityMode::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!("unknown durability mode {s:?}");
                            std::process::exit(2)
                        })
                    })
                    .collect();
            }
            "--workloads" => {
                workloads = value("--workloads")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--ranks" => match value("--ranks").parse() {
                Ok(n) if n > 0 => nranks = n,
                _ => usage(),
            },
            "--profile" => {
                let v = value("--profile");
                profile = NvmProfile::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown NVM profile {v:?}");
                    std::process::exit(2)
                });
            }
            "--class" => {
                class = match value("--class").to_ascii_uppercase().as_str() {
                    "S" => Class::S,
                    "C" => Class::C,
                    "D" => Class::D,
                    other => {
                        eprintln!("unknown class {other:?} (use S, C, or D)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => out = PathBuf::from(value("--out")),
            "--check" => check = true,
            _ => usage(),
        }
    }

    let names: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let selection = match select(&names, class) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let machine = profile.machine();
    let cache = CacheModel::platform_a();
    let policy = Policy::unimem();
    let tol = Tolerances::default();

    let mut cells = Vec::new();
    let mut failures = 0usize;
    for (canon, w) in &selection {
        let setup = RecoverySetup {
            workload: w.as_ref(),
            machine: &machine,
            cache: &cache,
            nranks,
            policy: &policy,
        };
        let cell = format!("{canon}/{}/r{nranks}", profile.name());
        for kill in inject_crashes(&setup, &modes, seed, points, &tol, &cell) {
            let o = &kill.outcome;
            let ok = kill.violations.is_empty();
            if !ok {
                failures += 1;
            }
            println!(
                "{canon:8} {:9} kill{}@{:.4}s{}  equivalent={} advantage={:.2} {}",
                o.mode.name(),
                kill.index,
                o.crash.at.secs(),
                if o.crash.torn { "+torn" } else { "" },
                o.equivalent(),
                o.stats.advantage(),
                if ok { "ok" } else { "FAIL" },
            );
            let mut cell = Json::obj_with_capacity(10);
            cell.field("workload", canon.as_str())
                .field("kill_index", kill.index)
                .field("forced_late", kill.forced_late)
                .field("equivalent", o.equivalent())
                .field("report_equal", o.report_equal)
                .field("journals_equal", o.journals_equal)
                .field(
                    "durable_records",
                    o.summaries.iter().map(|s| s.records).sum::<u64>(),
                )
                .field(
                    "replayed_observes",
                    o.summaries.iter().map(|s| s.replayed_observes).sum::<u64>(),
                )
                .field("stats", o.stats.to_json())
                .field("ok", ok);
            cells.push(cell);
        }
    }

    let mut report = Json::obj_with_capacity(7);
    report
        .field("seed", seed)
        .field("points", points)
        .field("nranks", nranks)
        .field("profile", profile.name())
        .field("recovery_bound", tol.recovery_bound)
        .field("recovery_advantage_min", tol.recovery_advantage_min)
        .field("cells", Json::Arr(cells));
    if let Err(e) = std::fs::write(&out, report.to_pretty()) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", out.display());

    if check && failures > 0 {
        eprintln!("crash sweep: {failures} failing kill point(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
