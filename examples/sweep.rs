//! Evaluation-matrix sweep driver: run workloads × policies × NVM
//! profiles × rank counts, write `BENCH_sweep.json`, and (optionally)
//! judge the result against the paper's claims.
//!
//! ```text
//! cargo run --release --example sweep                      # reduced matrix
//! cargo run --release --example sweep -- --full            # full matrix
//! cargo run --release --example sweep -- --check           # + conformance
//! cargo run --release --example sweep -- --out MY.json
//! cargo run --release --example sweep -- --workloads CG,Nek5000 \
//!     --profiles bw-half,pcram --ranks 1,4 --rpn 1,2 --class C
//! cargo run --release --example sweep -- --full --jobs 8   # worker pool
//! cargo run --release --example sweep -- --mixes LU+MG,FT+BT+MG \
//!     --arbiters fair-share,priority                       # co-run axes
//! cargo run --release --example sweep -- \
//!     --topologies flat,nodes4,mixed:bw-half+pcram         # machine rooms
//! cargo run --release --example sweep -- --cache .sweep-cache  # reuse cells
//! ```
//!
//! `--jobs N` sets the worker-pool width (default: the host's available
//! parallelism). The report is byte-identical for every N — `--jobs 1`
//! reproduces the serial path bit-for-bit.
//!
//! `--check` exits non-zero when any conformance check fails, so the CI
//! job can gate on it. See the README's "Evaluation-matrix sweep" section
//! for the report schema and the tolerance ↔ figure mapping.
//!
//! `--cache DIR` turns on the content-addressed cell cache: finished
//! cells persist under `DIR` and later sweeps containing the same cells
//! load them instead of recomputing (`--no-cache` turns a previously
//! scripted cache off; the last flag wins). The report bytes are
//! byte-identical with or without a cache. `--min-hit-rate F` (0..=1)
//! exits non-zero when the hit rate falls below `F` — the warm-rerun CI
//! job gates on it.

use std::path::PathBuf;
use std::process::ExitCode;
use unimem_repro::bench::sweep::{
    check_determinism, check_recovery, check_report, check_weak_scaling, default_workers,
    run_sweep_cached, ArbiterPolicy, NvmProfile, PolicyKind, SweepCache, SweepConfig, Tolerances,
    TopologySpec,
};
use unimem_repro::workloads::{corun, Class};

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--full] [--check] [--out PATH] [--class S|C|D] [--jobs N]\n\
         \x20            [--workloads CSV] [--policies CSV] [--profiles CSV] [--ranks CSV]\n\
         \x20            [--rpn CSV of ranks-per-node] [--mixes CSV of A+B[+C]] [--arbiters CSV]\n\
         \x20            [--topologies CSV of flat|nodesN|mixed:a+b]\n\
         \x20            [--cache DIR] [--no-cache] [--min-hit-rate F]"
    );
    std::process::exit(2)
}

fn parse_csv<T>(arg: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    arg.split(',')
        .map(|s| {
            parse(s.trim()).unwrap_or_else(|| {
                eprintln!("unknown {what} {s:?}");
                std::process::exit(2)
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let mut cfg = SweepConfig::reduced();
    let mut out = PathBuf::from("BENCH_sweep.json");
    let mut check = false;
    let mut full = false;
    let mut jobs = default_workers();
    let mut cache_dir: Option<PathBuf> = None;
    let mut min_hit_rate: Option<f64> = None;
    let (mut explicit_profiles, mut explicit_ranks, mut explicit_mixes) = (false, false, false);
    let mut explicit_rpn = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--full" => full = true,
            "--check" => check = true,
            "--out" => out = PathBuf::from(value("--out")),
            "--cache" => cache_dir = Some(PathBuf::from(value("--cache"))),
            "--no-cache" => cache_dir = None,
            "--min-hit-rate" => {
                min_hit_rate = match value("--min-hit-rate").parse::<f64>() {
                    Ok(f) if (0.0..=1.0).contains(&f) => Some(f),
                    _ => {
                        eprintln!("--min-hit-rate needs a fraction in 0..=1");
                        return ExitCode::from(2);
                    }
                }
            }
            "--jobs" => {
                jobs = match value("--jobs").parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--jobs needs a positive integer");
                        return ExitCode::from(2);
                    }
                }
            }
            "--class" => {
                cfg.class = match value("--class").to_ascii_uppercase().as_str() {
                    "S" => Class::S,
                    "C" => Class::C,
                    "D" => Class::D,
                    other => {
                        eprintln!("unknown class {other:?} (use S, C, or D)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--workloads" => {
                cfg.workloads = value("--workloads")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            "--policies" => {
                cfg.policies = parse_csv(&value("--policies"), "policy", PolicyKind::from_name)
            }
            "--profiles" => {
                cfg.profiles = parse_csv(&value("--profiles"), "profile", NvmProfile::parse);
                explicit_profiles = true;
            }
            "--ranks" => {
                cfg.ranks = parse_csv(&value("--ranks"), "rank count", |s| {
                    s.parse().ok().filter(|&r| r > 0)
                });
                explicit_ranks = true;
            }
            "--rpn" => {
                cfg.ranks_per_node = parse_csv(&value("--rpn"), "ranks-per-node", |s| {
                    s.parse().ok().filter(|&r| r > 0)
                });
                explicit_rpn = true;
            }
            "--mixes" => {
                let arg = value("--mixes");
                let specs: Vec<&str> = arg.split(',').map(str::trim).collect();
                cfg.coruns = match corun::parse_mixes(&specs) {
                    Ok(mixes) => mixes,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                };
                explicit_mixes = true;
            }
            "--topologies" => {
                cfg.topologies = parse_csv(&value("--topologies"), "topology", |s| {
                    TopologySpec::parse(s)
                })
            }
            "--arbiters" => {
                cfg.arbiters = parse_csv(
                    &value("--arbiters"),
                    "arbitration policy",
                    ArbiterPolicy::parse,
                )
            }
            _ => usage(),
        }
    }
    // `--full` widens only the axes the user did not pin explicitly, so
    // flag order never matters.
    if full {
        if !explicit_profiles {
            cfg.profiles = SweepConfig::full().profiles;
        }
        if !explicit_ranks {
            cfg.ranks = SweepConfig::full().ranks;
        }
        if !explicit_rpn {
            cfg.ranks_per_node = SweepConfig::full().ranks_per_node;
        }
        if !explicit_mixes {
            cfg.coruns = SweepConfig::full().coruns;
        }
    }

    // Canonicalize + dedup workload names up front (run_sweep applies
    // the same helper) so the header and any error land before the
    // matrix runs.
    let canon = {
        let names: Vec<&str> = cfg.workloads.iter().map(String::as_str).collect();
        unimem_repro::workloads::canonicalize_names(&names)
    };
    cfg.workloads = match canon {
        Ok(canon) => canon,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    cfg.normalize_axes();

    println!(
        "sweep: {} workloads x {} policies x {} profiles x {} node layouts = {} cells \
         + {} co-run cells (CLASS {}, {jobs} jobs)",
        cfg.workloads.len(),
        cfg.policies.len(),
        cfg.profiles.len(),
        cfg.rank_layouts().len(),
        cfg.n_cells(),
        cfg.n_corun_cells(),
        cfg.class.name(),
    );

    let store = match cache_dir {
        None => None,
        Some(dir) => match SweepCache::open(&dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("cannot open cache {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        },
    };

    let t0 = std::time::Instant::now();
    let report = match run_sweep_cached(&cfg, jobs, store.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::from(2);
        }
    };

    // Per-(profile, layout) summary: normalized time per policy, averaged
    // over workloads — the shape of the paper's Fig. 9/10 bars, with the
    // packed layouts exposing the contention axis.
    for &profile in &cfg.profiles {
        for &(nranks, rpn) in &cfg.rank_layouts() {
            print!("{:8} r={nranks}x{rpn}:", profile.name());
            for &policy in &cfg.policies {
                let cells: Vec<f64> = report
                    .cells
                    .iter()
                    .filter(|c| {
                        c.profile == profile
                            && c.nranks == nranks
                            && c.ranks_per_node == rpn
                            && c.policy == policy
                            && c.topology == TopologySpec::Flat
                    })
                    .map(|c| c.normalized_to_dram)
                    .collect();
                if !cells.is_empty() {
                    let avg = cells.iter().sum::<f64>() / cells.len() as f64;
                    print!("  {}={avg:.3}", policy.name());
                }
            }
            println!();
        }
    }

    // Clustered machine rooms, one line per (room, profile, rank count).
    for t in &cfg.topologies {
        if *t == TopologySpec::Flat {
            continue;
        }
        for &profile in &cfg.profiles {
            for &nranks in &cfg.ranks {
                let mut header_printed = false;
                for &policy in &cfg.policies {
                    let cells: Vec<f64> = report
                        .cells
                        .iter()
                        .filter(|c| {
                            c.topology == *t
                                && c.profile == profile
                                && c.nranks == nranks
                                && c.policy == policy
                        })
                        .map(|c| c.normalized_to_dram)
                        .collect();
                    if !cells.is_empty() {
                        if !header_printed {
                            print!("{:8} r={nranks}@{}:", profile.name(), t.name());
                            header_printed = true;
                        }
                        let avg = cells.iter().sum::<f64>() / cells.len() as f64;
                        print!("  {}={avg:.3}", policy.name());
                    }
                }
                if header_printed {
                    println!();
                }
            }
        }
    }

    // Per-(mix, profile) co-run summary: per-tenant slowdown vs. solo
    // under each arbitration policy.
    for &profile in &cfg.profiles {
        for mix in &cfg.coruns {
            for &arb in &cfg.arbiters {
                let cells: Vec<_> = report
                    .corun_cells
                    .iter()
                    .filter(|c| c.profile == profile && c.mix == mix.label() && c.arbiter == arb)
                    .collect();
                if cells.is_empty() {
                    continue;
                }
                print!("{:8} {:12} {:11}:", profile.name(), mix.label(), arb.name());
                for c in &cells {
                    print!("  {}={:.3}", c.tenant, c.slowdown);
                }
                println!();
            }
        }
    }

    if let Err(e) = report.write_json(&out) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    // The default width is the host's available parallelism, which on a
    // 1-CPU box is 1: say when the sweep ran serially.
    println!(
        "wrote {} ({} cells) in {:.2?} on {jobs} worker{}",
        out.display(),
        report.cells.len(),
        t0.elapsed(),
        if jobs == 1 { " (serial)" } else { "s" }
    );

    if let Some(rate) = report.cache_hit_rate() {
        println!(
            "cache: {}/{} lookups hit ({:.1}%) in {}",
            report.cache_hits,
            report.cache_lookups,
            rate * 100.0,
            store
                .as_ref()
                .map(|s| s.dir().display().to_string())
                .unwrap_or_default(),
        );
    }
    if let Some(min) = min_hit_rate {
        let rate = report.cache_hit_rate().unwrap_or_else(|| {
            eprintln!("--min-hit-rate needs --cache (no lookups happened)");
            std::process::exit(2)
        });
        if rate < min {
            eprintln!("cache hit rate {rate:.3} below required {min:.3}");
            return ExitCode::FAILURE;
        }
    }

    if check {
        // check_report itself reports missing coverage (no unimem cells,
        // absent baselines) as violations, so a slice that cannot judge
        // the claims fails rather than passing vacuously.
        let tol = Tolerances::default();
        let mut violations = check_report(&report, &tol);
        violations.extend(check_determinism(&cfg));
        violations.extend(check_recovery(&cfg, &tol));
        violations.extend(check_weak_scaling(&cfg, &tol));
        if violations.is_empty() {
            println!("conformance: all paper-claim checks passed");
        } else {
            eprintln!("conformance: {} violation(s)", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
