//! Perf-budget harness: measure the wall time of the reduced
//! evaluation-matrix sweep, write `BENCH_perf.json`, and (optionally)
//! gate on a committed baseline.
//!
//! ```text
//! cargo run --release --example perf                        # measure + write
//! cargo run --release --example perf -- --jobs 4 --samples 7
//! cargo run --release --example perf -- --jobs 1 \
//!     --against BENCH_perf.json --tolerance 0.20            # CI budget gate
//! cargo run --release --example perf -- --cold              # skip warm arm
//! cargo run --release --example perf -- --warm --cache DIR  # skip cold arm
//! ```
//!
//! The sweep's *output* is virtual-time and byte-identical everywhere;
//! this harness measures the one thing that is not — how long the
//! simulator itself takes to chew through the reduced matrix. Two arms:
//!
//! * **cold** — `run_sweep_cached(&SweepConfig::reduced(), jobs, None)`,
//!   no cell cache: the pure compute cost. This is the number the CI
//!   perf budget gates on.
//! * **warm** — `run_sweep_cached` against a fully-primed cell cache
//!   (one unmeasured priming run fills it): the incremental-reuse cost,
//!   i.e. what a rerun of an already-swept matrix pays. The measured
//!   hit rate lands in the report as `cache_hit_rate`.
//!
//! Both arms run by default; `--cold` / `--warm` select one. After
//! `--warmup` discarded runs, `--samples` timed runs per arm are
//! summarized with the vendored criterion's median/MAD robust statistics
//! (host noise lands in outliers, not in the median).
//!
//! Output schema `unimem-bench-perf/v2` — the *structure* is
//! deterministic (fixed member set and order; only the measured values
//! vary run to run; an arm that did not run serializes as `null`):
//!
//! ```text
//! {
//!   "schema":  "unimem-bench-perf/v2",
//!   "matrix":  "reduced",
//!   "jobs":    1,
//!   "warmup":  1,
//!   "samples": 5,
//!   "n_cells": 168, "n_corun_cells": 12,
//!   "wall_s":      { "median": ..., "mad": ..., "min": ..., "max": ...,
//!                    "mean": ..., "kept": 5 },   // cold arm
//!   "warm_wall_s": { ... },                      // warm arm
//!   "cache_hit_rate": 1.0
//! }
//! ```
//!
//! `--against PATH` compares this run's **cold** median against the
//! `wall_s.median` of a previously written report (`v1` or `v2` —
//! `wall_s` meant cold in both) and exits 1 when the current median
//! exceeds it by more than `--tolerance` (default 0.20, i.e. a +20%
//! wall-time regression budget). Improvements never fail the gate;
//! warm medians never gate (they measure the cache, not the engine).
//! Medians measured at different worker counts or on different matrices
//! are not comparable, so the gate reads the baseline's `jobs` and
//! `matrix` before measuring and exits 2 when either differs from this
//! run (`--jobs` defaults to the host's parallelism; a `jobs: 1`
//! baseline needs `--jobs 1`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use criterion::stats::RobustSummary;
use unimem_repro::bench::sweep::{default_workers, run_sweep_cached, SweepCache, SweepConfig};
use unimem_repro::sim::Json;

fn usage() -> ! {
    eprintln!(
        "usage: perf [--jobs N] [--warmup N] [--samples N] [--out PATH]\n\
         \x20           [--against BASELINE.json] [--tolerance FRACTION]\n\
         \x20           [--cold] [--warm] [--cache DIR] [--no-cache]"
    );
    std::process::exit(2)
}

/// The matrix this harness measures (the `matrix` member of its report).
const MATRIX: &str = "reduced";

/// Pull the cold `wall_s.median` out of a previously written report,
/// refusing one measured at another worker count or on another matrix:
/// those medians are not comparable with this run's. Accepts both the
/// `v1` and `v2` schemas — `wall_s` meant the cold (cacheless) arm in
/// both.
fn baseline_median_s(text: &str, jobs: usize) -> Result<f64, String> {
    let doc = Json::parse(text).map_err(|e| format!("unparsable baseline: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if !matches!(schema, "unimem-bench-perf/v1" | "unimem-bench-perf/v2") {
        return Err(format!("unsupported baseline schema {schema:?}"));
    }
    let base_jobs = doc
        .get("jobs")
        .and_then(Json::as_u64)
        .ok_or("baseline has no integer jobs")?;
    if base_jobs != jobs as u64 {
        return Err(format!(
            "measured at jobs {base_jobs} but this run uses jobs {jobs}; \
             rerun with --jobs {base_jobs} or regenerate the baseline"
        ));
    }
    let matrix = doc.get("matrix").and_then(Json::as_str).unwrap_or("");
    if matrix != MATRIX {
        return Err(format!(
            "measured the {matrix:?} matrix but this run measures {MATRIX:?}"
        ));
    }
    doc.get("wall_s")
        .and_then(|w| w.get("median"))
        .and_then(Json::as_f64)
        .filter(|m| m.is_finite() && *m > 0.0)
        .ok_or_else(|| "baseline has no positive wall_s.median (cold arm missing?)".into())
}

fn main() -> ExitCode {
    let mut jobs = default_workers();
    let mut warmup = 1usize;
    let mut samples = 5usize;
    let mut out = PathBuf::from("BENCH_perf.json");
    let mut against: Option<PathBuf> = None;
    let mut tolerance = 0.20f64;
    let mut flag_cold = false;
    let mut flag_warm = false;
    let mut cache_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--jobs" => match value("--jobs").parse() {
                Ok(n) if n > 0 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--warmup" => match value("--warmup").parse() {
                Ok(n) => warmup = n,
                _ => {
                    eprintln!("--warmup needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--samples" => match value("--samples").parse() {
                Ok(n) if n > 0 => samples = n,
                _ => {
                    eprintln!("--samples needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--out" => out = PathBuf::from(value("--out")),
            "--cold" => flag_cold = true,
            "--warm" => flag_warm = true,
            "--cache" => cache_dir = Some(PathBuf::from(value("--cache"))),
            // Same semantics as sweep.rs: undo an earlier scripted
            // --cache (the warm arm falls back to its throwaway temp
            // directory); the last flag wins.
            "--no-cache" => cache_dir = None,
            "--against" => against = Some(PathBuf::from(value("--against"))),
            "--tolerance" => match value("--tolerance").parse::<f64>() {
                Ok(t) if t.is_finite() && t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a non-negative number");
                    return ExitCode::from(2);
                }
            },
            _ => usage(),
        }
    }

    // Read the baseline *before* measuring and writing: `--against` and
    // `--out` may name the same committed file (refresh-in-place), and
    // comparing against bytes we just wrote would make the gate vacuous.
    let baseline = match &against {
        None => None,
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match baseline_median_s(&text, jobs) {
                Ok(m) => Some(m),
                Err(e) => {
                    eprintln!("bad baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
    };

    // Flag semantics: no arm flag (or both) runs both arms.
    let (run_cold, run_warm) = match (flag_cold, flag_warm) {
        (false, false) | (true, true) => (true, true),
        (c, w) => (c, w),
    };
    if baseline.is_some() && !run_cold {
        eprintln!("--against gates the cold median; it needs the cold arm (drop --warm)");
        return ExitCode::from(2);
    }

    let cfg = SweepConfig::reduced();
    let run = |store: Option<&SweepCache>| match run_sweep_cached(&cfg, jobs, store) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reduced sweep failed: {e}");
            std::process::exit(2)
        }
    };
    // One arm's measurement: `warmup` discarded runs, `samples` timed.
    let measure = |label: &str, store: Option<&SweepCache>| {
        for _ in 0..warmup {
            run(store);
        }
        let mut wall_ns = Vec::with_capacity(samples);
        let mut last = None;
        for i in 0..samples {
            let t0 = Instant::now();
            let rep = run(store);
            let dt = t0.elapsed();
            wall_ns.push(dt.as_secs_f64() * 1e9);
            println!("  {label} sample {}: {:.3} s", i + 1, dt.as_secs_f64());
            last = Some(rep);
        }
        (
            RobustSummary::from_ns(&wall_ns),
            last.expect("samples >= 1"),
        )
    };
    let secs = |ns: f64| ns / 1e9;
    let summarize = |label: &str, s: &RobustSummary| {
        println!(
            "{label} reduced sweep wall time: median {:.3} s \
             (min {:.3}, max {:.3}; {} of {} samples kept)",
            secs(s.median_ns),
            secs(s.min_ns),
            secs(s.max_ns),
            s.n_kept,
            s.n_samples,
        );
    };
    let stats_json = |s: &RobustSummary| {
        let mut wall = Json::obj();
        wall.push("median", secs(s.median_ns))
            .push("mad", secs(s.mad_ns))
            .push("min", secs(s.min_ns))
            .push("max", secs(s.max_ns))
            .push("mean", secs(s.mean_ns))
            .push("kept", s.n_kept);
        wall
    };

    println!(
        "perf: reduced matrix, {jobs} job{}, {warmup} warmup + {samples} samples per arm",
        if jobs == 1 { "" } else { "s" }
    );

    let mut shape = (0usize, 0usize);
    let cold = if run_cold {
        let (s, rep) = measure("cold", None);
        summarize("cold", &s);
        shape = (rep.cells.len(), rep.corun_cells.len());
        Some(s)
    } else {
        None
    };

    // The warm arm measures reruns against a fully-primed cache: an
    // explicit `--cache DIR` persists across invocations, the default is
    // a throwaway directory so the arm always starts from its own prime.
    let mut hit_rate = None;
    let warm = if run_warm {
        let dir = cache_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("unimem-perf-cache-{}", std::process::id()))
        });
        let store = match SweepCache::open(&dir) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("cannot open cache {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        };
        run(Some(&store)); // prime (unmeasured): fills or refreshes the cache
        let (s, rep) = measure("warm", Some(&store));
        summarize("warm", &s);
        shape = (rep.cells.len(), rep.corun_cells.len());
        hit_rate = rep.cache_hit_rate();
        if let Some(rate) = hit_rate {
            println!(
                "warm cache: {}/{} lookups hit ({:.1}%)",
                rep.cache_hits,
                rep.cache_lookups,
                rate * 100.0
            );
        }
        if cache_dir.is_none() {
            std::fs::remove_dir_all(&dir).ok();
        }
        Some(s)
    } else {
        None
    };
    if let (Some(c), Some(w)) = (&cold, &warm) {
        if w.median_ns > 0.0 {
            println!(
                "warm rerun speedup: {:.1}x (cold {:.3} s -> warm {:.3} s)",
                c.median_ns / w.median_ns,
                secs(c.median_ns),
                secs(w.median_ns)
            );
        }
    }

    let arm_json = |arm: &Option<RobustSummary>| match arm {
        Some(s) => stats_json(s),
        None => Json::Null,
    };
    let mut doc = Json::obj();
    doc.push("schema", "unimem-bench-perf/v2")
        .push("matrix", MATRIX)
        .push("jobs", jobs)
        .push("warmup", warmup)
        .push("samples", samples)
        .push("n_cells", shape.0)
        .push("n_corun_cells", shape.1)
        .push("wall_s", arm_json(&cold))
        .push("warm_wall_s", arm_json(&warm))
        .push(
            "cache_hit_rate",
            match hit_rate {
                Some(r) => Json::from(r),
                None => Json::Null,
            },
        );
    if let Err(e) = std::fs::write(&out, doc.to_pretty()) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", out.display());

    if let (Some(base), Some(c)) = (baseline, &cold) {
        let ratio = secs(c.median_ns) / base;
        println!(
            "budget: cold median {:.3} s vs baseline {:.3} s = {:+.1}% (tolerance +{:.0}%)",
            secs(c.median_ns),
            base,
            (ratio - 1.0) * 100.0,
            tolerance * 100.0,
        );
        if ratio > 1.0 + tolerance {
            eprintln!("perf budget exceeded: reduced sweep regressed past the tolerance");
            return ExitCode::FAILURE;
        }
        println!("perf budget ok");
    }
    ExitCode::SUCCESS
}
