//! `sweepbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path sweepbench/Cargo.toml -- \
//!     --workload full-cold|rooms|warm-rerun --seed N --seconds S --trace 0|1
//! cargo run --release -q --manifest-path sweepbench/Cargo.toml -- \
//!     --compare RESULT_A.json RESULT_B.json
//! ```
//!
//! One op is one sweep: `run_sweep_cached`, then the report serialized
//! to JSON in memory. `--trace 0` times ops end to end; `--trace 1`
//! times the same work with a span around every call into a layer. The
//! last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the metrics. See `README.md` beside this file for every
//! metric's definition.

mod host;
mod rebuild;
mod speed;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use unimem::calib::memo_stats;
use unimem_bench::sweep::{run_sweep_cached, PolicyKind, SweepCache, SweepConfig, SweepReport};
use unimem_sim::{json_digest_hex, Json};

use crate::host::{cpu_seconds, cpu_ticks, peak_rss_mb, Meta};
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::workload::{dram_capacity, rank_pool_width, Workload, JOBS};

/// Fewest timed ops a phase runs, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Fresh processes whose set-up makes up `setup_s` and `peak_rss_mb`
/// (this one and `SETUP_SAMPLES - 1` children).
const SETUP_SAMPLES: usize = 5;
/// (cacheless sweep, priming sweep) pairs behind `cache.write_s`.
const WRITE_PAIRS: usize = 2;

fn usage() -> String {
    "usage: sweepbench --workload full-cold|rooms|warm-rerun --seed N --seconds S --trace 0|1\n\
     \x20      sweepbench --compare RESULT_A.json RESULT_B.json"
        .into()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: set up, run the first op, print the set-up time.
    setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut setup_probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_probe {
            seconds.unwrap_or(1.0)
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sweepbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(result) => {
            println!("{}", result.to_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The benchmark's own directory (build-time path of this package).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch space for cell caches, traces and result records.
fn work_dir() -> PathBuf {
    bench_dir().join("work")
}

/// A cell cache in a fresh directory, removed again on drop.
struct Store {
    cache: SweepCache,
}

impl Store {
    fn fresh(tag: &str) -> Result<Store, String> {
        static FRESH: AtomicUsize = AtomicUsize::new(0);
        let n = FRESH.fetch_add(1, Ordering::Relaxed);
        let dir = work_dir().join(format!("cache-{}-{n}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = SweepCache::open(&dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
        Ok(Store { cache })
    }

    /// Bytes the entries occupy on disk.
    fn bytes(&self) -> u64 {
        std::fs::read_dir(self.cache.dir())
            .map(|d| {
                d.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.cache.dir()).ok();
    }
}

/// Simulated statistics of the modelled design: exact counts that a
/// change to simulator speed alone must leave identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SimStats {
    cells: u64,
    rank_iters: u64,
    virtual_s: f64,
    migrations: u64,
    migrated_bytes: u64,
    reprofiles: u64,
    lease_replans: u64,
}

impl SimStats {
    fn of(rep: &SweepReport) -> SimStats {
        let reports = rep
            .cells
            .iter()
            .map(|c| &c.report)
            .chain(rep.corun_cells.iter().map(|c| &c.report));
        let mut s = SimStats::default();
        for r in reports {
            s.cells += 1;
            s.rank_iters += r.per_rank.iter().map(|p| p.iterations).sum::<u64>();
            s.virtual_s += r.time().secs();
            s.migrations += r.job.migration_count();
            s.migrated_bytes += r.job.migrated_bytes().0;
            s.reprofiles += r.job.reprofiles;
            s.lease_replans += r.job.lease_replans;
        }
        s
    }
}

/// A workload ready to time: its matrix, its primed cache (if any), and
/// the reference digest every op must reproduce.
struct Bench {
    workload: Workload,
    cfg: SweepConfig,
    store: Option<Store>,
    digest: String,
    sim: SimStats,
}

/// One finished op, with the host speed measured just before and just
/// after it.
struct Op {
    wall_s: f64,
    cpu_s: f64,
    before: Speed,
    after: Speed,
    failure: Option<String>,
}

impl Op {
    fn speed(&self) -> Speed {
        Speed::between(self.before, self.after)
    }

    /// Wall seconds scaled to reference speed.
    fn scaled_wall(&self) -> f64 {
        self.speed().wall(self.wall_s)
    }

    /// CPU seconds scaled to reference speed.
    fn scaled_cpu(&self) -> f64 {
        self.speed().cpu(self.cpu_s)
    }
}

/// The op's report and its JSON form.
type Swept = (SweepReport, Json, String);

impl Bench {
    /// Set up `workload` on matrix `cfg` and run the first, discarded op.
    /// It fixes the reference digest, except for `warm-rerun`, where the
    /// sweep that primes the cell cache fixes it and the first warm op
    /// must already match it and hit every lookup.
    fn setup(workload: Workload, cfg: SweepConfig) -> Result<Bench, String> {
        let store = if workload.cached() {
            Some(Store::fresh("primed")?)
        } else {
            None
        };
        let mut bench = Bench {
            workload,
            cfg,
            store,
            digest: String::new(),
            sim: SimStats::default(),
        };
        if let Some(store) = bench.store() {
            let primed = run_sweep_cached(&bench.cfg, JOBS, Some(store))?;
            bench.digest = json_digest_hex(&primed.to_json());
        }
        let (rep, json, _) = bench.sweep()?;
        if bench.digest.is_empty() {
            bench.digest = json_digest_hex(&json);
        }
        if let Some(why) = bench.judge(&rep, &json) {
            return Err(format!("the set-up op failed: {why}"));
        }
        bench.sim = SimStats::of(&rep);
        Ok(bench)
    }

    fn store(&self) -> Option<&SweepCache> {
        self.store.as_ref().map(|s| &s.cache)
    }

    /// The op's work: one sweep, then its JSON in memory.
    fn sweep(&self) -> Result<Swept, String> {
        let rep = run_sweep_cached(&self.cfg, JOBS, self.store())?;
        let json = rep.to_json();
        let text = json.to_pretty();
        Ok((rep, json, text))
    }

    /// Why a finished op counts as failed, if it does: its report bytes
    /// differ from set-up's, or a warm op missed the cache.
    fn judge(&self, rep: &SweepReport, json: &Json) -> Option<String> {
        let digest = json_digest_hex(json);
        if digest != self.digest {
            return Some(format!("digest {digest} differs from {}", self.digest));
        }
        if self.workload.cached() && rep.cache_hits != rep.cache_lookups {
            return Some(format!(
                "{} of {} cache lookups missed",
                rep.cache_lookups - rep.cache_hits,
                rep.cache_lookups
            ));
        }
        None
    }

    /// One untraced op, timed, then judged outside the timed region;
    /// `before` is the host speed measured just before it.
    fn op(&self, before: Speed) -> Result<Op, String> {
        let cpu0 = cpu_seconds()?;
        let t0 = Instant::now();
        let swept = catch_unwind(AssertUnwindSafe(|| self.sweep()));
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds()? - cpu0;
        let after = Speed::measure()?;
        let failure = match swept {
            Ok(Ok((rep, json, text))) => {
                std::hint::black_box(text.len());
                self.judge(&rep, &json)
            }
            Ok(Err(e)) => Some(e),
            Err(_) => Some("the sweep panicked".into()),
        };
        if let Some(why) = &failure {
            eprintln!("sweepbench: op failed: {why}");
        }
        Ok(Op {
            wall_s,
            cpu_s,
            before,
            after,
            failure,
        })
    }

    /// Untraced ops until `seconds` have passed (at least [`MIN_OPS`]).
    fn ops_for(&self, seconds: f64) -> Result<Vec<Op>, String> {
        let t0 = Instant::now();
        let mut ops = Vec::new();
        let mut before = Speed::measure()?;
        while ops.len() < MIN_OPS || t0.elapsed().as_secs_f64() < seconds {
            let op = self.op(before)?;
            before = op.after;
            ops.push(op);
        }
        Ok(ops)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Sample count, median, tail and maximum of host wall times, and the
/// median scaled to reference speed.
fn describe(name: &str, host: &[f64], scaled: &[f64]) -> String {
    let tail = tail(host).map_or(String::new(), |(p, v)| format!(", p{p:.0} {v:.4} s"));
    format!(
        "{name}: {} ops, host median {:.4} s{tail}, max {:.4} s; scaled median {:.4} s",
        host.len(),
        median(host),
        sorted(host).last().copied().unwrap_or(0.0),
        median(scaled)
    )
}

fn metric(metrics: &mut Json, name: &str, value: f64, unit: &str) {
    let mut m = Json::obj();
    m.push("value", value).push("unit", unit);
    metrics.push(name, m);
}

fn run(args: &Args, started: Instant) -> Result<Json, String> {
    std::fs::create_dir_all(work_dir()).map_err(|e| format!("{}: {e}", work_dir().display()))?;
    let cfg = args.workload.config(dram_capacity(args.seed));
    let bench = Bench::setup(args.workload, cfg)?;
    let setup = (started.elapsed().as_secs_f64(), peak_rss_mb()?);
    if args.setup_probe {
        return Ok(Json::Arr(vec![Json::from(setup.0), Json::from(setup.1)]));
    }
    let setup_misses = memo_stats().1;

    let root = bench_dir()
        .parent()
        .expect("the benchmark sits inside the repository");
    let meta = Meta {
        workload: args.workload.name().into(),
        cpus: unimem_sim::default_workers(),
        jobs: JOBS,
        rank_pool: rank_pool_width(&bench.cfg),
        seed: args.seed,
        dram_capacity_mib: bench.cfg.dram_capacity.map_or(0, |b| b.0 >> 20),
        trace: args.trace,
        commit: host::git_commit(root),
        source: host::source_digest(root),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    };
    println!("meta {}", meta.to_json().to_compact());
    println!("digest {} {}", args.workload.name(), bench.digest);

    let out = if args.trace {
        traced_run(&bench, args.seconds, setup_misses)?
    } else {
        untraced_run(&bench, args, setup)?
    };

    let mut result = Json::obj();
    result
        .push("correct", out.correct && out.failed == 0)
        .push("attempted", out.attempted)
        .push("failed", out.failed)
        .push("metrics", out.metrics);
    let mut record = Json::obj();
    record
        .push("meta", meta.to_json())
        .push("digest", bench.digest.as_str())
        .push("samples", out.samples)
        .push("result", result.clone());
    let results = work_dir().join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(result)
}

/// Set-up time and peak resident memory of a fresh process through its
/// first op, measured by a child copy of this binary in `--setup-probe`
/// mode.
fn probe_setup(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = Json::parse(last).ok().and_then(|v| {
        let pair = v.as_arr()?;
        Some((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?))
    });
    match parsed {
        Some(pair) if out.status.success() => Ok(pair),
        _ => Err(format!("set-up probe failed ({}): {last}", out.status)),
    }
}

/// What a run measured: op counts, whether every check held, the
/// metrics, and the raw per-op samples kept in the result record.
struct Outcome {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Json,
    samples: Json,
}

fn samples(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

fn untraced_run(bench: &Bench, args: &Args, own_setup: (f64, f64)) -> Result<Outcome, String> {
    // This process times the kernel right after its own set-up and after
    // each child's; a child's set-up is scaled by the readings around it.
    let mut probes = vec![own_setup];
    let mut kernel = vec![Speed::measure()?];
    for _ in 1..SETUP_SAMPLES {
        probes.push(probe_setup(args)?);
        kernel.push(Speed::measure()?);
    }
    let setups: Vec<f64> = probes.iter().map(|p| p.0).collect();
    let scaled_setups: Vec<f64> = setups
        .iter()
        .enumerate()
        .map(|(i, &host_s)| match i {
            0 => kernel[0].wall(host_s),
            _ => Speed::between(kernel[i - 1], kernel[i]).wall(host_s),
        })
        .collect();
    let setup_s = median(&scaled_setups);
    let rss: Vec<f64> = probes.iter().map(|p| p.1).collect();
    let ticks0 = cpu_ticks()?;
    let ops = bench.ops_for(args.seconds)?;
    let ticks1 = cpu_ticks()?;
    let steal = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let cpus: Vec<f64> = ops.iter().map(|o| o.cpu_s).collect();
    let scaled_walls: Vec<f64> = ops.iter().map(Op::scaled_wall).collect();
    let scaled_cpus: Vec<f64> = ops.iter().map(Op::scaled_cpu).collect();
    let kernel_walls: Vec<f64> = std::iter::once(ops[0].before)
        .chain(ops.iter().map(|o| o.after))
        .map(|s| s.wall_s)
        .collect();
    let failed = ops.iter().filter(|o| o.failure.is_some()).count();
    eprintln!("{}", describe("sweep", &walls, &scaled_walls));
    eprintln!(
        "host: reference kernel median {:.5} s (reference speed {} s), steal {:.1}% of CPU time",
        median(&kernel_walls),
        speed::REF_S,
        steal * 100.0
    );
    eprintln!(
        "setup: {} processes, host {setups:?} s, {rss:?} MB; scaled median {setup_s:.4} s",
        setups.len()
    );

    let sweep_s = median(&scaled_walls);
    let mut metrics = Json::obj();
    metric(&mut metrics, "sweep_s", sweep_s, "s");
    metric(
        &mut metrics,
        "rank_iters_per_s",
        bench.sim.rank_iters as f64 / sweep_s,
        "1/s",
    );
    metric(&mut metrics, "cpu_s", median(&scaled_cpus), "s");
    metric(&mut metrics, "setup_s", setup_s, "s");
    // The lowest of the set-up processes: with the rank pool on two
    // threads, allocator arenas make single readings bimodal (50 or
    // 58 MB on `rooms`).
    let lowest_rss = rss.iter().copied().fold(f64::INFINITY, f64::min);
    metric(&mut metrics, "peak_rss_mb", lowest_rss, "MB");
    let mut raw = Json::obj();
    raw.push("op_wall_s", samples(&walls))
        .push("op_cpu_s", samples(&cpus))
        .push("op_scaled_wall_s", samples(&scaled_walls))
        .push("op_scaled_cpu_s", samples(&scaled_cpus))
        .push("kernel_wall_s", samples(&kernel_walls))
        .push("setup_s", samples(&setups))
        .push("setup_scaled_s", samples(&scaled_setups))
        .push("setup_peak_rss_mb", samples(&rss))
        .push("end_peak_rss_mb", Json::from(peak_rss_mb()?))
        .push("host_steal_share", Json::from(steal));
    Ok(Outcome {
        attempted: ops.len(),
        failed,
        correct: true,
        metrics,
        samples: raw,
    })
}

fn traced_run(bench: &Bench, seconds: f64, setup_misses: u64) -> Result<Outcome, String> {
    let untraced = bench.ops_for(seconds / 3.0)?;
    let untraced_walls: Vec<f64> = untraced.iter().map(|o| o.wall_s).collect();
    let untraced_scaled: Vec<f64> = untraced.iter().map(Op::scaled_wall).collect();
    let mut failed = untraced.iter().filter(|o| o.failure.is_some()).count();
    let mut correct = true;

    // The cache write path: a priming sweep into an empty directory
    // against the same sweep without a cache.
    let (mut cache_write_s, mut cache_bytes) = (0.0, 0);
    if bench.workload.cached() {
        let (mut cold, mut prime) = (Vec::new(), Vec::new());
        for i in 0..WRITE_PAIRS {
            let before = Speed::measure()?;
            let t0 = Instant::now();
            run_sweep_cached(&bench.cfg, JOBS, None)?;
            let cold_s = t0.elapsed().as_secs_f64();
            let store = Store::fresh(&format!("write{i}"))?;
            let t0 = Instant::now();
            run_sweep_cached(&bench.cfg, JOBS, Some(&store.cache))?;
            let prime_s = t0.elapsed().as_secs_f64();
            let speed = Speed::between(before, Speed::measure()?);
            cold.push(speed.wall(cold_s));
            prime.push(speed.wall(prime_s));
            cache_bytes = store.bytes();
        }
        cache_write_s = median(&prime) - median(&cold);
    }

    let mut tr = Tracer::default();
    let mut traced = Vec::new();
    // Host speed over each traced op, measured at its two ends.
    let mut speeds = Vec::new();
    let mut before = Speed::measure()?;
    let (hits0, misses0) = memo_stats();
    let t0 = Instant::now();
    while traced.len() < MIN_OPS || t0.elapsed().as_secs_f64() < seconds / 3.0 {
        let (rep, json, text) = tr.op(|tr| -> Result<Swept, String> {
            let rep = match bench.store() {
                Some(store) => tr.span("cache", "read", || {
                    run_sweep_cached(&bench.cfg, JOBS, Some(store))
                })?,
                None => rebuild::traced_sweep(&bench.cfg, tr)?,
            };
            let (json, text) = tr.span("report", "json", || {
                let json = rep.to_json();
                let text = json.to_pretty();
                (json, text)
            });
            Ok((rep, json, text))
        })?;
        if let Some(why) = bench.judge(&rep, &json) {
            eprintln!("sweepbench: traced op failed: {why}");
            failed += 1;
        }
        traced.push((rep.cache_hits, rep.cache_lookups, text.len()));
        let after = Speed::measure()?;
        speeds.push(Speed::between(before, after));
        before = after;
    }
    let (hits1, misses1) = memo_stats();
    let n = traced.len() as f64;
    let totals = tr.totals();
    let trace_path = work_dir().join(format!("trace-{}.json", bench.workload.name()));
    tr.write_chrome(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    for (i, t) in totals.iter().enumerate() {
        if t.children_ns > t.wall_ns {
            eprintln!("sweepbench: traced op {i}: child spans exceed the op's wall time");
            correct = false;
        }
    }

    let s = |ns: u64| ns as f64 / 1e9;
    // Per-op counts, as their median over the traced ops.
    let over =
        |f: &dyn Fn(&trace::OpTotals) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
    // Per-op host times, each scaled by its op's host speed, as their
    // median over the traced ops.
    let timed = |f: &dyn Fn(&trace::OpTotals) -> f64| {
        let scaled: Vec<f64> = totals
            .iter()
            .zip(&speeds)
            .map(|(t, speed)| speed.wall(f(t)))
            .collect();
        median(&scaled)
    };
    let layer = |t: &trace::OpTotals, l: &'static str, d: &'static str| {
        t.layers.get(&(l, d)).copied().unwrap_or_default()
    };
    let traced_walls: Vec<f64> = totals.iter().map(|t| s(t.wall_ns)).collect();
    let traced_scaled: Vec<f64> = totals
        .iter()
        .zip(&speeds)
        .map(|(t, speed)| speed.wall(s(t.wall_ns)))
        .collect();
    let kernel_walls: Vec<f64> = speeds.iter().map(|sp| sp.wall_s).collect();
    eprintln!(
        "{}",
        describe("untraced sweep", &untraced_walls, &untraced_scaled)
    );
    eprintln!(
        "{}",
        describe("traced sweep", &traced_walls, &traced_scaled)
    );

    let mut m = Json::obj();
    let calls_and_time = |m: &mut Json, name: &str, l: &'static str, d: &'static str| {
        metric(
            m,
            &format!("{name}.calls"),
            over(&|t| layer(t, l, d).calls as f64),
            "count",
        );
        metric(
            m,
            &format!("{name}.s"),
            timed(&|t| s(layer(t, l, d).ns)),
            "s",
        );
    };
    for p in PolicyKind::ALL {
        let name = p.name();
        calls_and_time(&mut m, &format!("exec.{name}"), "exec", name);
        let per_iter = timed(&|t| {
            let l = layer(t, "exec", name);
            l.ns as f64 / l.rank_iters.max(1) as f64
        });
        metric(
            &mut m,
            &format!("exec.{name}.ns_per_rank_iter"),
            per_iter,
            "ns",
        );
    }
    let clustered = over(&|t| {
        let exec = t.layers.iter().filter(|((l, _), _)| *l == "exec");
        exec.map(|(_, total)| total.clustered_calls).sum::<u64>() as f64
    });
    metric(&mut m, "exec.clustered.calls", clustered, "count");
    calls_and_time(&mut m, "xmem.train", "xmem", "train");
    calls_and_time(&mut m, "tenancy.corun", "tenancy", "corun");

    let (hits, lookups, json_bytes) = traced[traced.len() - 1];
    let attempted = untraced.len() + traced.len();
    let sim = bench.sim;
    for (name, value, unit) in [
        ("calib.memo_hits", (hits1 - hits0) as f64 / n, "count"),
        ("calib.memo_misses", (misses1 - misses0) as f64 / n, "count"),
        ("calib.setup_misses", setup_misses as f64, "count"),
        (
            "workloads.build_s",
            timed(&|t| {
                s(layer(t, "workloads", "select").ns + layer(t, "workloads", "instantiate").ns)
            }),
            "s",
        ),
        ("cache.lookups", lookups as f64, "count"),
        ("cache.hits", hits as f64, "count"),
        (
            "cache.hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        (
            "cache.read_s",
            timed(&|t| s(layer(t, "cache", "read").ns)),
            "s",
        ),
        ("cache.write_s", cache_write_s, "s"),
        ("cache.bytes", cache_bytes as f64, "B"),
        (
            "report.json_s",
            timed(&|t| s(layer(t, "report", "json").ns)),
            "s",
        ),
        ("report.bytes", json_bytes as f64, "B"),
        (
            "sweep.self_s",
            timed(&|t| s(t.wall_ns.saturating_sub(t.children_ns))),
            "s",
        ),
        ("sim.cells", sim.cells as f64, "count"),
        ("sim.rank_iters", sim.rank_iters as f64, "count"),
        ("sim.virtual_s", sim.virtual_s, "s"),
        ("sim.migrations", sim.migrations as f64, "count"),
        ("sim.migrated_bytes", sim.migrated_bytes as f64, "B"),
        ("sim.reprofiles", sim.reprofiles as f64, "count"),
        ("sim.lease_replans", sim.lease_replans as f64, "count"),
        (
            "trace.overhead",
            median(&traced_scaled) / median(&untraced_scaled),
            "ratio",
        ),
        ("host.op_wall_s", median(&untraced_walls), "s"),
        ("host.kernel_s", median(&kernel_walls), "s"),
        ("failed_ops", failed as f64 / attempted as f64, "share"),
    ] {
        metric(&mut m, name, value, unit);
    }
    let mut raw = Json::obj();
    raw.push("untraced_op_wall_s", samples(&untraced_walls))
        .push("untraced_op_scaled_s", samples(&untraced_scaled))
        .push("traced_op_wall_s", samples(&traced_walls))
        .push("traced_op_scaled_s", samples(&traced_scaled))
        .push("kernel_wall_s", samples(&kernel_walls));
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics: m,
        samples: raw,
    })
}

/// `--compare A B`: print B's metrics against A's, or refuse when the
/// two results were measured on different CPU counts or sweep `jobs`.
fn compare(paths: &[String]) -> ExitCode {
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match paths {
        [a, b] => match (load(a), load(b)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("sweepbench: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let meta = |r: &Json| r.get("meta").cloned().unwrap_or(Json::Null);
    if let Some(why) = host::incomparable(&meta(&a), &meta(&b)) {
        println!("incomparable: {why}");
        return ExitCode::from(3);
    }
    let metrics = |r: &Json| r.get("result").and_then(|x| x.get("metrics")).cloned();
    let (Some(ma), Some(Json::Obj(mb))) = (metrics(&a), metrics(&b)) else {
        eprintln!("sweepbench: a record has no metrics");
        return ExitCode::from(2);
    };
    for (name, vb) in &mb {
        let value = |m: Option<&Json>| m.and_then(|m| m.get("value")).and_then(Json::as_f64);
        match (value(ma.get(name)), value(Some(vb))) {
            (Some(x), Some(y)) if x != 0.0 => {
                println!("{name}: {x} -> {y} ({:+.1}%)", (y / x - 1.0) * 100.0)
            }
            (x, y) => println!("{name}: {x:?} -> {y:?}"),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shrunk(w: Workload) -> Bench {
        Bench::setup(w, w.shrunk_config(dram_capacity(3))).expect("shrunk workload sets up")
    }

    #[test]
    fn sim_counts_and_digests_repeat_exactly() {
        for w in Workload::ALL {
            let (a, b) = (shrunk(w), shrunk(w));
            assert_eq!(a.sim, b.sim, "{}", w.name());
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert!(a.sim.cells > 0 && a.sim.rank_iters > 0, "{}", w.name());
            let op = a.op(Speed::measure().unwrap()).unwrap();
            assert_eq!(op.failure, None, "{}", w.name());
        }
    }

    #[test]
    fn a_corrupt_cache_entry_fails_the_next_warm_op() {
        let bench = shrunk(Workload::WarmRerun);
        let op = || bench.op(Speed::measure().unwrap()).unwrap();
        assert_eq!(op().failure, None);
        let dir = bench
            .store()
            .expect("warm-rerun has a cache")
            .dir()
            .to_path_buf();
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "cell"))
            .expect("a primed cell entry");
        let mut bytes = std::fs::read(&entry).unwrap();
        *bytes.last_mut().unwrap() ^= 0x20;
        std::fs::write(&entry, bytes).unwrap();
        // The runner recomputes the cell, so the report bytes hold and
        // only the missed lookup fails the op.
        let failure = op().failure.expect("the op must fail");
        assert!(
            failure.contains("1 of") && failure.contains("missed"),
            "{failure}"
        );
        // The recomputed cell was written back: the cache is whole again.
        assert_eq!(op().failure, None);
    }

    #[test]
    fn the_traced_rebuild_digests_like_the_untraced_sweep() {
        for w in [Workload::FullCold, Workload::Rooms] {
            let bench = shrunk(w);
            let mut tr = Tracer::default();
            let rep = tr
                .op(|tr| rebuild::traced_sweep(&bench.cfg, tr))
                .expect("traced sweep runs");
            assert_eq!(
                json_digest_hex(&rep.to_json()),
                bench.digest,
                "{}",
                w.name()
            );
            let totals = &tr.totals()[0];
            assert!(totals.children_ns <= totals.wall_ns);
            let exec: Vec<_> = totals
                .layers
                .iter()
                .filter(|((l, _), _)| *l == "exec")
                .collect();
            let calls: u64 = exec.iter().map(|(_, t)| t.calls).sum();
            let clustered: u64 = exec.iter().map(|(_, t)| t.clustered_calls).sum();
            let coruns = totals
                .layers
                .get(&("tenancy", "corun"))
                .map_or(0, |t| t.calls);
            match w {
                Workload::Rooms => assert_eq!((clustered, coruns), (calls, 0)),
                _ => assert!(clustered == 0 && coruns > 0),
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(args("--workload rooms --seed 1 --seconds 2 --trace 1").is_ok());
        assert!(args("--workload rooms --seed 1 --trace 1").is_err());
        assert!(args("--workload hot --seed 1 --seconds 2").is_err());
        assert!(args("--workload rooms --seed x --seconds 2").is_err());
        assert!(args("--workload rooms --seed 1 --seconds 2 --trace 2").is_err());
    }

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
    }
}
