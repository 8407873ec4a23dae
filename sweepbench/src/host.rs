//! Host-side measurements (process CPU time, peak resident memory) and
//! the run metadata recorded beside every result.

use std::path::Path;
use unimem_sim::{Fnv128, Json};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU seconds so far, user + system, over every thread the
/// process ran (finished pool threads included), to the nanosecond.
pub fn cpu_seconds() -> Result<f64, String> {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // defines; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(t.tv_sec as f64 + t.tv_nsec as f64 / 1e9)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`. Steal is
/// time the hypervisor ran something else while this machine's CPUs had
/// work; a run that saw much of it was measured on a contended host.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| format!("bad /proc/stat field {t:?}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *ticks.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, ticks.iter().sum()))
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of every Rust source and manifest under `root`'s `crates/`,
/// `src/` and `vendor/` plus the root manifest: identifies the measured
/// code where no `.git` is present.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    for d in ["crates", "src", "vendor"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h = Fnv128::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h = h.update(rel.to_string_lossy().as_bytes());
        h = h.update(&std::fs::read(f).unwrap_or_default());
    }
    h.finish_hex()
}

/// Run metadata. Two results are comparable only when their host CPU
/// count and sweep `jobs` agree.
#[derive(Debug, Clone)]
pub struct Meta {
    pub workload: String,
    pub cpus: usize,
    pub jobs: usize,
    pub rank_pool: usize,
    pub seed: u64,
    pub dram_capacity_mib: u64,
    pub trace: bool,
    pub commit: String,
    pub source: String,
    pub profile: &'static str,
}

impl Meta {
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("workload", self.workload.as_str())
            .push("cpus", self.cpus)
            .push("jobs", self.jobs)
            .push("rank_pool", self.rank_pool)
            .push("seed", self.seed)
            .push("dram_capacity_mib", self.dram_capacity_mib)
            .push("trace", self.trace)
            .push("commit", self.commit.as_str())
            .push("source", self.source.as_str())
            .push("profile", self.profile);
        o
    }
}

/// Why two result records cannot be compared, if they cannot.
pub fn incomparable(a: &Json, b: &Json) -> Option<String> {
    for key in ["workload", "cpus", "jobs"] {
        let (x, y) = (a.get(key), b.get(key));
        if x.is_none() || x != y {
            return Some(format!(
                "{key} differs: {} vs {}",
                x.map_or("missing".into(), Json::to_compact),
                y.map_or("missing".into(), Json::to_compact)
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        let (steal, total) = cpu_ticks().unwrap();
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn mismatched_jobs_or_cpus_are_incomparable() {
        let meta = Meta {
            workload: "rooms".into(),
            cpus: 2,
            jobs: 1,
            rank_pool: 2,
            seed: 1,
            dram_capacity_mib: 256,
            trace: false,
            commit: "unknown".into(),
            source: "0".into(),
            profile: "release",
        };
        let a = meta.to_json();
        assert_eq!(incomparable(&a, &a), None);
        let mut other = meta.clone();
        other.seed = 2;
        assert_eq!(incomparable(&a, &other.to_json()), None);
        other.jobs = 2;
        assert!(incomparable(&a, &other.to_json()).unwrap().contains("jobs"));
        other = Meta { cpus: 4, ..meta };
        assert!(incomparable(&a, &other.to_json()).unwrap().contains("cpus"));
    }
}
