//! Shared machinery for the figure/table harnesses.
//!
//! Every harness follows the same recipe: run a set of workloads under a
//! set of (machine, policy) configurations, normalize to DRAM-only, and
//! print the series the paper plots. The run helpers live here so the
//! workspace integration tests can assert on the same numbers the benches
//! print.

#![forbid(unsafe_code)]

use unimem::exec::{run_workload, Policy, RunReport};
use unimem::UnimemConfig;
use unimem_cache::CacheModel;
use unimem_hms::MachineConfig;
use unimem_workloads::Class;

pub mod sweep;

/// Canonical cache for all experiments (Platform A's Xeon E5-2630 LLC).
pub fn cache() -> CacheModel {
    CacheModel::platform_a()
}

/// One experiment cell: a workload's normalized time under a policy.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub value: f64,
}

/// One table row: a workload and its cells.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub cells: Vec<Cell>,
}

/// Normalized execution time of `policy` vs. DRAM-only for one workload.
pub fn normalized(
    workload: &dyn unimem::Workload,
    machine: &MachineConfig,
    nranks: usize,
    policy: &Policy,
) -> f64 {
    let cache = cache();
    let dram = run_workload(workload, machine, &cache, nranks, &Policy::DramOnly);
    let run = run_workload(workload, machine, &cache, nranks, policy);
    run.time().secs() / dram.time().secs()
}

/// Full report under a policy (for Table 4 counters).
pub fn report(
    workload: &dyn unimem::Workload,
    machine: &MachineConfig,
    nranks: usize,
    policy: &Policy,
) -> RunReport {
    run_workload(workload, machine, &cache(), nranks, policy)
}

/// Default Unimem policy with a fixed seed (determinism across harnesses).
pub fn unimem_policy() -> Policy {
    Policy::Unimem(UnimemConfig::default())
}

/// Pretty-print a table: header, rows, and per-column averages.
pub fn print_table(title: &str, subtitle: &str, rows: &[Row]) {
    println!("\n{title}");
    if !subtitle.is_empty() {
        println!("{subtitle}");
    }
    if rows.is_empty() {
        return;
    }
    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(8).max(8);
    print!("{:name_w$}", "workload");
    for c in &rows[0].cells {
        print!("  {:>12}", c.label);
    }
    println!();
    let n_cols = rows[0].cells.len();
    let mut sums = vec![0.0; n_cols];
    for r in rows {
        print!("{:name_w$}", r.name);
        for (i, c) in r.cells.iter().enumerate() {
            print!("  {:>12.3}", c.value);
            sums[i] += c.value;
        }
        println!();
    }
    print!("{:name_w$}", "average");
    for s in &sums {
        print!("  {:>12.3}", s / rows.len() as f64);
    }
    println!();
}

/// The paper's standard basic-test setup: CLASS C, 4 nodes, 1 rank/node,
/// DRAM 256 MB, NVM 16 GB.
pub fn basic_setup() -> (Class, usize) {
    (Class::C, 4)
}

/// The emulation-study setup (Figs. 2/3): CLASS D, 16 ranks (FT uses
/// CLASS C in the paper for run-time reasons; our FT.D runs fine and is
/// reported as-is).
pub fn emulation_setup() -> (Class, usize) {
    (Class::D, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimem_workloads::by_name;

    #[test]
    fn normalized_is_one_for_dram_only() {
        let w = by_name("CG", Class::S).unwrap();
        let m = MachineConfig::nvm_bw_fraction(0.5);
        let v = normalized(w.as_ref(), &m, 1, &Policy::DramOnly);
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "t",
            "s",
            &[Row {
                name: "CG".into(),
                cells: vec![Cell {
                    label: "x".into(),
                    value: 1.5,
                }],
            }],
        );
        print_table("empty", "", &[]);
    }
}
