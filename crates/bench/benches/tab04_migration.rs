//! Table 4: data migration details for HMS with Unimem (NVM = 1/2 DRAM
//! bandwidth): times of migration, migrated data size, pure runtime cost,
//! and % of movement overlapped with computation.

use unimem_bench::{basic_setup, report, unimem_policy};
use unimem_hms::MachineConfig;
use unimem_workloads::npb_and_nek;

fn main() {
    let (class, nranks) = basic_setup();
    let m = MachineConfig::nvm_bw_fraction(0.5);
    println!("\nTable 4 — migration details (NVM = 1/2 DRAM bandwidth)");
    println!(
        "{:16} {:>10} {:>14} {:>18} {:>10}",
        "workload", "migrations", "migrated (MB)", "pure runtime cost", "% overlap"
    );
    for w in npb_and_nek(class) {
        let rep = report(w.as_ref(), &m, nranks, &unimem_policy());
        // A run that never migrated has no overlap figure to report.
        let overlap = rep
            .job
            .overlap_pct()
            .map_or_else(|| "       n/a".into(), |p| format!("{p:>9.1}%"));
        println!(
            "{:16} {:>10} {:>14.0} {:>17.2}% {overlap}",
            w.name(),
            rep.job.migration_count(),
            rep.job.migrated_bytes().as_mib(),
            rep.job.pure_runtime_cost() * 100.0,
        );
    }
    println!("\npaper: CG 3/132MB, FT 4/201MB, BT 24/720MB, LU 3/187MB, SP 9/348MB, MG 1/17MB, Nek 102/1101MB;");
    println!("pure runtime cost <3% everywhere; overlap 60-100%");
}
