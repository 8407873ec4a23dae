//! Figure 9: DRAM-only vs NVM-only vs X-Mem vs Unimem with NVM at 1/2
//! DRAM bandwidth. CLASS C, 4 nodes, 1 rank/node, DRAM 256 MB, NVM 16 GB.

use unimem::exec::Policy;
use unimem_bench::{basic_setup, cache, normalized, print_table, unimem_policy, Cell, Row};
use unimem_hms::MachineConfig;
use unimem_workloads::npb_and_nek;
use unimem_xmem::xmem_policy;

fn main() {
    let (class, nranks) = basic_setup();
    let m = MachineConfig::nvm_bw_fraction(0.5);
    let mut rows = Vec::new();
    let mut uni_gaps = Vec::new();
    for w in npb_and_nek(class) {
        let xmem = xmem_policy(w.as_ref(), &m, &cache(), nranks);
        let nvm = normalized(w.as_ref(), &m, nranks, &Policy::NvmOnly);
        let xm = normalized(w.as_ref(), &m, nranks, &xmem);
        let uni = normalized(w.as_ref(), &m, nranks, &unimem_policy());
        uni_gaps.push(uni - 1.0);
        rows.push(Row {
            name: w.name(),
            cells: vec![
                Cell {
                    label: "NVM-only".into(),
                    value: nvm,
                },
                Cell {
                    label: "X-Mem".into(),
                    value: xm,
                },
                Cell {
                    label: "Unimem".into(),
                    value: uni,
                },
            ],
        });
    }
    print_table(
        "Figure 9 — placement policies, NVM = 1/2 DRAM bandwidth (normalized to DRAM-only)",
        "paper: NVM-only gap 18% avg; Unimem within 3% avg, <=10% worst; Unimem ~10% better than X-Mem on Nek5000",
        &rows,
    );
    let avg = uni_gaps.iter().sum::<f64>() / uni_gaps.len() as f64;
    let max = uni_gaps.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "\nUnimem gap to DRAM-only: avg {:.1}%, max {:.1}%",
        avg * 100.0,
        max * 100.0
    );
}
