//! Figure 12: CG strong scaling on the Edison-style NUMA emulation
//! (NVM = 60% DRAM bandwidth, 1.89x latency), CLASS D, DRAM 256 MB /
//! NVM 32 GB per node, 1 rank per node.

use unimem::exec::Policy;
use unimem_bench::{normalized, print_table, unimem_policy, Cell, Row};
use unimem_hms::MachineConfig;
use unimem_workloads::cg::Cg;
use unimem_workloads::Class;

fn main() {
    let m = MachineConfig::edison_numa();
    let cg = Cg::new(Class::D);
    let mut rows = Vec::new();
    for nranks in [4usize, 8, 16, 32, 64] {
        let nvm = normalized(&cg, &m, nranks, &Policy::NvmOnly);
        let uni = normalized(&cg, &m, nranks, &unimem_policy());
        rows.push(Row {
            name: format!("{nranks} ranks"),
            cells: vec![
                Cell {
                    label: "NVM-only".into(),
                    value: nvm,
                },
                Cell {
                    label: "Unimem".into(),
                    value: uni,
                },
            ],
        });
    }
    print_table(
        "Figure 12 — CG.D strong scaling, Edison NUMA emulation (normalized to DRAM-only)",
        "paper: Unimem within 7% of DRAM-only at every scale",
        &rows,
    );
}
