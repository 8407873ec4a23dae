//! Figure 13: Unimem sensitivity to DRAM size (128/256/512 MB),
//! NVM = 1/2 DRAM bandwidth, CLASS C, 4 ranks.

use unimem_bench::{basic_setup, normalized, print_table, unimem_policy, Cell, Row};
use unimem_hms::MachineConfig;
use unimem_sim::Bytes;
use unimem_workloads::npb_and_nek;

fn main() {
    let (class, nranks) = basic_setup();
    let sizes = [128u64, 256, 512];
    let mut rows = Vec::new();
    for w in npb_and_nek(class) {
        let cells = sizes
            .iter()
            .map(|&mb| {
                let m = MachineConfig::nvm_bw_fraction(0.5).with_dram_capacity(Bytes::mib(mb));
                Cell {
                    label: format!("{mb} MB"),
                    value: normalized(w.as_ref(), &m, nranks, &unimem_policy()),
                }
            })
            .collect();
        rows.push(Row {
            name: w.name(),
            cells,
        });
    }
    print_table(
        "Figure 13 — Unimem vs. DRAM size (normalized to DRAM-only; lower is better)",
        "paper: <=7% everywhere except MG at 128 MB (13%): its aliased arrays cannot be partitioned into the small DRAM",
        &rows,
    );
}
