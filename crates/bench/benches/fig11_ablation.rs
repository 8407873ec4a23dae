//! Figure 11: contribution of the four techniques, applied cumulatively:
//! (1) cross-phase global search, (2) +phase-local search,
//! (3) +partitioning large objects, (4) +initial data placement.
//! NVM = 1/2 DRAM bandwidth, CLASS C, 4 ranks.

use unimem::exec::{Policy, UnimemConfig};
use unimem_bench::{basic_setup, normalized, print_table, Cell, Row};
use unimem_hms::MachineConfig;
use unimem_workloads::npb_and_nek;

fn main() {
    let (class, nranks) = basic_setup();
    let m = MachineConfig::nvm_bw_fraction(0.5);
    let labels = ["global", "+local", "+partition", "+initial"];
    let mut rows = Vec::new();
    for w in npb_and_nek(class) {
        let cells = (1..=4u8)
            .map(|rung| Cell {
                label: labels[rung as usize - 1].into(),
                value: normalized(
                    w.as_ref(),
                    &m,
                    nranks,
                    &Policy::Unimem(UnimemConfig::ablation(rung)),
                ),
            })
            .collect();
        rows.push(Row {
            name: w.name(),
            cells,
        });
    }
    print_table(
        "Figure 11 — cumulative technique ablation (normalized to DRAM-only; lower is better)",
        "paper: global search carries CG/LU; local search adds 19%/5% on BT/SP; partitioning only helps FT; initial placement helps everywhere (87% of SP's win)",
        &rows,
    );
}
