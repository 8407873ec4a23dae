//! Figure 2: NPB execution time on NVM-only main memory with various
//! bandwidth (1/2, 1/4, 1/8 of DRAM), normalized to DRAM-only.
//! Paper setup: CLASS D (FT: CLASS C), 16 ranks on 4 nodes.
//!
//! The swept fractions come from `unimem_hms::profiles::FIG2_BW_FRACTIONS`
//! — the same constants the sweep's `bw-half` profile anchors on — so
//! this bench cannot silently drift from the profiles the conformance
//! matrix runs.

use unimem::exec::Policy;
use unimem_bench::{emulation_setup, normalized, print_table, Cell, Row};
use unimem_hms::profiles::FIG2_BW_FRACTIONS;
use unimem_hms::MachineConfig;
use unimem_workloads::all_npb;

fn main() {
    let (class, nranks) = emulation_setup();
    let mut rows = Vec::new();
    for w in all_npb(class) {
        let cells = FIG2_BW_FRACTIONS
            .iter()
            .map(|&f| {
                let m = MachineConfig::nvm_bw_fraction(f);
                Cell {
                    label: format!("{}x bw", f),
                    value: normalized(w.as_ref(), &m, nranks, &Policy::NvmOnly),
                }
            })
            .collect();
        rows.push(Row {
            name: w.name(),
            cells,
        });
    }
    print_table(
        "Figure 2 — NVM-only slowdown vs. bandwidth (normalized to DRAM-only)",
        "paper: 1.09x-8.4x across the sweep; LU 2.19x at 1/2 bw (our linear roofline caps bw-only slowdown at 2x)",
        &rows,
    );
}
