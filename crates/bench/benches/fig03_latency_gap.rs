//! Figure 3: NPB execution time on NVM-only main memory with various
//! latency (2x, 4x, 8x DRAM), normalized to DRAM-only.
//!
//! The swept multiples come from `unimem_hms::profiles::FIG3_LAT_MULTIPLES`
//! — the same constants the sweep's `lat-4x` profile anchors on — so this
//! bench cannot silently drift from the profiles the conformance matrix
//! runs.

use unimem::exec::Policy;
use unimem_bench::{emulation_setup, normalized, print_table, Cell, Row};
use unimem_hms::profiles::FIG3_LAT_MULTIPLES;
use unimem_hms::MachineConfig;
use unimem_workloads::all_npb;

fn main() {
    let (class, nranks) = emulation_setup();
    let mut rows = Vec::new();
    for w in all_npb(class) {
        let cells = FIG3_LAT_MULTIPLES
            .iter()
            .map(|&x| {
                let m = MachineConfig::nvm_lat_multiple(x);
                Cell {
                    label: format!("{}x lat", x),
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
        "Figure 3 — NVM-only slowdown vs. latency (normalized to DRAM-only)",
        "paper: LU 2.14x at 2x latency; latency-sensitive codes (CG) degrade fastest",
        &rows,
    );
}
