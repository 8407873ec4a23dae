//! Extension: the suite on the paper's Table-1 NVM technology presets
//! (STT-RAM, PCRAM, ReRAM midpoints) instead of the parametric configs.
//! The paper motivates Unimem with these technologies but evaluates only
//! parametric sweeps; this harness closes that loop: how well does the
//! runtime bridge the gap for each concrete technology?

use unimem::exec::Policy;
use unimem_bench::{basic_setup, normalized, print_table, unimem_policy, Cell, Row};
use unimem_hms::profiles::{table1_pcram, table1_reram, table1_stt_ram};
use unimem_hms::MachineConfig;
use unimem_workloads::all_npb;

fn main() {
    let (class, nranks) = basic_setup();
    let techs = [
        ("STT-RAM", table1_stt_ram()),
        ("PCRAM", table1_pcram()),
        ("ReRAM", table1_reram()),
    ];
    for (name, nvm) in techs {
        let m = MachineConfig::technology(nvm, name);
        let mut rows = Vec::new();
        for w in all_npb(class) {
            let cells = vec![
                Cell {
                    label: "NVM-only".into(),
                    value: normalized(w.as_ref(), &m, nranks, &Policy::NvmOnly),
                },
                Cell {
                    label: "Unimem".into(),
                    value: normalized(w.as_ref(), &m, nranks, &unimem_policy()),
                },
            ];
            rows.push(Row {
                name: w.name(),
                cells,
            });
        }
        print_table(
            &format!("Extension — Table-1 technology: {name} (normalized to DRAM-only)"),
            "Table 1 characteristics with the simulation DRAM baseline; write asymmetry included",
            &rows,
        );
    }
}
