//! Figure 4: impact of single-object placement on SP. For each NVM config
//! (1/2 bandwidth, 4x latency) and input class (C, D): DRAM-only,
//! DRAM+NVM with one target object pinned in DRAM, and NVM-only.
//! 4 nodes, 1 rank each.

use unimem::exec::Policy;
use unimem_bench::{normalized, print_table, Cell, Row};
use unimem_hms::MachineConfig;
use unimem_sim::Bytes;
use unimem_workloads::sp::Sp;
use unimem_workloads::Class;

fn main() {
    let nranks = 4;
    // Pinning studies assume the pinned object fits; give the HMS enough
    // DRAM for the largest single object (lhs).
    let configs = [
        ("1/2 bw", MachineConfig::nvm_bw_fraction(0.5)),
        ("4x lat", MachineConfig::nvm_lat_multiple(4.0)),
    ];
    let pins: [(&str, Vec<&str>); 3] = [
        ("in+out buffer", vec!["in_buffer", "out_buffer"]),
        ("lhs", vec!["lhs"]),
        ("rhs", vec!["rhs"]),
    ];
    for class in [Class::C, Class::D] {
        let sp = Sp::new(class);
        let mut rows = Vec::new();
        for (mlabel, m) in &configs {
            let m = m.clone().with_dram_capacity(Bytes::gib(2));
            let mut cells = vec![Cell {
                label: "NVM-only".into(),
                value: normalized(&sp, &m, nranks, &Policy::NvmOnly),
            }];
            for (plabel, names) in &pins {
                let policy = Policy::Static {
                    in_dram: names.iter().map(|s| s.to_string()).collect(),
                    label: format!("pin {plabel}"),
                };
                cells.push(Cell {
                    label: plabel.to_string(),
                    value: normalized(&sp, &m, nranks, &policy),
                });
            }
            rows.push(Row {
                name: format!("SP.{} {}", class.name(), mlabel),
                cells,
            });
        }
        print_table(
            &format!(
                "Figure 4 — SP.{} single-object placement (normalized to DRAM-only; lower is better)",
                class.name()
            ),
            "paper: buffers help under 1/2 bw but not 4x lat; lhs helps under 4x lat but not 1/2 bw; rhs helps under both",
            &rows,
        );
    }
}
