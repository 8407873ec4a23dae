//! Extension: sensitivity of Unimem to the sampling configuration — the
//! paper's design choice that "sampling is not sparse to lose modeling
//! accuracy" (§4). Sweeps the event-capture period and
//! reports end-to-end Unimem performance plus the profiling overhead.

use unimem::exec::{Policy, UnimemConfig};
use unimem_bench::{basic_setup, print_table, report, Cell, Row};
use unimem_hms::MachineConfig;
use unimem_perf::SamplerConfig;
use unimem_workloads::by_name;

fn main() {
    let (class, nranks) = basic_setup();
    let m = MachineConfig::nvm_bw_fraction(0.5);
    let mut rows = Vec::new();
    for workload in ["CG", "LU", "SP"] {
        let w = by_name(workload, class).unwrap();
        let dram = report(w.as_ref(), &m, nranks, &Policy::DramOnly).time();
        let cells = [100u64, 1_000, 10_000, 100_000]
            .iter()
            .map(|&period| {
                let cfg = UnimemConfig {
                    sampler: SamplerConfig {
                        event_period: period,
                        ..SamplerConfig::default()
                    },
                    ..UnimemConfig::default()
                };
                let rep = report(w.as_ref(), &m, nranks, &Policy::Unimem(cfg));
                Cell {
                    label: format!("1/{period}"),
                    value: rep.time().secs() / dram.secs(),
                }
            })
            .collect();
        rows.push(Row {
            name: w.name(),
            cells,
        });
    }
    print_table(
        "Extension — Unimem vs. event-sampling period (normalized to DRAM-only)",
        "denser sampling improves model inputs but raises profiling cost; the paper's 1/1000 is the default",
        &rows,
    );
}
