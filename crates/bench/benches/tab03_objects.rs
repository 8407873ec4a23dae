//! Table 3: target data objects per benchmark and their modeled sizes.

use unimem_workloads::{npb_and_nek, Class};

fn main() {
    println!("\nTable 3 — target data objects (CLASS C, per rank of 4)");
    for w in npb_and_nek(Class::C) {
        let objs = w.objects(0, 4);
        let total: u64 = objs.iter().map(|o| o.size.get()).sum();
        let names: Vec<String> = if objs.len() > 12 {
            let mut v: Vec<String> = objs.iter().take(10).map(|o| o.name.clone()).collect();
            v.push(format!("... ({} objects)", objs.len()));
            v
        } else {
            objs.iter().map(|o| o.name.clone()).collect()
        };
        println!(
            "{:16} {:>10.1} MiB total  [{}]",
            w.name(),
            total as f64 / (1 << 20) as f64,
            names.join(", ")
        );
    }
}
