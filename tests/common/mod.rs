//! The one driver of the seeded randomized tests.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use unimem_repro::sim::DetRng;

/// Run `case` `cases` times; case `k` draws from `DetRng::derive(k, name)`,
/// so a test's inputs depend only on its name and every failure
/// reproduces. A failing case prints the test name and `k`, then its
/// panic goes on.
pub fn for_seeds(name: &str, cases: u64, mut case: impl FnMut(&mut DetRng)) {
    for k in 0..cases {
        let mut rng = DetRng::derive(k, name);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            eprintln!("{name}: case {k} of {cases} failed");
            resume_unwind(panic);
        }
    }
}
