//! Parallel-executor regressions: the sweep's worker pool must never
//! perturb a report byte, and a failing worker must surface as an error
//! rather than a hang.
//!
//! `run_sweep_cached(cfg, 1, None)` runs every cell in order on the
//! calling thread (the pre-pool serial path);
//! `run_sweep_cached(cfg, 8, None)` fans the same cells out over 8
//! workers. The reduced matrix — the exact matrix CI's conformance job
//! runs — must serialize byte-identically from both.

use unimem_repro::bench::sweep::{run_pool, run_sweep_cached, SweepConfig};

#[test]
fn reduced_matrix_json_is_byte_identical_for_jobs_1_and_8() {
    let cfg = SweepConfig::reduced();
    let serial = run_sweep_cached(&cfg, 1, None).expect("serial sweep runs");
    let parallel = run_sweep_cached(&cfg, 8, None).expect("parallel sweep runs");
    // The reduced matrix carries co-run cells; their bytes (arbiter
    // lease schedules included) ride the same identity check.
    assert!(
        !serial.corun_cells.is_empty(),
        "reduced matrix must exercise the co-run stage"
    );
    let a = serial.to_json().to_pretty();
    let b = parallel.to_json().to_pretty();
    assert!(
        a == b,
        "worker pool perturbed the report: {} vs {} bytes",
        a.len(),
        b.len()
    );
}

#[test]
fn panicking_worker_surfaces_as_error_not_hang() {
    // Enough jobs that every worker has work queued behind the panic.
    let jobs: Vec<usize> = (0..64).collect();
    let result = run_pool(jobs, 8, |&j| {
        if j == 7 {
            panic!("cell {j} exploded");
        }
        Ok(j * 2)
    });
    let err = result.expect_err("panic must become an error");
    assert!(
        err.contains("job 7") && err.contains("cell 7 exploded"),
        "panic context lost: {err}"
    );
}

#[test]
fn failing_job_reports_deterministically_and_later_jobs_still_ran() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Two failures: the lowest job index must win regardless of which
    // worker hit its failure first, and the threaded pool must still
    // drain the whole queue (that drain is what makes the winner
    // deterministic), so every job executes exactly once.
    for _ in 0..8 {
        let executed = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..32).collect();
        let err = run_pool(jobs, 4, |&j| {
            executed.fetch_add(1, Ordering::Relaxed);
            if j == 5 || j == 29 {
                Err(format!("fail {j}"))
            } else {
                Ok(j)
            }
        })
        .unwrap_err();
        assert_eq!(err, "job 5: fail 5");
        assert_eq!(
            executed.load(Ordering::Relaxed),
            32,
            "an early failure must not cancel queued jobs"
        );
    }
}
