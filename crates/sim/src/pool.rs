//! Deterministic worker pool: run a job vector on N threads, reassemble
//! results by index.
//!
//! The bench sweep executor runs its cells on it (`--jobs`). Jobs carry
//! their index in some canonical order and [`run_pool`] reassembles
//! results by that index, so the output is a pure function of the input:
//! byte-identical to the serial walk regardless of worker count or
//! scheduling. A run's rank tasks never reach it: one run advances all
//! its ranks on the calling thread (`unimem::exec`).
//!
//! [`run_pool`] hands out job indices from one atomic cursor over the
//! shared job slice, so a worker that finishes a cheap job claims the
//! next one at once: sweep cells differ in cost by orders of magnitude.
//! Every worker buffers `(index, result)` pairs locally and the caller
//! merges them after the scoped join, so no lock sits on the hot path.
//! The calling thread is the first worker: it runs its share instead of
//! sleeping in the join, so a call starts `workers - 1` threads.
//!
//! A job that returns `Err` or panics surfaces as the pool's `Err`
//! (first failing job index wins, deterministically) instead of
//! deadlocking the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` over every job on a pool of `workers` threads and return the
/// results in job order.
///
/// * `workers <= 1` (or a single job) runs everything in order on the
///   calling thread — bit-for-bit the serial path, no threads spawned.
/// * Wider pools start `workers - 1` threads, and the calling thread
///   claims jobs beside them.
/// * A job returning `Err` or panicking does not deadlock the pool, and
///   the error of the **lowest-indexed** failing job is returned with a
///   `job {idx}:` prefix — identical from the serial and threaded paths,
///   so the reported failure never depends on worker count or
///   scheduling. (The threaded path still runs every job; the serial
///   path stops at the failure, which is unobservable in the result.)
pub fn run_pool<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> Result<Vec<R>, String>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> Result<R, String> + Sync,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(idx, job)| run_caught(|| f(job)).map_err(|e| format!("job {idx}: {e}")))
            .collect();
    }

    // Each `fetch_add` hands exactly one worker the next unclaimed job.
    // The counter publishes nothing but the index: the jobs were written
    // before the scope spawned the workers, and the results travel back
    // through the joins.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(idx) else { break };
            local.push((idx, run_caught(|| f(job))));
        }
        local
    };
    let buffers: Vec<Vec<(usize, Result<R, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(work)).collect();
        let mut buffers = vec![work()];
        // Jobs run under `run_caught`, so a worker never unwinds.
        buffers.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panics are caught per job")),
        );
        buffers
    });

    let mut slots: Vec<Option<Result<R, String>>> =
        std::iter::repeat_with(|| None).take(n).collect();
    for (idx, res) in buffers.into_iter().flatten() {
        slots[idx] = Some(res);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| {
            slot.expect("the cursor hands out every index exactly once")
                .map_err(|e| format!("job {idx}: {e}"))
        })
        .collect()
}

/// Run one job, converting a panic into `Err` — a panicking job must not
/// take down the worker (and the results the caller is waiting for) on
/// the threaded path, nor abort the process on the serial path.
fn run_caught<R>(body: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_msg(&*p))))
}

/// Run `body`, converting a panic into `Err` and prefixing any failure
/// with `label` — so a failing job reports its domain coordinates (a
/// sweep cell's matrix position), not just its opaque flat index.
pub fn with_label<R>(
    label: impl Fn() -> String,
    body: impl FnOnce() -> Result<R, String>,
) -> Result<R, String> {
    run_caught(body).map_err(|e| format!("{}: {e}", label()))
}

// Takes the unsized payload directly: passing `&Box<dyn Any>` would let
// the *Box* coerce to `dyn Any` and every downcast would miss.
fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Default worker count: the host's available parallelism, so that a
/// sweep can keep every CPU the process may use busy; 1 when it cannot
/// be queried.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_job_order_at_any_width() {
        let jobs: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 8, 100] {
            let got = run_pool(jobs.clone(), workers, |&j| Ok(j * j)).unwrap();
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn pool_reports_lowest_failing_job_at_any_width() {
        // The serial (workers = 1) and threaded paths must produce the
        // exact same error for the same failing job set.
        for workers in [1, 4] {
            let jobs: Vec<u64> = (0..32).collect();
            let err = run_pool(jobs, workers, |&j| {
                if j % 10 == 3 {
                    Err(format!("boom {j}"))
                } else {
                    Ok(j)
                }
            })
            .unwrap_err();
            assert_eq!(err, "job 3: boom 3", "workers={workers}");
        }
    }

    #[test]
    fn panicking_job_is_an_error_not_a_hang_or_abort() {
        for workers in [1, 4] {
            let jobs: Vec<u64> = (0..16).collect();
            let err = run_pool(jobs, workers, |&j| {
                if j == 5 {
                    panic!("job five exploded");
                }
                Ok(j)
            })
            .unwrap_err();
            assert_eq!(
                err, "job 5: panicked: job five exploded",
                "workers={workers}"
            );
        }
    }

    #[test]
    fn with_label_prefixes_errors_and_catches_panics() {
        assert_eq!(with_label(|| "x".into(), || Ok(1)), Ok(1));
        assert_eq!(
            with_label(
                || "CG/bw-half/r4/unimem".into(),
                || Err::<(), _>("bad".into())
            ),
            Err("CG/bw-half/r4/unimem: bad".to_string())
        );
        assert_eq!(
            with_label(
                || "cell".into(),
                || -> Result<(), String> { panic!("boom") }
            ),
            Err("cell: panicked: boom".to_string())
        );
    }

    #[test]
    fn empty_job_vector_is_fine() {
        let got: Vec<u64> = run_pool(Vec::<u64>::new(), 8, |&j| Ok(j)).unwrap();
        assert!(got.is_empty());
    }
}
