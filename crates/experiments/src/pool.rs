//! In-tree scoped-thread worker pool for the sweep engine.
//!
//! The experiment matrices (workload × predictor × config) are
//! embarrassingly parallel: every run builds its own program and predictor
//! from deterministic seeds and shares nothing with its neighbours. This
//! module fans a task slice across `std::thread::scope` workers while
//! keeping the *output* deterministic: results land in a slot vector
//! indexed by task position, so callers observe exactly the order a serial
//! loop would produce, regardless of which worker finished first.
//!
//! No external dependencies — like the `crates/compat-*` stand-ins, this
//! is deliberately the smallest thing that does the job: an atomic
//! work-stealing cursor plus one `Mutex<Option<R>>` per slot (uncontended;
//! each slot is locked exactly once).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count picked by
/// [`default_workers`] (`PHAST_WORKERS=1` forces serial execution).
pub const WORKERS_ENV: &str = "PHAST_WORKERS";

/// Parses a worker-count override: a positive decimal integer.
///
/// # Errors
///
/// Returns a human-readable description of what was wrong with the value
/// — the callers (`PHAST_WORKERS`, `--workers=N`) print it and exit
/// rather than silently falling back to a default the user did not ask
/// for.
pub fn parse_workers(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!("worker count must be at least 1, got '{raw}'")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("expected a positive integer worker count, got '{raw}'")),
    }
}

/// The worker count a parallel sweep uses by default:
/// `std::thread::available_parallelism()`, overridable with the
/// `PHAST_WORKERS` environment variable. A malformed override is a hard
/// error (exit 2), not a silent fallback.
pub fn default_workers() -> usize {
    match std::env::var(WORKERS_ENV) {
        Ok(raw) => match parse_workers(&raw) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: invalid {WORKERS_ENV}: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
    }
}

/// Parses a cluster-count override: a positive decimal integer — the
/// same reject-garbage contract as [`parse_workers`].
///
/// # Errors
///
/// Returns a human-readable description of what was wrong with the value
/// — the caller (`--clusters=K`) prints it and exits 2 rather than
/// silently falling back to a default the user did not ask for.
pub fn parse_clusters(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!("cluster count must be at least 1, got '{raw}'")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("expected a positive integer cluster count, got '{raw}'")),
    }
}

/// Runs `run(index, &task)` for every task, fanned across at most
/// `workers` scoped threads, and returns the results **in task order**.
///
/// With `workers <= 1` (or a single task) this degenerates to the plain
/// serial loop — byte-identical behaviour, no threads spawned. A panic in
/// any worker propagates to the caller once the scope joins.
pub fn run_matrix<T, R, F>(workers: usize, tasks: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(tasks.len());
    if workers <= 1 {
        return tasks.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let result = run(i, task);
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("worker filled every slot"))
        .collect()
}

/// A panic caught at a job boundary, reduced to its payload message.
///
/// The sweep engine treats a panicking run like any other degraded run: it
/// is recorded, reported, and *does not* take the rest of the matrix down
/// with it. The backtrace (if any) has already been printed by the default
/// panic hook; what survives here is the payload, for the degraded-run
/// registry and the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, if it was a string (the overwhelmingly common
    /// case); `"<non-string panic payload>"` otherwise.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

/// Runs `f` with panics caught and converted to [`JobPanic`].
///
/// The `AssertUnwindSafe` is sound for sweep jobs: each job owns its
/// program, predictor and core outright, and on panic the job's result is
/// discarded wholesale — no partially mutated state is observed afterward.
///
/// # Errors
///
/// [`JobPanic`] if `f` panicked.
pub fn catch_job<R>(f: impl FnOnce() -> R) -> Result<R, JobPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        JobPanic { message }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_task_order() {
        let tasks: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 7, 64, 200] {
            let out = run_matrix(workers, &tasks, |i, &t| {
                assert_eq!(i, t);
                t * 3
            });
            assert_eq!(out, tasks.iter().map(|t| t * 3).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn empty_and_single_task_matrices() {
        let none: Vec<u32> = run_matrix(8, &[], |_, &t: &u32| t);
        assert!(none.is_empty());
        assert_eq!(run_matrix(8, &[41], |_, &t| t + 1), vec![42]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..137).collect();
        let out = run_matrix(5, &tasks, |_, &t| {
            hits.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(hits.load(Ordering::Relaxed), 137);
        assert_eq!(out.len(), 137);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn parse_workers_accepts_positive_integers() {
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers(" 16 "), Ok(16));
    }

    #[test]
    fn catch_job_preserves_string_payloads() {
        assert_eq!(catch_job(|| 7), Ok(7));
        let p = catch_job(|| -> u32 { panic!("boom {}", 42) }).unwrap_err();
        assert_eq!(p.message, "boom 42");
        let p = catch_job(|| -> u32 { std::panic::panic_any(9u8) }).unwrap_err();
        assert_eq!(p.message, "<non-string panic payload>");
    }

    #[test]
    fn parse_workers_rejects_garbage_and_zero() {
        for bad in ["0", "", "four", "-2", "3.5", "8x"] {
            let err = parse_workers(bad).expect_err(bad);
            assert!(err.contains(bad.trim()) || bad.trim().is_empty(), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_clusters_mirrors_the_worker_contract() {
        assert_eq!(parse_clusters("1"), Ok(1));
        assert_eq!(parse_clusters(" 6 "), Ok(6));
        for bad in ["0", "", "six", "-3", "2.5", "4k"] {
            let err = parse_clusters(bad).expect_err(bad);
            assert!(err.contains(bad.trim()) || bad.trim().is_empty(), "{bad}: {err}");
        }
    }
}
