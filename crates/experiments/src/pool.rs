//! In-tree scoped-thread worker pool for the sweep engine.
//!
//! The experiment matrices (workload × predictor × config) are
//! embarrassingly parallel: every run builds its own predictor, and what
//! the runs of one workload share (its program, static signature and
//! sampled capture, built once per grid by whichever run needs it first)
//! is a pure function of the workload, budget and core configuration, so
//! no run can tell which neighbour built it. This module fans a task
//! slice across `std::thread::scope` workers while keeping the *output*
//! deterministic: results land in a slot vector indexed by task position,
//! so callers observe exactly the order a serial loop would produce,
//! regardless of which worker finished first.
//!
//! No external dependencies — like the `crates/compat-*` stand-ins, this
//! is deliberately the smallest thing that does the job: an atomic
//! work-stealing cursor plus one `Mutex<Option<R>>` per slot (uncontended;
//! each slot is locked exactly once).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count a parallel sweep uses by default:
/// `std::thread::available_parallelism()`, or 1 when it is unknown.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
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
    fn catch_job_preserves_string_payloads() {
        assert_eq!(catch_job(|| 7), Ok(7));
        let p = catch_job(|| -> u32 { panic!("boom {}", 42) }).unwrap_err();
        assert_eq!(p.message, "boom 42");
        let p = catch_job(|| -> u32 { std::panic::panic_any(9u8) }).unwrap_err();
        assert_eq!(p.message, "<non-string panic payload>");
    }
}
