//! Sweep execution on the daemon scheduler: cells in, artifact out.
//!
//! [`submit_sweep`] decomposes a [`SweepSpec`] into one scheduler job per
//! (predictor kind × workload) cell — the same kind-major cell order
//! [`Sweep::run_grid`](crate::harness::Sweep::run_grid) uses, so a daemon
//! sweep's `BENCH_*.json` is **byte-identical** to a batch sweep's
//! (modulo the wall-clock/attempt metadata the resilience docs carve
//! out). Each job:
//!
//! * journals a write-ahead `start` line with its attempt number and
//!   per-attempt fault reseed (the PR 5 retry policy, driven here by
//!   lease reclamation instead of an in-thread loop),
//! * runs [`execute_cell_once`] under a `Deadline` carrying the lease's
//!   cancellation flag and progress heartbeat,
//! * journals a `done` line **once, at delivery** — stale attempts from
//!   reclaimed leases never journal, so a resumed daemon journal replays
//!   exactly what the artifact recorded.
//!
//! Cells the journal already holds as `ok` are replayed without touching
//! the scheduler, exactly as `--resume` does for batch sweeps.

use super::sched::{BatchHandle, CellEvent, JobCtx, JobSpec, Scheduler, SubmitError};
use crate::artifact::{git_describe, RunRecord, SweepArtifact};
use crate::harness::{
    cell_key, exit_code, execute_cell_once, replayed_result, reseed_for_attempt, Budget,
    RunFailure, RunResult,
};
use crate::journal::JournalScope;
use crate::predictors::PredictorKind;
use phast_ooo::{CoreConfig, Deadline};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sweep as a client submits it: which grid to run, under what
/// budget and core, with what per-run watchdog.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Artifact id (`BENCH_<id>.json`); also the journal scope.
    pub id: String,
    /// Predictor kinds, in row order.
    pub kinds: Vec<PredictorKind>,
    /// Budget tier.
    pub budget: Budget,
    /// Core configuration every cell runs on.
    pub cfg: CoreConfig,
    /// Per-run wall-clock watchdog (`None` disarms it).
    pub run_timeout: Option<Duration>,
}

impl SweepSpec {
    /// Total cells in the grid.
    pub fn cells(&self) -> usize {
        self.kinds.len() * self.budget.workloads().len()
    }
}

/// A sweep in flight on the scheduler.
pub struct SweepRun {
    spec: SweepSpec,
    handle: BatchHandle,
    /// Journal-replayed results, indexed by cell position (kind-major).
    replayed: Vec<Option<RunResult>>,
    started: Instant,
}

impl SweepRun {
    /// Blocks for the next cell-delivery event; `None` once every *live*
    /// (non-replayed) cell has delivered. Event indices are positions in
    /// the live batch — use the workload/predictor labels for display.
    pub fn next_event(&self) -> Option<CellEvent> {
        self.handle.next_event()
    }

    /// Total cells in the sweep, replayed ones included.
    pub fn cells(&self) -> usize {
        self.replayed.len()
    }

    /// Cells replayed verbatim from the journal (never scheduled).
    pub fn replayed(&self) -> usize {
        self.replayed.iter().filter(|r| r.is_some()).count()
    }

    /// Waits for every live cell, merges in the replays, and assembles
    /// the sealed artifact. `workers` is recorded in the artifact (pass
    /// the scheduler's count); `json_dir` writes `BENCH_<id>.json` when
    /// given.
    pub fn finish(self, workers: usize, json_dir: Option<&Path>) -> SweepOutcome {
        let live = self.handle.wait();
        let mut live = live.into_iter();
        let results: Vec<RunResult> = self
            .replayed
            .into_iter()
            .map(|slot| match slot {
                Some(r) => r,
                None => live.next().expect("one live result per non-replayed cell"),
            })
            .collect();
        let records: Vec<RunRecord> = results
            .iter()
            .map(|r| match &r.replay {
                Some(record) => record.clone(),
                None => r.to_record(),
            })
            .collect();
        let degraded: Vec<String> =
            results.iter().filter_map(RunResult::degraded_entry).collect();
        let deadline_runs = results
            .iter()
            .filter(|r| r.failure.as_ref().is_some_and(|f| f.kind() == "deadline"))
            .count();
        let artifact = SweepArtifact {
            id: self.spec.id.clone(),
            git: git_describe(),
            workers,
            budget_insts: self.spec.budget.insts,
            budget_iters: self.spec.budget.workload_iters,
            workloads: self.spec.budget.workloads().len(),
            wall_s: self.started.elapsed().as_secs_f64(),
            runs: records,
            degraded: degraded.clone(),
        };
        let body = artifact.to_json();
        // Fail-closed self-check: the rendered artifact must verify
        // against its own digest before anyone is told it is good.
        let integrity_ok = SweepArtifact::verify_json(&body).is_ok();
        let digest = artifact.digest();
        let (path, write_error) = match json_dir {
            Some(dir) if integrity_ok => match artifact.write_to(dir) {
                Ok(p) => (Some(p), None),
                Err(e) => (None, Some(format!("{}: {e}", dir.display()))),
            },
            _ => (None, None),
        };
        let exit = if !integrity_ok {
            exit_code::INTEGRITY
        } else {
            exit_code::for_outcome(!degraded.is_empty(), deadline_runs > 0)
        };
        SweepOutcome {
            artifact,
            body,
            digest,
            path,
            write_error,
            degraded,
            deadline_runs,
            exit,
        }
    }
}

/// The finished sweep: the artifact, its sealed rendering, and the
/// resilience verdict.
pub struct SweepOutcome {
    /// The assembled artifact.
    pub artifact: SweepArtifact,
    /// The sealed JSON rendering (`digest` field included) — what
    /// `BENCH_<id>.json` contains and what `fetch` serves by digest.
    pub body: String,
    /// The artifact's integrity digest (`crc32:xxxxxxxx`).
    pub digest: String,
    /// Where the artifact was written, if a directory was given and the
    /// write succeeded.
    pub path: Option<PathBuf>,
    /// The write failure, if the artifact could not be persisted (the
    /// in-memory body is still valid and served by digest).
    pub write_error: Option<String>,
    /// Degraded-run descriptions, in cell order.
    pub degraded: Vec<String>,
    /// Cells cut off by the per-run watchdog.
    pub deadline_runs: usize,
    /// Exit-taxonomy verdict for this sweep
    /// ([`exit_code`](crate::harness::exit_code)): `0` clean, `1`
    /// degraded, `3` integrity failure, `4` deadline overruns.
    pub exit: i32,
}

/// Submits every live cell of `spec` to the scheduler. Cells the journal
/// holds as `ok` are replayed and never scheduled.
///
/// # Errors
///
/// [`SubmitError::Draining`] once the scheduler is shutting down.
pub fn submit_sweep(
    spec: SweepSpec,
    sched: &Scheduler,
    journal: Option<JournalScope>,
) -> Result<SweepRun, SubmitError> {
    let workloads = spec.budget.workloads();
    let mut replayed: Vec<Option<RunResult>> = Vec::with_capacity(spec.cells());
    let mut jobs: Vec<JobSpec> = Vec::new();
    for kind in &spec.kinds {
        let label = kind.label();
        for workload in &workloads {
            let key = cell_key(workload.name, &label, &spec.cfg, &spec.budget, None);
            if let Some(done) = journal.as_ref().and_then(|j| j.lookup(&key)) {
                replayed.push(Some(replayed_result(done)));
                continue;
            }
            replayed.push(None);
            jobs.push(cell_job(
                *workload,
                kind.clone(),
                &spec,
                key,
                journal.clone(),
            ));
        }
    }
    let handle = sched.submit(jobs)?;
    Ok(SweepRun { spec, handle, replayed, started: Instant::now() })
}

/// Builds the scheduler job for one live cell: owned data only (the
/// scheduler's workers outlive any caller stack frame).
fn cell_job(
    workload: phast_workloads::Workload,
    kind: PredictorKind,
    spec: &SweepSpec,
    key: String,
    journal: Option<JournalScope>,
) -> JobSpec {
    let cfg = spec.cfg.clone();
    let budget = spec.budget.clone();
    let run_timeout = spec.run_timeout;
    let journal_run = journal.clone();
    let key_run = key.clone();
    JobSpec {
        workload: workload.name.to_string(),
        predictor: kind.label(),
        run: Arc::new(move |ctx: &JobCtx| {
            let (cfg_attempt, seed) = reseed_for_attempt(&cfg, ctx.attempt);
            if let Some(j) = &journal_run {
                j.log_start(&key_run, ctx.attempt, seed);
            }
            let deadline = match run_timeout {
                Some(t) => Deadline::after(t),
                None => Deadline::none(),
            }
            .with_cancel(Arc::clone(&ctx.cancel))
            .with_progress(Arc::clone(&ctx.progress));
            execute_cell_once(&workload, &kind, &cfg_attempt, &budget, &deadline)
        }),
        on_delivered: Some(Arc::new(move |run: &RunResult| {
            if let Some(j) = &journal {
                let status = run.failure.as_ref().map_or("ok", RunFailure::kind);
                j.log_done(&key, &run.to_record(), status, run.attempts);
            }
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Sweep;
    use crate::serve::sched::SchedConfig;

    fn tiny_budget() -> Budget {
        Budget { insts: 4_000, workload_iters: 30_000, max_workloads: Some(2), extra_workloads: Vec::new() }
    }

    fn spec(id: &str) -> SweepSpec {
        SweepSpec {
            id: id.to_string(),
            kinds: vec![PredictorKind::Blind, PredictorKind::StoreSets],
            budget: tiny_budget(),
            cfg: CoreConfig::alder_lake(),
            run_timeout: None,
        }
    }

    /// Strips the per-execution metadata the resilience docs carve out of
    /// byte-identity: wall-clock, throughput, attempts, and the digest
    /// (which covers them).
    fn normalize(body: &str) -> String {
        body.lines()
            .filter(|l| {
                !["\"wall_s\"", "\"mips\"", "\"simulated_mips\"", "\"attempts\"", "\"digest\"", "\"git\"", "\"workers\""]
                    .iter()
                    .any(|k| l.trim_start().starts_with(k))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn daemon_sweep_matches_a_serial_batch_sweep_byte_for_byte() {
        let sched = Scheduler::start(SchedConfig { workers: 4, ..SchedConfig::default() });
        let run = submit_sweep(spec("svc"), &sched, None).expect("admitted");
        assert_eq!(run.cells(), 4);
        let outcome = run.finish(sched.workers(), None);
        assert_eq!(outcome.exit, exit_code::OK, "degraded: {:?}", outcome.degraded);
        sched.drain();

        // The serial reference: same grid through the batch harness.
        let serial = Sweep::serial();
        let s = spec("svc");
        let t = Instant::now();
        serial.run_grid(&s.kinds, &s.cfg, &s.budget);
        let reference = serial.artifact("svc", &s.budget, t.elapsed()).to_json();

        assert_eq!(
            normalize(&outcome.body),
            normalize(&reference),
            "daemon artifact diverges from the serial reference"
        );
    }

    #[test]
    fn journal_replay_skips_completed_cells() {
        let dir = std::env::temp_dir().join(format!("phast-serve-runner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = crate::journal::Journal::create(&dir.join("journal.jsonl"), "phast-serve-v1")
            .expect("journal");
        let sched = Scheduler::start(SchedConfig { workers: 2, ..SchedConfig::default() });

        let first = submit_sweep(spec("replay"), &sched, Some(journal.scope("replay")))
            .expect("admitted");
        assert_eq!(first.replayed(), 0);
        let first = first.finish(sched.workers(), None);
        drop(journal);

        // Resume the journal: every cell is now replayed, nothing runs.
        let resumed =
            crate::journal::Journal::resume(&dir.join("journal.jsonl"), "phast-serve-v1")
                .expect("resumes");
        let second = submit_sweep(spec("replay"), &sched, Some(resumed.scope("replay")))
            .expect("admitted");
        assert_eq!(second.replayed(), 4, "all cells replay from the journal");
        let second = second.finish(sched.workers(), None);
        assert_eq!(normalize(&first.body), normalize(&second.body));
        sched.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
