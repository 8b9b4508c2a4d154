//! The sweep engine: budgets, per-run results, aggregation, parallel
//! execution, and graceful degradation.
//!
//! A [`Sweep`] owns everything one experiment needs:
//!
//! * a **worker pool** ([`crate::pool`]) that fans the (workload,
//!   predictor, config) run matrix across threads while keeping output
//!   deterministic — results are collected by matrix index and recorded in
//!   matrix order, and every run builds its program and predictor from
//!   per-run seeds, so a parallel sweep produces byte-identical tables to
//!   a serial one;
//! * a **scoped degraded-run registry** — a run that fails with a
//!   [`SimError`] is recorded (with its partial statistics) and reported
//!   at the end of the experiment instead of aborting the remaining
//!   pairs. The registry lives on the `Sweep`, not in a process-global
//!   static, so concurrent sweeps (e.g. parallel tests) cannot steal each
//!   other's reports;
//! * a **run log** of [`RunRecord`]s feeding the machine-readable
//!   `BENCH_<id>.json` artifacts ([`crate::artifact`]).
//!
//! Budget tiers: [`Budget::full`] (the paper's evaluation, used by the
//! `phast-experiments` binary), [`Budget::quick`] (smoke tests and CI),
//! and [`Budget::bench`] (the Criterion benches in `phast-bench`).

use crate::artifact::{git_describe, RunRecord, SamplingMeta, SweepArtifact};
use crate::journal::{CompletedRun, JournalScope};
use crate::pool::{self, JobPanic};
use crate::predictors::{ideal_oracle, PredictorKind};
use phast_isa::Program;
use phast_mdp::{DepOracle, MemDepPredictor};
use phast_ooo::{
    try_simulate_within, CoreConfig, Deadline, LaneBatch, LaneJob, LaneOutcome, LaneReport,
    SimError, SimStats,
};
use phast_sample::{
    capture, estimate, run_window_within, sum_window_stats_weighted, CheckpointSet, SampleConfig,
    SampleMode, WindowRun,
};
use phast_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process exit codes of the experiment binary — the machine-readable
/// summary of how resilient execution went. Documented in `--help` and
/// `docs/RESILIENCE.md`.
pub mod exit_code {
    /// Every run completed cleanly.
    pub const OK: i32 = 0;
    /// The sweep completed, but at least one run degraded (simulation
    /// error or panic) — results are present but partial.
    pub const DEGRADED: i32 = 1;
    /// Bad command line.
    pub const USAGE: i32 = 2;
    /// An artifact or journal failed integrity verification — outputs
    /// must not be trusted.
    pub const INTEGRITY: i32 = 3;
    /// At least one run was cut off by its wall-clock watchdog.
    pub const DEADLINE: i32 = 4;
    /// A remote worker could not reach (or re-reach) its daemon within
    /// its connection patience — the worker exits with this so fleet
    /// supervisors can tell "daemon gone" from "sweep degraded".
    pub const CONNECTION: i32 = 5;

    /// The exit code for a sweep that *completed*: deadline overruns
    /// outrank plain degradation (a hang is operationally worse than a
    /// caught simulation error), integrity failures are raised at the
    /// point of detection and never reach here.
    pub fn for_outcome(degraded: bool, deadline: bool) -> i32 {
        if deadline {
            DEADLINE
        } else if degraded {
            DEGRADED
        } else {
            OK
        }
    }
}

/// Why a run failed: a structured simulation error, or a panic caught at
/// the job boundary. Both degrade the run — recorded, reported, never
/// aborting the sweep.
#[derive(Clone, Debug)]
pub enum RunFailure {
    /// The simulator returned a structured error.
    Sim(SimError),
    /// The job panicked; the payload message survives.
    Panicked(String),
    /// The job was lost without delivering a result: its `phast-serve`
    /// lease expired (worker death, heartbeat loss) and the retry budget
    /// ran out before any attempt completed.
    Lost(String),
    /// The run failed on a remote worker process; the failure arrived
    /// over the wire as its kind tag plus the rendered detail. Display
    /// prints the detail verbatim, so a degraded-run registry entry is
    /// byte-identical whether the cell failed locally or remotely.
    Remote {
        /// The original failure's [`RunFailure::kind`] tag.
        kind: String,
        /// The original failure's display rendering.
        detail: String,
    },
}

impl RunFailure {
    /// Stable failure-kind tag: [`SimError::kind`] for simulation errors,
    /// `"panicked"` for caught panics, `"lost"` for jobs whose lease
    /// expired with no result, and the transmitted tag for failures that
    /// crossed the wire. This is the `status` a journal `done` line
    /// carries for a failed run.
    pub fn kind(&self) -> &str {
        match self {
            RunFailure::Sim(e) => e.kind(),
            RunFailure::Panicked(_) => "panicked",
            RunFailure::Lost(_) => "lost",
            RunFailure::Remote { kind, .. } => kind,
        }
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Sim(e) => e.fmt(f),
            RunFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            RunFailure::Lost(msg) => write!(f, "lost: {msg}"),
            RunFailure::Remote { detail, .. } => write!(f, "{detail}"),
        }
    }
}

impl From<SimError> for RunFailure {
    fn from(e: SimError) -> RunFailure {
        RunFailure::Sim(e)
    }
}

/// How much work an experiment may do. The binary runs at
/// [`Budget::full`]; tests and CI use [`Budget::quick`]; the Criterion
/// benches use [`Budget::bench`].
#[derive(Clone, Debug)]
pub struct Budget {
    /// Instructions simulated per (workload, predictor) pair.
    pub insts: u64,
    /// Outer-loop iterations the workloads are built with.
    pub workload_iters: u64,
    /// Restrict to the first `n` workloads (None = all 23).
    pub max_workloads: Option<usize>,
    /// Extra workloads appended after the built-in set (after
    /// `max_workloads` truncation): synthesized programs (`--synth`) and
    /// replayed PHTR traces (`--trace`). `--max-workloads=0` plus extras
    /// sweeps *only* the extras.
    pub extra_workloads: Vec<Workload>,
}

impl Budget {
    /// The full budget used by `cargo run -p phast-experiments`.
    pub fn full() -> Budget {
        Budget {
            insts: 300_000,
            workload_iters: 1_000_000,
            max_workloads: None,
            extra_workloads: Vec::new(),
        }
    }

    /// A reduced budget for smoke tests and the CI quick sweep.
    pub fn quick() -> Budget {
        Budget {
            insts: 40_000,
            workload_iters: 200_000,
            max_workloads: Some(6),
            extra_workloads: Vec::new(),
        }
    }

    /// The smallest tier, used by the `phast-bench` Criterion benches
    /// (benches measure harness cost, not paper numbers).
    pub fn bench() -> Budget {
        Budget {
            insts: 10_000,
            workload_iters: 60_000,
            max_workloads: Some(2),
            extra_workloads: Vec::new(),
        }
    }

    /// The sampled tier: a much longer horizon than [`Budget::full`],
    /// affordable because a sweep with [`Sweep::with_sampling`] measures
    /// only the detailed windows cycle-accurately and covers the rest
    /// with functional fast-forward (see `phast-sample` and
    /// `docs/SAMPLING.md`).
    pub fn sampled() -> Budget {
        Budget {
            insts: 2_000_000,
            workload_iters: 10_000_000,
            max_workloads: None,
            extra_workloads: Vec::new(),
        }
    }

    /// The sampling parameters matched to this budget's horizon: enough
    /// windows for a tight confidence interval at [`Budget::sampled`]
    /// scale, the `phast-sample` defaults below [`Budget::full`] scale.
    pub fn default_sampling(&self) -> SampleConfig {
        if self.insts > Budget::full().insts {
            SampleConfig::new(16, 4_000, 2_000)
        } else {
            SampleConfig::default()
        }
    }

    /// The workloads this budget covers: the (possibly truncated)
    /// built-in set followed by any extras, in the order given.
    pub fn workloads(&self) -> Vec<Workload> {
        let mut all = phast_workloads::all_workloads();
        if let Some(n) = self.max_workloads {
            all.truncate(n);
        }
        all.extend(self.extra_workloads.iter().copied());
        all
    }
}

/// Result of simulating one (workload, predictor, core config) triple.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Predictor label.
    pub predictor: String,
    /// Full simulator statistics (partial if `failure` is set).
    pub stats: SimStats,
    /// Paths tracked by unlimited predictors (0 for table-based ones).
    pub num_paths: u64,
    /// The failure that ended the run early, if it could not finish
    /// cleanly.
    pub failure: Option<RunFailure>,
    /// Host wall-clock time the simulation took.
    pub wall: Duration,
    /// Attempts this run took (1 = first try succeeded or no retry
    /// policy; >1 = the retry policy re-ran it).
    pub attempts: u64,
    /// Sampling metadata when the statistics were estimated from detailed
    /// windows (`None` for a full-detail run).
    pub sampling: Option<SamplingMeta>,
    /// Digest of the workload's static dependence signature
    /// (`phast_trace::DepSignature::digest`), deterministic for a given
    /// program — identical between solo, lane-batched, parallel and
    /// trace-replayed runs of the same workload. `"unknown"` when the
    /// run degraded before its program was built.
    pub workload_signature: String,
    /// When this result was replayed from a resume journal rather than
    /// simulated, the journaled record to emit verbatim — so a resumed
    /// sweep's artifact is byte-identical to an uninterrupted one.
    pub(crate) replay: Option<RunRecord>,
}

impl RunResult {
    /// True if the run finished cleanly (statistics are a full sample).
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// The degraded-run registry entry for this run, if it failed.
    pub(crate) fn degraded_entry(&self) -> Option<String> {
        self.failure.as_ref().map(|e| format!("{} × {}: {e}", self.workload, self.predictor))
    }

    /// The artifact row for this run.
    pub(crate) fn to_record(&self) -> RunRecord {
        RunRecord {
            workload: self.workload.clone(),
            predictor: self.predictor.clone(),
            ipc: self.stats.ipc(),
            violation_mpki: self.stats.violation_mpki(),
            false_dep_mpki: self.stats.false_dep_mpki(),
            cycles: self.stats.cycles,
            committed: self.stats.committed,
            num_paths: self.num_paths,
            wall_s: self.wall.as_secs_f64(),
            mips: {
                let wall_s = self.wall.as_secs_f64();
                if wall_s > 0.0 { self.stats.committed as f64 / wall_s / 1e6 } else { 0.0 }
            },
            attempts: self.attempts,
            degraded: self.degraded_entry(),
            sampling: self.sampling.clone(),
            workload_signature: self.workload_signature.clone(),
        }
    }
}

/// Simulates an already-built predictor on an already-built program,
/// degrading gracefully: a failed run yields its partial statistics plus
/// the [`SimError`] instead of aborting.
///
/// This is the **pure** execution primitive: it records nothing. Use the
/// [`Sweep`] methods (or [`Sweep::record_all`] after a custom parallel
/// map) so degraded runs reach the registry and the artifact log.
pub fn simulate_run(
    workload: &str,
    label: &str,
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    insts: u64,
) -> RunResult {
    simulate_run_within(workload, label, program, cfg, predictor, insts, &Deadline::none())
}

/// [`simulate_run`] under a cooperative [`Deadline`] watchdog: a run
/// whose wall-clock budget elapses degrades with `SimError::Deadline`
/// instead of hanging its worker thread.
pub fn simulate_run_within(
    workload: &str,
    label: &str,
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    insts: u64,
    deadline: &Deadline,
) -> RunResult {
    let start = Instant::now();
    let (stats, failure) = match try_simulate_within(program, cfg, predictor, insts, deadline) {
        Ok(stats) => (stats, None),
        Err(e) => (e.partial_stats().clone(), Some(RunFailure::Sim(e))),
    };
    RunResult {
        workload: workload.to_string(),
        predictor: label.to_string(),
        stats,
        num_paths: predictor.num_paths(),
        failure,
        wall: start.elapsed(),
        attempts: 1,
        sampling: None,
        workload_signature: phast_trace::signature(program).digest(),
        replay: None,
    }
}

/// A degraded [`RunResult`] for a job whose panic was caught at the pool
/// boundary: empty statistics, failure [`RunFailure::Panicked`].
fn panicked_result(workload: &str, label: &str, panic: JobPanic) -> RunResult {
    failed_result(workload, label, RunFailure::Panicked(panic.message))
}

/// A degraded [`RunResult`] carrying `failure` and empty statistics — for
/// jobs that never produced partial state: caught panics, and
/// `phast-serve` jobs whose lease expired with no surviving attempt
/// ([`RunFailure::Lost`]).
pub fn failed_result(workload: &str, label: &str, failure: RunFailure) -> RunResult {
    RunResult {
        workload: workload.to_string(),
        predictor: label.to_string(),
        stats: SimStats::default(),
        num_paths: 0,
        failure: Some(failure),
        wall: Duration::ZERO,
        attempts: 1,
        sampling: None,
        workload_signature: "unknown".to_string(),
        replay: None,
    }
}

#[allow(clippy::field_reassign_with_default)] // only four fields are recoverable
/// Reconstructs a [`RunResult`] from a journaled completed run, for
/// resume: the embedded record is carried verbatim (so the artifact is
/// byte-identical to an uninterrupted sweep's), and the statistics the
/// figures consume are inverted from the record exactly — `ipc`,
/// `violation_mpki` and `false_dep_mpki` recompute to the identical
/// values because they were derived from these integers in the first
/// place.
pub(crate) fn replayed_result(done: CompletedRun) -> RunResult {
    let r = &done.record;
    let per_kilo_inverse =
        |mpki: f64| -> u64 { (mpki * r.committed as f64 / 1000.0).round() as u64 };
    let mut stats = SimStats::default();
    stats.cycles = r.cycles;
    stats.committed = r.committed;
    stats.violations = per_kilo_inverse(r.violation_mpki);
    stats.false_dependences = per_kilo_inverse(r.false_dep_mpki);
    RunResult {
        workload: r.workload.clone(),
        predictor: r.predictor.clone(),
        stats,
        num_paths: r.num_paths,
        failure: None,
        wall: Duration::from_secs_f64(r.wall_s.max(0.0)),
        attempts: done.attempts,
        sampling: r.sampling.clone(),
        workload_signature: r.workload_signature.clone(),
        replay: Some(done.record),
    }
}

#[allow(clippy::field_reassign_with_default)] // only four fields are recoverable
/// Reconstructs a [`RunResult`] from a verified remote delivery, the
/// wire analogue of [`replayed_result`]: the record the worker rendered
/// is carried verbatim into the artifact (so a sweep's output is
/// byte-identical no matter which process ran each cell), the consumable
/// statistics are inverted from it exactly, and a non-`"ok"` status
/// becomes a [`RunFailure::Remote`] whose display reproduces the
/// worker's failure text.
pub(crate) fn remote_result(status: &str, detail: Option<&str>, record: RunRecord) -> RunResult {
    let failure = if status == "ok" {
        None
    } else {
        Some(RunFailure::Remote {
            kind: status.to_string(),
            detail: detail.unwrap_or("no detail transmitted").to_string(),
        })
    };
    let per_kilo_inverse =
        |mpki: f64| -> u64 { (mpki * record.committed as f64 / 1000.0).round() as u64 };
    let mut stats = SimStats::default();
    stats.cycles = record.cycles;
    stats.committed = record.committed;
    stats.violations = per_kilo_inverse(record.violation_mpki);
    stats.false_dependences = per_kilo_inverse(record.false_dep_mpki);
    RunResult {
        workload: record.workload.clone(),
        predictor: record.predictor.clone(),
        stats,
        num_paths: record.num_paths,
        failure,
        wall: Duration::from_secs_f64(record.wall_s.max(0.0)),
        attempts: record.attempts,
        sampling: record.sampling.clone(),
        workload_signature: record.workload_signature.clone(),
        replay: Some(record),
    }
}

/// Builds and simulates one (workload, predictor kind) pair without
/// touching any registry — the unit of work the pool distributes,
/// under a cooperative deadline ([`Deadline::none`] disarms it).
fn execute_one_within(
    workload: &Workload,
    kind: &PredictorKind,
    cfg: &CoreConfig,
    budget: &Budget,
    deadline: &Deadline,
) -> RunResult {
    let program = workload.build(budget.workload_iters);
    let mut core_cfg = cfg.clone();
    core_cfg.train_point = kind.train_point();
    let mut predictor = kind.build(&program, budget.insts);
    simulate_run_within(
        workload.name,
        &kind.label(),
        &program,
        &core_cfg,
        predictor.as_mut(),
        budget.insts,
        deadline,
    )
}

/// Builds the [`LaneJob`] for one full-detail cell — the lane-batched
/// counterpart of [`execute_one_within`]'s build phase, producing exactly
/// the program/config/predictor triple the solo path would simulate.
pub(crate) fn build_lane_job(
    workload: &Workload,
    kind: &PredictorKind,
    cfg: &CoreConfig,
    budget: &Budget,
    deadline: Deadline,
) -> LaneJob {
    let program = workload.build(budget.workload_iters);
    let mut core_cfg = cfg.clone();
    core_cfg.train_point = kind.train_point();
    let predictor = kind.build(&program, budget.insts);
    LaneJob::new(program, core_cfg, predictor, budget.insts, deadline)
}

/// Converts one [`LaneReport`] into the [`RunResult`]
/// [`simulate_run_within`] would have produced for the same cell: same
/// statistics and failure taxonomy (lane batching is byte-identical to
/// solo execution), with `wall` the host time attributed to this lane
/// alone. A panicked lane maps to [`RunFailure::Panicked`] with zero
/// wall, matching what the pool's catch boundary reports for solo cells.
pub(crate) fn lane_run_result(workload: &str, label: &str, report: LaneReport) -> RunResult {
    let (stats, failure) = match report.outcome {
        LaneOutcome::Finished(stats) => (stats, None),
        LaneOutcome::Failed(e) => (e.partial_stats().clone(), Some(RunFailure::Sim(e))),
        LaneOutcome::Panicked(msg) => {
            return failed_result(workload, label, RunFailure::Panicked(msg));
        }
    };
    RunResult {
        workload: workload.to_string(),
        predictor: label.to_string(),
        stats,
        num_paths: report.job.predictor().num_paths(),
        failure,
        wall: report.wall,
        attempts: 1,
        sampling: None,
        workload_signature: phast_trace::signature(report.job.program()).digest(),
        replay: None,
    }
}

/// One *attempt* at a full-detail sweep cell, with panic isolation but no
/// retry loop, journaling, or registry — the execution primitive shared
/// by [`Sweep::execute_cell`]'s retry loop and the `phast-serve`
/// scheduler, whose retries are driven externally by lease reclamation.
/// A panic inside the cell degrades it to [`RunFailure::Panicked`]; the
/// cooperative `deadline` carries the service layer's cancellation flag
/// and progress counter when called from a leased worker.
pub fn execute_cell_once(
    workload: &Workload,
    kind: &PredictorKind,
    cfg: &CoreConfig,
    budget: &Budget,
    deadline: &Deadline,
) -> RunResult {
    match pool::catch_job(|| execute_one_within(workload, kind, cfg, budget, deadline)) {
        Ok(run) => run,
        Err(p) => panicked_result(workload.name, &kind.label(), p),
    }
}

/// The journal key of one sweep cell. Workload and predictor label alone
/// do not identify a run — Fig. 2 sweeps core generations and Fig. 12
/// re-runs pairs under a different forwarding filter — so the key also
/// carries a fingerprint of the core configuration (CRC32 of its `Debug`
/// form, which is deterministic), the instruction budget, and the
/// sampling shape when in sampled mode. Public because the `phast-serve`
/// job queue journals cells under exactly the same keys, so a daemon
/// journal and a batch journal are mutually intelligible.
pub fn cell_key(
    workload: &str,
    label: &str,
    cfg: &CoreConfig,
    budget: &Budget,
    sampling: Option<&SampleConfig>,
) -> String {
    let cfg_fp = phast_sample::crc32(format!("{cfg:?}").as_bytes());
    let mut key = format!("{workload}|{label}|{cfg_fp:08x}|{}", budget.insts);
    if let Some(s) = sampling {
        key.push_str(&format!("|s{}:{}:{}", s.windows, s.warm_insts, s.window_insts));
        // Phase mode samples a different set of windows than stride mode
        // at the same shape, so the mode (and cluster count) are part of
        // the cell's identity. Stride keys keep the v1 spelling.
        if s.mode == SampleMode::Phase {
            key.push_str(&format!(":p{}", s.clusters));
        }
    }
    key
}

/// The additive reseeding constant for retried fault-injected runs
/// (the 64-bit golden ratio, scaled per attempt) — retries explore a
/// different fault schedule rather than deterministically replaying the
/// same injected failure.
const RESEED_GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives the attempt-specific core configuration for a retried cell:
/// attempt 1 is the configuration as given; later attempts reseed the
/// fault plan (when one is armed) so each retry explores a different
/// fault schedule. Returns the configuration and the effective fault
/// seed (0 when fault injection is off) — the seed journaled on the
/// attempt's `start` line. Shared by the [`Sweep`] retry loop and the
/// `phast-serve` lease-reclaim requeue path, which must journal the same
/// reseeding a batch sweep would.
pub fn reseed_for_attempt(cfg: &CoreConfig, attempt: u64) -> (CoreConfig, u64) {
    let mut cfg_attempt = cfg.clone();
    if attempt > 1 {
        if let Some(f) = &mut cfg_attempt.check.faults {
            f.seed ^= RESEED_GOLDEN.wrapping_mul(attempt);
        }
    }
    let seed = cfg_attempt.check.faults.as_ref().map_or(0, |f| f.seed);
    (cfg_attempt, seed)
}

/// Assembles the per-window runs of one (workload, predictor) cell into a
/// [`RunResult`]: statistics are the window sums (so the cell's IPC is
/// the ratio-of-sums estimate), `sampling` carries the estimate metadata,
/// and the first window failure (if any) degrades the cell. The cell's
/// wall is `setup_wall` (its share of capture and oracle building) plus
/// its windows' walls.
fn assemble_sampled(
    workload: &str,
    label: &str,
    set: &CheckpointSet,
    windows: Vec<(WindowRun, u64, Duration)>,
    setup_wall: Duration,
    workload_signature: String,
) -> RunResult {
    let num_paths = windows.iter().map(|(_, p, _)| *p).max().unwrap_or(0);
    let wall = setup_wall + windows.iter().map(|(_, _, d)| *d).sum::<Duration>();
    let runs: Vec<WindowRun> = windows.into_iter().map(|(r, _, _)| r).collect();
    let failure = runs.iter().find_map(|r| r.failure.clone().map(RunFailure::Sim));
    let est = estimate(set, &runs);
    // Cluster-weight-aware cell statistics: each representative window's
    // counters scale by its cluster's member count (all 1 for stride
    // sets), so the cell's ratio statistics equal the weighted estimate.
    let weights = set.run_weights();
    let (mode, cluster_weights, cluster_representatives) = match &set.clusters {
        Some(plan) => (
            SampleMode::Phase.as_str().to_string(),
            plan.weights.clone(),
            plan.representatives.iter().map(|&r| u64::from(r)).collect(),
        ),
        None => (SampleMode::Stride.as_str().to_string(), Vec::new(), Vec::new()),
    };
    RunResult {
        workload: workload.to_string(),
        predictor: label.to_string(),
        stats: sum_window_stats_weighted(&runs, &weights),
        num_paths,
        failure,
        wall,
        sampling: Some(SamplingMeta {
            windows: est.windows,
            window_insts: set.window_insts,
            warm_insts: set.warm_insts,
            measured_insts: est.measured_insts,
            warmed_insts: est.warmed_insts,
            fast_forwarded_insts: est.fast_forwarded_insts,
            horizon: est.horizon,
            ipc_ci_half: est.ipc_ci_half,
            full_ipc: None,
            ipc_error: None,
            mode,
            cluster_weights,
            cluster_representatives,
        }),
        attempts: 1,
        workload_signature,
        replay: None,
    }
}

/// Builds and samples one (workload, predictor kind) pair serially:
/// capture, then every window in checkpoint order. The grid path
/// ([`Sweep::run_grid`] on a sampling sweep) instead captures once per
/// workload and fans windows across the pool.
pub(crate) fn execute_sampled(
    workload: &Workload,
    kind: &PredictorKind,
    cfg: &CoreConfig,
    budget: &Budget,
    scfg: &SampleConfig,
) -> RunResult {
    let start = Instant::now();
    let program = workload.build(budget.workload_iters);
    let set = capture(&program, cfg, scfg, budget.insts).expect("workloads emulate cleanly");
    // Every window of an ideal cell answers from one oracle over the
    // whole horizon.
    let oracle = (*kind == PredictorKind::Ideal).then(|| ideal_oracle(&program, budget.insts));
    let setup_wall = start.elapsed();
    let mut core_cfg = cfg.clone();
    core_cfg.train_point = kind.train_point();
    let windows: Vec<(WindowRun, u64, Duration)> = set
        .windows_to_run()
        .into_iter()
        .map(|j| {
            let t = Instant::now();
            let mut predictor = kind.build_sharing(&program, budget.insts, oracle.as_ref());
            let run =
                run_window_within(&program, &core_cfg, predictor.as_mut(), &set, j, &Deadline::none());
            (run, predictor.num_paths(), t.elapsed())
        })
        .collect();
    let signature = phast_trace::signature(&program).digest();
    assemble_sampled(workload.name, &kind.label(), &set, windows, setup_wall, signature)
}

/// One workload of a sampled grid: what its windows share, built before
/// any of them runs and dropped with the grid.
struct SampledWorkload {
    program: Program,
    set: CheckpointSet,
    /// Host time of the capture pass, charged to the first live cell.
    capture_wall: Duration,
    /// The ideal oracle over the horizon and its build time, charged to
    /// the first live ideal cell. Built only when an ideal cell is live;
    /// a build that panicked degrades those cells, as a panic in one of
    /// their windows would.
    oracle: Option<(Result<Arc<DepOracle>, JobPanic>, Duration)>,
}

/// A sweep: a worker pool plus the scoped degraded-run registry and run
/// log for one experiment.
///
/// Create one per experiment ([`Sweep::parallel`] in binaries,
/// [`Sweep::serial`] where determinism is being *checked* against the
/// parallel path), run the matrix through it, then drain
/// [`Sweep::take_degraded`] and/or [`Sweep::artifact`].
#[derive(Debug, Default)]
pub struct Sweep {
    workers: usize,
    /// Lanes per worker thread for full-detail grid sweeps; `<= 1` runs
    /// every cell solo (the serial reference path).
    lanes: usize,
    sampling: Option<SampleConfig>,
    degraded: Mutex<Vec<String>>,
    records: Mutex<Vec<RunRecord>>,
    run_timeout: Option<Duration>,
    max_attempts: u64,
    journal: Option<JournalScope>,
    deadline_runs: AtomicUsize,
}

impl Sweep {
    /// A sweep with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Sweep {
        Sweep { workers: workers.max(1), ..Sweep::default() }
    }

    /// Arms a per-run wall-clock watchdog: any single run (or sampled
    /// window) exceeding `timeout` is cut off cooperatively and degrades
    /// with `SimError::Deadline` instead of hanging its worker thread.
    pub fn with_run_timeout(mut self, timeout: Duration) -> Sweep {
        self.run_timeout = Some(timeout);
        self
    }

    /// Enables the retry policy: a run that fails is re-executed up to
    /// `max_attempts` total attempts. Fault-injected runs are reseeded
    /// per attempt so a retry explores a different fault schedule; a
    /// deterministic failure simply fails `max_attempts` times and
    /// degrades with its final error.
    pub fn with_retries(mut self, max_attempts: u64) -> Sweep {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Attaches a run journal scope: every cell logs `start`/`done`
    /// lines write-ahead, and cells the journal already holds as `ok`
    /// are replayed from their journaled records instead of re-simulated.
    pub fn with_journal(mut self, scope: JournalScope) -> Sweep {
        self.journal = Some(scope);
        self
    }

    /// Runs cut off by the wall-clock watchdog so far (feeds the
    /// process exit-code taxonomy).
    pub fn deadline_count(&self) -> usize {
        self.deadline_runs.load(Ordering::Relaxed)
    }

    /// A fresh per-run deadline from this sweep's watchdog setting.
    fn deadline(&self) -> Deadline {
        match self.run_timeout {
            Some(t) => Deadline::after(t),
            None => Deadline::none(),
        }
    }

    /// Sets the lane count: full-detail grid sweeps ([`Sweep::run_all`],
    /// [`Sweep::run_grid`]) advance up to `lanes` cells per worker thread
    /// through one interleaved [`LaneBatch`] cycle loop, recycling cache
    /// hierarchies across waves. Statistics are byte-identical to the
    /// solo path at any lane count (`--lanes=1` forces solo execution for
    /// A/B debugging); journal records and the retry policy behave
    /// identically too. Sampled sweeps ignore the lane count — their
    /// unit of work is the (predictor, window) pair, already finer than
    /// a cell.
    pub fn with_lanes(mut self, lanes: usize) -> Sweep {
        self.lanes = lanes.max(1);
        self
    }

    /// The lane count grid sweeps batch cells at (1 = solo execution).
    pub fn lanes(&self) -> usize {
        self.lanes.max(1)
    }

    /// Switches this sweep to sampled mode: the run methods
    /// ([`Sweep::run_one`], [`Sweep::run_all`], [`Sweep::run_grid`])
    /// estimate each (workload, predictor) cell from detailed windows
    /// via `phast-sample` instead of simulating the whole budget
    /// cycle-accurately. [`Sweep::run_custom`] and [`Sweep::map`] are
    /// unaffected.
    pub fn with_sampling(mut self, scfg: SampleConfig) -> Sweep {
        self.sampling = Some(scfg);
        self
    }

    /// The sampling configuration, if this sweep runs in sampled mode.
    pub fn sampling(&self) -> Option<SampleConfig> {
        self.sampling
    }

    /// A serial sweep (one worker, no threads spawned).
    pub fn serial() -> Sweep {
        Sweep::with_workers(1)
    }

    /// A parallel sweep sized to the host
    /// (`std::thread::available_parallelism()`, overridable with the
    /// `PHAST_WORKERS` environment variable).
    pub fn parallel() -> Sweep {
        Sweep::with_workers(pool::default_workers())
    }

    /// The worker count this sweep fans runs across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Fans `f` over `items` on this sweep's worker pool; results come
    /// back **in item order**. For work that is not a plain (workload,
    /// predictor) pair — oracle builds, direction-predictor studies,
    /// custom predictor variants.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        pool::run_matrix(self.workers, items, f)
    }

    /// Records results in the order given: degraded runs go to this
    /// sweep's registry (and stderr), every run goes to the artifact log
    /// — results replayed from a resume journal emit their journaled
    /// record verbatim, so the artifact is byte-identical to an
    /// uninterrupted sweep's. Deadline-cut runs bump the counter behind
    /// [`Sweep::deadline_count`]. The [`Sweep`] run methods call this
    /// internally; call it yourself only after producing [`RunResult`]s
    /// via [`simulate_run`] in a custom [`Sweep::map`].
    pub fn record_all(&self, runs: &[RunResult]) {
        let mut degraded = self.degraded.lock().expect("degraded-run registry");
        let mut records = self.records.lock().expect("run log");
        for run in runs {
            if let Some(entry) = run.degraded_entry() {
                eprintln!("warning: degraded run — {entry}");
                degraded.push(entry);
            }
            if run.failure.as_ref().is_some_and(|f| f.kind() == "deadline") {
                self.deadline_runs.fetch_add(1, Ordering::Relaxed);
            }
            match &run.replay {
                Some(record) => records.push(record.clone()),
                None => records.push(run.to_record()),
            }
        }
    }

    /// Executes one full-detail cell with the resilience machinery:
    /// journal replay (a cell the journal holds as `ok` is not
    /// re-simulated), write-ahead `start`/`done` logging, panic
    /// isolation, the per-run deadline watchdog, and the capped retry
    /// policy with per-attempt fault reseeding.
    fn execute_cell(
        &self,
        workload: &Workload,
        kind: &PredictorKind,
        cfg: &CoreConfig,
        budget: &Budget,
    ) -> RunResult {
        let key = cell_key(workload.name, &kind.label(), cfg, budget, None);
        if let Some(done) = self.journal.as_ref().and_then(|j| j.lookup(&key)) {
            return replayed_result(done);
        }
        let max_attempts = self.max_attempts.max(1);
        let mut attempt = 0u64;
        loop {
            attempt += 1;
            let (cfg_attempt, seed) = reseed_for_attempt(cfg, attempt);
            if let Some(j) = &self.journal {
                j.log_start(&key, attempt, seed);
            }
            let deadline = self.deadline();
            let mut run = execute_cell_once(workload, kind, &cfg_attempt, budget, &deadline);
            run.attempts = attempt;
            if run.ok() || attempt >= max_attempts {
                if let Some(j) = &self.journal {
                    let status = run.failure.as_ref().map_or("ok", RunFailure::kind);
                    j.log_done(&key, &run.to_record(), status, attempt);
                }
                return run;
            }
        }
    }

    /// The retry/journal tail shared by the solo and lane-batched cell
    /// paths: given the attempt-1 result, retries solo (with per-attempt
    /// fault reseeding and write-ahead `start` lines) until the run
    /// succeeds or the attempt budget runs out, then logs the `done`
    /// line. Produces exactly the journal record sequence
    /// [`Sweep::execute_cell`] does.
    fn finish_cell(
        &self,
        workload: &Workload,
        kind: &PredictorKind,
        cfg: &CoreConfig,
        budget: &Budget,
        key: &str,
        mut run: RunResult,
    ) -> RunResult {
        let max_attempts = self.max_attempts.max(1);
        let mut attempt = 1u64;
        while !run.ok() && attempt < max_attempts {
            attempt += 1;
            let (cfg_attempt, seed) = reseed_for_attempt(cfg, attempt);
            if let Some(j) = &self.journal {
                j.log_start(key, attempt, seed);
            }
            let deadline = self.deadline();
            run = execute_cell_once(workload, kind, &cfg_attempt, budget, &deadline);
            run.attempts = attempt;
        }
        if let Some(j) = &self.journal {
            let status = run.failure.as_ref().map_or("ok", RunFailure::kind);
            j.log_done(key, &run.to_record(), status, attempt);
        }
        run
    }

    /// Runs one contiguous chunk of live grid cells as a single
    /// [`LaneBatch`]: write-ahead `start` lines for every cell first
    /// (the whole chunk is in flight at once), then the interleaved
    /// batch, then the per-cell retry/`done` tail. Build panics are
    /// caught per cell, so a cell whose program or predictor
    /// construction panics degrades alone — the same boundary
    /// [`execute_cell_once`] gives solo cells.
    fn run_lane_chunk(
        &self,
        kinds: &[PredictorKind],
        workloads: &[Workload],
        cells: &[(usize, usize)],
        idxs: &[usize],
        cfg: &CoreConfig,
        budget: &Budget,
    ) -> Vec<RunResult> {
        let mut results: Vec<Option<RunResult>> = (0..idxs.len()).map(|_| None).collect();
        let mut jobs: Vec<LaneJob> = Vec::with_capacity(idxs.len());
        let mut job_slots: Vec<usize> = Vec::with_capacity(idxs.len());
        for (slot, &i) in idxs.iter().enumerate() {
            let (k, w) = cells[i];
            let (workload, kind) = (&workloads[w], &kinds[k]);
            let key = cell_key(workload.name, &kind.label(), cfg, budget, None);
            let (cfg_attempt, seed) = reseed_for_attempt(cfg, 1);
            if let Some(j) = &self.journal {
                j.log_start(&key, 1, seed);
            }
            match pool::catch_job(|| {
                build_lane_job(workload, kind, &cfg_attempt, budget, self.deadline())
            }) {
                Ok(job) => {
                    jobs.push(job);
                    job_slots.push(slot);
                }
                Err(p) => {
                    results[slot] = Some(panicked_result(workload.name, &kind.label(), p));
                }
            }
        }
        let reports = LaneBatch::new(self.lanes()).run(jobs);
        for (slot, report) in job_slots.into_iter().zip(reports) {
            let (k, w) = cells[idxs[slot]];
            results[slot] =
                Some(lane_run_result(workloads[w].name, &kinds[k].label(), report));
        }
        idxs.iter()
            .zip(results)
            .map(|(&i, run)| {
                let (k, w) = cells[i];
                let (workload, kind) = (&workloads[w], &kinds[k]);
                let key = cell_key(workload.name, &kind.label(), cfg, budget, None);
                self.finish_cell(workload, kind, cfg, budget, &key, run.expect("cell resolved"))
            })
            .collect()
    }

    /// The lane-batched full-detail grid path: journal replay first,
    /// then the live cells split into one contiguous chunk per worker,
    /// each chunk advancing as an interleaved [`LaneBatch`] (waves of
    /// [`Sweep::lanes`] cells, hierarchies recycled between waves).
    /// Results come back in cell order; statistics are byte-identical
    /// to the solo path.
    fn run_cells_lanes(
        &self,
        kinds: &[PredictorKind],
        workloads: &[Workload],
        cells: &[(usize, usize)],
        cfg: &CoreConfig,
        budget: &Budget,
    ) -> Vec<RunResult> {
        let mut results: Vec<Option<RunResult>> = cells
            .iter()
            .map(|&(k, w)| {
                let key = cell_key(workloads[w].name, &kinds[k].label(), cfg, budget, None);
                self.journal.as_ref().and_then(|j| j.lookup(&key)).map(replayed_result)
            })
            .collect();
        let live: Vec<usize> = (0..cells.len()).filter(|&i| results[i].is_none()).collect();
        if !live.is_empty() {
            let per_chunk = live.len().div_ceil(self.workers.max(1)).max(1);
            let chunks: Vec<&[usize]> = live.chunks(per_chunk).collect();
            let chunk_runs = self.map(&chunks, |_, idxs| {
                self.run_lane_chunk(kinds, workloads, cells, idxs, cfg, budget)
            });
            for (idxs, runs) in chunks.iter().zip(chunk_runs) {
                for (&i, run) in idxs.iter().zip(runs) {
                    results[i] = Some(run);
                }
            }
        }
        results.into_iter().map(|r| r.expect("every cell resolved")).collect()
    }

    /// Fans arbitrary run-producing jobs across the pool with **panic
    /// isolation** and records every result: a job that panics yields a
    /// degraded [`RunResult`] (failure kind `"panicked"`, labelled via
    /// `label`) while every other job completes normally. This is the
    /// resilient counterpart of [`Sweep::map`] + [`Sweep::record_all`]
    /// for custom work that is not a plain (workload, predictor) cell.
    pub fn run_jobs<T>(
        &self,
        items: &[T],
        label: impl Fn(usize, &T) -> (String, String) + Sync,
        exec: impl Fn(usize, &T) -> RunResult + Sync,
    ) -> Vec<RunResult>
    where
        T: Sync,
    {
        let runs: Vec<RunResult> = pool::run_matrix_isolated(self.workers, items, &exec)
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(run) => run,
                Err(p) => {
                    let (workload, predictor) = label(i, &items[i]);
                    panicked_result(&workload, &predictor, p)
                }
            })
            .collect();
        self.record_all(&runs);
        runs
    }

    /// Runs an already-built predictor on an already-built program and
    /// records the outcome on this sweep.
    pub fn run_custom(
        &self,
        workload: &str,
        label: &str,
        program: &Program,
        cfg: &CoreConfig,
        predictor: &mut dyn MemDepPredictor,
        insts: u64,
    ) -> RunResult {
        let run = simulate_run(workload, label, program, cfg, predictor, insts);
        self.record_all(std::slice::from_ref(&run));
        run
    }

    /// Runs one workload under one predictor on the given core.
    pub fn run_one(
        &self,
        workload: &Workload,
        kind: &PredictorKind,
        cfg: &CoreConfig,
        budget: &Budget,
    ) -> RunResult {
        let run = match &self.sampling {
            Some(scfg) => execute_sampled(workload, kind, cfg, budget, scfg),
            None => self.execute_cell(workload, kind, cfg, budget),
        };
        self.record_all(std::slice::from_ref(&run));
        run
    }

    /// Runs every budgeted workload under one predictor, fanned across
    /// the pool; returns per-workload results in registry order.
    pub fn run_all(&self, kind: &PredictorKind, cfg: &CoreConfig, budget: &Budget) -> Vec<RunResult> {
        if self.sampling.is_some() || self.lanes() > 1 {
            return self
                .run_grid(std::slice::from_ref(kind), cfg, budget)
                .pop()
                .expect("one row per kind");
        }
        let workloads = budget.workloads();
        let runs = self.map(&workloads, |_, w| self.execute_cell(w, kind, cfg, budget));
        self.record_all(&runs);
        runs
    }

    /// Runs the full (predictor kind × workload) grid as **one** flat
    /// matrix across the pool — the shape most figures have. Returns one
    /// row of per-workload results (registry order) per kind, in kind
    /// order; equivalent to mapping [`Sweep::run_all`] over `kinds`, but
    /// with maximal parallelism across the whole grid.
    pub fn run_grid(
        &self,
        kinds: &[PredictorKind],
        cfg: &CoreConfig,
        budget: &Budget,
    ) -> Vec<Vec<RunResult>> {
        if let Some(scfg) = self.sampling {
            return self.run_grid_sampled(kinds, cfg, budget, scfg);
        }
        let workloads = budget.workloads();
        let cells: Vec<(usize, usize)> = (0..kinds.len())
            .flat_map(|k| (0..workloads.len()).map(move |w| (k, w)))
            .collect();
        let flat = if self.lanes() > 1 {
            self.run_cells_lanes(kinds, &workloads, &cells, cfg, budget)
        } else {
            self.map(&cells, |_, &(k, w)| {
                self.execute_cell(&workloads[w], &kinds[k], cfg, budget)
            })
        };
        self.record_all(&flat);
        let mut rows: Vec<Vec<RunResult>> = Vec::with_capacity(kinds.len());
        let mut flat = flat.into_iter();
        for _ in kinds {
            rows.push(flat.by_ref().take(workloads.len()).collect());
        }
        rows
    }

    /// The sampled grid: **capture once per workload**, then fan every
    /// (kind, workload, window) triple across the pool — windows replay
    /// independently from their checkpoints, so the grid parallelizes at
    /// window granularity rather than cell granularity. Results regroup
    /// into the same `rows[kind][workload]` shape as the full-detail
    /// grid. The ideal predictor's oracle is likewise built once per
    /// workload and shared by all its windows. The capture wall-clock is
    /// attributed once per workload (to the first kind's cell), the
    /// oracle build to the first ideal cell, so summed walls reflect real
    /// cost.
    fn run_grid_sampled(
        &self,
        kinds: &[PredictorKind],
        cfg: &CoreConfig,
        budget: &Budget,
        scfg: SampleConfig,
    ) -> Vec<Vec<RunResult>> {
        let rows = self.sampled_grid(kinds, cfg, budget, scfg);
        let all: Vec<RunResult> = rows.iter().flatten().cloned().collect();
        self.record_all(&all);
        rows
    }

    /// [`run_grid_sampled`](Self::run_grid_sampled) without the run-log
    /// recording — for callers (the `sampled` validation experiment) that
    /// annotate the results before recording them.
    pub(crate) fn sampled_grid(
        &self,
        kinds: &[PredictorKind],
        cfg: &CoreConfig,
        budget: &Budget,
        scfg: SampleConfig,
    ) -> Vec<Vec<RunResult>> {
        let workloads = budget.workloads();
        // Journal replay at cell granularity: a (kind, workload) cell the
        // journal holds as `ok` is emitted verbatim; a workload none of
        // whose cells are live skips its capture pass entirely.
        let replays: Vec<Vec<Option<CompletedRun>>> = kinds
            .iter()
            .map(|kind| {
                workloads
                    .iter()
                    .map(|w| {
                        self.journal.as_ref().and_then(|j| {
                            j.lookup(&cell_key(w.name, &kind.label(), cfg, budget, Some(&scfg)))
                        })
                    })
                    .collect()
            })
            .collect();
        let live: Vec<bool> = (0..workloads.len())
            .map(|w| (0..kinds.len()).any(|k| replays[k][w].is_none()))
            .collect();
        let first_live_ideal: Vec<Option<usize>> = (0..workloads.len())
            .map(|w| {
                (0..kinds.len())
                    .find(|&k| kinds[k] == PredictorKind::Ideal && replays[k][w].is_none())
            })
            .collect();
        let capture_idx: Vec<usize> = (0..workloads.len()).collect();
        let captures: Vec<Option<SampledWorkload>> = self.map(&capture_idx, |_, &w| {
            if !live[w] {
                return None;
            }
            let t = Instant::now();
            let program = workloads[w].build(budget.workload_iters);
            let set =
                capture(&program, cfg, &scfg, budget.insts).expect("workloads emulate cleanly");
            let capture_wall = t.elapsed();
            let oracle = first_live_ideal[w].map(|_| {
                let t = Instant::now();
                let built = pool::catch_job(|| ideal_oracle(&program, budget.insts));
                (built, t.elapsed())
            });
            Some(SampledWorkload { program, set, capture_wall, oracle })
        });
        let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
        for (k, kind) in kinds.iter().enumerate() {
            for (w, capture) in captures.iter().enumerate() {
                if replays[k][w].is_some() {
                    continue;
                }
                let set = &capture.as_ref().expect("live workload was captured").set;
                // Write-ahead: the start line lands before the cell's
                // windows enter the pool.
                if let Some(j) = &self.journal {
                    j.log_start(
                        &cell_key(workloads[w].name, &kind.label(), cfg, budget, Some(&scfg)),
                        1,
                        0,
                    );
                }
                for j in set.windows_to_run() {
                    tasks.push((k, w, j));
                }
            }
        }
        // Windows run under panic isolation and a per-window deadline: a
        // single poisoned or hung window degrades its cell, not the grid.
        let flat = self.map(&tasks, |_, &(k, w, j)| {
            let c = captures[w].as_ref().expect("live workload was captured");
            let oracle = match &c.oracle {
                Some((built, _)) if kinds[k] == PredictorKind::Ideal => {
                    Some(built.as_ref().map_err(JobPanic::clone)?)
                }
                _ => None,
            };
            pool::catch_job(|| {
                let (program, set) = (&c.program, &c.set);
                let t = Instant::now();
                let mut core_cfg = cfg.clone();
                core_cfg.train_point = kinds[k].train_point();
                let mut predictor = kinds[k].build_sharing(program, budget.insts, oracle);
                let deadline = self.deadline();
                let run = run_window_within(program, &core_cfg, predictor.as_mut(), set, j, &deadline);
                (run, predictor.num_paths(), t.elapsed())
            })
        });
        let mut flat = flat.into_iter();
        let mut rows: Vec<Vec<RunResult>> = Vec::with_capacity(kinds.len());
        for (k, kind) in kinds.iter().enumerate() {
            let mut row = Vec::with_capacity(workloads.len());
            for (w, workload) in workloads.iter().enumerate() {
                if let Some(done) = &replays[k][w] {
                    row.push(replayed_result(done.clone()));
                    continue;
                }
                let c = captures[w].as_ref().expect("live workload was captured");
                let n = c.set.windows_to_run().len();
                let mut windows = Vec::with_capacity(n);
                let mut panic: Option<JobPanic> = None;
                for r in flat.by_ref().take(n) {
                    match r {
                        Ok(win) => windows.push(win),
                        Err(p) => panic = Some(p),
                    }
                }
                let first_live = (0..kinds.len()).find(|&kk| replays[kk][w].is_none());
                let mut setup_share = Duration::ZERO;
                if first_live == Some(k) {
                    setup_share += c.capture_wall;
                }
                if first_live_ideal[w] == Some(k) {
                    setup_share += c.oracle.as_ref().map_or(Duration::ZERO, |(_, d)| *d);
                }
                let mut cell = match panic {
                    Some(p) => panicked_result(workload.name, &kind.label(), p),
                    None => assemble_sampled(
                        workload.name,
                        &kind.label(),
                        &c.set,
                        windows,
                        setup_share,
                        phast_trace::signature(&c.program).digest(),
                    ),
                };
                cell.attempts = 1;
                if let Some(jn) = &self.journal {
                    let status = cell.failure.as_ref().map_or("ok", RunFailure::kind);
                    jn.log_done(
                        &cell_key(workload.name, &kind.label(), cfg, budget, Some(&scfg)),
                        &cell.to_record(),
                        status,
                        1,
                    );
                }
                row.push(cell);
            }
            rows.push(row);
        }
        rows
    }

    /// Flags a failure that is not a single run's [`SimError`] — e.g. a
    /// sampled estimate landing outside its documented error bound — so
    /// it reaches the degraded-run registry (and the binary's non-zero
    /// exit) like any other degradation.
    pub fn flag_degraded(&self, entry: String) {
        eprintln!("warning: degraded run — {entry}");
        self.degraded.lock().expect("degraded-run registry").push(entry);
    }

    /// Drains the recorded degraded-run descriptions (the experiment
    /// binary reports them once all experiments have run).
    pub fn take_degraded(&self) -> Vec<String> {
        std::mem::take(&mut *self.degraded.lock().expect("degraded-run registry"))
    }

    /// Snapshots this sweep's state into a machine-readable
    /// [`SweepArtifact`] (the run log and degraded registry are copied,
    /// not drained).
    pub fn artifact(&self, id: &str, budget: &Budget, wall: Duration) -> SweepArtifact {
        SweepArtifact {
            id: id.to_string(),
            git: git_describe(),
            workers: self.workers,
            budget_insts: budget.insts,
            budget_iters: budget.workload_iters,
            workloads: budget.workloads().len(),
            wall_s: wall.as_secs_f64(),
            runs: self.records.lock().expect("run log").clone(),
            degraded: self.degraded.lock().expect("degraded-run registry").clone(),
        }
    }
}

/// Geometric mean of a non-empty slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Normalized IPC of `runs` against matching `ideal` runs (same order).
pub fn normalized_ipc(runs: &[RunResult], ideal: &[RunResult]) -> Vec<f64> {
    runs.iter()
        .zip(ideal)
        .map(|(r, i)| {
            debug_assert_eq!(r.workload, i.workload);
            r.stats.ipc() / i.stats.ipc()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_cover_workloads() {
        assert_eq!(Budget::full().workloads().len(), 23);
        assert_eq!(Budget::quick().workloads().len(), 6);
        assert_eq!(Budget::bench().workloads().len(), 2);
        assert_eq!(Budget::sampled().workloads().len(), 23);
    }

    #[test]
    fn sampling_defaults_scale_with_the_tier() {
        assert_eq!(Budget::quick().default_sampling(), SampleConfig::default());
        assert_eq!(Budget::full().default_sampling(), SampleConfig::default());
        let deep = Budget::sampled().default_sampling();
        assert!(deep.windows > SampleConfig::default().windows);
    }

    #[test]
    fn sampled_sweep_estimates_cells() {
        let budget = Budget { insts: 12_000, workload_iters: 100_000, max_workloads: Some(2), extra_workloads: Vec::new() };
        let cfg = CoreConfig::alder_lake();
        let scfg = SampleConfig::new(3, 600, 400);
        let sweep = Sweep::with_workers(4).with_sampling(scfg);
        let kinds = [PredictorKind::StoreSets, PredictorKind::Blind, PredictorKind::Ideal];
        let grid = sweep.run_grid(&kinds, &cfg, &budget);
        assert_eq!(grid.len(), 3);
        for row in &grid {
            assert_eq!(row.len(), 2);
            for r in row {
                assert!(r.ok(), "{} × {} degraded", r.workload, r.predictor);
                let meta = r.sampling.as_ref().expect("sampled metadata");
                assert_eq!(meta.horizon, 12_000);
                assert!(meta.windows >= 1);
                assert!(meta.measured_insts > 0);
                assert!(r.stats.ipc() > 0.0);
            }
        }
        assert!(sweep.take_degraded().is_empty());

        // The window-parallel grid and the serial per-cell path agree:
        // capture and replay are deterministic.
        let serial = Sweep::serial().with_sampling(scfg);
        let w = budget.workloads();
        let one = serial.run_one(&w[0], &kinds[0], &cfg, &budget);
        assert_eq!(one.stats.cycles, grid[0][0].stats.cycles);
        assert_eq!(one.stats.committed, grid[0][0].stats.committed);
        assert_eq!(one.stats.violations, grid[0][0].stats.violations);

        // Ideal cells answer every window from one shared oracle; their
        // statistics equal windows replayed with a freshly built ideal
        // predictor each, on the serial and the 4-worker sweep.
        let serial_grid = serial.run_grid(&kinds, &cfg, &budget);
        let mut ideal_cfg = cfg.clone();
        ideal_cfg.train_point = PredictorKind::Ideal.train_point();
        for (i, workload) in w.iter().enumerate() {
            let program = workload.build(budget.workload_iters);
            let set = capture(&program, &cfg, &scfg, budget.insts).expect("clean capture");
            let runs: Vec<WindowRun> = set
                .windows_to_run()
                .into_iter()
                .map(|j| {
                    let mut fresh = PredictorKind::Ideal.build(&program, budget.insts);
                    let none = Deadline::none();
                    run_window_within(&program, &ideal_cfg, fresh.as_mut(), &set, j, &none)
                })
                .collect();
            let want = format!("{:?}", sum_window_stats_weighted(&runs, &set.run_weights()));
            assert_eq!(format!("{:?}", serial_grid[2][i].stats), want, "serial {}", workload.name);
            assert_eq!(format!("{:?}", grid[2][i].stats), want, "4 workers {}", workload.name);
        }
    }

    #[test]
    fn a_panicking_oracle_build_degrades_only_the_ideal_cells() {
        use phast_isa::{CondKind, ProgramBuilder, Reg};
        // Emulates cleanly through the 12k-instruction horizon, then
        // returns to a bogus block inside the oracle's margin.
        let workload = Workload::dynamic("late_bad_ret".into(), "test".into(), |_| {
            let mut b = ProgramBuilder::new();
            let (entry, body, tail) = (b.block(), b.block(), b.block());
            b.at(entry).li(Reg(1), 10_000).li(Reg(2), 999).fallthrough(body);
            let mut c = b.at(body);
            c.addi(Reg(1), Reg(1), -1).branchi(CondKind::Ne, Reg(1), 0, body).fallthrough(tail);
            b.at(tail).ret_via(Reg(2));
            b.set_entry(entry);
            b.build().expect("valid program")
        });
        let budget = Budget {
            insts: 12_000,
            workload_iters: 1,
            max_workloads: Some(0),
            extra_workloads: vec![workload],
        };
        let sweep = Sweep::serial().with_sampling(SampleConfig::new(3, 600, 400));
        let kinds = [PredictorKind::StoreSets, PredictorKind::Ideal];
        let grid = sweep.run_grid(&kinds, &CoreConfig::alder_lake(), &budget);
        assert!(grid[0][0].ok(), "store-sets needs no oracle: {:?}", grid[0][0].failure);
        assert!(
            matches!(&grid[1][0].failure, Some(RunFailure::Panicked(m)) if m.contains("emulate")),
            "{:?}",
            grid[1][0].failure
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn run_one_produces_stats() {
        let w = phast_workloads::by_name("exchange2").unwrap();
        let budget = Budget { insts: 5_000, workload_iters: 50_000, max_workloads: None, extra_workloads: Vec::new() };
        let sweep = Sweep::serial();
        let r = sweep.run_one(&w, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
        assert_eq!(r.workload, "exchange2");
        assert!(r.stats.committed >= 5_000);
        assert!(r.stats.ipc() > 0.0);
        assert!(sweep.take_degraded().is_empty());
    }

    #[test]
    fn degraded_registries_are_scoped_per_sweep() {
        let w = phast_workloads::by_name("exchange2").unwrap();
        let budget = Budget { insts: 5_000, workload_iters: 50_000, max_workloads: None, extra_workloads: Vec::new() };
        let mut poisoned = CoreConfig::alder_lake();
        poisoned.deadlock_cycles = 2;

        let bad_sweep = Sweep::serial();
        let clean_sweep = Sweep::serial();
        let bad = bad_sweep.run_one(&w, &PredictorKind::Blind, &poisoned, &budget);
        let good =
            clean_sweep.run_one(&w, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
        assert!(!bad.ok());
        assert!(good.ok());

        // Each sweep saw only its own runs.
        assert_eq!(bad_sweep.take_degraded().len(), 1);
        assert!(clean_sweep.take_degraded().is_empty());
    }

    #[test]
    fn artifact_reflects_the_run_log() {
        let w = phast_workloads::by_name("exchange2").unwrap();
        let budget = Budget { insts: 5_000, workload_iters: 50_000, max_workloads: Some(1), extra_workloads: Vec::new() };
        let sweep = Sweep::serial();
        sweep.run_one(&w, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
        let a = sweep.artifact("smoke", &budget, Duration::from_millis(10));
        assert_eq!(a.id, "smoke");
        assert_eq!(a.workers, 1);
        assert_eq!(a.runs.len(), 1);
        assert_eq!(a.runs[0].workload, "exchange2");
        assert!(a.runs[0].degraded.is_none());
        assert!(a.degraded.is_empty());
    }

    #[test]
    fn grid_matches_per_kind_runs() {
        let budget = Budget { insts: 3_000, workload_iters: 20_000, max_workloads: Some(2), extra_workloads: Vec::new() };
        let cfg = CoreConfig::alder_lake();
        let kinds = [PredictorKind::Blind, PredictorKind::TotalOrder];
        let grid = Sweep::with_workers(4).run_grid(&kinds, &cfg, &budget);
        assert_eq!(grid.len(), 2);
        let serial = Sweep::serial();
        for (kind, row) in kinds.iter().zip(&grid) {
            let expect = serial.run_all(kind, &cfg, &budget);
            assert_eq!(row.len(), expect.len());
            for (a, b) in row.iter().zip(&expect) {
                assert_eq!(a.workload, b.workload);
                assert_eq!(a.stats.cycles, b.stats.cycles, "{} × {}", a.workload, a.predictor);
                assert_eq!(a.stats.committed, b.stats.committed);
            }
        }
    }
}
