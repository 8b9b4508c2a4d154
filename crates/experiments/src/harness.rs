//! The sweep engine: budgets, per-run results, aggregation, parallel
//! execution, and graceful degradation.
//!
//! A [`Sweep`] owns everything one experiment needs:
//!
//! * a **worker pool** ([`crate::pool`]) that fans the (workload,
//!   predictor, config) run matrix across threads while keeping output
//!   deterministic — results are collected by matrix index and recorded in
//!   matrix order, each workload's program is a pure function of its name
//!   and budget (built once per grid), and every run builds its predictor
//!   afresh, so a parallel sweep produces byte-identical tables to a
//!   serial one;
//! * a **scoped degraded-run registry** — a run that fails with a
//!   [`SimError`] is recorded (with its partial statistics) and reported
//!   at the end of the experiment instead of aborting the remaining
//!   pairs. The registry lives on the `Sweep`, not in a process-global
//!   static, so concurrent sweeps (e.g. parallel tests) cannot steal each
//!   other's reports;
//! * a **run log** of [`RunRecord`]s feeding the machine-readable
//!   `BENCH_<id>.json` artifacts ([`crate::artifact`]).
//!
//! Both binaries run their cells here: `phast-experiments` one sweep per
//! experiment, `phast-serve` one per admitted submission
//! ([`crate::serve`]).
//!
//! Budget tiers: [`Budget::full`] (the paper's evaluation, used by the
//! `phast-experiments` binary), [`Budget::quick`] (smoke tests and CI),
//! and [`Budget::bench`] (the daemon's `bench` tier and the tests).

use crate::artifact::{git_describe, RunRecord, SamplingMeta, SweepArtifact};
use crate::journal::{CompletedRun, Journal};
use crate::pool::{self, JobPanic};
use crate::predictors::{ideal_oracle, PredictorKind};
use phast_isa::Program;
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, SimError, SimStats};
use phast_sample::{
    capture, estimate, run_window_within, sum_window_stats_weighted, CheckpointSet, SampleConfig,
    SampleMode, WindowRun,
};
use phast_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
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
    /// A `phast-serve` client could not reach its daemon — distinct from
    /// a degraded sweep so scripts can tell "daemon gone" from "results
    /// partial".
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
}

impl RunFailure {
    /// Stable failure-kind tag: [`SimError::kind`] for simulation errors,
    /// `"panicked"` for caught panics. This is the `status` a journal
    /// `done` line carries for a failed run.
    pub fn kind(&self) -> &'static str {
        match self {
            RunFailure::Sim(e) => e.kind(),
            RunFailure::Panicked(_) => "panicked",
        }
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Sim(e) => e.fmt(f),
            RunFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl From<SimError> for RunFailure {
    fn from(e: SimError) -> RunFailure {
        RunFailure::Sim(e)
    }
}

/// How much work an experiment may do. The binary runs at
/// [`Budget::full`]; tests and CI use [`Budget::quick`]; the daemon's
/// `bench` tier and the tests use [`Budget::bench`].
#[derive(Clone, Debug)]
pub struct Budget {
    /// Instructions simulated per (workload, predictor) pair.
    pub insts: u64,
    /// Outer-loop iterations the workloads are built with.
    pub workload_iters: u64,
    /// Restrict to the first `n` workloads (None = all 23).
    pub max_workloads: Option<usize>,
    /// Extra workloads appended after the built-in set (after
    /// `max_workloads` truncation): the synthesized programs of
    /// `--synth`. `--max-workloads=0` plus extras sweeps *only* the
    /// extras.
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

    /// The smallest tier: the daemon's `bench` tier and the tests, which
    /// exercise the harness rather than produce paper numbers.
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
    /// Unique conflicts per history length
    /// (`MemDepPredictor::path_lengths`, Fig. 10): empty except for a
    /// full-detail UnlimitedPHAST run.
    pub path_lengths: Vec<u64>,
    /// The failure that ended the run early, if it could not finish
    /// cleanly.
    pub failure: Option<RunFailure>,
    /// Host wall-clock time the simulation took.
    pub wall: Duration,
    /// Sampling metadata when the statistics were estimated from detailed
    /// windows (`None` for a full-detail run).
    pub sampling: Option<SamplingMeta>,
    /// Digest of the workload's static dependence signature
    /// (`phast_trace::DepSignature::digest`), deterministic for a given
    /// program — identical between serial, parallel and daemon runs of
    /// the same workload. `"unknown"` when the
    /// run degraded before its program was built.
    pub workload_signature: String,
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
            attempts: 1,
            degraded: self.degraded_entry(),
            sampling: self.sampling.clone(),
            workload_signature: self.workload_signature.clone(),
        }
    }

    /// What the journal's `done` line holds for this run: its record plus
    /// the predictor state the figures read beyond it.
    fn journaled(&self) -> CompletedRun {
        CompletedRun {
            record: self.to_record(),
            accesses: self.stats.predictor_accesses,
            branch_mispredicts: self.stats.branch_mispredicts,
            path_lengths: self.path_lengths.clone(),
        }
    }
}

/// A degraded [`RunResult`] for a job whose panic was caught at the pool
/// boundary: empty statistics, failure [`RunFailure::Panicked`].
fn panicked_result(workload: &str, label: &str, panic: JobPanic) -> RunResult {
    RunResult {
        workload: workload.to_string(),
        predictor: label.to_string(),
        stats: SimStats::default(),
        num_paths: 0,
        path_lengths: Vec::new(),
        failure: Some(RunFailure::Panicked(panic.message)),
        wall: Duration::ZERO,
        sampling: None,
        workload_signature: "unknown".to_string(),
    }
}

#[allow(clippy::field_reassign_with_default)] // only what the figures read is journaled
/// Reconstructs a [`RunResult`] from a journaled completed run, for a
/// cell the journal holds as `ok` — recovered on resume, or journaled
/// earlier in this run by any sweep on the same journal. Every statistic
/// a figure reads is restored exactly: the predictor's access counters,
/// the conditional-branch mispredictions and the conflict lengths from
/// the `done` line, and the rest inverted from the record — `ipc`,
/// `violation_mpki` and `false_dep_mpki` recompute to the identical
/// values because they were derived from these integers in the first
/// place. So [`RunResult::to_record`] renders the journaled record again,
/// modulo wall-clock metadata, a replayed report matches a live one, and
/// any annotation an experiment adds after the run (the sampled
/// validations' `full_ipc`/`ipc_error`) reaches the artifact as it does
/// for a live run.
pub(crate) fn replayed_result(done: CompletedRun) -> RunResult {
    let r = &done.record;
    let per_kilo_inverse =
        |mpki: f64| -> u64 { (mpki * r.committed as f64 / 1000.0).round() as u64 };
    let mut stats = SimStats::default();
    stats.cycles = r.cycles;
    stats.committed = r.committed;
    stats.violations = per_kilo_inverse(r.violation_mpki);
    stats.false_dependences = per_kilo_inverse(r.false_dep_mpki);
    stats.predictor_accesses = done.accesses;
    stats.branch_mispredicts = done.branch_mispredicts;
    RunResult {
        workload: r.workload.clone(),
        predictor: r.predictor.clone(),
        stats,
        num_paths: r.num_paths,
        path_lengths: done.path_lengths,
        failure: None,
        wall: Duration::from_secs_f64(r.wall_s.max(0.0)),
        sampling: r.sampling.clone(),
        workload_signature: r.workload_signature.clone(),
    }
}

/// The journal key of one sweep cell, and its only identity there: with
/// the journal fingerprint's `workload_iters` it fixes the simulation, so
/// a cell that one experiment or daemon submission journaled replays in
/// every other sweep on the same journal. Workload and predictor label
/// alone do not identify a run — Fig. 2 sweeps core generations and
/// Fig. 12 re-runs pairs under a different forwarding filter — so the key
/// also carries a fingerprint of the core configuration (CRC32 of its
/// `Debug` form, which is deterministic), the instruction budget, and the
/// sampling shape when in sampled mode.
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

/// What every cell of one workload shares within a grid, in both modes:
/// the program with the digest of its static dependence signature and,
/// when sampling, the capture pass over it. Nothing here depends on the
/// predictor. The first live cell that needs a slot builds it, so a
/// workload whose cells all replay from the journal builds nothing. A
/// build that panicked degrades every cell that needs it, as a panic in
/// the cell would.
struct WorkloadState {
    sampling: Option<SampleConfig>,
    program: OnceLock<Result<(Program, String), JobPanic>>,
    capture: OnceLock<Result<CheckpointSet, JobPanic>>,
}

impl WorkloadState {
    fn new(sampling: Option<SampleConfig>) -> WorkloadState {
        WorkloadState { sampling, program: OnceLock::new(), capture: OnceLock::new() }
    }
}

/// `slot`'s value, built by `build` under panic isolation if no cell has
/// built it yet; the build's host time is added to `wall` only when this
/// call ran it.
fn build_once<'s, T>(
    slot: &'s OnceLock<Result<T, JobPanic>>,
    wall: &mut Duration,
    build: impl FnOnce() -> T,
) -> Result<&'s T, JobPanic> {
    let built = slot.get_or_init(|| {
        let t = Instant::now();
        let built = pool::catch_job(build);
        *wall += t.elapsed();
        built
    });
    built.as_ref().map_err(JobPanic::clone)
}

/// One attempt at a cell, under one deadline and without touching any
/// registry. The kind's predictor runs the whole budget in full detail,
/// or, when sampling, the capture's windows in order, each with a freshly
/// built predictor; a sampled cell's statistics are the window sums,
/// weighted by cluster size (so its ratio statistics equal the weighted
/// estimate), and `sampling` carries the estimate metadata. A failed run
/// yields its partial statistics plus the [`SimError`] (for a sampled
/// cell, the first window's) instead of aborting. An ideal cell builds
/// its oracle here and drops it when the attempt ends. A full-detail wall
/// covers the simulation only; a sampled one covers the windows plus
/// every build this attempt ran.
fn run_attempt(
    workload: &Workload,
    kind: &PredictorKind,
    cfg: &CoreConfig,
    budget: &Budget,
    state: &WorkloadState,
    deadline: &Deadline,
) -> Result<RunResult, JobPanic> {
    let mut builds = Duration::ZERO;
    let (program, signature) = build_once(&state.program, &mut builds, || {
        let program = workload.build(budget.workload_iters);
        let signature = phast_trace::signature(&program).digest();
        (program, signature)
    })?;
    let set = match &state.sampling {
        Some(scfg) => Some(build_once(&state.capture, &mut builds, || {
            capture(program, cfg, scfg, budget.insts).expect("workloads emulate cleanly")
        })?),
        None => None,
    };
    let t = Instant::now();
    let oracle = (*kind == PredictorKind::Ideal).then(|| ideal_oracle(program, budget.insts));
    builds += t.elapsed();
    let build = || kind.build_sharing(program, budget.insts, oracle.as_ref());
    let mut core_cfg = cfg.clone();
    core_cfg.train_point = kind.train_point();
    let (stats, failure, num_paths, path_lengths, wall, sampling) = match set {
        None => {
            let mut predictor = build();
            let start = Instant::now();
            let result =
                try_simulate_within(program, &core_cfg, predictor.as_mut(), budget.insts, deadline);
            let wall = start.elapsed();
            let (stats, failure) = match result {
                Ok(stats) => (stats, None),
                Err(e) => (e.partial_stats().clone(), Some(e)),
            };
            (stats, failure, predictor.num_paths(), predictor.path_lengths(), wall, None)
        }
        Some(set) => {
            let start = Instant::now();
            let mut num_paths = 0;
            let runs: Vec<WindowRun> = set
                .windows_to_run()
                .into_iter()
                .map(|j| {
                    let mut predictor = build();
                    let window =
                        run_window_within(program, &core_cfg, predictor.as_mut(), set, j, deadline);
                    num_paths = num_paths.max(predictor.num_paths());
                    window
                })
                .collect();
            let wall = builds + start.elapsed();
            let failure = runs.iter().find_map(|r| r.failure.clone());
            let stats = sum_window_stats_weighted(&runs, &set.run_weights());
            (stats, failure, num_paths, Vec::new(), wall, Some(sampling_meta(set, &runs)))
        }
    };
    Ok(RunResult {
        workload: workload.name.to_string(),
        predictor: kind.label(),
        stats,
        num_paths,
        path_lengths,
        failure: failure.map(RunFailure::Sim),
        wall,
        sampling,
        workload_signature: signature.clone(),
    })
}

/// The estimate metadata of a sampled cell whose windows of `set` ran as
/// `runs`.
fn sampling_meta(set: &CheckpointSet, runs: &[WindowRun]) -> SamplingMeta {
    let est = estimate(set, runs);
    let (mode, cluster_weights, cluster_representatives) = match &set.clusters {
        Some(plan) => (
            SampleMode::Phase,
            plan.weights.clone(),
            plan.representatives.iter().map(|&r| u64::from(r)).collect(),
        ),
        None => (SampleMode::Stride, Vec::new(), Vec::new()),
    };
    SamplingMeta {
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
        mode: mode.as_str().to_string(),
        cluster_weights,
        cluster_representatives,
    }
}

/// A live cell's progress, as [`Sweep::grid`] reports it. Cells replayed
/// from the journal report neither.
pub(crate) enum CellProgress<'a> {
    /// The cell is about to run.
    Started,
    /// The cell has its result.
    Done(&'a RunResult),
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
    sampling: Option<SampleConfig>,
    degraded: Mutex<Vec<String>>,
    records: Mutex<Vec<RunRecord>>,
    run_timeout: Option<Duration>,
    journal: Option<Journal>,
    deadline_runs: AtomicUsize,
}

impl Sweep {
    /// A sweep with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Sweep {
        Sweep { workers: workers.max(1), ..Sweep::default() }
    }

    /// Arms a per-cell wall-clock watchdog: a cell — a full-detail run,
    /// or all the windows of a sampled cell together — exceeding
    /// `timeout` is cut off cooperatively and degrades with
    /// `SimError::Deadline` instead of hanging its worker thread.
    pub fn with_run_timeout(mut self, timeout: Duration) -> Sweep {
        self.run_timeout = Some(timeout);
        self
    }

    /// Attaches a run journal: every cell logs `start`/`done` lines
    /// write-ahead, and cells the journal already holds as `ok`, whichever
    /// sweep journaled them, are replayed from their journaled records
    /// instead of re-simulated.
    pub fn with_journal(mut self, journal: Journal) -> Sweep {
        self.journal = Some(journal);
        self
    }

    /// Runs cut off by the wall-clock watchdog so far (feeds the
    /// process exit-code taxonomy).
    pub fn deadline_count(&self) -> usize {
        self.deadline_runs.load(Ordering::Relaxed)
    }

    /// A fresh per-cell deadline from this sweep's watchdog setting.
    fn deadline(&self) -> Deadline {
        match self.run_timeout {
            Some(t) => Deadline::after(t),
            None => Deadline::none(),
        }
    }

    /// Switches this sweep to sampled mode: the run methods
    /// ([`Sweep::run_one`], [`Sweep::run_all`], [`Sweep::run_grid`])
    /// estimate each (workload, predictor) cell from detailed windows
    /// via `phast-sample` instead of simulating the whole budget
    /// cycle-accurately. A sampled cell keeps the one cell lifecycle —
    /// journal, watchdog, panic isolation — and replays its
    /// workload's windows in order on one worker. [`Sweep::map`] is
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
    /// (`std::thread::available_parallelism()`).
    pub fn parallel() -> Sweep {
        Sweep::with_workers(pool::default_workers())
    }

    /// The worker count this sweep fans runs across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Fans `f` over `items` on this sweep's worker pool; results come
    /// back **in item order**. For work that is not a cell, i.e. not a
    /// (workload, predictor, core) run that writes an artifact row:
    /// oracle statistics and static signatures.
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
    /// through [`RunResult::to_record`] — results replayed from the
    /// journal included, so the artifact matches a live sweep's modulo
    /// wall-clock metadata. Deadline-cut runs bump the counter behind
    /// [`Sweep::deadline_count`]. The run methods call this; callers of
    /// [`Sweep::grid`] (experiments that annotate their cells first, and
    /// the daemon) call it themselves.
    pub(crate) fn record_all(&self, runs: &[RunResult]) {
        let mut degraded = self.degraded.lock().expect("degraded-run registry");
        let mut records = self.records.lock().expect("run log");
        for run in runs {
            if let Some(entry) = run.degraded_entry() {
                crate::diag!("warning: degraded run — {entry}");
                degraded.push(entry);
            }
            if run.failure.as_ref().is_some_and(|f| f.kind() == "deadline") {
                self.deadline_runs.fetch_add(1, Ordering::Relaxed);
            }
            records.push(run.to_record());
        }
    }

    /// Executes one cell with the resilience machinery — the one cell
    /// lifecycle of both binaries and both sampling modes: journal replay
    /// (a cell the journal holds as `ok`, recovered on resume or journaled
    /// by any earlier sweep on it, is not re-simulated), write-ahead
    /// `start` line, one attempt under panic isolation and the per-cell
    /// deadline watchdog, and the `done` line. A cell runs once: the
    /// simulator is deterministic, so a second attempt would fail as the
    /// first did. The attempt ([`run_attempt`]) reads its workload's
    /// program, and capture when sampling, from `state`. A live cell
    /// reports its start and its result to `observe`.
    fn execute_cell(
        &self,
        workload: &Workload,
        kind: &PredictorKind,
        cfg: &CoreConfig,
        budget: &Budget,
        state: &WorkloadState,
        observe: &(dyn Fn(CellProgress<'_>) + Sync),
    ) -> RunResult {
        let key = cell_key(workload.name, &kind.label(), cfg, budget, state.sampling.as_ref());
        if let Some(done) = self.journal.as_ref().and_then(|j| j.lookup(&key)) {
            return replayed_result(done);
        }
        observe(CellProgress::Started);
        if let Some(j) = &self.journal {
            j.log_start(&key, cfg.check.faults.as_ref().map_or(0, |f| f.seed));
        }
        let deadline = self.deadline();
        let run = pool::catch_job(|| run_attempt(workload, kind, cfg, budget, state, &deadline))
            .and_then(|run| run)
            .unwrap_or_else(|p| panicked_result(workload.name, &kind.label(), p));
        if let Some(j) = &self.journal {
            let status = run.failure.as_ref().map_or("ok", RunFailure::kind);
            j.log_done(&key, run.journaled(), status);
        }
        observe(CellProgress::Done(&run));
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
        let state = WorkloadState::new(self.sampling);
        let run = self.execute_cell(workload, kind, cfg, budget, &state, &|_| {});
        self.record_all(std::slice::from_ref(&run));
        run
    }

    /// Runs every budgeted workload under one predictor, fanned across
    /// the pool; returns per-workload results in registry order.
    pub fn run_all(&self, kind: &PredictorKind, cfg: &CoreConfig, budget: &Budget) -> Vec<RunResult> {
        self.run_grid(std::slice::from_ref(kind), cfg, budget).pop().expect("one row per kind")
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
        let rows = self.grid(kinds, cfg, budget, self.sampling, &|_| {});
        for row in &rows {
            self.record_all(row);
        }
        rows
    }

    /// The (kind × workload) grid without recording the results: every
    /// cell through [`Sweep::execute_cell`] (journal, deadline, panic
    /// isolation), the cells fanned across the pool. Each workload's
    /// program and signature are built once, by its first live cell, and
    /// with `sampling` so is its capture, whose windows each cell replays
    /// in order on its worker; `None` runs full detail whatever this
    /// sweep's sampling mode. Rows are in kind order, each in registry
    /// order. Each live cell reports its progress to `observe` from
    /// whichever worker runs it — how `phast-serve` streams a sweep's
    /// `cell` events. The sampled validation experiments record both
    /// grids after annotating the sampled one; Fig. 10 runs in full detail
    /// because a sampled window cannot see a whole run's conflicts.
    pub(crate) fn grid(
        &self,
        kinds: &[PredictorKind],
        cfg: &CoreConfig,
        budget: &Budget,
        sampling: Option<SampleConfig>,
        observe: &(dyn Fn(CellProgress<'_>) + Sync),
    ) -> Vec<Vec<RunResult>> {
        let workloads = budget.workloads();
        let states: Vec<WorkloadState> =
            workloads.iter().map(|_| WorkloadState::new(sampling)).collect();
        let cells: Vec<(usize, usize)> = (0..kinds.len())
            .flat_map(|k| (0..workloads.len()).map(move |w| (k, w)))
            .collect();
        let flat = self.map(&cells, |_, &(k, w)| {
            self.execute_cell(&workloads[w], &kinds[k], cfg, budget, &states[w], observe)
        });
        let mut rows: Vec<Vec<RunResult>> = Vec::with_capacity(kinds.len());
        let mut flat = flat.into_iter();
        for _ in kinds {
            rows.push(flat.by_ref().take(workloads.len()).collect());
        }
        rows
    }

    /// How many cells of the full-detail `kinds` × workloads grid the
    /// journal holds as `ok` now: the cells [`Sweep::run_grid`] would
    /// replay instead of simulating if it ran now.
    pub(crate) fn journaled_cells(
        &self,
        kinds: &[PredictorKind],
        cfg: &CoreConfig,
        budget: &Budget,
    ) -> usize {
        let Some(j) = &self.journal else { return 0 };
        let workloads = budget.workloads();
        let keys = kinds.iter().flat_map(|k| {
            workloads.iter().map(move |w| cell_key(w.name, &k.label(), cfg, budget, None))
        });
        keys.filter(|key| j.lookup(key).is_some()).count()
    }

    /// Flags a failure that is not a single run's [`SimError`] — e.g. a
    /// sampled estimate landing outside its documented error bound — so
    /// it reaches the degraded-run registry (and the binary's non-zero
    /// exit) like any other degradation.
    pub fn flag_degraded(&self, entry: String) {
        crate::diag!("warning: degraded run — {entry}");
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

        // The 4-worker grid and the serial per-cell path agree: capture
        // and replay are deterministic.
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
    fn a_grid_builds_each_workload_once_in_both_modes() {
        use crate::journal::Journal;
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let workload = Workload::dynamic("counted".into(), "test".into(), |iters| {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            phast_workloads::by_name("exchange2").expect("built-in workload").build(iters)
        });
        let budget = Budget {
            insts: 12_000,
            workload_iters: 100_000,
            max_workloads: Some(0),
            extra_workloads: vec![workload],
        };
        let cfg = CoreConfig::alder_lake();
        let kinds = [PredictorKind::StoreSets, PredictorKind::Blind, PredictorKind::Ideal];
        let dir = std::env::temp_dir().join(format!("phast-harness-builds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (i, sampling) in [None, Some(SampleConfig::new(3, 600, 400))].into_iter().enumerate() {
            let path = dir.join(format!("journal-{i}.jsonl"));
            let run = |journal: Journal| {
                let sweep = Sweep::with_workers(2).with_journal(journal);
                let sweep = match sampling {
                    Some(scfg) => sweep.with_sampling(scfg),
                    None => sweep,
                };
                let before = BUILDS.load(Ordering::Relaxed);
                let grid = sweep.run_grid(&kinds, &cfg, &budget);
                (BUILDS.load(Ordering::Relaxed) - before, grid)
            };
            let (builds, grid) = run(Journal::create(&path, "builds").expect("journal"));
            assert_eq!(builds, 1, "one program for the grid's three cells ({sampling:?})");
            let signature = grid[0][0].workload_signature.clone();
            assert_ne!(signature, "unknown");
            let (builds, resumed) = run(Journal::resume(&path, "builds").expect("resume"));
            assert_eq!(builds, 0, "every cell replays from the journal ({sampling:?})");
            for r in grid.iter().chain(&resumed).flatten() {
                assert!(r.ok(), "{} × {} degraded", r.workload, r.predictor);
                assert_eq!(r.workload_signature, signature, "{} ({sampling:?})", r.predictor);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
