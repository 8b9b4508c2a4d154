//! The two batch workloads: the grid each one sweeps, one untraced pass
//! through `figures::fig15::run` (what `phast-experiments fig15` runs),
//! and one traced pass that drives the same cells, in the harness's
//! order, through the public functions underneath it.

use crate::spans::Tracer;
use crate::timed::{PredLedger, Timed};
use phast_experiments::artifact::{RunRecord, SweepArtifact};
use phast_experiments::{
    default_clusters_for, figures, Budget, Journal, PredictorKind, SampleConfig, SampleMode, Sweep,
};
use phast_isa::{Emulator, Program};
use phast_mdp::MemDepPredictor;
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, SimStats};
use phast_sample::{
    capture, estimate, run_window_within, sum_window_stats_weighted, warm_state_clones,
    CheckpointSet, WindowRun,
};
use phast_workloads::Workload;
use std::path::Path;
use std::time::Instant;

/// Memory-bound programs of `sampled_mem`: `lbm` streams, `xz` chases
/// pointers through hash tables. The ideal cell of a pointer-chasing
/// program dominates a pass (its oracle rebuild is 8-15 s per program at
/// this horizon; `xz` is the cheapest), so the other memory-bound
/// programs (bwaves, mcf, omnetpp, fotonik3d) are left out to keep
/// several passes in a run.
const SAMPLED_PROGRAMS: [&str; 2] = ["lbm", "xz"];

/// Which batch grid a pass sweeps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Fig. 15 in full detail at `Budget::quick`.
    Detail,
    /// Fig. 15 phase-sampled at the `Budget::sampled` horizon.
    Sampled,
}

impl Grid {
    /// The workload name a grid is run under.
    pub fn parse(name: &str) -> Option<Grid> {
        match name {
            "detail_fig15" => Some(Grid::Detail),
            "sampled_mem" => Some(Grid::Sampled),
            _ => None,
        }
    }

    /// The budget a pass runs at: the programs the workload is named
    /// for, or with `synth` as many programs from
    /// `phast_trace::synth_workloads(n, seed)`.
    pub fn budget(self, seed: u64, synth: bool) -> Budget {
        let (mut budget, named): (Budget, Vec<Workload>) = match self {
            Grid::Detail => {
                let b = Budget::quick();
                let named = b.workloads();
                (b, named)
            }
            Grid::Sampled => {
                let named = SAMPLED_PROGRAMS
                    .iter()
                    .map(|n| phast_workloads::by_name(n).expect("built-in workload"))
                    .collect();
                (Budget::sampled(), named)
            }
        };
        budget.max_workloads = Some(0);
        budget.extra_workloads = if synth {
            phast_trace::synth_workloads(named.len(), seed)
        } else {
            named
        };
        budget
    }

    /// The sampling configuration (`None` = full detail), as
    /// `phast-experiments --sampled --sample-mode=phase` derives it.
    pub fn sampling(self, budget: &Budget) -> Option<SampleConfig> {
        match self {
            Grid::Detail => None,
            Grid::Sampled => {
                let scfg = budget.default_sampling();
                Some(scfg.phase(default_clusters_for(scfg.windows)))
            }
        }
    }
}

/// The predictors of the grid, in the harness's row order.
pub fn kinds() -> Vec<PredictorKind> {
    let mut k = vec![PredictorKind::Ideal];
    k.extend(PredictorKind::headline());
    k
}

/// The deterministic outcome of one cell: what both passes and the
/// daemon must agree on.
pub struct CellOut {
    /// Fingerprint of the deterministic artifact fields plus, for the
    /// headline rows, every field of the cell's `SimStats`.
    pub fp: String,
    /// Full statistics, when the pass has them.
    pub stats: Option<SimStats>,
    /// Host seconds the cell's own `wall` records.
    pub wall_s: f64,
    /// Committed (measured) instructions.
    pub committed: u64,
    /// Horizon instructions the cell covers.
    pub horizon: u64,
    /// Measured, warmed and fast-forwarded instructions (sampled cells).
    pub sampled: Option<(u64, u64, u64)>,
    /// Whether the cell ran cleanly.
    pub ok: bool,
}

/// The deterministic fields of an artifact row, in one string. The
/// fields that vary from run to run (`wall_s`, `mips`, `attempts`) are
/// left out.
pub fn record_key(r: &RunRecord) -> String {
    let mut key = format!(
        "{}|{}|cycles={}|committed={}|ipc={}|vmpki={}|fmpki={}|paths={}|sig={}",
        r.workload,
        r.predictor,
        r.cycles,
        r.committed,
        r.ipc,
        r.violation_mpki,
        r.false_dep_mpki,
        r.num_paths,
        r.workload_signature
    );
    if let Some(s) = &r.sampling {
        key.push_str(&format!(
            "|windows={}|measured={}|warmed={}|ff={}|horizon={}|ci={}|mode={}|weights={:?}|reps={:?}",
            s.windows,
            s.measured_insts,
            s.warmed_insts,
            s.fast_forwarded_insts,
            s.horizon,
            s.ipc_ci_half,
            s.mode,
            s.cluster_weights,
            s.cluster_representatives
        ));
    }
    key
}

/// `stats` joins the fingerprint only for headline rows: the untraced
/// pass gets the ideal row's statistics from its artifact row alone.
fn cell_from_record(r: &RunRecord, stats: Option<SimStats>, headline: bool) -> CellOut {
    let full = match (&stats, headline) {
        (Some(s), true) => format!("{s:?}"),
        _ => String::new(),
    };
    let sampled = r
        .sampling
        .as_ref()
        .map(|s| (s.measured_insts, s.warmed_insts, s.fast_forwarded_insts));
    CellOut {
        fp: format!(
            "{:08x}",
            phast_sample::crc32(format!("{}|{full}", record_key(r)).as_bytes())
        ),
        stats,
        wall_s: r.wall_s,
        committed: r.committed,
        horizon: sampled.map_or(r.committed, |(m, w, f)| m + w + f),
        sampled,
        ok: r.degraded.is_none(),
    }
}

/// What one pass measured.
pub struct PassOut {
    /// Host seconds of the pass: the sweep plus its artifact.
    pub sweep_s: f64,
    /// Cells in the harness's order.
    pub cells: Vec<CellOut>,
    /// Whether the written artifact passed `SweepArtifact::verify_file`.
    pub artifact_ok: bool,
    /// `WarmState` deep clones during the pass.
    pub warm_clones: u64,
}

/// A fresh CLI's set-up for a batch pass: the journal and the sweep, as
/// `phast-experiments --serial [--sampled] fig15` creates them.
pub fn setup_sweep(grid: Grid, budget: &Budget, out: &Path) -> Sweep {
    std::fs::create_dir_all(out).expect("output directory is writable");
    let sampling = grid.sampling(budget);
    let extras: Vec<&str> = budget.extra_workloads.iter().map(|w| w.name).collect();
    let fingerprint = format!(
        "insts={} iters={} max_workloads={:?} extras={:?} sampling={:?}",
        budget.insts, budget.workload_iters, budget.max_workloads, extras, sampling
    );
    let journal =
        Journal::create(&out.join("journal.jsonl"), &fingerprint).expect("journal is writable");
    let mut sweep = Sweep::serial().with_journal(journal.scope("fig15"));
    if let Some(scfg) = sampling {
        sweep = sweep.with_sampling(scfg);
    }
    sweep
}

/// One untraced pass through `figures::fig15::run`, artifact included.
pub fn untraced_pass(sweep: &Sweep, budget: &Budget, out: &Path) -> PassOut {
    let clones0 = warm_state_clones();
    let start = Instant::now();
    let results = figures::fig15::run(sweep, budget);
    let artifact = sweep.artifact("fig15", budget, start.elapsed());
    let path = artifact.write_to(out).expect("artifact is writable");
    let sweep_s = start.elapsed().as_secs_f64();
    let artifact_ok = SweepArtifact::verify_file(&path).is_ok();
    // The ideal row is not in `results.runs`; its artifact row carries
    // the deterministic fields. The headline rows add their full stats.
    let n = budget.workloads().len();
    let headline: Vec<SimStats> = results
        .runs
        .iter()
        .flatten()
        .map(|r| r.stats.clone())
        .collect();
    let cells = artifact
        .runs
        .iter()
        .enumerate()
        .map(|(i, r)| cell_from_record(r, i.checked_sub(n).map(|h| headline[h].clone()), i >= n))
        .collect();
    PassOut {
        sweep_s,
        cells,
        artifact_ok,
        warm_clones: warm_state_clones() - clones0,
    }
}

/// Per-layer counts the traced pass collects besides its spans.
#[derive(Default)]
pub struct Counts {
    /// Predictor method time per label, in grid order.
    pub pred: Vec<(String, PredLedger)>,
    /// Ideal-oracle builds.
    pub oracle_builds: u64,
    /// Instructions the oracle builds were asked to cover.
    pub oracle_insts: u64,
    /// Capture passes.
    pub captures: u64,
    /// Detailed windows replayed.
    pub windows: u64,
    /// Static-signature calls.
    pub signature_calls: u64,
    /// Distinct programs the signature analysed.
    pub signature_programs: u64,
    /// Program builds.
    pub builds: u64,
    /// Instructions the standalone emulation pass stepped.
    pub emu_insts: u64,
}

/// The core a cell runs on: Alder Lake, training at the kind's point.
pub fn core_for(kind: &PredictorKind) -> CoreConfig {
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = kind.train_point();
    cfg
}

/// Builds a cell's predictor under its span: the ideal predictor's build
/// is the dependence-oracle pass, every other build is table set-up.
fn build_predictor(
    tr: &mut Tracer,
    counts: &mut Counts,
    kind: &PredictorKind,
    program: &Program,
    insts: u64,
) -> Timed {
    let ideal = *kind == PredictorKind::Ideal;
    if ideal {
        counts.oracle_builds += 1;
        // `PredictorKind::build` asks the oracle for this margin past the budget.
        counts.oracle_insts += insts + 50_000;
    }
    let span = if ideal {
        "mdp.oracle_build"
    } else {
        "pred.build"
    };
    Timed::new(tr.span(span, || kind.build(program, insts)))
}

#[allow(clippy::too_many_arguments)]
fn record(
    workload: &str,
    kind: &PredictorKind,
    stats: &SimStats,
    num_paths: u64,
    signature: String,
    wall_s: f64,
    sampling: Option<phast_experiments::SamplingMeta>,
    ok: bool,
) -> RunRecord {
    RunRecord {
        workload: workload.to_string(),
        predictor: kind.label(),
        ipc: stats.ipc(),
        violation_mpki: stats.violation_mpki(),
        false_dep_mpki: stats.false_dep_mpki(),
        cycles: stats.cycles,
        committed: stats.committed,
        num_paths,
        wall_s,
        mips: 0.0,
        attempts: 1,
        degraded: (!ok).then(|| "failed".to_string()),
        sampling,
        workload_signature: signature,
    }
}

/// The traced pass: the same cells in the same order, each public call
/// under a span, each predictor behind the forwarding timer.
pub fn traced_pass(
    grid: Grid,
    budget: &Budget,
    out: &Path,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> PassOut {
    let clones0 = warm_state_clones();
    let start = Instant::now();
    tr.enter("pass");
    let workloads = budget.workloads();
    let kinds = kinds();
    let mut records = Vec::new();
    let mut stats_all = Vec::new();
    match grid.sampling(budget) {
        None => {
            for kind in &kinds {
                let mut ledger = PredLedger::default();
                for w in &workloads {
                    tr.set_cell(Some(records.len()));
                    tr.enter("cell");
                    let program = tr.span("workloads.build", || w.build(budget.workload_iters));
                    let mut timed = build_predictor(tr, counts, kind, &program, budget.insts);
                    let cfg = core_for(kind);
                    let t = Instant::now();
                    let res = tr.span("ooo.simulate", || {
                        try_simulate_within(
                            &program,
                            &cfg,
                            &mut timed,
                            budget.insts,
                            &Deadline::none(),
                        )
                    });
                    let wall_s = t.elapsed().as_secs_f64();
                    tr.attach_pred("ooo.simulate", &timed.ledger);
                    ledger.merge(&timed.ledger);
                    let sig = tr.span("trace.signature", || {
                        phast_trace::signature(&program).digest()
                    });
                    tr.exit();
                    let ok = res.is_ok();
                    let stats = match res {
                        Ok(s) => s,
                        Err(e) => e.partial_stats().clone(),
                    };
                    records.push(record(
                        w.name,
                        kind,
                        &stats,
                        timed.num_paths(),
                        sig,
                        wall_s,
                        None,
                        ok,
                    ));
                    stats_all.push(stats);
                }
                counts.pred.push((kind.label(), ledger));
            }
            counts.builds += (kinds.len() * workloads.len()) as u64;
            counts.signature_calls += (kinds.len() * workloads.len()) as u64;
        }
        Some(scfg) => {
            tr.set_cell(None);
            let cfg = CoreConfig::alder_lake();
            let captured: Vec<(Program, CheckpointSet)> = workloads
                .iter()
                .map(|w| {
                    let program = tr.span("workloads.build", || w.build(budget.workload_iters));
                    let set = tr.span("sample.capture", || {
                        capture(&program, &cfg, &scfg, budget.insts)
                            .expect("workloads emulate cleanly")
                    });
                    (program, set)
                })
                .collect();
            counts.builds += workloads.len() as u64;
            counts.captures += workloads.len() as u64;
            for kind in &kinds {
                let mut ledger = PredLedger::default();
                let core_cfg = core_for(kind);
                for (w, (program, set)) in workloads.iter().zip(&captured) {
                    tr.set_cell(Some(records.len()));
                    tr.enter("cell");
                    let mut runs: Vec<WindowRun> = Vec::new();
                    let mut num_paths = 0;
                    for j in set.windows_to_run() {
                        let mut timed = build_predictor(tr, counts, kind, program, budget.insts);
                        let run = tr.span("sample.window", || {
                            run_window_within(
                                program,
                                &core_cfg,
                                &mut timed,
                                set,
                                j,
                                &Deadline::none(),
                            )
                        });
                        tr.attach_pred("sample.window", &timed.ledger);
                        ledger.merge(&timed.ledger);
                        num_paths = num_paths.max(timed.num_paths());
                        runs.push(run);
                        counts.windows += 1;
                    }
                    let est = tr.span("sample.estimate", || estimate(set, &runs));
                    let sig = tr.span("trace.signature", || {
                        phast_trace::signature(program).digest()
                    });
                    tr.exit();
                    let ok = runs.iter().all(|r| r.failure.is_none());
                    let stats = sum_window_stats_weighted(&runs, &set.run_weights());
                    let meta = phast_experiments::SamplingMeta {
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
                        mode: SampleMode::Phase.as_str().to_string(),
                        cluster_weights: set.run_weights(),
                        cluster_representatives: set
                            .windows_to_run()
                            .iter()
                            .map(|&r| r as u64)
                            .collect(),
                    };
                    records.push(record(
                        w.name,
                        kind,
                        &stats,
                        num_paths,
                        sig,
                        0.0,
                        Some(meta),
                        ok,
                    ));
                    stats_all.push(stats);
                }
                counts.pred.push((kind.label(), ledger));
            }
            counts.signature_calls += (kinds.len() * workloads.len()) as u64;
        }
    }
    counts.signature_programs += workloads.len() as u64;
    tr.set_cell(None);
    let artifact_ok = tr.span("harness.artifact", || {
        let artifact = SweepArtifact {
            id: "fig15_traced".to_string(),
            git: phast_experiments::artifact::git_describe(),
            workers: 1,
            budget_insts: budget.insts,
            budget_iters: budget.workload_iters,
            workloads: workloads.len(),
            wall_s: start.elapsed().as_secs_f64(),
            runs: records.clone(),
            degraded: Vec::new(),
        };
        let path = artifact.write_to(out).expect("artifact is writable");
        SweepArtifact::verify_file(&path).is_ok()
    });
    tr.exit();
    let sweep_s = start.elapsed().as_secs_f64();
    let cells = records
        .iter()
        .zip(stats_all)
        .enumerate()
        .map(|(i, (r, s))| cell_from_record(r, Some(s), i >= workloads.len()))
        .collect();
    PassOut {
        sweep_s,
        cells,
        artifact_ok,
        warm_clones: warm_state_clones() - clones0,
    }
}

/// The standalone emulation pass: `Emulator::step` over each sampled
/// program's horizon, outside the traced pass. Returns host seconds.
pub fn emulate_horizons(budget: &Budget, counts: &mut Counts) -> f64 {
    let mut secs = 0.0;
    for w in budget.workloads() {
        let program = w.build(budget.workload_iters);
        let mut emu = Emulator::new(&program);
        let t = Instant::now();
        while emu.retired() < budget.insts {
            if std::hint::black_box(emu.step().expect("workloads emulate cleanly")).is_none() {
                break;
            }
        }
        secs += t.elapsed().as_secs_f64();
        counts.emu_insts += emu.retired();
    }
    secs
}
