//! The sampling engine: capture, window replay, and estimation.
//!
//! A sampled run of a program over an instruction `horizon` proceeds in
//! two passes:
//!
//! 1. **Capture** ([`capture`]): one functional pass through the
//!    `phast-isa` emulator, maintaining the cheap [`WarmContext`] *and*
//!    the predictor-independent long-lived structures
//!    ([`WarmState`]: caches + prefetcher, direction predictor,
//!    indirect-target predictor) continuously. It snapshots the
//!    architecture and the context at the start of each window's warm
//!    phase, and the structures at the window's detailed start. Windows
//!    are placed systematically (SMARTS style): the horizon is divided
//!    into `windows` equal strides and the detailed window sits at the
//!    *middle* of each stride, preceded by its warm phase. Mid-stride
//!    placement keeps every window fully warmed; the startup transient is
//!    deliberately not sampled — its weight in a full run vanishes as the
//!    horizon grows, whereas a cold window would overweight it by the
//!    stride-to-window ratio (see `docs/SAMPLING.md`).
//! 2. **Replay** ([`run_window`]): per window — independently, from a
//!    shared reference to the capture — restore the emulator and the
//!    context from the checkpoint, train the predictor-specific MDP over
//!    the warm phase, then boot a `phast-ooo` core from the captured
//!    structures and run the detailed window cycle-accurately.
//!
//! [`estimate`] aggregates per-window statistics into a point estimate
//! with a 95% confidence interval plus measured/warmed/fast-forwarded
//! instruction accounting.

use crate::checkpoint::{Checkpoint, CheckpointSet, WarmContext};
use crate::features::FeatureCollector;
use crate::kmeans;
use crate::warm::{warm_mdp, WarmState};
use phast_branch::DirectionPredictor;
use phast_isa::{EmuError, Emulator, ExecRecord, Op, Program};
use phast_mdp::MemDepPredictor;
use phast_mem::AccessKind;
use phast_ooo::{BootState, Core, CoreConfig, Deadline, SimError, SimStats, RAS_DEPTH};
use std::collections::VecDeque;

/// Seed the capture pass keys its k-means++ draws with. Fixed — a
/// clustered capture is a pure function of (program, config, horizon),
/// which is what lets resumed sweeps and the daemon reproduce it.
pub const CLUSTER_SEED: u64 = 0x7068_6173_655f_7632; // "phase_v2"

/// How detailed windows are placed over the horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SampleMode {
    /// One window per equal stride, all replayed with equal weight (the
    /// v1 sampler).
    #[default]
    Stride,
    /// Intervals are clustered by their feature vectors and only one
    /// representative window per cluster replays, weighted by cluster
    /// size (the v2 sampler — see `docs/SAMPLING.md`).
    Phase,
}

impl SampleMode {
    /// Parses a `--sample-mode` value — same reject-garbage contract as
    /// `parse_workers` in the experiments pool: callers print the error and
    /// exit 2 rather than silently falling back.
    ///
    /// # Errors
    ///
    /// A human-readable description of the invalid value.
    pub fn parse(raw: &str) -> Result<SampleMode, String> {
        match raw.trim() {
            "stride" => Ok(SampleMode::Stride),
            "phase" => Ok(SampleMode::Phase),
            other => Err(format!("expected 'phase' or 'stride', got '{other}'")),
        }
    }

    /// The canonical knob spelling (`"stride"` / `"phase"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SampleMode::Stride => "stride",
            SampleMode::Phase => "phase",
        }
    }
}

/// Sampling parameters: how many windows, how long each warm phase and
/// detailed window run, and how windows are placed ([`SampleMode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleConfig {
    /// Number of intervals over the horizon. In stride mode every
    /// interval's window replays; in phase mode the intervals are
    /// clustered and only representatives replay.
    pub windows: usize,
    /// Instructions of microarchitectural warming before each window.
    pub warm_insts: u64,
    /// Instructions measured cycle-accurately per window.
    pub window_insts: u64,
    /// Window-placement mode.
    pub mode: SampleMode,
    /// Cluster count K for phase mode (clamped to the interval count;
    /// ignored in stride mode).
    pub clusters: usize,
}

impl Default for SampleConfig {
    /// Defaults tuned on the quick validation grid (see `docs/SAMPLING.md`
    /// for the error bound they achieve).
    fn default() -> SampleConfig {
        SampleConfig {
            windows: 8,
            warm_insts: 2_000,
            window_insts: 1_000,
            mode: SampleMode::Stride,
            clusters: default_clusters_for(8),
        }
    }
}

impl SampleConfig {
    /// A stride-mode config with explicit parameters.
    pub fn new(windows: usize, warm_insts: u64, window_insts: u64) -> SampleConfig {
        SampleConfig {
            windows,
            warm_insts,
            window_insts,
            mode: SampleMode::Stride,
            clusters: default_clusters_for(windows),
        }
    }

    /// This config switched to phase mode with `clusters` clusters.
    pub fn phase(mut self, clusters: usize) -> SampleConfig {
        self.mode = SampleMode::Phase;
        self.clusters = clusters.max(1);
        self
    }
}

/// The default cluster count for a phase-mode run over `windows`
/// intervals: 3/4 of the intervals a stride run would replay, floored at
/// 2 — enough clusters to keep the estimate honest on phase-less
/// workloads while guaranteeing strictly fewer detailed windows.
pub fn default_clusters_for(windows: usize) -> usize {
    (windows * 3 / 4).max(2)
}

/// Captures checkpoints for a sampled run of `program` over `horizon`
/// instructions.
///
/// One functional pass: fast-forwards the emulator, maintaining the cheap
/// warming context *and* the predictor-independent structures
/// ([`WarmState`]) continuously. It snapshots the architecture and the
/// context at each window's warm start, and the structures at its
/// detailed start. If the program halts before the horizon, capture stops
/// early and returns the windows placed so far.
///
/// # Errors
///
/// Propagates an [`EmuError`] from the functional emulator (a workload
/// executing an invalid `Ret`).
pub fn capture(
    program: &Program,
    cfg: &CoreConfig,
    scfg: &SampleConfig,
    horizon: u64,
) -> Result<CheckpointSet, EmuError> {
    let windows = scfg.windows.max(1) as u64;
    let stride = (horizon / windows).max(scfg.window_insts.max(1));
    // Mid-stride placement: the measured region sits in the middle of
    // each stride, so every window (including the first) is preceded by
    // fast-forwarded execution and a warm phase.
    let offset = (stride - scfg.window_insts.min(stride)) / 2;
    let phase = scfg.mode == SampleMode::Phase;
    let mut pass = Pass {
        program,
        emu: Emulator::new(program),
        ctx: WarmContext::new(cfg.sq_size, RAS_DEPTH),
        state: WarmState::new(cfg),
        last_fetch_line: None,
        collector: phase.then(FeatureCollector::new),
        rob_window: cfg.rob_size as u64,
        due: VecDeque::new(),
        warm: Vec::with_capacity(windows as usize),
    };
    let mut checkpoints = Vec::with_capacity(windows as usize);
    let mut features = Vec::new();
    for w in 0..windows {
        let detail_start = w * stride + offset;
        if !pass.run_to(detail_start.saturating_sub(scfg.warm_insts))? {
            break;
        }
        checkpoints.push(Checkpoint {
            detail_start,
            arch: pass.emu.snapshot(),
            ctx: pass.ctx.clone(),
        });
        pass.due.push_back(detail_start);
        if phase {
            // Run the pass on to the interval boundary so the feature
            // vector summarizes the *whole* interval, not just the part
            // before its checkpoint. Still the same single pass — stride
            // mode skips this because the next iteration fast-forwards
            // through the same region anyway.
            let running = pass.run_to(((w + 1) * stride).min(horizon))?;
            let collector = pass.collector.as_mut().expect("phase mode collects features");
            features.push(collector.finish_interval());
            if !running {
                break;
            }
        }
    }
    // The last windows' detailed starts lie past the last warm start.
    if let Some(&last) = pass.due.back() {
        pass.run_to(last)?;
    }
    let mut warm = pass.warm;
    warm.resize_with(checkpoints.len(), || None);
    let clusters = (phase && !checkpoints.is_empty())
        .then(|| kmeans::cluster(&features, scfg.clusters, CLUSTER_SEED));
    let mut set = CheckpointSet {
        horizon,
        warm_insts: scfg.warm_insts,
        window_insts: scfg.window_insts,
        checkpoints,
        clusters,
        warm,
    };
    set.prune_warm();
    Ok(set)
}

/// The capture's single functional pass: the emulator and everything
/// predictor-independent that it keeps warm.
struct Pass<'p> {
    program: &'p Program,
    emu: Emulator<'p>,
    ctx: WarmContext,
    state: WarmState,
    /// Cache line of the previous instruction fetch. Immediately
    /// consecutive fetches to the same line are L1I hits whose only
    /// effect is an LRU touch that the *next* access to that set would
    /// re-establish anyway, so they are skipped — exactly
    /// behavior-preserving, and fetch is the hottest warm path.
    last_fetch_line: Option<u64>,
    /// Phase mode's per-interval feature collector.
    collector: Option<FeatureCollector>,
    rob_window: u64,
    /// Detailed starts not yet reached, oldest first. A window's warm
    /// phase begins before the previous window's detailed start whenever
    /// the warm phase is longer than the stride.
    due: VecDeque<u64>,
    /// The structures snapshotted at each detailed start reached so far.
    warm: Vec<Option<WarmState>>,
}

impl Pass<'_> {
    /// Steps the pass until `target` instructions have retired, cloning
    /// the structures at every due detailed start on the way. `Ok(false)`
    /// if the program halted first.
    fn run_to(&mut self, target: u64) -> Result<bool, EmuError> {
        loop {
            if self.emu.halted() {
                return Ok(false);
            }
            if self.due.front() == Some(&self.emu.retired()) {
                self.due.pop_front();
                self.warm.push(Some(self.state.clone()));
            }
            if self.emu.retired() >= target {
                return Ok(true);
            }
            let rec = self.emu.step()?.expect("checked not halted");
            self.warm_structures(&rec);
            if let Some(collector) = &mut self.collector {
                collector.observe(&self.ctx, self.program, &rec, self.rob_window);
            }
            self.ctx.observe(self.program, &rec);
        }
    }

    /// Warms the structures on one retired instruction. Runs before
    /// `ctx.observe` folds the instruction in, so branch training sees
    /// the *pre-update* history values, exactly like branch resolution in
    /// the core.
    fn warm_structures(&mut self, rec: &ExecRecord) {
        let state = &mut self.state;
        let fetch_line = rec.pc >> 6;
        if self.last_fetch_line != Some(fetch_line) {
            state.hierarchy.warm(AccessKind::Fetch, rec.pc, rec.pc);
            self.last_fetch_line = Some(fetch_line);
        }
        match &self.program.inst(rec.block, rec.index).op {
            Op::CondBranch { .. } => {
                let taken = rec.taken.expect("cond branch records taken");
                state.direction.update(rec.pc, self.ctx.cond_ghr, taken);
            }
            Op::IndirectJump(_) | Op::Ret => {
                // The emulator's post-step cursor is the resolved target.
                if let Some((b, _)) = self.emu.cursor() {
                    state.indirect.update(rec.pc, self.ctx.path_ghr, b);
                }
            }
            Op::Load(_) => {
                let addr = rec.eff_addr.expect("load records address");
                state.hierarchy.warm(AccessKind::Load, rec.pc, addr);
            }
            Op::Store(_) => {
                let addr = rec.eff_addr.expect("store records address");
                state.hierarchy.warm(AccessKind::Store, rec.pc, addr);
            }
            _ => {}
        }
    }
}

impl CheckpointSet {
    /// Drops the warm snapshots of windows that will never replay (the
    /// non-representative intervals of a clustered set). The remaining
    /// slots are moved, not cloned — pruning never touches the clone
    /// counter, and replay clones thereafter scale with the cluster
    /// count, not the interval count.
    pub fn prune_warm(&mut self) {
        let Some(plan) = &self.clusters else { return };
        for (i, slot) in self.warm.iter_mut().enumerate() {
            if !plan.representatives.contains(&(i as u32)) {
                *slot = None;
            }
        }
    }
}

/// Result of one detailed window.
#[derive(Clone, Debug)]
pub struct WindowRun {
    /// Statistics of the detailed window (default/empty if the program
    /// halted during the warm phase).
    pub stats: SimStats,
    /// Simulation failure, if the window degraded.
    pub failure: Option<SimError>,
    /// Instructions spent warming before this window.
    pub warmed: u64,
}

/// Replays window `w` of the set: restore, warm the MDP, run detailed.
///
/// Windows are independent — this function takes everything it needs by
/// shared reference to the capture artifacts, so any number of cells can
/// replay from one capture, on any thread. The predictor's training state
/// is warmed here, over the warm phase: the emulator and the
/// [`WarmContext`] step from the checkpoint, and only the predictor
/// trains. The core then boots from the set's snapshot of the structures
/// ([`WarmState`]) at the detailed start, which reflects the entire
/// execution preceding the window.
///
/// # Panics
///
/// Panics if the window reaches its detailed start and the set has no
/// snapshot for it: `w` is not in [`CheckpointSet::windows_to_run`] (a
/// non-representative interval of a clustered set).
pub fn run_window(
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    set: &CheckpointSet,
    w: usize,
) -> WindowRun {
    run_window_within(program, cfg, predictor, set, w, &Deadline::none())
}

/// [`run_window`] under a cooperative [`Deadline`] watchdog: if the
/// window's wall-clock budget elapses mid-replay, the detailed run ends
/// with a degraded [`WindowRun`] carrying `SimError::Deadline` instead of
/// hanging its worker thread.
///
/// # Panics
///
/// As for [`run_window`].
pub fn run_window_within(
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    set: &CheckpointSet,
    w: usize,
    deadline: &Deadline,
) -> WindowRun {
    let cp = &set.checkpoints[w];
    let mut emu = Emulator::from_snapshot(program, &cp.arch);
    let mut ctx = cp.ctx.clone();
    let rob_window = cfg.rob_size as u64;
    while emu.retired() < cp.detail_start && !emu.halted() {
        let rec = emu
            .step()
            .expect("capture pass emulated this prefix")
            .expect("checked not halted");
        warm_mdp(predictor, &ctx, program, &rec, rob_window);
        ctx.observe(program, &rec);
    }
    let warmed = emu.retired() - cp.arch.icount;
    // Warming traffic must not pollute the measured window's counters.
    predictor.reset_access_stats();
    if emu.halted() {
        return WindowRun { stats: SimStats::default(), failure: None, warmed };
    }
    let state = set
        .warm
        .get(w)
        .and_then(|slot| slot.as_ref())
        .expect("window has no warm snapshot: it is not a representative of this clustered set")
        .clone();
    let boot = BootState {
        arch: emu.snapshot(),
        cond_ghr: ctx.cond_ghr,
        path_ghr: ctx.path_ghr,
        history: ctx.history,
        ras: ctx.ras,
        hierarchy: state.hierarchy,
        indirect: state.indirect,
    };
    let mut core =
        Core::with_state(program, cfg.clone(), predictor, Box::new(state.direction), boot);
    // Detailed ramp: the core boots with an empty pipeline, so the first
    // ~ROB-size instructions commit below steady-state IPC while the
    // window fills. Run them cycle-accurately but *discard* them from the
    // measurement (SMARTS "detailed warming") — the window statistics are
    // the delta between the two resumable `try_run` calls.
    let ramp = cfg.rob_size as u64;
    let max_cycles = ((ramp + set.window_insts) * 20).max(1_000_000);
    let before = match core.try_run_within(ramp, max_cycles, deadline) {
        Ok(stats) => stats,
        Err(e) => return WindowRun { stats: SimStats::default(), failure: Some(e), warmed },
    };
    if before.halted {
        return WindowRun { stats: SimStats::default(), failure: None, warmed: warmed + before.committed };
    }
    match core.try_run_within(ramp + set.window_insts, max_cycles, deadline) {
        Ok(stats) => WindowRun {
            stats: stats.since(&before),
            failure: None,
            warmed: warmed + before.committed,
        },
        Err(e) => WindowRun { stats: SimStats::default(), failure: Some(e), warmed: warmed + before.committed },
    }
}

/// Point estimate with confidence interval over a set of window runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct SampleEstimate {
    /// Windows that produced a measurement (non-degraded, non-empty).
    pub windows: usize,
    /// Ratio-of-sums IPC estimate: Σ committed / Σ cycles. This is the
    /// headline estimate compared against full-detail IPC.
    pub ipc: f64,
    /// Mean of the per-window IPCs.
    pub ipc_mean: f64,
    /// Half-width of the 95% confidence interval on `ipc_mean`
    /// (z·s/√n with z = 1.96; 0 when fewer than 2 windows).
    pub ipc_ci_half: f64,
    /// Violation MPKI over the measured instructions.
    pub violation_mpki: f64,
    /// False-dependence MPKI over the measured instructions.
    pub false_dep_mpki: f64,
    /// Instructions measured cycle-accurately.
    pub measured_insts: u64,
    /// Instructions spent in warm phases.
    pub warmed_insts: u64,
    /// Instructions covered only by functional fast-forward.
    pub fast_forwarded_insts: u64,
    /// Total horizon the capture covered.
    pub horizon: u64,
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom — the
/// widening factor phase mode's confidence interval uses instead of
/// z = 1.96, because a clustered estimate measures only K windows however
/// much horizon weight they carry.
fn t_quantile(df: usize) -> f64 {
    const TABLE: [f64; 12] =
        [12.71, 4.30, 3.18, 2.78, 2.57, 2.45, 2.36, 2.31, 2.26, 2.23, 2.20, 2.18];
    match df {
        0 => 12.71,
        1..=12 => TABLE[df - 1],
        13..=20 => 2.09,
        21..=40 => 2.02,
        _ => 1.96,
    }
}

/// Aggregates per-window statistics into one estimate.
///
/// `runs` is parallel to [`CheckpointSet::windows_to_run`] — every window
/// of a stride-mode set, the representatives of a clustered set. For a
/// clustered set the estimate is cluster-weight aware: the ratio-of-sums
/// IPC weights each representative's counters by its cluster's member
/// count, and the confidence interval is *widened* — weighted variance
/// with a Student-t quantile over the K measured windows — because K
/// windows carry the whole horizon's weight (`docs/SAMPLING.md` has the
/// math). Stride-mode estimates are bit-identical to the v1 sampler.
pub fn estimate(set: &CheckpointSet, runs: &[WindowRun]) -> SampleEstimate {
    let weights = set.run_weights();
    debug_assert_eq!(weights.len(), runs.len(), "runs parallel to windows_to_run()");
    let clustered = set.clusters.is_some();
    let mut ipcs: Vec<(f64, f64)> = Vec::with_capacity(runs.len());
    let mut committed = 0u64;
    let mut cycles = 0u64;
    let mut violations = 0u64;
    let mut false_deps = 0u64;
    let mut measured = 0u64;
    let mut warmed = 0u64;
    for (r, &wt) in runs.iter().zip(&weights) {
        warmed += r.warmed;
        if r.failure.is_some() || r.stats.cycles == 0 {
            continue;
        }
        measured += r.stats.committed;
        ipcs.push((r.stats.ipc(), wt as f64));
        committed += wt * r.stats.committed;
        cycles += wt * r.stats.cycles;
        violations += wt * r.stats.violations;
        false_deps += wt * r.stats.false_dependences;
    }
    let n = ipcs.len();
    let wsum: f64 = ipcs.iter().map(|&(_, w)| w).sum();
    let mean =
        if wsum == 0.0 { 0.0 } else { ipcs.iter().map(|&(x, w)| x * w).sum::<f64>() / wsum };
    let ci_half = if n < 2 {
        0.0
    } else if clustered {
        // Weighted variance over the K measured windows, Bessel-corrected
        // by K, scaled by a t-quantile: strictly wider than the z-based
        // interval at the same K.
        let var = ipcs.iter().map(|&(x, w)| w * (x - mean) * (x - mean)).sum::<f64>() / wsum
            * (n as f64 / (n as f64 - 1.0));
        t_quantile(n - 1) * var.sqrt() / (n as f64).sqrt()
    } else {
        let var =
            ipcs.iter().map(|&(x, _)| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        1.96 * var.sqrt() / (n as f64).sqrt()
    };
    let per_kilo = |x: u64| if committed == 0 { 0.0 } else { 1000.0 * x as f64 / committed as f64 };
    SampleEstimate {
        windows: n,
        ipc: if cycles == 0 { 0.0 } else { committed as f64 / cycles as f64 },
        ipc_mean: mean,
        ipc_ci_half: ci_half,
        violation_mpki: per_kilo(violations),
        false_dep_mpki: per_kilo(false_deps),
        measured_insts: measured,
        warmed_insts: warmed,
        fast_forwarded_insts: set.horizon.saturating_sub(measured + warmed),
        horizon: set.horizon,
    }
}

/// The documented acceptance bound for a sampled IPC estimate against the
/// full-detail IPC of the same run (see `docs/SAMPLING.md`): the larger
/// of 12% of the full-detail IPC and twice the estimate's 95% confidence
/// half-width, floored at 0.05 IPC for near-zero-IPC runs.
pub fn ipc_error_bound(full_ipc: f64, ci_half: f64) -> f64 {
    (0.12 * full_ipc).max(2.0 * ci_half).max(0.05)
}

/// Sums window statistics into one `SimStats`-shaped record, so sampled
/// runs flow through the same reporting paths as full-detail runs, with
/// an integer weight per window: the cell record of a clustered run
/// scales each representative's counters by its cluster's member count,
/// so the summed record keeps the horizon's phase proportions (and its
/// ratio statistics match the weighted ratio-of-sums estimate) exactly,
/// in integer arithmetic. Stride runs weigh every window 1. The sum runs
/// through [`SimStats::add_weighted`], so `halted` is true if any window
/// observed the program halt.
///
/// # Panics
///
/// Panics if `weights` is not parallel to `runs`.
pub fn sum_window_stats_weighted(runs: &[WindowRun], weights: &[u64]) -> SimStats {
    assert_eq!(runs.len(), weights.len(), "one weight per window run");
    runs.iter()
        .zip(weights)
        .fold(SimStats::default(), |sum, (r, &wt)| sum.add_weighted(&r.stats, wt))
}

/// Serial convenience: capture + replay every window + estimate, building
/// a fresh predictor per window via `build`. The sweep path lives in
/// `phast-experiments`, which shares one capture among a workload's cells
/// and replays each cell's windows as one journaled, retried sweep cell;
/// this entry point serves tests and single-run callers.
///
/// # Errors
///
/// Propagates an [`EmuError`] from the capture pass.
pub fn run_sampled(
    program: &Program,
    cfg: &CoreConfig,
    scfg: &SampleConfig,
    horizon: u64,
    build: &mut dyn FnMut() -> Box<dyn MemDepPredictor>,
) -> Result<(SampleEstimate, Vec<WindowRun>), EmuError> {
    let set = capture(program, cfg, scfg, horizon)?;
    let runs: Vec<WindowRun> = set
        .windows_to_run()
        .into_iter()
        .map(|w| {
            let mut predictor = build();
            run_window(program, cfg, predictor.as_mut(), &set, w)
        })
        .collect();
    Ok((estimate(&set, &runs), runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_mdp::BlindSpeculation;

    /// A window whose program halts inside its warm phase never reaches
    /// its detailed start: capture takes no structure snapshot for it,
    /// and replay reports it as halted without needing one.
    #[test]
    fn a_window_halting_in_its_warm_phase_replays_without_a_snapshot() {
        let program = phast_workloads::by_name("mcf").expect("workload exists").build(20);
        let mut emu = Emulator::new(&program);
        while emu.step().expect("clean").is_some() {}
        let total = emu.retired();
        // Two strides of `total` each: window 1's warm phase starts
        // mid-run, and its detailed start lies past the halt.
        let cfg = CoreConfig::alder_lake();
        let set =
            capture(&program, &cfg, &SampleConfig::new(2, total, 10), 2 * total).expect("clean");
        assert_eq!(set.checkpoints.len(), 2);
        assert!(set.warm[0].is_some() && set.warm[1].is_none());
        let run = run_window(&program, &cfg, &mut BlindSpeculation, &set, 1);
        assert!(run.failure.is_none());
        assert_eq!(run.stats.committed, 0);
        assert_eq!(run.warmed, total - set.checkpoints[1].arch.icount);
    }
}
