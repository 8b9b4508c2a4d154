//! The sampling engine: capture, window replay, and estimation.
//!
//! A sampled run of a program over an instruction `horizon` proceeds in
//! two passes:
//!
//! 1. **Capture** ([`capture`]): one functional pass through the
//!    `phast-isa` emulator, maintaining the cheap [`WarmContext`] *and*
//!    the predictor-independent long-lived structures
//!    ([`WarmState`](crate::WarmState): caches + prefetcher, direction predictor,
//!    indirect-target predictor) continuously, and snapshotting both at
//!    the start of each window's warm phase. Windows are placed
//!    systematically (SMARTS style): the horizon is divided into
//!    `windows` equal strides and the detailed window sits at the
//!    *middle* of each stride, preceded by its warm phase. Mid-stride
//!    placement keeps every window fully warmed; the startup transient is
//!    deliberately not sampled — its weight in a full run vanishes as the
//!    horizon grows, whereas a cold window would overweight it by the
//!    stride-to-window ratio (see `docs/SAMPLING.md`).
//! 2. **Replay** ([`run_window`]): per window — independently, from a
//!    shared reference to the capture — restore the emulator and the
//!    warmed structures from the checkpoint, warm the predictor-specific
//!    MDP training state over the warm phase (structures keep warming
//!    alongside), then boot a `phast-ooo` core from the warmed state and
//!    run the detailed window cycle-accurately.
//!
//! [`estimate`] aggregates per-window statistics into a point estimate
//! with a 95% confidence interval plus measured/warmed/fast-forwarded
//! instruction accounting.

use crate::checkpoint::{Checkpoint, CheckpointSet, WarmContext};
use crate::features::FeatureCollector;
use crate::kmeans;
use crate::warm::Warmer;
use phast_isa::{EmuError, Emulator, Program};
use phast_mdp::MemDepPredictor;
use phast_ooo::{BootState, Core, CoreConfig, Deadline, SimError, SimStats, RAS_DEPTH};

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
/// ([`WarmState`](crate::WarmState)) continuously, and snapshots both at each window's
/// warm-phase start. If the program halts before the horizon, capture
/// stops early and returns the windows placed so far.
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
    let mut emu = Emulator::new(program);
    let mut ctx = WarmContext::new(cfg.sq_size, RAS_DEPTH);
    let mut warmer = Warmer::new(cfg);
    let phase = scfg.mode == SampleMode::Phase;
    let mut collector = FeatureCollector::new();
    let rob_window = cfg.rob_size as u64;
    let mut checkpoints = Vec::with_capacity(windows as usize);
    let mut features = Vec::with_capacity(if phase { windows as usize } else { 0 });
    let mut warm: Vec<Option<crate::WarmState>> = Vec::with_capacity(windows as usize);
    'place: for w in 0..windows {
        let detail_start = w * stride + offset;
        let warm_start = detail_start.saturating_sub(scfg.warm_insts);
        while emu.retired() < warm_start {
            match emu.step()? {
                Some(rec) => {
                    let next_block = emu.cursor().map(|(b, _)| b);
                    warmer.warm_structures(&ctx, program, &rec, next_block);
                    if phase {
                        collector.observe(&ctx, program, &rec, rob_window);
                    }
                    ctx.observe(program, &rec);
                }
                None => break 'place,
            }
        }
        if emu.halted() {
            break;
        }
        checkpoints.push(Checkpoint { detail_start, arch: emu.snapshot(), ctx: ctx.clone() });
        warm.push(Some(warmer.state.clone()));
        if phase {
            // Run the pass on to the interval boundary so the feature
            // vector summarizes the *whole* interval, not just the part
            // before its checkpoint. Still the same single pass — stride
            // mode skips this because the next iteration fast-forwards
            // through the same region anyway.
            let interval_end = ((w + 1) * stride).min(horizon);
            while emu.retired() < interval_end {
                match emu.step()? {
                    Some(rec) => {
                        let next_block = emu.cursor().map(|(b, _)| b);
                        warmer.warm_structures(&ctx, program, &rec, next_block);
                        collector.observe(&ctx, program, &rec, rob_window);
                        ctx.observe(program, &rec);
                    }
                    None => break,
                }
            }
            features.push(collector.finish_interval());
            if emu.halted() {
                break;
            }
        }
    }
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

/// Replays window `w` of the set: restore, warm, run detailed.
///
/// Windows are independent — this function takes everything it needs by
/// shared reference to the capture artifacts, so any number of cells can
/// replay from one capture, on any thread. The predictor must be freshly
/// built (cold): its training state is warmed here, over the warm phase, through
/// `phast_mdp::Warmable`. The predictor-independent structures resume
/// from the checkpoint's [`WarmState`](crate::WarmState) snapshot, which reflects the
/// entire execution preceding the window.
///
/// # Panics
///
/// Panics if the set has no warm snapshot for window `w`: `w` is not in
/// [`CheckpointSet::windows_to_run`] (a non-representative interval of a
/// clustered set).
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
    let state = set
        .warm
        .get(w)
        .and_then(|slot| slot.as_ref())
        .expect("window has no warm snapshot: it is not a representative of this clustered set")
        .clone();
    let mut emu = Emulator::from_snapshot(program, &cp.arch);
    let mut ctx = cp.ctx.clone();
    let mut warmer = Warmer::from_state(state, cfg);
    while emu.retired() < cp.detail_start && !emu.halted() {
        let rec = emu
            .step()
            .expect("capture pass emulated this prefix")
            .expect("checked not halted");
        let next_block = emu.cursor().map(|(b, _)| b);
        warmer.warm_step(&mut ctx, program, &rec, next_block, predictor);
    }
    let warmed = emu.retired() - cp.arch.icount;
    // Warming traffic must not pollute the measured window's counters.
    predictor.reset_access_stats();
    if emu.halted() {
        return WindowRun { stats: SimStats::default(), failure: None, warmed };
    }
    let boot = BootState {
        arch: emu.snapshot(),
        cond_ghr: ctx.cond_ghr,
        path_ghr: ctx.path_ghr,
        history: ctx.history.clone(),
        ras: ctx.ras.clone(),
        hierarchy: warmer.state.hierarchy,
        indirect: warmer.state.indirect,
    };
    let mut core =
        Core::with_state(program, cfg.clone(), predictor, Box::new(warmer.state.direction), boot);
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
            stats: diff_stats(&stats, &before),
            failure: None,
            warmed: warmed + before.committed,
        },
        Err(e) => WindowRun { stats: SimStats::default(), failure: Some(e), warmed: warmed + before.committed },
    }
}

/// Field-wise `after − before` of two cumulative statistics snapshots
/// from the same core (the measured window between two resumable
/// `try_run` calls). Flags (`halted`, `ceiling_hit`) come from `after`.
#[allow(clippy::field_reassign_with_default)] // one line per field beats a 25-field literal
fn diff_stats(after: &SimStats, before: &SimStats) -> SimStats {
    let mut out = SimStats::default();
    out.cycles = after.cycles - before.cycles;
    out.committed = after.committed - before.committed;
    out.committed_loads = after.committed_loads - before.committed_loads;
    out.committed_stores = after.committed_stores - before.committed_stores;
    out.committed_cond_branches = after.committed_cond_branches - before.committed_cond_branches;
    out.branch_mispredicts = after.branch_mispredicts - before.branch_mispredicts;
    out.indirect_mispredicts = after.indirect_mispredicts - before.indirect_mispredicts;
    out.violations = after.violations - before.violations;
    out.false_dependences = after.false_dependences - before.false_dependences;
    out.forwarded_loads = after.forwarded_loads - before.forwarded_loads;
    out.filtered_violations = after.filtered_violations - before.filtered_violations;
    out.squashed_uops = after.squashed_uops - before.squashed_uops;
    out.mdp_stalled_loads = after.mdp_stalled_loads - before.mdp_stalled_loads;
    out.predictor_accesses = phast_mdp::AccessStats {
        reads: after.predictor_accesses.reads - before.predictor_accesses.reads,
        writes: after.predictor_accesses.writes - before.predictor_accesses.writes,
    };
    out.memory.l1i = sub_cache(after.memory.l1i, before.memory.l1i);
    out.memory.l1d = sub_cache(after.memory.l1d, before.memory.l1d);
    out.memory.l2 = sub_cache(after.memory.l2, before.memory.l2);
    out.memory.l3 = sub_cache(after.memory.l3, before.memory.l3);
    out.memory.dram_accesses = after.memory.dram_accesses - before.memory.dram_accesses;
    out.halted = after.halted;
    out.ceiling_hit = after.ceiling_hit;
    out.checked_commits = after.checked_commits - before.checked_commits;
    out.injected_faults = after.injected_faults - before.injected_faults;
    out.invariant_audits = after.invariant_audits - before.invariant_audits;
    out
}

fn sub_cache(a: phast_mem::CacheStats, b: phast_mem::CacheStats) -> phast_mem::CacheStats {
    phast_mem::CacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        mshr_merges: a.mshr_merges - b.mshr_merges,
        mshr_stall_cycles: a.mshr_stall_cycles - b.mshr_stall_cycles,
        prefetch_fills: a.prefetch_fills - b.prefetch_fills,
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

impl SampleEstimate {
    /// [`ipc_error_bound`] evaluated with this estimate's confidence
    /// half-width.
    pub fn ipc_error_bound(&self, full_ipc: f64) -> f64 {
        ipc_error_bound(full_ipc, self.ipc_ci_half)
    }
}

/// Sums window statistics into one `SimStats`-shaped record, so sampled
/// runs flow through the same reporting paths as full-detail runs, with
/// an integer weight per window: the cell record of a clustered run
/// scales each representative's counters by its cluster's member count,
/// so the summed record keeps the horizon's phase proportions (and its
/// ratio statistics match the weighted ratio-of-sums estimate) exactly,
/// in integer arithmetic. Stride runs weigh every window 1. Hierarchy and
/// predictor-access counters are summed field-wise; `halted` is true if
/// any window observed the program halt.
///
/// # Panics
///
/// Panics if `weights` is not parallel to `runs`.
pub fn sum_window_stats_weighted(runs: &[WindowRun], weights: &[u64]) -> SimStats {
    assert_eq!(runs.len(), weights.len(), "one weight per window run");
    let mut out = SimStats::default();
    for (r, &wt) in runs.iter().zip(weights) {
        let s = &r.stats;
        out.cycles += wt * s.cycles;
        out.committed += wt * s.committed;
        out.committed_loads += wt * s.committed_loads;
        out.committed_stores += wt * s.committed_stores;
        out.committed_cond_branches += wt * s.committed_cond_branches;
        out.branch_mispredicts += wt * s.branch_mispredicts;
        out.indirect_mispredicts += wt * s.indirect_mispredicts;
        out.violations += wt * s.violations;
        out.false_dependences += wt * s.false_dependences;
        out.forwarded_loads += wt * s.forwarded_loads;
        out.filtered_violations += wt * s.filtered_violations;
        out.squashed_uops += wt * s.squashed_uops;
        out.mdp_stalled_loads += wt * s.mdp_stalled_loads;
        out.predictor_accesses.add(phast_mdp::AccessStats {
            reads: wt * s.predictor_accesses.reads,
            writes: wt * s.predictor_accesses.writes,
        });
        out.memory.l1i = add_cache(out.memory.l1i, scale_cache(s.memory.l1i, wt));
        out.memory.l1d = add_cache(out.memory.l1d, scale_cache(s.memory.l1d, wt));
        out.memory.l2 = add_cache(out.memory.l2, scale_cache(s.memory.l2, wt));
        out.memory.l3 = add_cache(out.memory.l3, scale_cache(s.memory.l3, wt));
        out.memory.dram_accesses += wt * s.memory.dram_accesses;
        out.halted |= s.halted;
        out.ceiling_hit |= s.ceiling_hit;
        out.checked_commits += wt * s.checked_commits;
        out.injected_faults += wt * s.injected_faults;
        out.invariant_audits += wt * s.invariant_audits;
    }
    out
}

fn add_cache(a: phast_mem::CacheStats, b: phast_mem::CacheStats) -> phast_mem::CacheStats {
    phast_mem::CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        mshr_merges: a.mshr_merges + b.mshr_merges,
        mshr_stall_cycles: a.mshr_stall_cycles + b.mshr_stall_cycles,
        prefetch_fills: a.prefetch_fills + b.prefetch_fills,
    }
}

fn scale_cache(a: phast_mem::CacheStats, wt: u64) -> phast_mem::CacheStats {
    phast_mem::CacheStats {
        hits: wt * a.hits,
        misses: wt * a.misses,
        mshr_merges: wt * a.mshr_merges,
        mshr_stall_cycles: wt * a.mshr_stall_cycles,
        prefetch_fills: wt * a.prefetch_fills,
    }
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
