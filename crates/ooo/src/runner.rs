//! Convenience entry points for running simulations.

use crate::config::CoreConfig;
use crate::core::Core;
use crate::deadline::Deadline;
use crate::error::SimError;
use crate::stats::SimStats;
use phast_branch::{DirectionPredictor, Tage, TageConfig};
use phast_isa::Program;
use phast_mdp::MemDepPredictor;

/// Generous default cycle ceiling: even IPC 0.05 finishes within it.
fn default_max_cycles(max_insts: u64) -> u64 {
    max_insts.saturating_mul(20).max(1_000_000)
}

/// Simulates `program` on a core described by `cfg`, using `predictor` for
/// memory dependence prediction and a TAGE conditional branch predictor,
/// until `max_insts` commit or the program halts.
///
/// # Errors
///
/// Returns a [`SimError`] if the run cannot finish cleanly: the watchdog
/// trips (deadlock or cycle ceiling), the committed path executes a corrupt
/// `Ret`, or — when enabled by [`CoreConfig::check`] — the commit stream
/// diverges from the reference emulator or an invariant audit fails.
pub fn try_simulate(
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    max_insts: u64,
) -> Result<SimStats, SimError> {
    try_simulate_with_direction(
        program,
        cfg,
        predictor,
        Box::new(Tage::new(TageConfig::default())),
        max_insts,
    )
}

/// Like [`try_simulate`] but with an explicit conditional-direction
/// predictor (the Fig. 1 trend study sweeps these).
///
/// # Errors
///
/// As for [`try_simulate`].
pub fn try_simulate_with_direction(
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    direction: Box<dyn DirectionPredictor>,
    max_insts: u64,
) -> Result<SimStats, SimError> {
    let mut core = Core::new(program, cfg.clone(), predictor, direction);
    core.try_run(max_insts, default_max_cycles(max_insts))
}

/// Like [`try_simulate`], but under a cooperative [`Deadline`] watchdog:
/// a run whose wall-clock budget elapses ends with [`SimError::Deadline`]
/// instead of hanging its worker.
///
/// # Errors
///
/// As for [`try_simulate`], plus [`SimError::Deadline`].
pub fn try_simulate_within(
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    max_insts: u64,
    deadline: &Deadline,
) -> Result<SimStats, SimError> {
    let mut core = Core::new(
        program,
        cfg.clone(),
        predictor,
        Box::new(Tage::new(TageConfig::default())),
    );
    core.try_run_within(max_insts, default_max_cycles(max_insts), deadline)
}

/// Legacy infallible entry point over [`try_simulate`].
///
/// A hit cycle ceiling is logged to stderr and returns the truncated
/// statistics with [`SimStats::ceiling_hit`] set (previously truncation was
/// silent and indistinguishable from a clean finish).
///
/// # Panics
///
/// Panics on every other [`SimError`].
pub fn simulate(
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    max_insts: u64,
) -> SimStats {
    match try_simulate(program, cfg, predictor, max_insts) {
        Ok(stats) => stats,
        Err(SimError::CycleCeiling { max_cycles, snapshot }) => {
            eprintln!(
                "warning: cycle ceiling {max_cycles} hit; statistics are truncated ({snapshot})"
            );
            let mut stats = snapshot.stats;
            stats.ceiling_hit = true;
            stats
        }
        Err(e) => panic!("simulation failed: {e}"),
    }
}
