//! The one-call entry point for running a simulation.

use crate::config::CoreConfig;
use crate::core::Core;
use crate::deadline::Deadline;
use crate::error::SimError;
use crate::stats::SimStats;
use phast_isa::Program;
use phast_mdp::MemDepPredictor;

/// Generous default cycle ceiling: even IPC 0.05 finishes within it.
fn default_max_cycles(max_insts: u64) -> u64 {
    max_insts.saturating_mul(20).max(1_000_000)
}

/// Simulates `program` from its entry on a cold core described by `cfg`,
/// using `predictor` for memory dependence prediction, until `max_insts`
/// commit or the program halts, under a cooperative [`Deadline`]
/// watchdog ([`Deadline::none`] for none): a run whose wall-clock budget
/// elapses ends with [`SimError::Deadline`] instead of hanging its
/// worker.
///
/// # Errors
///
/// Returns a [`SimError`] if the run cannot finish cleanly: the deadline
/// expires, the watchdog trips (deadlock or cycle ceiling), the
/// committed path executes a corrupt `Ret`, or — when enabled by
/// [`CoreConfig::check`] — the commit stream diverges from the reference
/// emulator or an invariant audit fails.
pub fn try_simulate_within(
    program: &Program,
    cfg: &CoreConfig,
    predictor: &mut dyn MemDepPredictor,
    max_insts: u64,
    deadline: &Deadline,
) -> Result<SimStats, SimError> {
    let mut core = Core::new(program, cfg.clone(), predictor);
    core.try_run_within(max_insts, default_max_cycles(max_insts), deadline)
}
