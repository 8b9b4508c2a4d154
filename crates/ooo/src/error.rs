//! Structured simulation failures.
//!
//! Every way a simulation can end other than "budget reached or program
//! halted" is a [`SimError`]: a watchdog trip (deadlock, cycle ceiling), a
//! lockstep divergence from the reference emulator, an internal invariant
//! violation, or a corrupt `Ret` on the committed path. Each variant
//! carries a [`PipelineSnapshot`] — the core's observable state and the
//! partial [`SimStats`] at the point of failure — so a failed run is
//! diagnosable and reportable instead of a bare panic or, worse, a result
//! indistinguishable from a clean finish.

use crate::stats::SimStats;
use phast_isa::{BlockId, ExecClass, Pc};

/// The ROB head at the moment of failure (the uop everyone is waiting on).
#[derive(Clone, Debug)]
pub struct HeadUop {
    /// ROB token.
    pub token: u64,
    /// Architectural sequence number.
    pub arch_seq: u64,
    /// Program counter.
    pub pc: Pc,
    /// Execution class.
    pub class: ExecClass,
    /// Whether it has issued.
    pub issued: bool,
    /// Whether it has completed execution.
    pub completed: bool,
}

/// Observable pipeline state captured when a simulation fails.
#[derive(Clone, Debug)]
pub struct PipelineSnapshot {
    /// Cycle at capture.
    pub cycle: u64,
    /// Cycle of the most recent commit (watchdog reference point).
    pub last_commit_cycle: u64,
    /// Statistics accumulated so far (partial — the run did not finish).
    pub stats: SimStats,
    /// ROB occupancy.
    pub rob_len: usize,
    /// Token of the ROB head.
    pub rob_head_token: u64,
    /// The head uop, if the ROB is non-empty.
    pub head: Option<HeadUop>,
    /// Dispatched-but-unissued uops.
    pub unissued: usize,
    /// Load-queue occupancy.
    pub lq_count: usize,
    /// In-flight store tokens, oldest first.
    pub sq_tokens: Vec<u64>,
    /// Stores committed but not yet drained to the L1D.
    pub sb_pending: usize,
    /// Next fetch location, if fetch is not stalled on a squash.
    pub cursor: Option<(BlockId, usize)>,
}

impl std::fmt::Display for PipelineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {} (last commit {}), {} committed, rob {} (head token {}, head {:?}), \
             iq {}, lq {}, sq {:?}, sb {}, cursor {:?}",
            self.cycle,
            self.last_commit_cycle,
            self.stats.committed,
            self.rob_len,
            self.rob_head_token,
            self.head,
            self.unissued,
            self.lq_count,
            self.sq_tokens,
            self.sb_pending,
            self.cursor,
        )
    }
}

/// First mismatch between the core's committed stream and the reference
/// emulator, found by the lockstep checker.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// Architectural sequence number of the diverging commit.
    pub arch_seq: u64,
    /// PC the core committed.
    pub core_pc: Pc,
    /// Which compared field diverged (`"pc"`, `"dst-value"`, `"eff-addr"`,
    /// `"store-data"`, `"arch-seq"`, `"past-halt"`, `"emulator-error"`).
    pub field: &'static str,
    /// The reference emulator's value for that field.
    pub expected: Option<u64>,
    /// The core's value for that field.
    pub got: Option<u64>,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lockstep divergence at seq {} pc {:#x}: {} expected {:?}, got {:?}",
            self.arch_seq, self.core_pc, self.field, self.expected, self.got
        )
    }
}

/// A simulation that could not finish cleanly.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The watchdog saw no commit for `stalled_cycles` cycles: a core
    /// model bug (scheduling deadlock, lost wakeup, circular wait).
    Deadlock {
        /// Cycles since the last commit when the watchdog tripped.
        stalled_cycles: u64,
        /// Pipeline state at the trip.
        snapshot: Box<PipelineSnapshot>,
    },
    /// The cycle budget elapsed before the instruction budget was met and
    /// before the program halted. Previously this silently returned
    /// partial statistics indistinguishable from a clean finish.
    CycleCeiling {
        /// The ceiling that was hit.
        max_cycles: u64,
        /// Pipeline state at the ceiling.
        snapshot: Box<PipelineSnapshot>,
    },
    /// The committed stream diverged from the reference emulator.
    Divergence {
        /// What diverged, where.
        report: DivergenceReport,
        /// Pipeline state at the diverging commit.
        snapshot: Box<PipelineSnapshot>,
    },
    /// An internal structural invariant failed an audit.
    Invariant {
        /// Which invariant, and how it failed.
        description: String,
        /// Pipeline state at the failed audit.
        snapshot: Box<PipelineSnapshot>,
    },
    /// A `Ret` with an invalid target reached commit (its link value does
    /// not name a block), meaning wrong-path state leaked into the
    /// architectural stream.
    CorruptRet {
        /// PC of the committed `Ret`.
        pc: Pc,
        /// The invalid target value it consumed.
        target: u64,
        /// Pipeline state at the commit.
        snapshot: Box<PipelineSnapshot>,
    },
    /// The per-run watchdog fired: the run's wall-clock deadline passed
    /// before it finished. The sweep engine uses this to convert a hung run into a reportable
    /// degraded result instead of stalling the whole sweep.
    Deadline {
        /// Wall-clock time the run had consumed when the watchdog fired.
        wall: std::time::Duration,
        /// Pipeline state at the poll that observed the expiry.
        snapshot: Box<PipelineSnapshot>,
    },
}

impl SimError {
    /// The pipeline state captured when the simulation failed.
    pub fn snapshot(&self) -> &PipelineSnapshot {
        match self {
            SimError::Deadlock { snapshot, .. }
            | SimError::CycleCeiling { snapshot, .. }
            | SimError::Divergence { snapshot, .. }
            | SimError::Invariant { snapshot, .. }
            | SimError::CorruptRet { snapshot, .. }
            | SimError::Deadline { snapshot, .. } => snapshot,
        }
    }

    /// The statistics accumulated up to the failure (partial).
    pub fn partial_stats(&self) -> &SimStats {
        &self.snapshot().stats
    }

    /// Short machine-readable failure kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::CycleCeiling { .. } => "cycle-ceiling",
            SimError::Divergence { .. } => "divergence",
            SimError::Invariant { .. } => "invariant",
            SimError::CorruptRet { .. } => "corrupt-ret",
            SimError::Deadline { .. } => "deadline",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { stalled_cycles, snapshot } => {
                write!(f, "no commit for {stalled_cycles} cycles (deadlock); {snapshot}")
            }
            SimError::CycleCeiling { max_cycles, snapshot } => {
                write!(f, "cycle ceiling {max_cycles} hit before the run finished; {snapshot}")
            }
            SimError::Divergence { report, snapshot } => {
                write!(f, "{report}; {snapshot}")
            }
            SimError::Invariant { description, snapshot } => {
                write!(f, "invariant violated: {description}; {snapshot}")
            }
            SimError::CorruptRet { pc, target, snapshot } => {
                write!(
                    f,
                    "committed Ret at pc {pc:#x} with corrupt target {target}; {snapshot}"
                )
            }
            SimError::Deadline { wall, snapshot } => {
                write!(
                    f,
                    "wall-clock deadline exceeded after {:.3}s; {snapshot}",
                    wall.as_secs_f64()
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> Box<PipelineSnapshot> {
        Box::new(PipelineSnapshot {
            cycle: 100,
            last_commit_cycle: 40,
            stats: SimStats { committed: 7, ..SimStats::default() },
            rob_len: 2,
            rob_head_token: 5,
            head: Some(HeadUop {
                token: 5,
                arch_seq: 7,
                pc: 0x40,
                class: ExecClass::Load,
                issued: true,
                completed: false,
            }),
            unissued: 1,
            lq_count: 1,
            sq_tokens: vec![6],
            sb_pending: 0,
            cursor: Some((BlockId(1), 0)),
        })
    }

    #[test]
    fn errors_carry_partial_stats_and_format() {
        let e = SimError::Deadlock { stalled_cycles: 60, snapshot: snapshot() };
        assert_eq!(e.partial_stats().committed, 7);
        assert_eq!(e.kind(), "deadlock");
        let msg = e.to_string();
        assert!(msg.contains("no commit for 60 cycles"), "{msg}");
        assert!(msg.contains("7 committed"), "{msg}");
    }

    #[test]
    fn divergence_report_formats_fields() {
        let r = DivergenceReport {
            arch_seq: 12,
            core_pc: 0x80,
            field: "dst-value",
            expected: Some(1),
            got: Some(2),
        };
        let e = SimError::Divergence { report: r, snapshot: snapshot() };
        assert_eq!(e.kind(), "divergence");
        assert!(e.to_string().contains("dst-value"));
    }
}
