//! Checkpoints: in-memory architectural + warmed-state snapshots.
//!
//! A [`Checkpoint`] pins one detailed window: the architectural state at
//! the start of that window's *warm* phase plus the [`WarmContext`] — the
//! cheap, continuously-maintained speculation context (the core's
//! [`BranchHistory`] and the sliding store window) that reflects the
//! entire execution preceding the window. A [`CheckpointSet`] holds every
//! window of one capture pass ([`capture`](crate::capture)), so a sweep
//! captures a workload once and replays its windows for every predictor
//! without re-executing the fast-forward prefix. The set lives only in memory:
//! capture produces it and window replay consumes it.
//!
//! Alongside each checkpoint the set holds a snapshot of the core's
//! expensive [`Structures`] (cache tags, the configured direction
//! predictor's and the indirect predictor's tables), warmed continuously
//! by the capture pass and taken at the window's *detailed* start
//! ([`CheckpointSet::warm`]), so replay
//! never re-steps them. MDP training state is predictor-specific and is
//! warmed per window over the warm phase (see `docs/SAMPLING.md` for the
//! warming rules).

use crate::kmeans::ClusterPlan;
use phast_branch::BranchHistory;
use phast_isa::{EmuSnapshot, Pc};
use phast_ooo::Structures;
use std::collections::VecDeque;

/// One architecturally retired store remembered by the sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreRec {
    /// Dynamic instruction number of the store.
    pub seq: u64,
    /// Program counter of the store.
    pub pc: Pc,
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// Divergent-branch counter at the store (for §IV-A2 history lengths).
    pub div_count: u64,
}

/// The cheap warming context maintained continuously during fast-forward.
///
/// Everything here is O(1) per instruction to maintain, so the capture
/// pass keeps it live across the whole horizon; at each checkpoint it is
/// cloned into the [`Checkpoint`]. The branch history is the core's own
/// type, updated by the same rule, so a core booted from this context
/// sees the history it would have built itself.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmContext {
    /// Both GHRs, the divergent-branch history ring and the RAS.
    pub history: BranchHistory,
    /// Sliding window of the youngest retired stores (newest at the back),
    /// bounded by `store_window`.
    pub stores: VecDeque<StoreRec>,
    /// Window bound: the store-queue capacity of the modelled core.
    pub store_window: usize,
}

impl WarmContext {
    /// Creates an empty context for a core with `store_window` SQ entries.
    pub fn new(store_window: usize) -> WarmContext {
        WarmContext {
            history: BranchHistory::default(),
            stores: VecDeque::with_capacity(store_window),
            store_window,
        }
    }
}

/// One window's checkpoint: where to resume and with what state.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Instruction count at which the detailed window begins; the gap
    /// between `arch.icount` and this is the window's warm phase.
    pub detail_start: u64,
    /// Architectural state at the start of the warm phase.
    pub arch: EmuSnapshot,
    /// Warming context at the start of the warm phase.
    pub ctx: WarmContext,
}

/// Every checkpoint of one (program, sampling-config) capture pass.
#[derive(Clone)]
pub struct CheckpointSet {
    /// Total instruction horizon the capture covered.
    pub horizon: u64,
    /// Warm-phase length per window, in instructions.
    pub warm_insts: u64,
    /// Detailed-window length, in instructions.
    pub window_insts: u64,
    /// The windows, in program order.
    pub checkpoints: Vec<Checkpoint>,
    /// The clustering of the intervals' feature vectors (phase mode):
    /// which windows are representatives, and with what weight.
    /// `None` for stride-mode sets — every window replays with weight 1.
    pub clusters: Option<ClusterPlan>,
    /// Per-checkpoint snapshots of the continuously warmed structures at
    /// the window's detailed start, parallel to `checkpoints`. `None`
    /// slots are windows that will never replay (non-representative
    /// intervals of a clustered set, pruned after clustering so idle
    /// clusters never hold a snapshot) or whose program halted before
    /// the detailed start.
    pub warm: Vec<Option<Structures>>,
}

impl std::fmt::Debug for CheckpointSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSet")
            .field("horizon", &self.horizon)
            .field("warm_insts", &self.warm_insts)
            .field("window_insts", &self.window_insts)
            .field("checkpoints", &self.checkpoints)
            .field("clusters", &self.clusters)
            .field(
                "warm",
                &format_args!(
                    "[{}/{} snapshots]",
                    self.warm.iter().filter(|w| w.is_some()).count(),
                    self.warm.len()
                ),
            )
            .finish()
    }
}

impl CheckpointSet {
    /// The window indices a replay actually runs: the cluster
    /// representatives of a clustered (phase-mode) set, or every window
    /// of a stride-mode set.
    pub fn windows_to_run(&self) -> Vec<usize> {
        match &self.clusters {
            Some(plan) => plan.representatives.iter().map(|&r| r as usize).collect(),
            None => (0..self.checkpoints.len()).collect(),
        }
    }

    /// Estimator weight per replayed window, parallel to
    /// [`windows_to_run`](Self::windows_to_run): the cluster's member
    /// count for a clustered set, 1 for every stride-mode window.
    pub fn run_weights(&self) -> Vec<u64> {
        match &self.clusters {
            Some(plan) => plan.weights.clone(),
            None => vec![1; self.checkpoints.len()],
        }
    }
}
