//! Sampled simulation: functional fast-forward, microarchitectural
//! warming, and checkpointed detailed windows.
//!
//! Full-detail sweeps pay cycle-accurate cost for every instruction even
//! though most of a run is steady state. This crate implements the
//! standard answer — statistical sampling with functional warming: divide
//! the horizon into equal strides, fast-forward functionally between
//! windows while keeping long-lived structures warm, and measure only a
//! short detailed window per stride through the `phast-ooo` core. The
//! per-window results aggregate into an IPC/MPKI point estimate with a
//! confidence interval ([`SampleEstimate`]).
//!
//! * [`capture`] makes one functional pass and emits an in-memory
//!   [`CheckpointSet`]: per window, the architectural snapshot and warmed
//!   context at the warm start, and the warmed caches and branch
//!   predictors at the detailed start.
//! * [`run_window_within`] replays one window independently: restore →
//!   train the MDP over the warm phase → boot the core via
//!   `phast_ooo::BootState` from the captured structures → run the
//!   detailed window under a deadline. It reads the set by shared
//!   reference, so every (predictor) cell of a workload replays from one
//!   capture; `phast-experiments` runs a cell's windows in order on one
//!   worker, as one sweep cell, which is the one path from capture to
//!   estimate.
//! * [`estimate`] turns window runs into the point estimate and
//!   instruction accounting (measured vs warmed vs fast-forwarded).
//!
//! Methodology, warming rules and the documented error bound live in
//! `docs/SAMPLING.md`.

#![warn(missing_docs)]

mod checkpoint;
mod crc;
mod engine;
mod features;
mod kmeans;
mod warm;

pub use checkpoint::{Checkpoint, CheckpointSet, StoreRec, WarmContext};
pub use crc::crc32;
pub use engine::{
    capture, default_clusters_for, estimate, ipc_error_bound, run_window_within,
    sum_window_stats_weighted, SampleConfig, SampleEstimate, SampleMode, WindowRun, CLUSTER_SEED,
};
pub use features::{FeatureCollector, FeatureVec, FEATURE_DIM};
pub use kmeans::{cluster, ClusterPlan};
pub use warm::warm_state_clones;
