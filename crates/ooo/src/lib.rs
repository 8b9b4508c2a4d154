//! Value-accurate cycle-level out-of-order core simulator.
//!
//! This crate is the timing substrate of the PHAST reproduction: an
//! out-of-order core with register renaming, speculative fetch down
//! predicted paths (wrong-path execution included), a load queue / store
//! queue with byte-accurate store-to-load forwarding, memory-order
//! violation detection with lazy (commit-time) squash, and pluggable
//! memory dependence predictors via [`phast_mdp::MemDepPredictor`].
//!
//! See [`CoreConfig`] for the Table I Alder-Lake-like configuration and
//! the older-generation presets used by the paper's Fig. 2, and
//! [`simulate`] for the one-call entry point.
//!
//! # Simulation integrity
//!
//! [`try_simulate`] is the fallible entry point: it returns a structured
//! [`SimError`] (with a [`PipelineSnapshot`] of the failing state) instead
//! of panicking or silently truncating. [`CheckConfig`] on
//! [`CoreConfig::check`] controls the integrity machinery — lockstep
//! co-simulation against the `phast-isa` reference emulator, periodic
//! structural-invariant audits, and seeded [`FaultPlan`] injection for
//! exercising the recovery paths. Checking defaults to on in debug builds
//! and off in release builds.
//!
//! # Examples
//!
//! ```
//! use phast_isa::{MemSize, ProgramBuilder, Reg};
//! use phast_mdp::BlindSpeculation;
//! use phast_ooo::{simulate, CoreConfig};
//!
//! let mut b = ProgramBuilder::new();
//! let loop_blk = b.block();
//! let exit = b.block();
//! b.at(loop_blk)
//!     .addi(Reg(1), Reg(1), 1)
//!     .branchi(phast_isa::CondKind::LtU, Reg(1), 100, loop_blk)
//!     .fallthrough(exit);
//! b.at(exit).halt();
//! b.set_entry(loop_blk);
//! let program = b.build().unwrap();
//!
//! let mut predictor = BlindSpeculation;
//! let stats = simulate(&program, &CoreConfig::alder_lake(), &mut predictor, 10_000);
//! assert!(stats.halted);
//! assert_eq!(stats.committed, 201);
//! ```

#![warn(missing_docs)]

mod check;
mod config;
mod core;
mod deadline;
mod error;
mod runner;
mod stats;

pub use crate::core::{BootState, CommitRecord, Core, IndirectPredictor};
pub use check::{CheckConfig, CommitChecker, FaultInjector, FaultPlan};
pub use config::{CoreConfig, IndirectPredictorKind, MemSquashPolicy, Ports, TrainPoint};
pub use deadline::{Deadline, DEADLINE_CHECK_INTERVAL};
pub use error::{DivergenceReport, HeadUop, PipelineSnapshot, SimError};
pub use runner::{simulate, try_simulate, try_simulate_with_direction, try_simulate_within};
pub use stats::SimStats;
