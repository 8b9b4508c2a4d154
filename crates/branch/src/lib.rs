//! Branch prediction and global-history infrastructure.
//!
//! Two consumers drive this crate's design:
//!
//! 1. The out-of-order core (`phast-ooo`) needs a conditional-direction
//!    predictor (the paper uses TAGE-SC-L; we provide TAGE plus the simpler
//!    historical predictors used in the paper's Fig. 1 trend study), an
//!    indirect-target predictor and a return-address stack.
//! 2. Memory dependence predictors need *context*: the global history of
//!    **divergent branches** (conditional + indirect, §III-B of the paper),
//!    where each event records the branch type, its taken/not-taken
//!    outcome, and the 5 least-significant bits of its actual destination.
//!    [`DivergentHistory`] is that register, with O(1) checkpoint/restore
//!    so the core can repair it on squashes, and [`Path`] is the per-use
//!    history string PHAST hashes (younger conditionals contribute their
//!    outcome bit, indirect branches their destination, and the oldest
//!    entry — the divergent branch *previous to the conflicting store* —
//!    always contributes its destination, the paper's N+1 rule).
//!    [`BranchHistory`] bundles it with both GHRs and the RAS behind one
//!    update rule, for the core's front end and sampled warming alike.

#![warn(missing_docs)]

mod direction;
mod history;
mod indirect;
mod ittage;
mod tage;

pub use direction::{
    Bimodal, Direction, DirectionConfig, DirectionPredictor, GShare, Perceptron, StaticTaken,
};
pub use history::{
    fold_bits, BranchCheckpoint, BranchHistory, DivergentEvent, DivergentHistory,
    HistoryCheckpoint, Path, PathFolder, HISTORY_CAPACITY, RAS_DEPTH,
};
pub use indirect::{LastTargetPredictor, RasCheckpoint, ReturnAddressStack};
pub use ittage::{Ittage, IttageConfig};
pub use tage::{Tage, TageConfig};
