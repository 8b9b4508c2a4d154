//! `phast-trace`: static dependence analysis and coverage-guided workload
//! synthesis.
//!
//! Two layers, stacked on the same `phast-isa` program model:
//!
//! 1. **Static dependence analysis** ([`deps`], [`predictor`]): a
//!    constant-propagation pass over the CFG computes the statically
//!    visible memory-carried dependence graph and summarizes it as a
//!    [`DepSignature`]. [`StaticDeps`] turns the edge set into a
//!    zero-storage baseline memory-dependence predictor — the "what does
//!    dynamic prediction buy over a compiler?" comparison point.
//! 2. **Synthesis** ([`synth`]): a seeded generator composes motif-library
//!    recipes and greedily selects the candidates whose signatures are
//!    farthest from the built-in corpus (and from each other), filling
//!    coverage gaps in dependence-signature space.
//!
//! Both are documented in `docs/TRACES.md`.

#![warn(missing_docs)]

pub mod deps;
pub mod predictor;
pub mod synth;

pub use deps::{analyze, signature, DepAnalysis, DepEdge, DepSignature};
pub use predictor::StaticDeps;
pub use synth::{synth_workloads, synthesize, MotifCall, Recipe, SynthPick, SYNTH_SEED};
