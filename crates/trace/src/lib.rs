//! `phast-trace`: trace ingestion, static dependence analysis and
//! coverage-guided workload synthesis.
//!
//! Three layers, stacked on the same `phast-isa` program model:
//!
//! 1. **Traces** ([`codec`], [`record`], [`workload`]): the compact
//!    versioned `PHTR` binary format records the reference emulator's
//!    retirement stream together with the exact program that produced
//!    it. A decoded trace passes lockstep verification against a fresh
//!    emulator run and, via [`trace_workload`], drives every simulation
//!    path (serial, parallel, sampling, the daemon) as just
//!    another workload — byte-identical to the direct run.
//! 2. **Static dependence analysis** ([`deps`], [`predictor`]): a
//!    constant-propagation pass over the CFG computes the statically
//!    visible memory-carried dependence graph and summarizes it as a
//!    [`DepSignature`]. [`StaticDeps`] turns the edge set into a
//!    zero-storage baseline memory-dependence predictor — the "what does
//!    dynamic prediction buy over a compiler?" comparison point.
//! 3. **Synthesis** ([`synth`]): a seeded generator composes motif-library
//!    recipes and greedily selects the candidates whose signatures are
//!    farthest from the built-in corpus (and from each other), filling
//!    coverage gaps in dependence-signature space.
//!
//! The byte format is documented in `docs/TRACES.md`.

#![warn(missing_docs)]

pub mod codec;
pub mod deps;
pub mod predictor;
pub mod record;
pub mod synth;
pub mod workload;

pub use codec::{
    decode_program, encode_program, program_bytes, Trace, TraceKind, TraceRecord, TRACE_MAGIC,
    TRACE_VERSION,
};
pub use deps::{analyze, signature, DepAnalysis, DepEdge, DepSignature};
pub use predictor::StaticDeps;
pub use record::{record_trace, verify_lockstep, LockstepError};
pub use synth::{synth_workloads, synthesize, MotifCall, Recipe, SynthPick, SYNTH_SEED};
pub use workload::trace_workload;
