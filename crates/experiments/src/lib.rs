//! Experiment harness reproducing every table and figure of the PHAST
//! paper's evaluation (see DESIGN.md §4 for the full index, and
//! docs/PIPELINE.md for an end-to-end walkthrough of the pipeline).
//!
//! Each `figN` module exposes a `run(&Sweep, &Budget)` function returning
//! a structured, `Display`able result; [`figures::run_experiment`] maps
//! experiment ids to these functions for the `phast-experiments` binary
//! and the tests.
//!
//! # Budgets and parallelism
//!
//! A [`Budget`] picks the tier — [`Budget::full`] for the paper numbers,
//! [`Budget::quick`] for smoke tests and CI, [`Budget::bench`] for the
//! daemon's `bench` tier and the tests — and a [`Sweep`] supplies the
//! engine: worker count ([`Sweep::parallel`] fans the run matrix across
//! `std::thread::available_parallelism()` threads), the sweep-scoped
//! degraded-run registry, and the run log behind the machine-readable
//! `BENCH_<id>.json` artifacts ([`artifact`]). Parallel and serial
//! sweeps produce byte-identical reports; see [`harness`] for the
//! determinism contract.
//!
//! Absolute numbers differ from the paper (our substrate is a synthetic
//! workload suite on a from-scratch simulator, not SPEC on the authors'
//! testbed); the *shape* — who wins, roughly by how much, where the
//! crossovers are — is the reproduction target. EXPERIMENTS.md records
//! paper-versus-measured for every artifact.

#![warn(missing_docs)]

/// `eprintln!` that drops a write error instead of panicking: a
/// diagnostic must not take down the sweep or daemon it reports on once
/// whatever read the process's stderr has gone.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

/// `println!` that drops a write error instead of panicking, the stdout
/// twin of [`diag!`]: a binary whose stdout reader has gone keeps its exit
/// code, and a sweep still writes its artifacts and journal.
#[macro_export]
macro_rules! report {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

pub mod ablations;
pub mod artifact;
pub mod cli;
pub mod figures;
pub mod harness;
pub mod journal;
pub mod jsonio;
pub mod pool;
pub mod predictors;
pub mod serve;
pub mod tablefmt;

pub use artifact::{ArtifactError, SamplingMeta, SweepArtifact};
pub use harness::{exit_code, geomean, Budget, RunFailure, RunResult, Sweep};
pub use journal::{CompletedRun, Journal, JournalError, JournalScope};
pub use phast_sample::{default_clusters_for, SampleConfig, SampleMode};
pub use predictors::PredictorKind;
