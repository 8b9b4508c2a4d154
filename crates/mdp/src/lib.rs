//! Memory dependence prediction (MDP) framework.
//!
//! Defines the [`MemDepPredictor`] interface that the out-of-order core in
//! `phast-ooo` drives, the query/training context types, reference
//! predictors (the *ideal* oracle, blind speculation, and total ordering),
//! and shared building blocks (the set-associative prediction table and the
//! paper's PC hashes) reused by PHAST and the baselines.
//!
//! # Predictor lifecycle (one load)
//!
//! 1. At dispatch the core calls [`MemDepPredictor::predict_load`] with the
//!    decode-time divergent-branch history. The predictor answers with a
//!    [`DepPrediction`]: no dependence, a *store distance* (number of
//!    stores older than the load but younger than the conflicting store),
//!    a concrete store token (Store Sets), or "wait for all older stores".
//! 2. Stores call [`MemDepPredictor::store_dispatched`]; Store Sets uses
//!    this to serialize stores of a set and to update its LFST.
//! 3. When a memory-order violation is confirmed, the core calls
//!    [`MemDepPredictor::train_violation`] with the store distance and the
//!    store→load path information (history length N+1, §IV-A2).
//! 4. When a load commits, [`MemDepPredictor::load_committed`] lets the
//!    predictor maintain its confidence counters.

#![warn(missing_docs)]

mod oracle;
mod simple;
mod table;
mod types;

use phast_isa::Pc;

pub use oracle::{oracle_builds, DepOracle, MultiStoreStats, OraclePredictor};
pub use simple::{BlindSpeculation, TotalOrder};
pub use table::{AssocTable, TableGeometry};
pub use types::{
    pc_index_hash, pc_tag_hash, AccessStats, DepPrediction, LoadCommit, LoadQuery,
    PredictionOutcome, StoreQuery, Violation, MAX_STORE_DISTANCE,
};

/// A memory dependence predictor, as driven by the out-of-order core.
///
/// `Send` is a supertrait: the sweep engine in `phast-experiments` moves
/// simulator cores (and their predictors) across worker threads, so every
/// predictor must be free of `Rc`/non-`Send` interior state.
pub trait MemDepPredictor: Send {
    /// A short, unique, human-readable name (appears in experiment output).
    ///
    /// Returns a borrowed string so hot callers (per-run logging, stat
    /// labelling) do not allocate; implementations with config-dependent
    /// names cache the formatted name at construction time.
    fn name(&self) -> &str;

    /// Predicts whether the load dispatching now depends on an older
    /// in-flight store.
    fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome;

    /// Notifies the predictor that a store has dispatched. May return the
    /// token of an older store this store must wait for (Store Sets
    /// serializes the stores of a set through its LFST).
    fn store_dispatched(&mut self, _q: &StoreQuery<'_>) -> Option<u64> {
        None
    }

    /// Notifies the predictor that a store has executed (resolved its
    /// address and data). Store Sets invalidates its LFST entry here so
    /// later loads do not wait on an already-executed store.
    fn store_executed(&mut self, _pc: Pc, _token: u64) {}

    /// Trains the predictor on a confirmed memory-order violation.
    fn train_violation(&mut self, v: &Violation<'_>);

    /// Updates confidence state when a load commits.
    fn load_committed(&mut self, _c: &LoadCommit<'_>) {}

    /// Storage budget in bits (0 for unlimited/oracle predictors).
    fn storage_bits(&self) -> usize;

    /// Read/write access counters for the energy model.
    fn access_stats(&self) -> AccessStats;

    /// Number of distinct paths currently tracked. Meaningful for the
    /// unlimited predictors of the paper's Fig. 6b/9; table-based
    /// predictors report 0.
    fn num_paths(&self) -> u64 {
        0
    }

    /// Clears transient per-interval statistics (not learned state).
    fn reset_access_stats(&mut self) {}
}

/// Functional warming of a predictor's training state, used by the sampled
/// simulation engine (`phast-sample`) before each detailed window.
///
/// During fast-forward there is no pipeline, so the warming pass replays
/// the same training calls the core would issue — predict on every load,
/// dispatch/execute every store, train on every real (in-ROB-range)
/// store→load dependence the prediction did not cover — against the
/// architectural instruction stream. The blanket impl forwards to the
/// ordinary [`MemDepPredictor`] entry points, so all predictors warm with
/// no per-predictor code.
pub trait Warmable {
    /// Warms on a load: the prediction the predictor just made for this
    /// load plus the architecturally observed dependence outcome.
    fn warm_load(&mut self, c: &LoadCommit<'_>);

    /// Warms on an uncovered store→load dependence (what the core would
    /// have seen as a memory-order violation).
    fn warm_violation(&mut self, v: &Violation<'_>);

    /// Warms on a store: architecturally a store dispatches and executes
    /// at the same point, so both notifications fire back to back.
    fn warm_store(&mut self, q: &StoreQuery<'_>);
}

impl<T: MemDepPredictor + ?Sized> Warmable for T {
    fn warm_load(&mut self, c: &LoadCommit<'_>) {
        self.load_committed(c);
    }

    fn warm_violation(&mut self, v: &Violation<'_>) {
        self.train_violation(v);
    }

    fn warm_store(&mut self, q: &StoreQuery<'_>) {
        let (pc, token) = (q.pc, q.token);
        let _ = self.store_dispatched(q);
        self.store_executed(pc, token);
    }
}
