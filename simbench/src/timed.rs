//! A forwarding predictor timer: wraps any [`MemDepPredictor`] and keeps
//! per-method call counts and host nanoseconds instead of per-call spans,
//! so tracing a cell costs two clock reads per predictor call and no
//! allocation.
//!
//! Every trait method forwards to the wrapped predictor, including the
//! ones with default bodies, so a wrapped run takes exactly the decisions
//! a bare run takes. Warm-up goes through `phast_mdp::Warmable`'s blanket
//! impl, which calls the same trait methods, so warming is timed and
//! forwarded as well.

use phast_isa::Pc;
use phast_mdp::{
    AccessStats, LoadCommit, LoadQuery, MemDepPredictor, PredictionOutcome, StoreQuery, Violation,
};
use std::time::Instant;

/// Calls and host nanoseconds spent in one group of predictor methods.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside the wrapped predictor.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Per-method-group accounting of one wrapped predictor.
///
/// * `predict`: `predict_load`;
/// * `train`: `train_violation` and `load_committed` (confidence update);
/// * `other`: store notifications, access-stat and bookkeeping calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct PredLedger {
    /// Prediction calls.
    pub predict: Tally,
    /// Training calls.
    pub train: Tally,
    /// Everything else the core calls.
    pub other: Tally,
}

impl PredLedger {
    /// Host nanoseconds across all method groups.
    pub fn total_ns(&self) -> u64 {
        self.predict.ns + self.train.ns + self.other.ns
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &PredLedger) {
        self.predict.merge(other.predict);
        self.train.merge(other.train);
        self.other.merge(other.other);
    }
}

/// Host nanoseconds one timed call adds: a clock read before the call
/// and one after it, measured over many iterations on this host.
pub fn clock_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut sink = Tally::default();
    let t = Instant::now();
    for _ in 0..N {
        sink.add(std::hint::black_box(Instant::now()));
    }
    std::hint::black_box(sink);
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// A predictor wrapped in the forwarding timer.
pub struct Timed {
    inner: Box<dyn MemDepPredictor>,
    /// What the wrapped predictor has cost so far.
    pub ledger: PredLedger,
}

impl Timed {
    /// Wraps `inner` with a zeroed ledger.
    pub fn new(inner: Box<dyn MemDepPredictor>) -> Timed {
        Timed {
            inner,
            ledger: PredLedger::default(),
        }
    }
}

impl MemDepPredictor for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome {
        let t = Instant::now();
        let out = self.inner.predict_load(q);
        self.ledger.predict.add(t);
        out
    }

    fn store_dispatched(&mut self, q: &StoreQuery<'_>) -> Option<u64> {
        let t = Instant::now();
        let out = self.inner.store_dispatched(q);
        self.ledger.other.add(t);
        out
    }

    fn store_executed(&mut self, pc: Pc, token: u64) {
        let t = Instant::now();
        self.inner.store_executed(pc, token);
        self.ledger.other.add(t);
    }

    fn train_violation(&mut self, v: &Violation<'_>) {
        let t = Instant::now();
        self.inner.train_violation(v);
        self.ledger.train.add(t);
    }

    fn load_committed(&mut self, c: &LoadCommit<'_>) {
        let t = Instant::now();
        self.inner.load_committed(c);
        self.ledger.train.add(t);
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn access_stats(&self) -> AccessStats {
        self.inner.access_stats()
    }

    fn num_paths(&self) -> u64 {
        self.inner.num_paths()
    }

    fn reset_access_stats(&mut self) {
        let t = Instant::now();
        self.inner.reset_access_stats();
        self.ledger.other.add(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{core_for, kinds};
    use phast_experiments::Budget;
    use phast_ooo::{try_simulate_within, CoreConfig, Deadline};
    use phast_sample::{capture, run_window_within, SampleConfig};

    #[test]
    fn wrapped_full_detail_runs_match_bare_runs() {
        let budget = Budget::quick();
        for w in budget.workloads() {
            let program = w.build(budget.workload_iters);
            for kind in kinds() {
                let cfg = core_for(&kind);
                let mut bare = kind.build(&program, budget.insts);
                let want = try_simulate_within(
                    &program,
                    &cfg,
                    bare.as_mut(),
                    budget.insts,
                    &Deadline::none(),
                )
                .expect("bare run is clean");
                let mut timed = Timed::new(kind.build(&program, budget.insts));
                let got = try_simulate_within(
                    &program,
                    &cfg,
                    &mut timed,
                    budget.insts,
                    &Deadline::none(),
                )
                .expect("wrapped run is clean");
                assert_eq!(
                    format!("{want:?}"),
                    format!("{got:?}"),
                    "{} × {}",
                    w.name,
                    kind.label()
                );
                assert!(
                    timed.ledger.predict.calls > 0,
                    "{} × {}",
                    w.name,
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn wrapped_sampled_windows_match_bare_windows() {
        let budget = Budget::quick();
        let scfg = SampleConfig::new(3, 2_000, 1_000);
        for name in ["mcf", "lbm"] {
            let w = phast_workloads::by_name(name).expect("built-in workload");
            let program = w.build(budget.workload_iters);
            let set = capture(&program, &CoreConfig::alder_lake(), &scfg, budget.insts)
                .expect("workloads emulate cleanly");
            for kind in kinds() {
                let cfg = core_for(&kind);
                for j in set.windows_to_run() {
                    let mut bare = kind.build(&program, budget.insts);
                    let want = run_window_within(
                        &program,
                        &cfg,
                        bare.as_mut(),
                        &set,
                        j,
                        &Deadline::none(),
                    );
                    let mut timed = Timed::new(kind.build(&program, budget.insts));
                    let got =
                        run_window_within(&program, &cfg, &mut timed, &set, j, &Deadline::none());
                    assert_eq!(
                        format!("{want:?}"),
                        format!("{got:?}"),
                        "{name} × {} window {j}",
                        kind.label()
                    );
                    // The warm phase reaches the predictor only through the
                    // blanket `Warmable` impl, so training calls show that
                    // warming went through the wrapper.
                    assert!(
                        got.warmed > 0 && timed.ledger.train.calls > 0,
                        "{name} window {j}"
                    );
                }
            }
        }
    }
}
