//! Fault-injection recovery tests: every [`FaultPlan`] scenario corrupts
//! speculative state only (predictions, training, squash decisions), so a
//! correct core must recover — the run completes, every commit passes the
//! lockstep cross-check, and the fault counter proves the scenario really
//! exercised the recovery path.
//!
//! Also covers the harness's graceful degradation: a poisoned run is
//! recorded with partial statistics instead of aborting, and the remaining
//! (workload, predictor) pairs still complete.

use phast_experiments::harness::{Budget, Sweep};
use phast_experiments::PredictorKind;
use phast_ooo::{try_simulate_within, CheckConfig, CoreConfig, Deadline, FaultPlan};

const INSTS: u64 = 20_000;
const ITERS: u64 = 100_000;

/// Runs `workload` under `kind` with the given fault plan and full
/// checking; panics with the scenario name on any integrity failure.
/// `expect_fired` additionally requires the plan to have injected at least
/// one fault, guarding against a vacuous pass.
fn assert_recovers(
    workload: &str,
    kind: &PredictorKind,
    scenario: &str,
    plan: FaultPlan,
    expect_fired: bool,
) {
    let w = phast_workloads::by_name(workload).expect("workload exists");
    let program = w.build(ITERS);
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::with_faults(plan);
    cfg.train_point = kind.train_point();
    let mut predictor = kind.build(&program, INSTS);
    let stats = try_simulate_within(&program, &cfg, predictor.as_mut(), INSTS, &Deadline::none())
        .unwrap_or_else(|e| {
            panic!("{workload} × {} did not recover from '{scenario}': {e}", kind.label())
        });
    assert_eq!(
        stats.checked_commits, stats.committed,
        "{workload} × {} under '{scenario}': every commit must be cross-checked",
        kind.label()
    );
    if expect_fired {
        assert!(
            stats.injected_faults > 0,
            "{workload} × {} under '{scenario}': the plan never fired, the test is vacuous",
            kind.label()
        );
    }
}

#[test]
fn every_fault_scenario_recovers_under_phast() {
    for (name, plan) in FaultPlan::scenarios(0xfa57) {
        assert_recovers("exchange2", &PredictorKind::Phast, name, plan, true);
    }
}

#[test]
fn every_fault_scenario_recovers_under_store_sets() {
    for (name, plan) in FaultPlan::scenarios(0xbeef) {
        // Store Sets predicts concrete store tokens, never distances, so
        // the flip-distance fault has nothing to corrupt for this kind.
        let fires = name != "flip-distance";
        assert_recovers("leela", &PredictorKind::StoreSets, name, plan, fires);
    }
}

#[test]
fn every_fault_scenario_recovers_under_mdp_tage() {
    for (name, plan) in FaultPlan::scenarios(0x7a6e) {
        assert_recovers("gcc_1", &PredictorKind::MdpTage, name, plan, true);
    }
}

#[test]
fn every_fault_scenario_recovers_under_nosq() {
    for (name, plan) in FaultPlan::scenarios(0x0509) {
        assert_recovers("gcc_1", &PredictorKind::NoSq, name, plan, true);
    }
}

#[test]
fn fault_sequences_are_reproducible() {
    let (name, plan) = FaultPlan::scenarios(7)[4]; // combined
    let run = || {
        let w = phast_workloads::by_name("gcc_1").expect("workload exists");
        let program = w.build(ITERS);
        let mut cfg = CoreConfig::alder_lake();
        cfg.check = CheckConfig::with_faults(plan);
        cfg.train_point = PredictorKind::Phast.train_point();
        let mut predictor = PredictorKind::Phast.build(&program, INSTS);
        try_simulate_within(&program, &cfg, predictor.as_mut(), INSTS, &Deadline::none())
            .unwrap_or_else(|e| panic!("'{name}' did not recover: {e}"))
    };
    let a = run();
    let b = run();
    assert!(a.injected_faults > 0);
    assert_eq!(a.injected_faults, b.injected_faults, "same seed, same fault sequence");
    assert_eq!(a.cycles, b.cycles, "same seed, same timing");
}

/// One poisoned run must degrade gracefully — recorded with partial stats —
/// while the rest of the sweep completes untouched. The degraded-run
/// registry is scoped to the [`Sweep`], so parallel tests (or concurrent
/// sweeps) cannot steal each other's reports.
#[test]
fn harness_degrades_gracefully_and_the_sweep_continues() {
    let budget = Budget { insts: 5_000, workload_iters: 50_000, max_workloads: None, extra_workloads: Vec::new() };
    let w = phast_workloads::by_name("exchange2").expect("workload exists");
    let sweep = Sweep::serial();

    // Poison: a deadlock threshold shorter than the pipeline's fill latency
    // guarantees a Deadlock error before the first commit.
    let mut poisoned = CoreConfig::alder_lake();
    poisoned.deadlock_cycles = 2;
    let bad = sweep.run_one(&w, &PredictorKind::Blind, &poisoned, &budget);
    assert!(!bad.ok(), "poisoned run must fail");
    assert_eq!(bad.failure.as_ref().map(|e| e.kind()), Some("deadlock"));
    assert!(bad.stats.committed < 5_000, "statistics are partial, not fabricated");

    // The failure is in the registry exactly once, naming the pair — and
    // only in this sweep's registry, not in any other sweep's.
    let other_sweep = Sweep::serial();
    assert!(other_sweep.take_degraded().is_empty(), "registries are per-sweep");
    let degraded = sweep.take_degraded();
    assert_eq!(degraded.len(), 1);
    assert!(degraded[0].contains("exchange2"), "entry names the workload: {}", degraded[0]);

    // The sweep continues: the same pair with a sane config still works,
    // and leaves the registry empty.
    let good = sweep.run_one(&w, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
    assert!(good.ok());
    assert!(good.stats.committed >= 5_000);
    assert!(sweep.take_degraded().is_empty());
}
