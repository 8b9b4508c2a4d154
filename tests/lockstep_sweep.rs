//! Acceptance sweep: every workload of the suite, under each headline
//! predictor plus blind speculation, must pass lockstep co-simulation and
//! invariant auditing at the quick budget. This is the end-to-end proof
//! that the pipeline commits the architecturally correct stream on real
//! programs, not just on the random-program fuzzers.

use phast_experiments::harness::Budget;
use phast_experiments::PredictorKind;
use phast_ooo::{try_simulate_within, CheckConfig, CoreConfig, Deadline};

#[test]
fn all_workloads_pass_lockstep_under_every_headline_predictor() {
    let kinds = [
        PredictorKind::Phast,
        PredictorKind::StoreSets,
        PredictorKind::NoSq,
        PredictorKind::MdpTage,
        PredictorKind::Blind,
    ];
    // Quick-budget per-run effort, but the full 23-workload suite.
    let budget = Budget { max_workloads: None, ..Budget::quick() };

    let mut failures = Vec::new();
    for w in budget.workloads() {
        let program = w.build(budget.workload_iters);
        for kind in &kinds {
            let mut cfg = CoreConfig::alder_lake();
            cfg.check = CheckConfig::full();
            cfg.train_point = kind.train_point();
            let mut predictor = kind.build(&program, budget.insts);
            let none = Deadline::none();
            match try_simulate_within(&program, &cfg, predictor.as_mut(), budget.insts, &none) {
                Ok(stats) => {
                    assert_eq!(
                        stats.checked_commits,
                        stats.committed,
                        "{} × {}: unchecked commits",
                        w.name,
                        kind.label()
                    );
                    assert!(stats.invariant_audits > 0, "audits must have fired");
                }
                Err(e) => failures.push(format!("{} × {}: {e}", w.name, kind.label())),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} runs failed lockstep:\n{}",
        failures.len(),
        23 * kinds.len(),
        failures.join("\n")
    );
}
