//! End-to-end synthesis pipeline acceptance: the coverage-guided
//! synthesized workloads run clean through a quick sweep and rebuild
//! identically from the same master seed.

use phast_experiments::harness::Budget;
use phast_experiments::{PredictorKind, Sweep};
use phast_ooo::CoreConfig;
use phast_trace::{synth_workloads, SYNTH_SEED};

#[test]
fn synthesized_workloads_run_clean_through_a_quick_sweep() {
    let synth = synth_workloads(8, SYNTH_SEED);
    assert_eq!(synth.len(), 8);
    let budget = Budget {
        insts: 4_000,
        workload_iters: 20_000,
        max_workloads: Some(0),
        extra_workloads: synth,
    };
    let sweep = Sweep::parallel();
    let runs = sweep.run_all(&PredictorKind::StoreSets, &CoreConfig::alder_lake(), &budget);
    assert_eq!(runs.len(), 8);
    for (i, r) in runs.iter().enumerate() {
        assert_eq!(r.workload, format!("synth_{i:02}"));
        assert!(r.ok(), "{} degraded: {:?}", r.workload, r.failure);
        assert!(r.stats.committed >= 4_000, "{} committed {}", r.workload, r.stats.committed);
        assert!(r.workload_signature.starts_with("phtr:"));
    }
    assert!(sweep.take_degraded().is_empty());

    // Same master seed, same workload set: the signatures (and therefore
    // the artifact rows) are reproducible across processes.
    let again = synth_workloads(8, SYNTH_SEED);
    for (a, b) in budget.extra_workloads.iter().zip(&again) {
        assert_eq!(a.name, b.name);
        assert!(a.build(20_000) == b.build(20_000), "{} rebuilds identically", a.name);
    }
}
