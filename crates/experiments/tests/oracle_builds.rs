//! Pins how many dependence oracles a sampled Fig. 15 grid builds.
//!
//! The ideal predictor's oracle covers a program's whole horizon, so a
//! sampled sweep builds it once per program and shares it across every
//! replayed window, and builds none when no ideal cell runs. The pin
//! reads the process-wide `oracle_builds()` counter.
//!
//! Everything lives in ONE `#[test]` so the monotonic counter's deltas
//! are not interleaved by the parallel test runner; the file is its own
//! integration binary, isolating it from the rest of the suite.

use phast_experiments::{figures, Budget, PredictorKind, SampleConfig, Sweep};
use phast_mdp::oracle_builds;
use phast_ooo::CoreConfig;

#[test]
fn sampled_grids_build_one_oracle_per_program() {
    let programs: Vec<_> = ["lbm", "xz"]
        .iter()
        .map(|n| phast_workloads::by_name(n).expect("built-in workload"))
        .collect();
    let budget = Budget {
        insts: 60_000,
        workload_iters: 300_000,
        max_workloads: Some(0),
        extra_workloads: programs.clone(),
    };
    let cfg = CoreConfig::alder_lake();
    let scfg = SampleConfig::new(6, 800, 400).phase(3);

    for sweep in [Sweep::serial(), Sweep::with_workers(2)] {
        let sweep = sweep.with_sampling(scfg);
        let before = oracle_builds();
        let results = figures::fig15::run(&sweep, &budget);
        let builds = oracle_builds() - before;
        assert!(sweep.take_degraded().is_empty(), "the grid runs clean");
        // Every row replays the same windows of a program's capture.
        let windows: usize = results.runs[0]
            .iter()
            .map(|r| r.sampling.as_ref().expect("sampled cell").windows)
            .sum();
        assert!(
            windows > programs.len(),
            "the pin needs more windows than programs to tell shared from per-window builds"
        );
        assert_eq!(builds, programs.len() as u64, "one oracle per program, shared by its windows");

        let before = oracle_builds();
        sweep.run_grid(&PredictorKind::headline(), &cfg, &budget);
        assert_eq!(oracle_builds() - before, 0, "no ideal cell, no oracle");
    }

    // The per-cell path shares one oracle across the cell's windows too.
    let before = oracle_builds();
    Sweep::serial().with_sampling(scfg).run_one(&programs[1], &PredictorKind::Ideal, &cfg, &budget);
    assert_eq!(oracle_builds() - before, 1, "one oracle for the cell's windows");
}
