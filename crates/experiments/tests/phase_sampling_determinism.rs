//! Golden contract for phase-mode sampling in the sweep engine
//! (`docs/SAMPLING.md` §v2).
//!
//! `SampleConfig::phase(1)` is the degenerate phase plan: every interval
//! lands in one cluster and exactly one representative window replays,
//! weighted by the interval count. That single-window estimate must be
//! **identical to the bit** across the serial and parallel execution
//! paths.

use phast_experiments::harness::{Budget, RunResult, Sweep};
use phast_experiments::{PredictorKind, SampleConfig, SampleMode};
use phast_ooo::CoreConfig;

fn budget() -> Budget {
    Budget { insts: 8_000, workload_iters: 50_000, max_workloads: Some(3), extra_workloads: Vec::new() }
}

fn assert_identical(a: &RunResult, b: &RunResult, path: &str) {
    let pair = format!("{} × {} ({path})", a.workload, a.predictor);
    assert_eq!(a.workload, b.workload, "{pair}");
    assert_eq!(a.predictor, b.predictor, "{pair}");
    assert_eq!(a.stats.ipc().to_bits(), b.stats.ipc().to_bits(), "IPC differs for {pair}");
    assert_eq!(a.stats.cycles, b.stats.cycles, "cycles differ for {pair}");
    assert_eq!(a.stats.committed, b.stats.committed, "committed differs for {pair}");
    assert_eq!(a.ok(), b.ok(), "failure status differs for {pair}");
    let (ma, mb) = (a.sampling.as_ref().unwrap(), b.sampling.as_ref().unwrap());
    assert_eq!(ma.mode, mb.mode, "{pair}");
    assert_eq!(ma.cluster_weights, mb.cluster_weights, "{pair}");
    assert_eq!(ma.cluster_representatives, mb.cluster_representatives, "{pair}");
    assert_eq!(ma.measured_insts, mb.measured_insts, "{pair}");
    assert_eq!(ma.ipc_ci_half.to_bits(), mb.ipc_ci_half.to_bits(), "{pair}");
}

#[test]
fn clusters_one_is_a_single_window_estimate_identical_on_every_path() {
    let budget = budget();
    let intervals = 4usize;
    let scfg = SampleConfig::new(intervals, 800, 500).phase(1);
    assert_eq!(scfg.mode, SampleMode::Phase);
    let cfg = CoreConfig::alder_lake();
    let kinds = [PredictorKind::StoreSets, PredictorKind::Phast];

    let run = |sweep: &Sweep| sweep.run_grid(&kinds, &cfg, &budget);
    let serial = run(&Sweep::serial().with_sampling(scfg));
    let parallel = run(&Sweep::with_workers(4).with_sampling(scfg));

    for rows in [&serial, &parallel] {
        for row in rows.iter() {
            for cell in row {
                let meta = cell.sampling.as_ref().expect("sampled cell carries metadata");
                assert_eq!(meta.mode, "phase");
                assert_eq!(meta.windows, 1, "K=1 replays exactly one window");
                assert_eq!(meta.cluster_weights, vec![intervals as u64]);
                assert_eq!(meta.cluster_representatives.len(), 1);
                assert!(
                    meta.cluster_representatives[0] < intervals as u64,
                    "representative indexes a captured interval"
                );
                assert!(cell.stats.ipc() > 0.0, "estimate measured something");
            }
        }
    }

    assert_eq!(serial.len(), parallel.len());
    for (srow, prow) in serial.iter().zip(&parallel) {
        for (a, b) in srow.iter().zip(prow) {
            assert_identical(a, b, "serial vs parallel");
        }
    }
}

/// Stride mode through the same engine is untouched by the v2 machinery:
/// every interval replays with weight 1 and the metadata records stride
/// spelling with empty cluster arrays — the v1 artifact contract.
#[test]
fn stride_mode_metadata_is_v1_shaped() {
    let budget = budget();
    let scfg = SampleConfig::new(3, 800, 500);
    assert_eq!(scfg.mode, SampleMode::Stride);
    let cfg = CoreConfig::alder_lake();
    let kinds = [PredictorKind::StoreSets];
    let rows = Sweep::with_workers(2).with_sampling(scfg).run_grid(&kinds, &cfg, &budget);
    for cell in rows.iter().flatten() {
        let meta = cell.sampling.as_ref().expect("sampled cell carries metadata");
        assert_eq!(meta.mode, "stride");
        assert_eq!(meta.windows, 3, "every stride window replays");
        assert!(meta.cluster_weights.is_empty());
        assert!(meta.cluster_representatives.is_empty());
    }
}
