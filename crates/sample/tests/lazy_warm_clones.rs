//! Allocation-count pin for the lazy warm-snapshot contract: clusters
//! that receive zero windows never pay a clone.
//!
//! A snapshot of the core's `phast_ooo::Structures` copies its
//! microarchitectural tables: the cache blocks a run touched, the
//! configured direction predictor and the indirect predictor. Next to a
//! window's simulation that copy is cheap, but a clone nothing replays
//! is still waste. The contract, pinned here through the process-global
//! `warm_state_clones()` counter of every snapshot capture and replay
//! take:
//!
//! * capture snapshots each placed window **once** (the state mutates
//!   continuously, so this is the floor) — pruning non-representatives
//!   afterwards *moves* snapshots, it never clones;
//! * replaying a clustered set clones once per **representative**, not
//!   once per interval.
//!
//! Everything lives in ONE `#[test]` so the monotonic counter's deltas
//! are not interleaved by the parallel test runner; the file is its own
//! integration binary, isolating it from the rest of the suite.

use phast_baselines::{StoreSets, StoreSetsConfig};
use phast_ooo::{CheckConfig, CoreConfig, Deadline};
use phast_sample::{capture, run_window_within, warm_state_clones, SampleConfig};

#[test]
fn clone_counts_scale_with_clusters_not_intervals() {
    let w = phast_workloads::by_name("mcf").expect("workload exists");
    let program = w.build(100_000);
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::off();
    let intervals = 6;
    let scfg = SampleConfig::new(intervals, 400, 300).phase(2);

    let before = warm_state_clones();
    let set = capture(&program, &cfg, &scfg, 12_000).expect("clean");
    let capture_clones = warm_state_clones() - before;
    assert_eq!(set.checkpoints.len(), intervals, "horizon places every interval");
    assert_eq!(
        capture_clones,
        intervals as u64,
        "capture snapshots each placed window exactly once; prune_warm moves, never clones"
    );

    let plan = set.clusters.as_ref().expect("phase capture clusters");
    let reps = set.windows_to_run();
    assert_eq!(reps.len(), plan.k);
    assert!(
        reps.len() < intervals,
        "the pin needs K < N to distinguish lazy from eager (K={}, N={intervals})",
        reps.len()
    );

    // Replay every representative window: one clone per replayed window,
    // none for the pruned intervals.
    let before = warm_state_clones();
    for &j in &reps {
        let mut p = StoreSets::new(StoreSetsConfig::paper());
        let run = run_window_within(&program, &cfg, &mut p, &set, j, &Deadline::none());
        assert!(run.failure.is_none(), "window {j} must not degrade");
    }
    assert_eq!(
        warm_state_clones() - before,
        reps.len() as u64,
        "replay clones scale with the cluster count, not the interval count"
    );
}
