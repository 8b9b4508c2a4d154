//! Panic isolation, watchdog and retry contract of the sweep engine's
//! cell lifecycle, in full detail and sampled: a cell that panics or
//! hangs degrades *its own* cell — with kind `"panicked"` or `"deadline"`
//! in the registry — and every other cell of the grid still completes
//! with results identical to an undisturbed sweep. Every retry journals
//! its own write-ahead `start` line with its own fault reseed.

use phast_experiments::artifact::JsonValue;
use phast_experiments::{exit_code, jsonio, Budget, Journal, PredictorKind, SampleConfig, Sweep};
use phast_isa::{CondKind, ProgramBuilder, Reg};
use phast_ooo::{CheckConfig, CoreConfig, FaultPlan};
use phast_workloads::Workload;
use std::time::Duration;

fn budget() -> Budget {
    Budget { insts: 5_000, workload_iters: 30_000, max_workloads: Some(3), extra_workloads: Vec::new() }
}

/// The sampled sweeps' shape: three windows over the horizon.
fn sampling() -> SampleConfig {
    SampleConfig::new(3, 600, 400)
}

/// Loops `iters` times, then returns to a bogus block.
fn bad_ret(name: &'static str, iters: i64) -> Workload {
    Workload::dynamic(name.into(), "test".into(), move |_| {
        let mut b = ProgramBuilder::new();
        let (entry, body, tail) = (b.block(), b.block(), b.block());
        b.at(entry).li(Reg(1), iters).li(Reg(2), 999).fallthrough(body);
        let mut c = b.at(body);
        c.addi(Reg(1), Reg(1), -1).branchi(CondKind::Ne, Reg(1), 0, body).fallthrough(tail);
        b.at(tail).ret_via(Reg(2));
        b.set_entry(entry);
        b.build().expect("valid program")
    })
}

#[test]
fn panicking_cells_never_abort_the_sweep() {
    let kinds = [PredictorKind::Blind, PredictorKind::Ideal, PredictorKind::StoreSets];
    // `late_bad_ret` emulates cleanly through the 12k-instruction budget,
    // then returns to a bogus block inside the ideal oracle's look-ahead
    // margin: building the ideal predictor panics, while every other
    // predictor runs clean. `bad_ret` returns to its bogus block long
    // before the horizon, so the sampled capture pass itself panics and
    // every cell of that workload degrades.
    let cases = [
        (None, bad_ret("late_bad_ret", 10_000), vec![PredictorKind::Ideal]),
        (Some(sampling()), bad_ret("bad_ret", 100), kinds.to_vec()),
    ];
    for (sampling, bad, failing) in cases {
        let budget = Budget {
            insts: 12_000,
            workload_iters: 30_000,
            max_workloads: Some(2),
            extra_workloads: Vec::new(),
        };
        let with_sampling = |sweep: Sweep| match sampling {
            Some(scfg) => sweep.with_sampling(scfg),
            None => sweep,
        };
        let undisturbed =
            with_sampling(Sweep::serial()).run_grid(&kinds, &CoreConfig::alder_lake(), &budget);
        let budget = Budget { extra_workloads: vec![bad], ..budget };
        for workers in [1, 4] {
            let sweep = with_sampling(Sweep::with_workers(workers));
            let grid = sweep.run_grid(&kinds, &CoreConfig::alder_lake(), &budget);
            for ((kind, row), clean) in kinds.iter().zip(&grid).zip(&undisturbed) {
                assert_eq!(row.len(), 3, "every cell filled at {workers} workers");
                let (bad_cell, neighbours) = row.split_last().expect("the bad workload is last");
                if failing.contains(kind) {
                    let failure = bad_cell.failure.as_ref().expect("the build panics");
                    assert_eq!(failure.kind(), "panicked");
                    assert!(
                        failure.to_string().contains("workloads emulate cleanly"),
                        "payload survives: {failure}"
                    );
                } else {
                    let cell = &bad_cell.predictor;
                    assert!(bad_cell.ok(), "{cell} unaffected: {:?}", bad_cell.failure);
                }
                // Clean neighbours are identical to the undisturbed grid's.
                for (run, want) in neighbours.iter().zip(clean) {
                    let cell = format!("{} × {}, {workers} workers", run.workload, run.predictor);
                    assert!(run.ok(), "{cell} unaffected: {:?}", run.failure);
                    assert_eq!(format!("{:?}", run.stats), format!("{:?}", want.stats), "{cell}");
                }
            }
            let degraded = sweep.take_degraded();
            assert_eq!(degraded.len(), failing.len(), "only the bad workload's cells degrade");
            assert!(degraded.iter().all(|d| d.contains("panicked")), "{degraded:#?}");
        }
    }
}

#[test]
fn expired_watchdog_degrades_the_run_as_deadline() {
    let budget = budget();
    let workload = budget.workloads()[0];
    for sweep in [Sweep::serial(), Sweep::serial().with_sampling(sampling())] {
        let sweep = sweep.with_run_timeout(Duration::ZERO);
        let run =
            sweep.run_one(&workload, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
        let failure = run.failure.as_ref().expect("zero budget expires immediately");
        assert_eq!(failure.kind(), "deadline");
        assert_eq!(sweep.deadline_count(), 1, "watchdog expiry is counted");
        assert_eq!(sweep.take_degraded().len(), 1);
    }

    // The process-level taxonomy: deadline outranks plain degradation.
    assert_eq!(exit_code::for_outcome(true, true), exit_code::DEADLINE);
    assert_eq!(exit_code::for_outcome(true, false), exit_code::DEGRADED);
    assert_eq!(exit_code::for_outcome(false, false), exit_code::OK);
}

#[test]
fn retry_policy_caps_attempts_and_keeps_clean_runs_single_shot() {
    let budget = budget();
    let workload = budget.workloads()[0];
    for sampling in [None, Some(sampling())] {
        let sweep = |retries: u64| {
            let sweep = Sweep::serial().with_retries(retries);
            match sampling {
                Some(scfg) => sweep.with_sampling(scfg),
                None => sweep,
            }
        };

        // A clean run never burns extra attempts, however many are allowed.
        let clean = sweep(3);
        let run =
            clean.run_one(&workload, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
        assert!(run.failure.is_none());
        assert_eq!(run.attempts, 1, "first attempt succeeded, no retries spent");

        // A deterministically failing run exhausts exactly the cap.
        let mut poisoned = CoreConfig::alder_lake();
        poisoned.deadlock_cycles = 2;
        let failing = sweep(2);
        let run = failing.run_one(&workload, &PredictorKind::Blind, &poisoned, &budget);
        assert!(run.failure.is_some(), "poisoned config still fails");
        assert_eq!(run.attempts, 2, "capped at --retries attempts ({sampling:?})");
        assert_eq!(failing.take_degraded().len(), 1, "recorded once, not once per attempt");
    }
}

#[test]
fn every_retry_journals_its_own_start_line_and_reseed() {
    let dir = std::env::temp_dir().join(format!("phast-pool-panics-reseed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("journal.jsonl");
    let journal = Journal::create(&path, "reseed test").expect("journal");

    // Deadlocks before the first commit on every attempt. A zero-rate
    // fault plan gives the reseed policy a seed to perturb without
    // injecting any fault.
    let mut cfg = CoreConfig::alder_lake();
    cfg.deadlock_cycles = 2;
    let plan = FaultPlan {
        seed: 77,
        drop_prediction: 0,
        flip_distance: 0,
        spurious_violation: 0,
        corrupt_training: 0,
    };
    cfg.check = CheckConfig { faults: Some(plan), ..CheckConfig::default() };
    let budget = budget();
    let sweep = Sweep::serial().with_retries(3).with_journal(journal.scope("reseed"));
    let run = sweep.run_one(&budget.workloads()[0], &PredictorKind::Blind, &cfg, &budget);
    assert_eq!(run.attempts, 3);

    let text = std::fs::read_to_string(&path).expect("journal readable");
    let _ = std::fs::remove_dir_all(&dir);
    let lines: Vec<JsonValue> =
        text.lines().map(|l| jsonio::parse(l).expect("journal line parses")).collect();
    let of_kind = |kind: &str| -> Vec<&JsonValue> {
        lines.iter().filter(|l| l.get("kind").and_then(JsonValue::as_str) == Some(kind)).collect()
    };
    let field = |l: &JsonValue, key: &str| l.get(key).and_then(JsonValue::as_u64).expect(key);
    let starts: Vec<(u64, u64)> =
        of_kind("start").iter().map(|l| (field(l, "attempt"), field(l, "seed"))).collect();
    assert_eq!(starts.iter().map(|s| s.0).collect::<Vec<_>>(), [1, 2, 3], "attempts in order");
    assert_eq!(starts[0].1, 77, "attempt 1 runs the configured fault seed");
    assert!(
        starts[1].1 != 77 && starts[2].1 != 77 && starts[1].1 != starts[2].1,
        "each retry draws a distinct fault seed: {starts:?}"
    );
    let done = of_kind("done");
    assert_eq!(done.len(), 1, "only the final attempt journals done");
    assert_eq!(done[0].get("status").and_then(JsonValue::as_str), Some("deadlock"));
    assert_eq!(field(done[0], "attempts"), 3);
}
