//! Panic isolation, watchdog and retry contract of the sweep engine's
//! cell lifecycle: a cell that panics or hangs degrades *its own* cell —
//! with kind `"panicked"` or `"deadline"` in the registry — and every
//! other cell of the grid still completes with results identical to an
//! undisturbed sweep. Every retry journals its own write-ahead `start`
//! line with its own fault reseed.

use phast_experiments::artifact::JsonValue;
use phast_experiments::{exit_code, jsonio, Budget, Journal, PredictorKind, Sweep};
use phast_isa::{CondKind, ProgramBuilder, Reg};
use phast_ooo::{CheckConfig, CoreConfig, FaultPlan};
use phast_workloads::Workload;
use std::time::Duration;

fn budget() -> Budget {
    Budget { insts: 5_000, workload_iters: 30_000, max_workloads: Some(3), extra_workloads: Vec::new() }
}

/// Emulates cleanly through a 12k-instruction budget, then returns to a
/// bogus block inside the ideal oracle's look-ahead margin: building the
/// ideal predictor panics, while every other predictor runs clean.
fn late_bad_ret() -> Workload {
    Workload::dynamic("late_bad_ret".into(), "test".into(), |_| {
        let mut b = ProgramBuilder::new();
        let (entry, body, tail) = (b.block(), b.block(), b.block());
        b.at(entry).li(Reg(1), 10_000).li(Reg(2), 999).fallthrough(body);
        let mut c = b.at(body);
        c.addi(Reg(1), Reg(1), -1).branchi(CondKind::Ne, Reg(1), 0, body).fallthrough(tail);
        b.at(tail).ret_via(Reg(2));
        b.set_entry(entry);
        b.build().expect("valid program")
    })
}

#[test]
fn panicking_cells_never_abort_the_sweep() {
    let budget = Budget {
        insts: 12_000,
        workload_iters: 30_000,
        max_workloads: Some(2),
        extra_workloads: vec![late_bad_ret()],
    };
    let kinds = [PredictorKind::Blind, PredictorKind::Ideal, PredictorKind::StoreSets];
    let mut reference: Option<Vec<u64>> = None;
    for workers in [1, 4] {
        let sweep = Sweep::with_workers(workers);
        let grid = sweep.run_grid(&kinds, &CoreConfig::alder_lake(), &budget);
        for (kind, row) in kinds.iter().zip(&grid) {
            assert_eq!(row.len(), 3, "every cell filled at {workers} workers");
            for run in row {
                if *kind == PredictorKind::Ideal && run.workload == "late_bad_ret" {
                    let failure = run.failure.as_ref().expect("the oracle build panics");
                    assert_eq!(failure.kind(), "panicked");
                    assert!(
                        failure.to_string().contains("workloads emulate cleanly"),
                        "payload survives: {failure}"
                    );
                } else {
                    let cell = format!("{} × {}", run.workload, run.predictor);
                    assert!(run.ok(), "{cell} unaffected: {:?}", run.failure);
                }
            }
        }
        // Clean neighbours are identical to the 1-worker sweep's.
        let cycles: Vec<u64> = grid.iter().flatten().map(|r| r.stats.cycles).collect();
        match &reference {
            None => reference = Some(cycles),
            Some(want) => assert_eq!(&cycles, want, "{workers} workers"),
        }
        let degraded = sweep.take_degraded();
        assert_eq!(degraded.len(), 1, "exactly the ideal late_bad_ret cell degrades");
        assert!(degraded[0].contains("panicked"), "registry names the panic: {}", degraded[0]);
    }
}

#[test]
fn expired_watchdog_degrades_the_run_as_deadline() {
    let budget = budget();
    let workload = budget.workloads()[0];
    let sweep = Sweep::serial().with_run_timeout(Duration::ZERO);

    let run = sweep.run_one(&workload, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
    let failure = run.failure.as_ref().expect("zero budget expires immediately");
    assert_eq!(failure.kind(), "deadline");
    assert_eq!(sweep.deadline_count(), 1, "watchdog expiry is counted");
    assert_eq!(sweep.take_degraded().len(), 1);

    // The process-level taxonomy: deadline outranks plain degradation.
    assert_eq!(exit_code::for_outcome(true, true), exit_code::DEADLINE);
    assert_eq!(exit_code::for_outcome(true, false), exit_code::DEGRADED);
    assert_eq!(exit_code::for_outcome(false, false), exit_code::OK);
}

#[test]
fn retry_policy_caps_attempts_and_keeps_clean_runs_single_shot() {
    let budget = budget();
    let workload = budget.workloads()[0];

    // A clean run never burns extra attempts, however many are allowed.
    let sweep = Sweep::serial().with_retries(3);
    let run = sweep.run_one(&workload, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
    assert!(run.failure.is_none());
    assert_eq!(run.attempts, 1, "first attempt succeeded, no retries spent");

    // A deterministically failing run exhausts exactly the cap.
    let mut poisoned = CoreConfig::alder_lake();
    poisoned.deadlock_cycles = 2;
    let sweep = Sweep::serial().with_retries(2);
    let run = sweep.run_one(&workload, &PredictorKind::Blind, &poisoned, &budget);
    assert!(run.failure.is_some(), "poisoned config still fails");
    assert_eq!(run.attempts, 2, "capped at --retries attempts");
    assert_eq!(sweep.take_degraded().len(), 1, "recorded once, not once per attempt");
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
