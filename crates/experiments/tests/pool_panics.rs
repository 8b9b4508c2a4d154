//! Panic isolation, watchdog and run-once contract of the sweep engine's
//! cell lifecycle, in full detail and sampled: a cell that panics or
//! hangs degrades *its own* cell — with kind `"panicked"` or `"deadline"`
//! in the registry — and every other cell of the grid still completes
//! with results identical to an undisturbed sweep. A cell runs once: a
//! failing one journals one write-ahead `start` line, with the
//! configured fault seed, and one `done` line.

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
fn every_cell_runs_once_and_journals_one_start_and_one_done() {
    let budget = budget();
    let workload = budget.workloads()[0];
    let dir = std::env::temp_dir().join(format!("phast-pool-panics-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Deadlocks before the first commit. A zero-rate fault plan arms a
    // seed the `start` line must carry without injecting any fault.
    let mut poisoned = CoreConfig::alder_lake();
    poisoned.deadlock_cycles = 2;
    let plan = FaultPlan {
        seed: 77,
        drop_prediction: 0,
        flip_distance: 0,
        spurious_violation: 0,
        corrupt_training: 0,
    };
    poisoned.check = CheckConfig { faults: Some(plan), ..CheckConfig::default() };

    for (i, sampling) in [None, Some(sampling())].into_iter().enumerate() {
        let with_sampling = |sweep: Sweep| match sampling {
            Some(scfg) => sweep.with_sampling(scfg),
            None => sweep,
        };
        let clean = with_sampling(Sweep::serial());
        let run =
            clean.run_one(&workload, &PredictorKind::Blind, &CoreConfig::alder_lake(), &budget);
        assert!(run.ok(), "{sampling:?}: {:?}", run.failure);

        let path = dir.join(format!("journal-{i}.jsonl"));
        let journal = Journal::create(&path, "run-once test").expect("journal");
        let failing = with_sampling(Sweep::serial()).with_journal(journal);
        let run = failing.run_one(&workload, &PredictorKind::Blind, &poisoned, &budget);
        assert_eq!(run.failure.as_ref().map(|f| f.kind()), Some("deadlock"), "{sampling:?}");
        assert_eq!(failing.take_degraded().len(), 1, "degraded once ({sampling:?})");

        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<JsonValue> =
            text.lines().map(|l| jsonio::parse(l).expect("journal line parses")).collect();
        let of_kind = |kind: &str| -> Vec<&JsonValue> {
            let kind = Some(kind);
            lines.iter().filter(|l| l.get("kind").and_then(JsonValue::as_str) == kind).collect()
        };
        let field = |l: &JsonValue, key: &str| l.get(key).and_then(JsonValue::as_u64).expect(key);
        let starts = of_kind("start");
        assert_eq!(starts.len(), 1, "one start line ({sampling:?})");
        assert_eq!(field(starts[0], "seed"), 77, "the configured fault seed");
        let done = of_kind("done");
        assert_eq!(done.len(), 1, "one done line ({sampling:?})");
        assert_eq!(done[0].get("status").and_then(JsonValue::as_str), Some("deadlock"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
