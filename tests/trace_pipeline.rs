//! End-to-end trace pipeline acceptance: a recorded PHTR trace, decoded
//! from its on-disk bytes, drives the sweep harness **byte-identically**
//! to a direct run of the workload it was recorded from — on the serial
//! and parallel execution paths. Also pins that the
//! coverage-guided synthesized workloads run clean through a quick sweep.

use phast_experiments::harness::Budget;
use phast_experiments::{PredictorKind, RunResult, Sweep};
use phast_ooo::CoreConfig;
use phast_trace::{record_trace, trace_workload, verify_lockstep, synth_workloads, Trace, SYNTH_SEED};

const INSTS: u64 = 5_000;
const ITERS: u64 = 30_000;

/// The direct leg: just the built-in workload, no built-in prefix.
fn direct_budget() -> Budget {
    let base = phast_workloads::by_name("gcc_1").expect("builtin workload");
    Budget {
        insts: INSTS,
        workload_iters: ITERS,
        max_workloads: Some(0),
        extra_workloads: vec![base],
    }
}

/// The replay leg: the same workload, but reconstructed from the PHTR
/// byte stream (record → serialize → decode → adapt).
fn replay_budget() -> Budget {
    let base = phast_workloads::by_name("gcc_1").expect("builtin workload");
    let trace = record_trace(&base, ITERS, INSTS);
    let decoded = Trace::from_bytes(&trace.to_bytes()).expect("clean trace decodes");
    assert!(verify_lockstep(&decoded).expect("lockstep") > 0);
    Budget {
        insts: INSTS,
        workload_iters: ITERS,
        max_workloads: Some(0),
        extra_workloads: vec![trace_workload(&decoded)],
    }
}

/// Everything an artifact row keeps, minus the wall-clock/throughput
/// metadata the byte-identity contract explicitly carves out.
fn assert_rows_identical(direct: &[Vec<RunResult>], replay: &[Vec<RunResult>], path: &str) {
    assert_eq!(direct.len(), replay.len());
    for (drow, rrow) in direct.iter().zip(replay) {
        assert_eq!(drow.len(), rrow.len());
        for (d, r) in drow.iter().zip(rrow) {
            let cell = format!("{path}: {} × {}", d.workload, d.predictor);
            assert_eq!(d.workload, r.workload, "{cell}");
            assert_eq!(d.predictor, r.predictor, "{cell}");
            assert!(d.ok() && r.ok(), "{cell} degraded");
            assert_eq!(d.stats.cycles, r.stats.cycles, "{cell}: cycles");
            assert_eq!(d.stats.committed, r.stats.committed, "{cell}: committed");
            assert_eq!(d.stats.violations, r.stats.violations, "{cell}: violations");
            assert_eq!(
                d.stats.false_dependences, r.stats.false_dependences,
                "{cell}: false deps"
            );
            assert_eq!(d.num_paths, r.num_paths, "{cell}: num_paths");
            assert_eq!(d.stats.ipc().to_bits(), r.stats.ipc().to_bits(), "{cell}: ipc");
            assert_eq!(d.workload_signature, r.workload_signature, "{cell}: signature");
            assert!(d.workload_signature.starts_with("phtr:"), "{cell}: digest form");
        }
    }
}

#[test]
fn trace_replay_is_byte_identical_on_serial_and_parallel_paths() {
    let kinds = [
        PredictorKind::Blind,
        PredictorKind::StoreSets,
        PredictorKind::Phast,
        PredictorKind::StaticDeps,
    ];
    let cfg = CoreConfig::alder_lake();
    let direct = direct_budget();
    let replay = replay_budget();

    type MkSweep = fn() -> Sweep;
    let paths: [(&str, MkSweep); 2] = [
        ("serial", Sweep::serial),
        ("parallel", || Sweep::with_workers(4)),
    ];
    let mut reference: Option<Vec<Vec<RunResult>>> = None;
    for (path, mk) in paths {
        let d = mk().run_grid(&kinds, &cfg, &direct);
        let r = mk().run_grid(&kinds, &cfg, &replay);
        assert_rows_identical(&d, &r, path);
        // The paths also agree with each other, so replay equality is
        // not vacuous per-path luck.
        if let Some(reference) = &reference {
            assert_rows_identical(reference, &d, path);
        } else {
            reference = Some(d);
        }
    }
}

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
        let pa = phast_trace::program_bytes(&a.build(20_000));
        let pb = phast_trace::program_bytes(&b.build(20_000));
        assert_eq!(pa, pb, "{} rebuilds byte-identically", a.name);
    }
}
