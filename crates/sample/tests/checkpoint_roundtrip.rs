//! Checkpoint restore and window-replay properties.
//!
//! The satellite guarantee of the sampling subsystem: an emulator
//! restored from a checkpoint's architectural snapshot continues exactly
//! like the capture-time execution, and replaying a window is
//! deterministic.

use phast_baselines::{StoreSets, StoreSetsConfig};
use phast_isa::Emulator;
use phast_mdp::BlindSpeculation;
use phast_ooo::{CheckConfig, CoreConfig};
use phast_sample::{capture, run_sampled, run_window, SampleConfig};
use phast_workloads::all_workloads;
use proptest::prelude::*;

/// A core config with checking off so debug-profile tests stay fast; the
/// lockstep path is exercised separately by `seeded_core_passes_lockstep`.
fn fast_cfg() -> CoreConfig {
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::off();
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// An emulator restored from a checkpoint's architectural snapshot
    /// retires exactly the records the capture-time emulator retires next.
    #[test]
    fn restored_emulator_continues_identically(
        workload_idx in 0usize..23,
        prefix in 500u64..5_000,
    ) {
        let w = &all_workloads()[workload_idx];
        let program = w.build(100_000);
        let mut emu = Emulator::new(&program);
        emu.run(prefix).expect("workloads emulate cleanly");
        let snap = emu.snapshot();

        let mut resumed = Emulator::from_snapshot(&program, &snap);
        prop_assert_eq!(resumed.snapshot(), snap, "snapshot of a restore is the snapshot");
        for _ in 0..200 {
            let a = emu.step().expect("clean");
            let b = resumed.step().expect("clean");
            prop_assert_eq!(&a, &b, "{}: resumed stream diverged", w.name);
            if a.is_none() {
                break;
            }
        }
    }
}

/// Replaying the same window twice (fresh predictor each time) is
/// deterministic: the set is read-only during replay.
#[test]
fn window_replay_is_deterministic() {
    let w = phast_workloads::by_name("mcf").expect("workload exists");
    let program = w.build(100_000);
    let cfg = fast_cfg();
    let scfg = SampleConfig::new(3, 800, 500);
    let set = capture(&program, &cfg, &scfg, 12_000).expect("clean");
    for j in 0..set.checkpoints.len() {
        let mut p1 = StoreSets::new(StoreSetsConfig::paper());
        let mut p2 = StoreSets::new(StoreSetsConfig::paper());
        let a = run_window(&program, &cfg, &mut p1, &set, j);
        let b = run_window(&program, &cfg, &mut p2, &set, j);
        assert!(a.failure.is_none(), "window must not degrade");
        assert_eq!(a.stats.cycles, b.stats.cycles, "cycles must be deterministic");
        assert_eq!(a.stats.committed, b.stats.committed);
        assert_eq!(a.stats.violations, b.stats.violations);
        assert_eq!(a.warmed, b.warmed);
    }
}

/// A core booted from warmed state still passes lockstep co-simulation
/// against the reference emulator — the strongest evidence that the boot
/// state is architecturally exact.
#[test]
fn seeded_core_passes_lockstep() {
    let w = phast_workloads::by_name("gcc_1").expect("workload exists");
    let program = w.build(100_000);
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::full();
    let scfg = SampleConfig::new(2, 500, 400);
    let set = capture(&program, &cfg, &scfg, 8_000).expect("clean");
    assert_eq!(set.checkpoints.len(), 2);
    for j in 0..set.checkpoints.len() {
        let mut predictor = BlindSpeculation;
        let run = run_window(&program, &cfg, &mut predictor, &set, j);
        assert!(run.failure.is_none(), "lockstep must hold from a warmed boot: {:?}", run.failure);
        assert_eq!(
            run.stats.checked_commits, run.stats.committed,
            "every windowed commit is cross-checked"
        );
        assert!(run.stats.committed > 0, "window measured something");
    }
}

/// End-to-end sanity: a sampled estimate lands in a plausible IPC range
/// and the instruction accounting covers the horizon.
#[test]
fn sampled_estimate_is_sane() {
    let w = phast_workloads::by_name("omnetpp").expect("workload exists");
    let program = w.build(200_000);
    let cfg = fast_cfg();
    let scfg = SampleConfig::new(4, 1_000, 600);
    let (est, runs) = run_sampled(&program, &cfg, &scfg, 20_000, &mut || {
        Box::new(StoreSets::new(StoreSetsConfig::paper()))
    })
    .expect("clean");
    assert_eq!(runs.len(), 4);
    assert_eq!(est.windows, 4);
    assert!(est.ipc > 0.1 && est.ipc < 12.0, "IPC {} out of range", est.ipc);
    assert!(est.measured_insts >= 4 * 600 - 100, "windows measured ~their length");
    assert!(est.warmed_insts >= 4 * 900, "warm phases ran");
    assert_eq!(est.horizon, 20_000);
    assert!(
        est.measured_insts + est.warmed_insts + est.fast_forwarded_insts <= 20_000 + 600,
        "accounting covers the horizon without double counting"
    );
}
