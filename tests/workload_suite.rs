//! Cross-crate integration: every synthetic workload runs correctly on
//! the out-of-order core under several predictors, and the simulation is
//! deterministic.

use phast::{Phast, PhastConfig};
use phast_baselines::{NoSqConfig, NoSqPredictor, StoreSets, StoreSetsConfig};
use phast_isa::Emulator;
use phast_mdp::{BlindSpeculation, MemDepPredictor};
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, TrainPoint};

const INSTS: u64 = 30_000;

fn run(workload: &str, pred: &mut dyn MemDepPredictor, train: TrainPoint) -> phast_ooo::SimStats {
    let w = phast_workloads::by_name(workload).expect("workload exists");
    let p = w.build(200_000);
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = train;
    try_simulate_within(&p, &cfg, pred, INSTS, &Deadline::none()).expect("runs cleanly")
}

#[test]
fn every_workload_commits_the_budget_under_every_predictor_class() {
    for w in phast_workloads::all_workloads() {
        for (pred, train) in [
            (Box::new(BlindSpeculation) as Box<dyn MemDepPredictor>, TrainPoint::Detect),
            (Box::new(Phast::new(PhastConfig::paper())), TrainPoint::Commit),
            (Box::new(StoreSets::new(StoreSetsConfig::paper())), TrainPoint::Detect),
            (Box::new(NoSqPredictor::new(NoSqConfig::paper())), TrainPoint::Detect),
        ] {
            let mut pred = pred;
            let name = pred.name().to_owned();
            let s = run(w.name, pred.as_mut(), train);
            assert!(
                s.committed >= INSTS,
                "{} under {name} committed only {}",
                w.name,
                s.committed
            );
            assert!(s.ipc() > 0.05, "{} under {name}: implausible IPC {}", w.name, s.ipc());
        }
    }
}

#[test]
fn workload_architectural_state_matches_emulator_under_speculation() {
    // The most speculation-hostile predictor (blind) against the emulator,
    // checking final architectural state after a fixed instruction count
    // is impossible mid-loop, so run small programs to completion instead.
    for name in ["exchange2", "gcc_1", "povray", "perlbench_1", "x264", "leela"] {
        let w = phast_workloads::by_name(name).unwrap();
        let p = w.build(40); // small enough to halt within the budget
        let mut emu = Emulator::new(&p);
        let retired = emu.run(2_000_000).unwrap();
        assert!(emu.halted(), "{name} emulator must halt");

        // The core's lockstep checker compares every commit with the
        // emulator.
        let mut cfg = CoreConfig::alder_lake();
        cfg.check.lockstep = true;
        let mut pred = BlindSpeculation;
        let mut core = phast_ooo::Core::new(&p, cfg, &mut pred);
        let stats = core
            .try_run_within(2_000_000, 100_000_000, &Deadline::none())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(stats.halted, "{name} core must halt");
        assert_eq!(stats.checked_commits, retired, "{name} commits checked");
    }
}

#[test]
fn simulations_are_deterministic_across_runs() {
    for name in ["gcc_2", "leela"] {
        let mut first = Phast::new(PhastConfig::paper());
        let a = run(name, &mut first, TrainPoint::Commit);
        let mut second = Phast::new(PhastConfig::paper());
        let b = run(name, &mut second, TrainPoint::Commit);
        assert_eq!(a.cycles, b.cycles, "{name} cycles must be reproducible");
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.false_dependences, b.false_dependences);
        assert_eq!(a.predictor_accesses, b.predictor_accesses);
    }
}

#[test]
fn dependence_heavy_workloads_punish_blind_speculation() {
    // The workloads built around store→load dependences must show real
    // squash pressure without a predictor.
    for name in ["exchange2", "gcc_1", "perlbench_3", "x264"] {
        let mut blind = BlindSpeculation;
        let blind_stats = run(name, &mut blind, TrainPoint::Detect);
        let mut phast = Phast::new(PhastConfig::paper());
        let phast_stats = run(name, &mut phast, TrainPoint::Commit);
        assert!(
            blind_stats.violations > 20 * phast_stats.violations.max(1),
            "{name}: blind {} vs phast {} violations",
            blind_stats.violations,
            phast_stats.violations
        );
        assert!(
            phast_stats.ipc() > blind_stats.ipc(),
            "{name}: phast {} must beat blind {}",
            phast_stats.ipc(),
            blind_stats.ipc()
        );
    }
}

#[test]
fn streaming_workloads_need_no_prediction() {
    // lbm/fotonik-like workloads have almost no in-flight dependences:
    // blind speculation should already be near-perfect.
    for name in ["lbm", "fotonik3d", "mcf"] {
        let mut blind = BlindSpeculation;
        let s = run(name, &mut blind, TrainPoint::Detect);
        assert!(
            s.violations < 20,
            "{name} should have almost no violations (got {})",
            s.violations
        );
    }
}
