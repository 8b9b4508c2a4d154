//! Property test: for random programs, the out-of-order core's committed
//! stream must equal the functional emulator's stream exactly — under
//! blind speculation (maximum memory-order violations) and under PHAST.
//!
//! Programs are generated with forward-only control flow so they always
//! terminate; loads, stores (of every size), multiplies, divides and
//! indirect jumps are all in the mix.

mod common;

use common::{block_strategy, build_program};
use phast::{Phast, PhastConfig};
use phast_isa::{Emulator, Program};
use phast_mdp::{BlindSpeculation, MemDepPredictor, TotalOrder};
use phast_ooo::{Core, CoreConfig, Deadline, TrainPoint};
use proptest::prelude::*;

fn assert_equivalent(program: &Program, predictor: &mut dyn MemDepPredictor, train: TrainPoint) {
    let retired = Emulator::new(program).run(100_000).expect("emulates");

    // The core's lockstep checker compares every commit with the emulator.
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = train;
    cfg.check.lockstep = true;
    let mut core = Core::new(program, cfg, predictor);
    let stats = core.try_run_within(100_000, 10_000_000, &Deadline::none()).expect("runs cleanly");
    assert!(stats.halted, "must run to completion");
    assert_eq!(stats.checked_commits, retired, "every commit checked");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_commit_like_the_emulator_blind(
        blocks in prop::collection::vec(block_strategy(), 2..12)
    ) {
        let program = build_program(&blocks);
        assert_equivalent(&program, &mut BlindSpeculation, TrainPoint::Detect);
    }

    #[test]
    fn random_programs_commit_like_the_emulator_phast(
        blocks in prop::collection::vec(block_strategy(), 2..12)
    ) {
        let program = build_program(&blocks);
        let mut phast = Phast::new(PhastConfig::paper());
        assert_equivalent(&program, &mut phast, TrainPoint::Commit);
    }

    #[test]
    fn random_programs_commit_like_the_emulator_total_order(
        blocks in prop::collection::vec(block_strategy(), 2..10)
    ) {
        let program = build_program(&blocks);
        assert_equivalent(&program, &mut TotalOrder, TrainPoint::Detect);
    }
}
