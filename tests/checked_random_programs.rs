//! Checker fuzzer (the regalloc2 pattern): random `ProgramBuilder` CFGs
//! run through `try_simulate_within` with the full integrity layer enabled —
//! lockstep co-simulation against the reference emulator plus frequent
//! structural-invariant audits — for each predictor kind of the headline
//! comparison and the unprotected extremes (blind speculation, total
//! order). Any committed value, address, store datum or pc that differs
//! from the reference, and any corrupted pipeline structure, fails the
//! property with the first divergence and a pipeline snapshot.

mod common;

use common::{block_strategy, build_program};
use phast_experiments::PredictorKind;
use phast_ooo::{try_simulate_within, CheckConfig, CoreConfig, Deadline, SimStats};
use proptest::prelude::*;

const MAX_INSTS: u64 = 100_000;

/// Every predictor kind the fuzzer drives: the five headline predictors
/// plus the two unprotected extremes.
fn fuzzed_kinds() -> Vec<PredictorKind> {
    let mut kinds = PredictorKind::headline();
    kinds.push(PredictorKind::Blind);
    kinds.push(PredictorKind::TotalOrder);
    kinds
}

/// Audit every 64 cycles: random programs are short, so a coarse interval
/// would never fire.
fn checked_cfg(kind: &PredictorKind) -> CoreConfig {
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig { invariant_interval: 64, ..CheckConfig::full() };
    cfg.train_point = kind.train_point();
    cfg
}

fn run_checked(
    program: &phast_isa::Program,
    kind: &PredictorKind,
) -> Result<SimStats, TestCaseError> {
    let cfg = checked_cfg(kind);
    let mut predictor = kind.build(program, MAX_INSTS);
    try_simulate_within(program, &cfg, predictor.as_mut(), MAX_INSTS, &Deadline::none())
        .map_err(|e| TestCaseError::fail(format!("{} failed checking: {e}", kind.label())))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_pass_full_checking_for_every_kind(
        blocks in prop::collection::vec(block_strategy(), 2..10)
    ) {
        let program = build_program(&blocks);
        for kind in fuzzed_kinds() {
            let stats = run_checked(&program, &kind)?;
            prop_assert!(stats.halted, "{}: generated programs terminate", kind.label());
            prop_assert_eq!(
                stats.checked_commits, stats.committed,
                "{}: every commit must be cross-checked", kind.label()
            );
        }
    }

    #[test]
    fn random_programs_pass_checking_under_eager_squash(
        blocks in prop::collection::vec(block_strategy(), 2..8)
    ) {
        // The eager-squash recovery path (squash at detection) is distinct
        // machinery from the lazy commit-time path; fuzz it too.
        let program = build_program(&blocks);
        let kind = PredictorKind::StoreSets;
        let mut cfg = checked_cfg(&kind);
        cfg.mem_squash = phast_ooo::MemSquashPolicy::Eager;
        let mut predictor = kind.build(&program, MAX_INSTS);
        let stats = try_simulate_within(&program, &cfg, predictor.as_mut(), MAX_INSTS, &Deadline::none())
            .map_err(|e| TestCaseError::fail(format!("eager squash failed checking: {e}")))?;
        prop_assert!(stats.halted);
        prop_assert_eq!(stats.checked_commits, stats.committed);
    }
}
