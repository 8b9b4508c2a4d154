//! Correctness tests for the out-of-order core: the committed stream must
//! match the functional emulator exactly, under every kind of speculation
//! (branch mispredicts, memory-order violations, wrong-path execution).

use phast_isa::{
    CondKind, Emulator, MemSize, Program, ProgramBuilder, Reg, LINK_REG, STACK_REG,
};
use phast_mdp::{BlindSpeculation, DepOracle, MemDepPredictor, OraclePredictor, TotalOrder};
use phast_ooo::{try_simulate_within, Core, CoreConfig, Deadline};
use std::sync::Arc;

fn run_core(program: &Program, predictor: &mut dyn MemDepPredictor, cfg: &CoreConfig) -> phast_ooo::SimStats {
    try_simulate_within(program, cfg, predictor, 1_000_000, &Deadline::none()).expect("runs cleanly")
}

/// Runs the program on the core with its lockstep checker on, which
/// compares every commit with the emulator, and asserts every commit was
/// checked.
fn assert_matches_emulator(program: &Program, predictor: &mut dyn MemDepPredictor) {
    let retired = Emulator::new(program).run(1_000_000).expect("emulates cleanly");

    let mut cfg = CoreConfig::alder_lake();
    cfg.check.lockstep = true;
    let mut core = Core::new(program, cfg, predictor);
    let stats = core.try_run_within(1_000_000, 50_000_000, &Deadline::none()).expect("runs cleanly");
    assert!(stats.halted, "program must run to completion");
    assert_eq!(stats.checked_commits, retired, "committed instruction count");
}

fn straightline() -> Program {
    let mut b = ProgramBuilder::new();
    let e = b.block();
    b.at(e)
        .li(Reg(1), 0x1000)
        .li(Reg(2), 123)
        .store(Reg(1), 0, Reg(2), MemSize::B8)
        .load(Reg(3), Reg(1), 0, MemSize::B8)
        .addi(Reg(4), Reg(3), 1)
        .mul(Reg(5), Reg(4), Reg(4))
        .halt();
    b.set_entry(e);
    b.build().unwrap()
}

/// A loop with a data-dependent (hard-to-predict) branch and memory
/// traffic through a small array.
fn noisy_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let then = b.block();
    let join = b.block();
    let exit = b.block();
    b.at(entry)
        .li(Reg(1), 0x2000) // base
        .li(Reg(2), 0) // i
        .li(Reg(3), 1)
        .jump(head);
    b.at(head)
        // pseudo-random bit from i
        .mul(Reg(4), Reg(2), Reg(2))
        .shri(Reg(5), Reg(4), 3)
        .andi(Reg(5), Reg(5), 1)
        .branchi(CondKind::Eq, Reg(5), 1, then)
        .fallthrough(join);
    b.at(then)
        .andi(Reg(6), Reg(2), 7)
        .shli(Reg(6), Reg(6), 3)
        .add(Reg(6), Reg(6), Reg(1))
        .store(Reg(6), 0, Reg(2), MemSize::B8)
        .jump(join);
    b.at(join)
        .andi(Reg(7), Reg(2), 7)
        .shli(Reg(7), Reg(7), 3)
        .add(Reg(7), Reg(7), Reg(1))
        .load(Reg(8), Reg(7), 0, MemSize::B8)
        .add(Reg(9), Reg(9), Reg(8))
        .addi(Reg(2), Reg(2), 1)
        .branchi(CondKind::LtU, Reg(2), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

/// A store whose address resolves late (divide chain) followed by a load
/// to the same address whose own address is ready immediately: blind
/// speculation makes the load overtake the store and squash.
fn late_store_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x3000).li(Reg(2), 1).li(Reg(10), 0).jump(head);
    b.at(head)
        .div(Reg(4), Reg(1), Reg(2)) // r4 = 0x3000 after 12 cycles
        .div(Reg(4), Reg(4), Reg(2))
        .div(Reg(4), Reg(4), Reg(2))
        .addi(Reg(5), Reg(10), 40) // value to store
        .store(Reg(4), 0, Reg(5), MemSize::B8)
        .load(Reg(6), Reg(1), 0, MemSize::B8) // same address, early
        .add(Reg(7), Reg(7), Reg(6))
        .addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

/// Fig. 3(c): the load forwards from the *younger* store S2; the older
/// store S1 resolves afterwards and must not squash the load when the
/// forwarding filter is on.
fn fig3c_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x4000).li(Reg(2), 1).li(Reg(10), 0).jump(head);
    b.at(head)
        .div(Reg(4), Reg(1), Reg(2))
        .div(Reg(4), Reg(4), Reg(2))
        .div(Reg(4), Reg(4), Reg(2)) // S1's address: very late
        .li(Reg(5), 11)
        .li(Reg(6), 22)
        .store(Reg(4), 0, Reg(5), MemSize::B8) // S1 (late address)
        .store(Reg(1), 0, Reg(6), MemSize::B8) // S2 (early address)
        .mul(Reg(7), Reg(1), Reg(2)) // small delay for the load address
        .load(Reg(8), Reg(7), 0, MemSize::B8) // forwards from S2
        .add(Reg(9), Reg(9), Reg(8))
        .addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

fn call_ret_program() -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let loop_head = b.block();
    let callee = b.block();
    let after = b.block();
    let exit = b.block();
    b.at(entry).li(STACK_REG, 0x8000).li(Reg(2), 0).jump(loop_head);
    b.at(loop_head).addi(Reg(3), Reg(2), 5).call(callee).fallthrough(after);
    b.at(callee)
        .store(STACK_REG, 0, LINK_REG, MemSize::B8)
        .mul(Reg(3), Reg(3), Reg(3))
        .load(LINK_REG, STACK_REG, 0, MemSize::B8)
        .ret();
    b.at(after)
        .add(Reg(4), Reg(4), Reg(3))
        .addi(Reg(2), Reg(2), 1)
        .branchi(CondKind::LtU, Reg(2), 50, loop_head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

fn indirect_program() -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let t0 = b.block();
    let t1 = b.block();
    let t2 = b.block();
    let join = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0).jump(head);
    b.at(head).andi(Reg(2), Reg(1), 3).indirect_jump(Reg(2), &[t0, t1, t2]);
    b.at(t0).addi(Reg(3), Reg(3), 1).jump(join);
    b.at(t1).addi(Reg(3), Reg(3), 10).jump(join);
    b.at(t2).addi(Reg(3), Reg(3), 100).jump(join);
    b.at(join).addi(Reg(1), Reg(1), 1).branchi(CondKind::LtU, Reg(1), 60, head).fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

#[test]
fn straightline_matches_emulator() {
    assert_matches_emulator(&straightline(), &mut BlindSpeculation);
}

#[test]
fn noisy_loop_matches_emulator_blind() {
    assert_matches_emulator(&noisy_loop(300), &mut BlindSpeculation);
}

#[test]
fn noisy_loop_matches_emulator_total_order() {
    assert_matches_emulator(&noisy_loop(300), &mut TotalOrder);
}

#[test]
fn late_store_matches_emulator_despite_violations() {
    assert_matches_emulator(&late_store_program(100), &mut BlindSpeculation);
}

#[test]
fn call_ret_matches_emulator() {
    assert_matches_emulator(&call_ret_program(), &mut BlindSpeculation);
}

#[test]
fn indirect_jump_matches_emulator() {
    assert_matches_emulator(&indirect_program(), &mut BlindSpeculation);
}

#[test]
fn blind_speculation_suffers_violations_on_late_stores() {
    let p = late_store_program(200);
    let stats = run_core(&p, &mut BlindSpeculation, &CoreConfig::alder_lake());
    assert!(stats.halted);
    assert!(
        stats.violations >= 100,
        "each iteration should violate under blind speculation, got {}",
        stats.violations
    );
}

#[test]
fn total_order_never_violates() {
    let p = late_store_program(200);
    let stats = run_core(&p, &mut TotalOrder, &CoreConfig::alder_lake());
    assert_eq!(stats.violations, 0, "waiting for all older stores cannot violate");
}

#[test]
fn oracle_eliminates_violations_and_false_deps() {
    let p = late_store_program(200);
    let oracle = Arc::new(DepOracle::build(&p, 1_000_000, 256).unwrap());
    let mut pred = OraclePredictor::new(oracle);
    let stats = run_core(&p, &mut pred, &CoreConfig::alder_lake());
    assert_eq!(stats.violations, 0, "the ideal predictor never squashes");
    assert_eq!(stats.false_dependences, 0, "the ideal predictor never stalls needlessly");
}

#[test]
fn oracle_beats_blind_and_total_order_on_ipc() {
    let p = late_store_program(500);
    let oracle = Arc::new(DepOracle::build(&p, 1_000_000, 256).unwrap());
    let ideal = run_core(&p, &mut OraclePredictor::new(oracle), &CoreConfig::alder_lake());
    let blind = run_core(&p, &mut BlindSpeculation, &CoreConfig::alder_lake());
    let total = run_core(&p, &mut TotalOrder, &CoreConfig::alder_lake());
    assert!(
        ideal.ipc() > blind.ipc(),
        "ideal {} must beat blind {} (squash cost)",
        ideal.ipc(),
        blind.ipc()
    );
    assert!(
        ideal.ipc() >= total.ipc(),
        "ideal {} must be at least total-order {}",
        ideal.ipc(),
        total.ipc()
    );
}

#[test]
fn forwarding_filter_suppresses_fig3c_squashes() {
    let p = fig3c_program(150);

    let mut on_cfg = CoreConfig::alder_lake();
    on_cfg.forwarding_filter = true;
    let with_filter = run_core(&p, &mut BlindSpeculation, &on_cfg);

    let mut off_cfg = CoreConfig::alder_lake();
    off_cfg.forwarding_filter = false;
    let without_filter = run_core(&p, &mut BlindSpeculation, &off_cfg);

    assert!(
        with_filter.filtered_violations > 0,
        "filter must actually fire (got {})",
        with_filter.filtered_violations
    );
    assert!(
        without_filter.violations > with_filter.violations,
        "disabling the filter must add squashes: {} vs {}",
        without_filter.violations,
        with_filter.violations
    );
}

#[test]
fn fig3c_is_value_correct_with_and_without_filter() {
    let p = fig3c_program(50);
    assert_matches_emulator(&p, &mut BlindSpeculation);
}

#[test]
fn forwarded_loads_are_counted() {
    let p = straightline();
    let stats = run_core(&p, &mut BlindSpeculation, &CoreConfig::alder_lake());
    assert!(stats.forwarded_loads >= 1, "store→load pair must forward");
}

#[test]
fn runs_are_deterministic() {
    let p = noisy_loop(400);
    let a = run_core(&p, &mut BlindSpeculation, &CoreConfig::alder_lake());
    let b = run_core(&p, &mut BlindSpeculation, &CoreConfig::alder_lake());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
}

#[test]
fn all_generations_run_the_same_program_correctly() {
    for cfg in CoreConfig::generations() {
        let p = noisy_loop(150);
        let mut emu = Emulator::new(&p);
        let expected = emu.run_collect(1_000_000).unwrap();
        let stats = run_core(&p, &mut BlindSpeculation, &cfg);
        assert!(stats.halted, "{} must finish", cfg.name);
        assert_eq!(stats.committed, expected.len() as u64, "{} commit count", cfg.name);
    }
}

#[test]
fn wider_cores_are_not_slower() {
    let p = noisy_loop(800);
    let old = run_core(&p, &mut BlindSpeculation, &CoreConfig::nehalem());
    let new = run_core(&p, &mut BlindSpeculation, &CoreConfig::alder_lake());
    assert!(
        new.ipc() >= old.ipc() * 0.95,
        "alderlake {} should not trail nehalem {}",
        new.ipc(),
        old.ipc()
    );
}
