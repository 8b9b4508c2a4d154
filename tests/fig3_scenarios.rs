//! The paper's Fig. 3 scenarios: two stores targeting the same address as
//! a subsequent load, differing in execution timing. Cases (a)–(d) are
//! constructed by controlling when each store's address resolves, and the
//! test asserts the squash behaviour the paper prescribes.

use phast_isa::{CondKind, MemSize, Program, ProgramBuilder, Reg};
use phast_mdp::BlindSpeculation;
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, SimStats};

/// Builds a loop with two stores to the same address followed by a load.
/// `divs1`/`divs2` control how late each store's address resolves;
/// `load_delay_muls` controls how late the load's address is ready.
fn two_store_program(divs1: usize, divs2: usize, load_delay_muls: usize, iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x1000).li(Reg(2), 1).li(Reg(10), 0).jump(head);
    let mut c = b.at(head);
    // Store 1's address chain.
    c.li(Reg(4), 1);
    for _ in 0..divs1 {
        c.div(Reg(4), Reg(4), Reg(2));
    }
    c.addi(Reg(4), Reg(4), 0x1000 - 1);
    // Store 2's address chain.
    c.li(Reg(5), 1);
    for _ in 0..divs2 {
        c.div(Reg(5), Reg(5), Reg(2));
    }
    c.addi(Reg(5), Reg(5), 0x1000 - 1);
    // The load's (delayed) address.
    c.li(Reg(6), 1);
    for _ in 0..load_delay_muls {
        c.mul(Reg(6), Reg(6), Reg(6));
    }
    c.addi(Reg(6), Reg(6), 0x1000 - 1);
    c.li(Reg(7), 11)
        .li(Reg(8), 22)
        .store(Reg(4), 0, Reg(7), MemSize::B8) // St1 (older)
        .store(Reg(5), 0, Reg(8), MemSize::B8) // St2 (younger)
        .load(Reg(9), Reg(6), 0, MemSize::B8)
        .add(Reg(11), Reg(11), Reg(9))
        .addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

fn run(program: &Program, filter: bool) -> SimStats {
    let mut cfg = CoreConfig::alder_lake();
    cfg.forwarding_filter = filter;
    try_simulate_within(program, &cfg, &mut BlindSpeculation, 400_000, &Deadline::none())
        .expect("runs cleanly")
}

/// Case (a): both stores resolve before the load executes — the load
/// forwards from the second store and no squash occurs.
#[test]
fn case_a_load_after_both_stores_never_squashes() {
    let p = two_store_program(0, 0, 6, 1000);
    let s = run(&p, true);
    assert_eq!(s.violations, 0, "load waits out both stores naturally");
    assert!(s.forwarded_loads >= 999, "every load forwards from St2");
}

/// Case (b): the load executes between St1 and St2 (it forwards from St1);
/// when St2 resolves, the load must be squashed — the loaded value is stale.
#[test]
fn case_b_load_between_stores_squashes() {
    // St1 fast, St2 slow, load fast.
    let p = two_store_program(0, 3, 0, 500);
    let s = run(&p, true);
    assert!(
        s.violations > 300,
        "the load keeps forwarding from St1 and must squash when St2 resolves (got {})",
        s.violations
    );
}

/// Case (c): the load executes after St2 (forwards from it) but before
/// St1. With the forwarding filter, St1's later resolution must NOT
/// squash; without it, the spurious squash occurs (paper Fig. 12).
#[test]
fn case_c_forwarding_filter_prevents_spurious_squash() {
    // St1 slow, St2 fast, load slightly delayed past St2.
    let p = two_store_program(3, 0, 2, 500);
    let with_filter = run(&p, true);
    let without_filter = run(&p, false);
    assert!(
        with_filter.filtered_violations > 300,
        "St1 resolutions must hit the filter (got {})",
        with_filter.filtered_violations
    );
    assert!(
        with_filter.violations < 25,
        "with the filter the load keeps its correct St2 value (got {})",
        with_filter.violations
    );
    assert!(
        without_filter.violations > with_filter.violations + 300,
        "without the filter every iteration squashes spuriously ({} vs {})",
        without_filter.violations,
        with_filter.violations
    );
}

/// Case (d): the load overtakes both stores; both resolutions conflict,
/// and exactly one squash per iteration results (lazy squash at commit
/// coalesces the two conflicts into one re-execution).
#[test]
fn case_d_load_overtakes_both_stores() {
    let p = two_store_program(3, 3, 0, 500);
    let s = run(&p, true);
    assert!(
        s.violations >= 400 && s.violations <= 600,
        "about one squash per iteration (got {})",
        s.violations
    );
}

/// Whatever the timing, the committed value is always St2's (22 + loop
/// payload semantics hold) — verified against the emulator.
#[test]
fn all_cases_are_value_correct() {
    use phast_isa::Emulator;
    for (d1, d2, lm) in [(0, 0, 6), (0, 3, 0), (3, 0, 2), (3, 3, 0)] {
        let p = two_store_program(d1, d2, lm, 100);
        let mut emu = Emulator::new(&p);
        emu.run(1_000_000).unwrap();
        let expected = emu.reg(Reg(11));

        let mut cfg = CoreConfig::alder_lake();
        cfg.forwarding_filter = true;
        let mut pred = BlindSpeculation;
        let mut core = phast_ooo::Core::new(&p, cfg, &mut pred);
        let stats =
            core.try_run_within(1_000_000, 10_000_000, &Deadline::none()).expect("runs cleanly");
        assert!(stats.halted);
        assert_eq!(
            core.arch_reg(Reg(11)),
            expected,
            "case ({d1},{d2},{lm}): accumulated loads must match the emulator"
        );
    }
}
