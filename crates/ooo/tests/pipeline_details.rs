//! Focused tests for pipeline mechanisms: eager squash, structural
//! hazards (IQ, SQ/SB, ports), and bookkeeping invariants.

use phast_isa::{CondKind, Emulator, MemSize, Program, ProgramBuilder, Reg};
use phast_mdp::BlindSpeculation;
use phast_ooo::{try_simulate_within, Core, CoreConfig, Deadline, MemSquashPolicy, Ports, SimStats};

/// Runs `p` from its entry on `cfg` with no memory dependence
/// prediction.
fn run_blind(p: &Program, cfg: &CoreConfig, max_insts: u64) -> SimStats {
    try_simulate_within(p, cfg, &mut BlindSpeculation, max_insts, &Deadline::none())
        .expect("runs cleanly")
}

/// Store address resolves late; load overtakes it. One violation per
/// iteration whichever squash policy is used.
fn overtaking_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x1000).li(Reg(2), 1).li(Reg(10), 0).jump(head);
    b.at(head)
        .div(Reg(4), Reg(1), Reg(2))
        .div(Reg(4), Reg(4), Reg(2))
        .addi(Reg(5), Reg(10), 40)
        .store(Reg(4), 0, Reg(5), MemSize::B8)
        .load(Reg(6), Reg(1), 0, MemSize::B8)
        .add(Reg(7), Reg(7), Reg(6))
        .addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

fn store_parade(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x4_0000).li(Reg(10), 0).jump(head);
    let mut c = b.at(head);
    for i in 0..16 {
        c.store(Reg(1), 8 * i, Reg(10), MemSize::B8);
    }
    c.addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

#[test]
fn eager_squash_is_value_correct() {
    let p = overtaking_loop(200);
    let retired = Emulator::new(&p).run(1_000_000).unwrap();

    // The core's lockstep checker compares every commit with the emulator.
    let mut cfg = CoreConfig::alder_lake();
    cfg.mem_squash = MemSquashPolicy::Eager;
    cfg.check.lockstep = true;
    let mut pred = BlindSpeculation;
    let mut core = Core::new(&p, cfg, &mut pred);
    let stats = core.try_run_within(1_000_000, 50_000_000, &Deadline::none()).expect("runs cleanly");
    assert!(stats.halted);
    assert_eq!(stats.checked_commits, retired);
    assert!(stats.violations >= 190, "eager mode still counts violations");
}

#[test]
fn eager_squash_recovers_faster_than_lazy_here() {
    // With lazy squash the violating load waits until commit before
    // re-fetching; eager recovery restarts immediately, so on a loop that
    // violates every iteration it cannot be slower.
    let p = overtaking_loop(500);
    let mut lazy_cfg = CoreConfig::alder_lake();
    lazy_cfg.mem_squash = MemSquashPolicy::Lazy;
    let lazy = run_blind(&p, &lazy_cfg, 1_000_000);
    let mut eager_cfg = CoreConfig::alder_lake();
    eager_cfg.mem_squash = MemSquashPolicy::Eager;
    let eager = run_blind(&p, &eager_cfg, 1_000_000);
    assert!(lazy.halted && eager.halted);
    assert!(
        eager.ipc() >= lazy.ipc() * 0.95,
        "eager ({:.3}) should not trail lazy ({:.3}) on a violation-dense loop",
        eager.ipc(),
        lazy.ipc()
    );
}

#[test]
fn small_store_queue_throttles_store_parades() {
    let p = store_parade(300);
    let mut big = CoreConfig::alder_lake();
    big.sq_size = 114;
    let mut small = CoreConfig::alder_lake();
    small.sq_size = 8;
    let fast = run_blind(&p, &big, 200_000);
    let slow = run_blind(&p, &small, 200_000);
    assert!(
        fast.ipc() > slow.ipc() * 1.2,
        "an 8-entry SQ must throttle 16 stores/iteration ({:.3} vs {:.3})",
        fast.ipc(),
        slow.ipc()
    );
}

#[test]
fn store_ports_limit_throughput() {
    let p = store_parade(300);
    let mut two_ports = CoreConfig::alder_lake();
    two_ports.ports = Ports { store: 2, ..two_ports.ports };
    let mut one_port = CoreConfig::alder_lake();
    one_port.ports = Ports { store: 1, ..one_port.ports };
    let two = run_blind(&p, &two_ports, 200_000);
    let one = run_blind(&p, &one_port, 200_000);
    assert!(
        two.ipc() > one.ipc() * 1.2,
        "16 stores/iteration must scale with store ports ({:.3} vs {:.3})",
        two.ipc(),
        one.ipc()
    );
}

#[test]
fn tiny_iq_throttles_ilp() {
    let p = store_parade(300);
    let mut big = CoreConfig::alder_lake();
    big.iq_size = 204;
    let mut tiny = CoreConfig::alder_lake();
    tiny.iq_size = 4;
    let fast = run_blind(&p, &big, 100_000);
    let slow = run_blind(&p, &tiny, 100_000);
    assert!(
        fast.ipc() > slow.ipc(),
        "a 4-entry issue window must hurt ({:.3} vs {:.3})",
        fast.ipc(),
        slow.ipc()
    );
}

#[test]
fn prefetcher_fills_show_up_on_streaming_code() {
    let w = phast_workloads::by_name("lbm").unwrap();
    let p = w.build(200_000);
    let stats = run_blind(&p, &CoreConfig::alder_lake(), 60_000);
    assert!(
        stats.memory.l1d.prefetch_fills > 100,
        "the IP-stride prefetcher must engage on lbm (got {})",
        stats.memory.l1d.prefetch_fills
    );
}

#[test]
fn squashed_work_is_accounted() {
    let p = overtaking_loop(200);
    let stats = run_blind(&p, &CoreConfig::alder_lake(), 200_000);
    assert!(
        stats.squashed_uops > stats.violations,
        "each violation squash discards multiple uops ({} squashed, {} violations)",
        stats.squashed_uops,
        stats.violations
    );
}

#[test]
fn branch_stats_populate() {
    let w = phast_workloads::by_name("gcc_1").unwrap();
    let p = w.build(100_000);
    let stats = run_blind(&p, &CoreConfig::alder_lake(), 50_000);
    assert!(stats.committed_cond_branches > 1_000);
    assert!(stats.branch_mispredicts > 0, "hash-driven selectors must mispredict sometimes");
    assert!(stats.indirect_mispredicts > 0, "the dispatch farm must miss sometimes");
}

#[test]
fn ittage_front_end_beats_last_target_on_dispatch_code() {
    use phast_branch::LastTargetPredictor;
    use phast_isa::Op;
    // povray's indirect dispatch cycles through targets with a short
    // period: the core's ITTAGE learns the pattern, a last-target table
    // cannot. The table replays the same committed stream functionally,
    // trained in commit order and never on the wrong path.
    let w = phast_workloads::by_name("povray").unwrap();
    let p = w.build(300_000);
    let insts = 60_000;
    let it = run_blind(&p, &CoreConfig::alder_lake(), insts);
    let mut lt = LastTargetPredictor::new(512);
    let mut lt_misses = 0u64;
    let mut emu = Emulator::new(&p);
    while emu.retired() < it.committed {
        let rec = emu.step().expect("povray emulates cleanly").expect("not halted");
        if let Op::IndirectJump(ts) = &p.inst(rec.block, rec.index).op {
            let actual = emu.cursor().expect("dispatch continues").0;
            lt_misses += u64::from(lt.predict(rec.pc).unwrap_or(ts[0]) != actual);
            lt.update(rec.pc, actual);
        }
    }
    assert!(
        it.indirect_mispredicts * 2 < lt_misses,
        "ITTAGE must at least halve indirect misses ({} vs {lt_misses})",
        it.indirect_mispredicts,
    );
}
