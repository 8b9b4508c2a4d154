//! `Core::try_run_within` must be resumable: running to a budget in
//! chunks (as the `phast-trace` tool does) must produce exactly the same
//! state as one uninterrupted run.

use phast_mdp::BlindSpeculation;
use phast_ooo::{Core, CoreConfig, Deadline};

/// Runs `core` on to `max_insts` committed instructions, with no cycle
/// ceiling and no deadline.
fn run_to(core: &mut Core<'_>, max_insts: u64) -> phast_ooo::SimStats {
    core.try_run_within(max_insts, u64::MAX, &Deadline::none()).expect("runs cleanly")
}

#[test]
fn chunked_and_oneshot_runs_agree() {
    let w = phast_workloads::by_name("gcc_2").unwrap();
    let p = w.build(300_000);

    let mut pred1 = BlindSpeculation;
    let mut oneshot = Core::new(&p, CoreConfig::alder_lake(), &mut pred1);
    let s1 = run_to(&mut oneshot, 50_000);

    let mut pred2 = BlindSpeculation;
    let mut chunked = Core::new(&p, CoreConfig::alder_lake(), &mut pred2);
    let mut s2 = phast_ooo::SimStats::default();
    for target in [10_000u64, 20_000, 30_000, 40_000, 50_000] {
        s2 = run_to(&mut chunked, target);
    }

    assert_eq!(s1.committed, s2.committed);
    assert_eq!(s1.cycles, s2.cycles, "cycle-exact resumability");
    assert_eq!(s1.violations, s2.violations);
    assert_eq!(s1.false_dependences, s2.false_dependences);
    assert_eq!(s1.branch_mispredicts, s2.branch_mispredicts);
    assert_eq!(s1.squashed_uops, s2.squashed_uops);
}

#[test]
fn run_past_halt_is_idempotent() {
    let w = phast_workloads::by_name("exchange2").unwrap();
    let p = w.build(30); // halts quickly
    let mut pred = BlindSpeculation;
    let mut core = Core::new(&p, CoreConfig::alder_lake(), &mut pred);
    let s1 = run_to(&mut core, 1_000_000);
    assert!(s1.halted);
    let s2 = run_to(&mut core, 2_000_000);
    assert_eq!(s1.committed, s2.committed, "nothing more to commit after halt");
    assert_eq!(s1.cycles, s2.cycles);
}
