//! Edge-case coverage for the cooperative per-run watchdog.
//!
//! The cycle loop polls its [`Deadline`] on the amortized
//! `DEADLINE_CHECK_INTERVAL` path, and the poll lands on cycle 0 first —
//! so a token that is *already* expired when the run starts (zero
//! budget, past deadline) must stop the run on that very first poll,
//! before a single cycle is simulated. These tests pin that contract:
//! `--run-timeout=0` on both binaries relies on it to smoke the deadline
//! exit path without a slow run. At the other end, a budget the clock
//! cannot add to now (`--run-timeout=18446744073709551615`) never
//! expires.

use phast_isa::{CondKind, MemSize, Program, ProgramBuilder, Reg};
use phast_mdp::BlindSpeculation;
use phast_ooo::{Core, CoreConfig, Deadline, SimError};
use std::time::Duration;

/// A counted loop with memory traffic — long enough to cross many poll
/// intervals if nothing stops it.
fn long_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x1000).li(Reg(2), 0).li(Reg(3), 0).jump(head);
    b.at(head)
        .store(Reg(1), 0, Reg(2), MemSize::B8)
        .load(Reg(4), Reg(1), 0, MemSize::B8)
        .add(Reg(3), Reg(3), Reg(4))
        .addi(Reg(2), Reg(2), 1)
        .branchi(CondKind::LtU, Reg(2), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

/// Runs `program` under `deadline` and returns the outcome.
fn run_under(program: &Program, deadline: &Deadline) -> Result<phast_ooo::SimStats, SimError> {
    let mut predictor = BlindSpeculation;
    let mut core = Core::new(program, CoreConfig::alder_lake(), &mut predictor);
    core.try_run_within(1_000_000, 50_000_000, deadline)
}

/// Asserts the run died on the *first* poll: a structured deadline error
/// whose snapshot shows cycle 0 and nothing committed.
fn assert_died_on_first_poll(outcome: Result<phast_ooo::SimStats, SimError>) {
    match outcome {
        Err(SimError::Deadline { snapshot, .. }) => {
            assert_eq!(snapshot.cycle, 0, "expired token must fire at the cycle-0 poll");
            assert_eq!(snapshot.stats.committed, 0, "nothing may commit past an expired token");
        }
        other => panic!("expected SimError::Deadline, got {other:?}"),
    }
}

#[test]
fn zero_budget_fires_on_the_first_poll() {
    let program = long_loop(100_000);
    assert_died_on_first_poll(run_under(&program, &Deadline::after(Duration::ZERO)));
}

#[test]
fn already_past_deadline_fires_on_the_first_poll() {
    let program = long_loop(100_000);
    let deadline = Deadline::after(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    assert_died_on_first_poll(run_under(&program, &deadline));
}

/// A budget too large for the clock to add to `now` must not wrap to an
/// expired token: it never expires, so the run finishes.
#[test]
fn budget_beyond_the_clock_never_expires() {
    let deadline = Deadline::after(Duration::MAX);
    assert!(!deadline.expired());
    let stats = run_under(&long_loop(2_000), &deadline).expect("the run is not cut");
    assert!(stats.committed > 0);
}
