//! Path sensitivity demo: the paper's Fig. 5 scenario, run end to end.
//!
//! A single divergent branch *previous to the store* selects between two
//! store sequences with different store distances. A PC-only prediction
//! must be wrong on half the iterations; PHAST's N+1 rule (include the
//! branch previous to the store, even though N = 0 branches separate the
//! store from the load) nails both paths.
//!
//! ```text
//! cargo run --release --example path_sensitivity
//! ```

use phast::{Phast, PhastConfig};
use phast_baselines::{NoSqConfig, NoSqPredictor};
use phast_isa::{CondKind, MemSize, Program, ProgramBuilder, Reg};
use phast_mdp::MemDepPredictor;
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, TrainPoint};

/// The Fig. 5 program: left path stores at distance 0 from the load,
/// right path at distance 2; the only divergent branch is before the
/// stores.
fn fig5_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let left = b.block();
    let right = b.block();
    let join = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x1000).li(Reg(2), 1).li(Reg(10), 0).jump(head);
    b.at(head)
        .andi(Reg(3), Reg(10), 1) // alternate the path each iteration
        .div(Reg(4), Reg(1), Reg(2)) // late-resolving store address
        .div(Reg(4), Reg(4), Reg(2))
        .addi(Reg(5), Reg(10), 7)
        .branchi(CondKind::Eq, Reg(3), 1, left)
        .fallthrough(right);
    // Left: conflicting store is the youngest older store (distance 0).
    b.at(left).store(Reg(4), 0, Reg(5), MemSize::B8).jump(join);
    // Right: two more stores follow the conflicting one (distance 2).
    b.at(right)
        .store(Reg(4), 0, Reg(5), MemSize::B8)
        .store(Reg(4), 64, Reg(5), MemSize::B8)
        .store(Reg(4), 128, Reg(5), MemSize::B8)
        .jump(join);
    b.at(join)
        .load(Reg(6), Reg(1), 0, MemSize::B8) // early address: can overtake
        .add(Reg(7), Reg(7), Reg(6))
        .addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().expect("valid program")
}

fn run(name: &str, program: &Program, pred: &mut dyn MemDepPredictor, train: TrainPoint) {
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = train;
    let s = try_simulate_within(program, &cfg, pred, 500_000, &Deadline::none())
        .expect("runs cleanly");
    println!(
        "{:<10} IPC {:>6.3}  violations {:>5}  false deps {:>5}",
        name, s.ipc(), s.violations, s.false_dependences
    );
}

fn main() {
    let program = fig5_program(5_000);
    println!("Fig. 5 scenario: distance 0 on the left path, distance 2 on the right.\n");

    run(
        "phast",
        &program,
        &mut Phast::new(PhastConfig::paper()),
        TrainPoint::Commit,
    );
    run(
        "nosq",
        &program,
        &mut NoSqPredictor::new(NoSqConfig::paper()),
        TrainPoint::Detect,
    );

    // A PHAST stripped to one length-0 table *without* path information
    // would behave like a PC-only predictor. The nearest configurable
    // point: a single-table PHAST still sees the N+1 branch, so even the
    // minimal configuration disambiguates the two paths.
    run(
        "phast-1tbl",
        &program,
        &mut Phast::new(PhastConfig {
            history_lengths: vec![0],
            ..PhastConfig::paper()
        }),
        TrainPoint::Commit,
    );

    println!(
        "\nPHAST keys its length-0 table with the *destination of the divergent\n\
         branch previous to the store* (the N+1 rule), so both paths get their\n\
         own store distance; a PC-only table would thrash between 0 and 2."
    );
}
