//! Quickstart: build a tiny program, run it on the out-of-order core with
//! PHAST, and print what the memory dependence predictor did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use phast::{Phast, PhastConfig};
use phast_isa::{CondKind, MemSize, ProgramBuilder, Reg};
use phast_mdp::{BlindSpeculation, MemDepPredictor};
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, TrainPoint};

fn main() {
    // A loop in which a store's address resolves late (divide chain) and
    // the following load reads the same location through a fast register:
    // without prediction the load overtakes the store and is squashed at
    // commit, every iteration.
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x1000).li(Reg(2), 1).li(Reg(10), 0).jump(body);
    b.at(body)
        .div(Reg(4), Reg(1), Reg(2)) // slow copy of the address
        .div(Reg(4), Reg(4), Reg(2))
        .addi(Reg(5), Reg(10), 42)
        .store(Reg(4), 0, Reg(5), MemSize::B8) // address ready late
        .load(Reg(6), Reg(1), 0, MemSize::B8) // same address, ready early
        .add(Reg(7), Reg(7), Reg(6))
        .addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), 2_000, body)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    let program = b.build().expect("valid program");

    let cfg = CoreConfig::alder_lake();

    // Baseline: no memory dependence prediction.
    let mut blind = BlindSpeculation;
    let no_mdp = try_simulate_within(&program, &cfg, &mut blind, 1_000_000, &Deadline::none())
        .expect("runs cleanly");

    // PHAST, trained at commit as in the paper (§IV-A1).
    let mut phast_cfg = cfg.clone();
    phast_cfg.train_point = TrainPoint::Commit;
    let mut predictor = Phast::new(PhastConfig::paper());
    let with_phast =
        try_simulate_within(&program, &phast_cfg, &mut predictor, 1_000_000, &Deadline::none())
            .expect("runs cleanly");

    println!("program: {} static instructions", program.num_insts());
    println!();
    println!("              {:>12} {:>12}", "no MDP", "PHAST");
    println!("IPC           {:>12.3} {:>12.3}", no_mdp.ipc(), with_phast.ipc());
    println!("violations    {:>12} {:>12}", no_mdp.violations, with_phast.violations);
    println!(
        "false deps    {:>12} {:>12}",
        no_mdp.false_dependences, with_phast.false_dependences
    );
    println!(
        "fwd'd loads   {:>12} {:>12}",
        no_mdp.forwarded_loads, with_phast.forwarded_loads
    );
    println!();
    println!(
        "speedup from PHAST: {:.2}x (predictor size: {:.1} KB)",
        with_phast.ipc() / no_mdp.ipc(),
        predictor.storage_bits() as f64 / 8192.0
    );
    assert!(with_phast.ipc() > no_mdp.ipc(), "PHAST should win on this loop");
}
