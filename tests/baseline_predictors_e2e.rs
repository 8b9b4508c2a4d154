//! End-to-end behaviour of each baseline predictor on the out-of-order
//! core: every predictor class must (a) stay value-correct under heavy
//! speculation and (b) show its characteristic strengths and weaknesses.

use phast::{Phast, PhastConfig};
use phast_baselines::{
    Cht, ChtConfig, MdpTage, MdpTageConfig, NoSqConfig, NoSqPredictor, StoreSets, StoreSetsConfig,
    StoreVector, StoreVectorConfig,
};
use phast_isa::{CondKind, MemSize, Program, ProgramBuilder, Reg};
use phast_mdp::{BlindSpeculation, MemDepPredictor};
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, SimStats, TrainPoint};

/// A loop with two alternating conflicting distances — exercises the
/// multi-distance learning of Store Vectors and the per-path entries of
/// the context-sensitive predictors.
fn alternating_distance_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let left = b.block();
    let right = b.block();
    let join = b.block();
    let exit = b.block();
    b.at(entry).li(Reg(1), 0x1000).li(Reg(2), 1).li(Reg(10), 0).jump(head);
    b.at(head)
        .andi(Reg(3), Reg(10), 1)
        .div(Reg(4), Reg(1), Reg(2))
        .div(Reg(4), Reg(4), Reg(2))
        .addi(Reg(5), Reg(10), 3)
        .branchi(CondKind::Eq, Reg(3), 1, left)
        .fallthrough(right);
    b.at(left).store(Reg(4), 0, Reg(5), MemSize::B8).jump(join);
    b.at(right)
        .store(Reg(4), 0, Reg(5), MemSize::B8)
        .store(Reg(4), 64, Reg(5), MemSize::B8)
        .jump(join);
    b.at(join)
        .load(Reg(6), Reg(1), 0, MemSize::B8)
        .add(Reg(7), Reg(7), Reg(6))
        .addi(Reg(10), Reg(10), 1)
        .branchi(CondKind::LtU, Reg(10), iters, head)
        .fallthrough(exit);
    b.at(exit).halt();
    b.set_entry(entry);
    b.build().unwrap()
}

fn run(p: &Program, pred: &mut dyn MemDepPredictor, train: TrainPoint) -> SimStats {
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = train;
    try_simulate_within(p, &cfg, pred, 400_000, &Deadline::none()).expect("runs cleanly")
}

#[test]
fn every_baseline_cuts_violations_versus_blind() {
    let p = alternating_distance_loop(2_000);
    let blind = run(&p, &mut BlindSpeculation, TrainPoint::Detect);
    assert!(blind.violations > 1_000, "the loop must be violation-dense");

    let preds: Vec<(Box<dyn MemDepPredictor>, TrainPoint)> = vec![
        (Box::new(StoreSets::new(StoreSetsConfig::paper())), TrainPoint::Detect),
        (Box::new(StoreVector::new(StoreVectorConfig::paper())), TrainPoint::Detect),
        (Box::new(Cht::new(ChtConfig::paper())), TrainPoint::Detect),
        (Box::new(NoSqPredictor::new(NoSqConfig::paper())), TrainPoint::Detect),
        (Box::new(MdpTage::new(MdpTageConfig::paper())), TrainPoint::Detect),
        (Box::new(MdpTage::new(MdpTageConfig::short())), TrainPoint::Detect),
        (Box::new(Phast::new(PhastConfig::paper())), TrainPoint::Commit),
    ];
    for (mut pred, train) in preds {
        let name = pred.name().to_owned();
        let s = run(&p, pred.as_mut(), train);
        assert!(
            s.violations * 10 < blind.violations,
            "{name} must cut violations 10x vs blind ({} vs {})",
            s.violations,
            blind.violations
        );
        assert!(
            s.ipc() > blind.ipc(),
            "{name} must beat blind speculation ({:.3} vs {:.3})",
            s.ipc(),
            blind.ipc()
        );
    }
}

#[test]
fn store_vector_waits_on_multiple_distances() {
    // Store Vectors accumulates both distances in one vector, so once
    // trained it waits for both candidate stores: few violations, but the
    // left path's extra wait shows as false dependences.
    let p = alternating_distance_loop(2_000);
    let mut sv = StoreVector::new(StoreVectorConfig::paper());
    let s = run(&p, &mut sv, TrainPoint::Detect);
    assert!(s.violations < 50, "trained vector stops the squashes (got {})", s.violations);
    assert!(
        s.false_dependences > 100,
        "the set-like vector over-waits on one path (got {})",
        s.false_dependences
    );
}

#[test]
fn cht_trades_violations_for_stalls() {
    let p = alternating_distance_loop(2_000);
    let mut cht = Cht::new(ChtConfig::paper());
    let s = run(&p, &mut cht, TrainPoint::Detect);
    let mut phast = Phast::new(PhastConfig::paper());
    let ph = run(&p, &mut phast, TrainPoint::Commit);
    assert!(s.violations < 100, "CHT suppresses violations (got {})", s.violations);
    assert!(
        s.ipc() <= ph.ipc() * 1.01,
        "coarse all-older waits cannot beat exact distances ({:.3} vs {:.3})",
        s.ipc(),
        ph.ipc()
    );
}

#[test]
fn store_sets_pays_for_wrong_instance_waits() {
    // The cross-iteration workload (perlbench_3) is built so the LFST's
    // youngest-instance answer is the wrong one.
    let w = phast_workloads::by_name("perlbench_3").unwrap();
    let p = w.build(500_000);
    let mut ss = StoreSets::new(StoreSetsConfig::paper());
    let ss_stats = run(&p, &mut ss, TrainPoint::Detect);
    let mut ph = Phast::new(PhastConfig::paper());
    let ph_stats = run(&p, &mut ph, TrainPoint::Commit);
    assert!(
        ph_stats.ipc() > ss_stats.ipc() * 1.10,
        "PHAST must clearly beat Store Sets here ({:.3} vs {:.3})",
        ph_stats.ipc(),
        ss_stats.ipc()
    );
}

#[test]
fn mdp_tage_learns_indirect_dispatch() {
    let w = phast_workloads::by_name("povray").unwrap();
    let p = w.build(400_000);
    let mut tage = MdpTage::new(MdpTageConfig::paper());
    let s = run(&p, &mut tage, TrainPoint::Detect);
    let mut blind = BlindSpeculation;
    let b = run(&p, &mut blind, TrainPoint::Detect);
    assert!(
        s.violations * 20 < b.violations,
        "MDP-TAGE must learn the dispatch paths ({} vs blind {})",
        s.violations,
        b.violations
    );
}
