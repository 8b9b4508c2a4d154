//! The paper's Fig. 5 claim, end to end: when the only divergent branch
//! sits *before* the conflicting store (N = 0), the branch's destination
//! must be part of the context or the two paths' store distances alias.
//! PHAST's N+1 rule provides exactly that bit of context.

use phast::{Phast, PhastConfig, UnlimitedPhast};
use phast_branch::{DivergentEvent, DivergentHistory};
use phast_isa::{CondKind, MemSize, Program, ProgramBuilder, Reg};
use phast_mdp::{
    DepPrediction, LoadQuery, MemDepPredictor, PredictionOutcome, Violation,
};
use phast_ooo::{try_simulate_within, CoreConfig, Deadline, TrainPoint};

/// Unit-level restatement: two violations with the same load PC and N = 0
/// but different previous-branch destinations must train two distinct
/// entries.
#[test]
fn n_plus_one_distinguishes_predictor_entries() {
    for make in [
        || Box::new(Phast::new(PhastConfig::paper())) as Box<dyn MemDepPredictor>,
        || Box::new(UnlimitedPhast::new()) as Box<dyn MemDepPredictor>,
    ] {
        let mut p = make();
        let mut left = DivergentHistory::new();
        left.push(DivergentEvent { indirect: false, taken: true, target: 0b00100 });
        let mut right = DivergentHistory::new();
        right.push(DivergentEvent { indirect: false, taken: true, target: 0b01000 });

        fn viol(h: &DivergentHistory, d: u32) -> Violation<'_> {
            Violation {
            load_pc: 0x40_0100,
            store_pc: 0x40_0200,
            store_distance: d,
            history_len: 0, // N = 0: branch is previous to the store
            history: h,
            load_token: 0,
            store_token: 0,
            prior: PredictionOutcome::none(),
            }
        }
        p.train_violation(&viol(&left, 0));
        p.train_violation(&viol(&right, 2));

        fn q(h: &DivergentHistory) -> LoadQuery<'_> {
            LoadQuery { pc: 0x40_0100, token: 0, history: h, arch_seq: 0, older_stores: 8 }
        }
        assert_eq!(
            p.predict_load(&q(&left)).dep,
            DepPrediction::Distance(0),
            "{}: left path keeps its own distance",
            p.name()
        );
        assert_eq!(
            p.predict_load(&q(&right)).dep,
            DepPrediction::Distance(2),
            "{}: right path keeps its own distance",
            p.name()
        );
    }
}

/// Both paths even share the branch *outcome* (taken on both sides via
/// different targets of an indirect jump): only the destination bits can
/// tell them apart.
#[test]
fn same_outcome_different_destination_still_distinguishes() {
    let mut p = Phast::new(PhastConfig::paper());
    let mut a = DivergentHistory::new();
    a.push(DivergentEvent { indirect: true, taken: true, target: 0b00001 });
    let mut b = DivergentHistory::new();
    b.push(DivergentEvent { indirect: true, taken: true, target: 0b00010 });

    fn viol(h: &DivergentHistory, d: u32) -> Violation<'_> {
        Violation {
            load_pc: 0x40_0100,
            store_pc: 0x40_0200,
            store_distance: d,
            history_len: 0,
            history: h,
            load_token: 0,
            store_token: 0,
            prior: PredictionOutcome::none(),
        }
    }
    p.train_violation(&viol(&a, 1));
    p.train_violation(&viol(&b, 3));
    fn q(h: &DivergentHistory) -> LoadQuery<'_> {
        LoadQuery { pc: 0x40_0100, token: 0, history: h, arch_seq: 0, older_stores: 8 }
    }
    assert_eq!(p.predict_load(&q(&a)).dep, DepPrediction::Distance(1));
    assert_eq!(p.predict_load(&q(&b)).dep, DepPrediction::Distance(3));
}

/// End to end: the alternating Fig. 5 loop. PHAST must keep violations and
/// false dependences near zero after warmup; a PC-only (path-insensitive)
/// distance predictor — PHAST trained as if every conflict had the same
/// context — must keep mispredicting.
fn fig5_loop(iters: i64) -> Program {
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
        .addi(Reg(5), Reg(10), 7)
        .branchi(CondKind::Eq, Reg(3), 1, left)
        .fallthrough(right);
    b.at(left).store(Reg(4), 0, Reg(5), MemSize::B8).jump(join);
    b.at(right)
        .store(Reg(4), 0, Reg(5), MemSize::B8)
        .store(Reg(4), 64, Reg(5), MemSize::B8)
        .store(Reg(4), 128, Reg(5), MemSize::B8)
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

#[test]
fn phast_resolves_the_fig5_loop_end_to_end() {
    let p = fig5_loop(3000);
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = TrainPoint::Commit;
    let mut pred = Phast::new(PhastConfig::paper());
    let s = try_simulate_within(&p, &cfg, &mut pred, 500_000, &Deadline::none())
        .expect("runs cleanly");
    assert!(s.violations <= 10, "only cold misses may squash (got {})", s.violations);
    assert!(
        s.false_dependences <= 10,
        "both paths' distances are learned exactly (got {})",
        s.false_dependences
    );
    assert!(s.forwarded_loads > 2_500, "loads forward from the right store");
}
