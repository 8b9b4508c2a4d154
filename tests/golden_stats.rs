//! Golden architectural-timing regression test.
//!
//! Pins the exact `SimStats` counters of a small workload × predictor grid.
//! The hot-path optimizations in `phast-ooo` (incremental scoreboards,
//! allocation-free issue/writeback/forwarding) must be *perf-only*: any
//! rewrite that changes architectural timing — cycles, violations, false
//! dependences, squashes — fails this test loudly instead of silently
//! shifting every figure of the reproduction.
//!
//! The goldens were recorded from the pre-optimization scan-based core and
//! are identical in debug and release builds (integrity checking is forced
//! off so the checked/unchecked configurations time identically). The
//! NoSQ, MDP-TAGE and MDP-TAGE-S rows were recorded before TAGE's history
//! folding and the divergent-history walk were rewritten: they are the
//! rows that fold divergent histories, MDP-TAGE's up to its longest
//! filled component and NoSQ's in its plain fold.
//!
//! The last two columns are the predictor's table reads and writes
//! (`SimStats::predictor_accesses`), from which Fig. 16 computes its
//! energies. They were recorded before MDP-TAGE stopped probing the
//! components it has never filled: a probe it skips still counts as one
//! read per configured component.
//!
//! To regenerate after an *intentional* timing change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden_stats -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN` below, explaining the timing
//! change in the commit message.

use phast_experiments::PredictorKind;
use phast_ooo::{try_simulate_within, CheckConfig, CoreConfig, Deadline};

const INSTS: u64 = 6_000;
const ITERS: u64 = 50_000;

const WORKLOADS: &[&str] = &["exchange2", "lbm", "x264", "gcc_1"];

fn predictors() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Blind,
        PredictorKind::StoreSets,
        PredictorKind::NoSq,
        PredictorKind::MdpTage,
        PredictorKind::MdpTageS,
        PredictorKind::Phast,
        PredictorKind::Ideal,
    ]
}

/// One golden row: (workload, predictor label, cycles, committed,
/// violations, false dependences, forwarded loads, squashed uops,
/// predictor table reads, predictor table writes).
type Golden = (&'static str, &'static str, u64, u64, u64, u64, u64, u64, u64, u64);

const GOLDEN: &[Golden] = &[
    // (workload, predictor, cycles, committed, violations, false_deps, forwarded, squashed,
    //  reads, writes)
    ("exchange2", "blind", 12312, 6003, 444, 0, 0, 37885, 0, 0),
    ("exchange2", "store-sets", 2479, 6009, 2, 0, 442, 1756, 2449, 593),
    ("exchange2", "nosq", 2479, 6009, 2, 61, 442, 1756, 1176, 454),
    ("exchange2", "mdp-tage", 2602, 6009, 12, 0, 432, 2358, 7644, 32),
    ("exchange2", "mdp-tage-s", 2479, 6009, 2, 0, 442, 1756, 4704, 5),
    ("exchange2", "phast", 2291, 6009, 6, 0, 438, 1070, 4296, 450),
    ("exchange2", "ideal", 2427, 6009, 0, 0, 444, 1105, 0, 0),
    ("lbm", "blind", 1824, 6005, 0, 0, 257, 1, 0, 0),
    ("lbm", "store-sets", 1824, 6005, 0, 0, 257, 1, 538, 0),
    ("lbm", "nosq", 1824, 6005, 0, 0, 257, 1, 538, 0),
    ("lbm", "mdp-tage", 1824, 6005, 0, 0, 257, 1, 3228, 0),
    ("lbm", "mdp-tage-s", 1824, 6005, 0, 0, 257, 1, 2152, 0),
    ("lbm", "phast", 1824, 6005, 0, 0, 257, 1, 2152, 0),
    ("lbm", "ideal", 1824, 6005, 0, 0, 257, 1, 0, 0),
    ("x264", "blind", 8409, 6000, 203, 0, 0, 20554, 0, 0),
    ("x264", "store-sets", 2464, 6009, 2, 0, 201, 769, 1519, 300),
    ("x264", "nosq", 2464, 6009, 2, 0, 201, 769, 916, 217),
    ("x264", "mdp-tage", 2547, 6009, 5, 0, 198, 1043, 5736, 23),
    ("x264", "mdp-tage-s", 2464, 6009, 2, 0, 201, 769, 3664, 7),
    ("x264", "phast", 2494, 6009, 3, 0, 200, 868, 3720, 206),
    ("x264", "ideal", 2325, 6009, 0, 0, 203, 291, 0, 0),
    ("gcc_1", "blind", 11304, 6009, 118, 0, 108, 20673, 0, 0),
    ("gcc_1", "store-sets", 9888, 6009, 6, 0, 213, 16499, 3911, 686),
    ("gcc_1", "nosq", 9898, 6009, 7, 55, 182, 16536, 2292, 172),
    ("gcc_1", "mdp-tage", 10900, 6003, 96, 0, 128, 19122, 15588, 96),
    ("gcc_1", "mdp-tage-s", 9870, 6009, 6, 18, 213, 16437, 9112, 6),
    ("gcc_1", "phast", 10035, 6009, 12, 0, 208, 16989, 9352, 164),
    ("gcc_1", "ideal", 9890, 6000, 0, 0, 217, 16534, 0, 0),
];

/// An observed row, shaped like [`Golden`] but with owned strings.
type ObservedRow = (String, String, u64, u64, u64, u64, u64, u64, u64, u64);

fn run_grid() -> Vec<ObservedRow> {
    let mut rows = Vec::new();
    for wname in WORKLOADS {
        let w = phast_workloads::by_name(wname).expect("workload exists");
        let program = w.build(ITERS);
        for kind in predictors() {
            let mut cfg = CoreConfig::alder_lake();
            cfg.train_point = kind.train_point();
            // Integrity checking must not influence timing; force it off so
            // debug and release builds produce identical counters.
            cfg.check = CheckConfig::off();
            let mut predictor = kind.build(&program, INSTS);
            let none = Deadline::none();
            let stats = try_simulate_within(&program, &cfg, predictor.as_mut(), INSTS, &none)
                .unwrap_or_else(|e| panic!("{wname} × {}: {e}", kind.label()));
            rows.push((
                wname.to_string(),
                kind.label(),
                stats.cycles,
                stats.committed,
                stats.violations,
                stats.false_dependences,
                stats.forwarded_loads,
                stats.squashed_uops,
                stats.predictor_accesses.reads,
                stats.predictor_accesses.writes,
            ));
        }
    }
    rows
}

#[test]
fn timing_matches_the_pinned_goldens() {
    let rows = run_grid();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (w, p, cy, co, v, f, fw, sq, rd, wr) in &rows {
            println!("    (\"{w}\", \"{p}\", {cy}, {co}, {v}, {f}, {fw}, {sq}, {rd}, {wr}),");
        }
        return;
    }
    assert_eq!(rows.len(), GOLDEN.len(), "grid shape changed — regenerate the goldens");
    for (got, want) in rows.iter().zip(GOLDEN) {
        let got_tuple = (
            got.0.as_str(),
            got.1.as_str(),
            got.2,
            got.3,
            got.4,
            got.5,
            got.6,
            got.7,
            got.8,
            got.9,
        );
        assert_eq!(
            got_tuple,
            *want,
            "architectural timing diverged for {} × {}: \
             got (cycles {}, committed {}, violations {}, false_deps {}, forwarded {}, squashed {}, \
             reads {}, writes {}), expected {:?}",
            got.0, got.1, got.2, got.3, got.4, got.5, got.6, got.7, got.8, got.9, want
        );
    }
}
