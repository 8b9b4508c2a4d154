//! Golden sampled-tier regression test.
//!
//! Pins the per-cell counters of a small sampled grid: ideal plus the
//! five headline predictors on three workloads, in three window shapes —
//! stride, phase, and stride with overlapping warm phases (the warm phase
//! is longer than the stride, so each window's warm phase begins before
//! the previous window's detailed start). `tests/golden_stats.rs` pins
//! full detail only; this file pins what capture, warming and window
//! replay make of the same core, so a change to the sampling engine that
//! moves any cell's numbers fails here instead of silently shifting every
//! sampled figure.
//!
//! Integrity checking is forced off, so debug and release builds produce
//! identical counters.
//!
//! To regenerate after an *intentional* change to sampled results:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p phast-experiments --test sampled_golden -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN` below, explaining the change
//! in the commit message.

use phast_experiments::harness::{Budget, Sweep};
use phast_experiments::{PredictorKind, SampleConfig};
use phast_ooo::{CheckConfig, CoreConfig};

fn budget() -> Budget {
    Budget {
        insts: 12_000,
        workload_iters: 100_000,
        max_workloads: Some(2),
        // `perlbench_1` and `perlbench_2` read the same cycles and no
        // violations under every predictor; `gcc_1` does not, so how each
        // MDP is warmed and replayed shows in its rows.
        extra_workloads: vec![phast_workloads::by_name("gcc_1").expect("workload exists")],
    }
}

fn shapes() -> [(&'static str, SampleConfig); 3] {
    [
        ("stride", SampleConfig::new(4, 800, 500)),
        ("phase", SampleConfig::new(4, 800, 500).phase(2)),
        // Stride 3,000 < warm 4,000: warm phases overlap the previous
        // window's detailed start.
        ("overlap", SampleConfig::new(4, 4_000, 500)),
    ]
}

/// One golden row: (shape, workload, predictor label, cycles, committed,
/// violations, false dependences, measured instructions, warmed
/// instructions).
type Golden = (&'static str, &'static str, &'static str, u64, u64, u64, u64, u64, u64);

const GOLDEN: &[Golden] = &[
    // (shape, workload, predictor, cycles, committed, violations, false_deps, measured, warmed)
    ("stride", "perlbench_1", "ideal", 586, 1997, 0, 0, 1997, 5269),
    ("stride", "perlbench_2", "ideal", 572, 1993, 0, 0, 1993, 5266),
    ("stride", "gcc_1", "ideal", 1795, 1997, 0, 0, 1997, 5253),
    ("stride", "perlbench_1", "store-sets", 586, 1997, 0, 0, 1997, 5269),
    ("stride", "perlbench_2", "store-sets", 572, 1993, 0, 0, 1993, 5266),
    ("stride", "gcc_1", "store-sets", 1795, 1997, 0, 0, 1997, 5253),
    ("stride", "perlbench_1", "nosq", 586, 1997, 0, 12, 1997, 5269),
    ("stride", "perlbench_2", "nosq", 572, 1993, 0, 0, 1993, 5266),
    ("stride", "gcc_1", "nosq", 1826, 1997, 2, 16, 1997, 5253),
    ("stride", "perlbench_1", "mdp-tage", 586, 1997, 0, 0, 1997, 5269),
    ("stride", "perlbench_2", "mdp-tage", 572, 1993, 0, 0, 1993, 5266),
    ("stride", "gcc_1", "mdp-tage", 2192, 2009, 26, 0, 2009, 5253),
    ("stride", "perlbench_1", "mdp-tage-s", 586, 1997, 0, 0, 1997, 5269),
    ("stride", "perlbench_2", "mdp-tage-s", 572, 1993, 0, 0, 1993, 5266),
    ("stride", "gcc_1", "mdp-tage-s", 1795, 1997, 0, 1, 1997, 5253),
    ("stride", "perlbench_1", "phast", 586, 1997, 0, 0, 1997, 5269),
    ("stride", "perlbench_2", "phast", 572, 1993, 0, 0, 1993, 5266),
    ("stride", "gcc_1", "phast", 1795, 1997, 0, 0, 1997, 5253),
    ("phase", "perlbench_1", "ideal", 538, 1998, 0, 0, 999, 2634),
    ("phase", "perlbench_2", "ideal", 575, 2003, 0, 0, 997, 2630),
    ("phase", "gcc_1", "ideal", 2085, 1997, 0, 0, 997, 2628),
    ("phase", "perlbench_1", "store-sets", 538, 1998, 0, 0, 999, 2634),
    ("phase", "perlbench_2", "store-sets", 575, 2003, 0, 0, 997, 2630),
    ("phase", "gcc_1", "store-sets", 2085, 1997, 0, 0, 997, 2628),
    ("phase", "perlbench_1", "nosq", 538, 1998, 0, 8, 999, 2634),
    ("phase", "perlbench_2", "nosq", 575, 2003, 0, 0, 997, 2630),
    ("phase", "gcc_1", "nosq", 2094, 1997, 1, 17, 997, 2628),
    ("phase", "perlbench_1", "mdp-tage", 538, 1998, 0, 0, 999, 2634),
    ("phase", "perlbench_2", "mdp-tage", 575, 2003, 0, 0, 997, 2630),
    ("phase", "gcc_1", "mdp-tage", 2328, 2000, 26, 0, 1000, 2628),
    ("phase", "perlbench_1", "mdp-tage-s", 538, 1998, 0, 0, 999, 2634),
    ("phase", "perlbench_2", "mdp-tage-s", 575, 2003, 0, 0, 997, 2630),
    ("phase", "gcc_1", "mdp-tage-s", 2085, 1997, 0, 0, 997, 2628),
    ("phase", "perlbench_1", "phast", 538, 1998, 0, 0, 999, 2634),
    ("phase", "perlbench_2", "phast", 575, 2003, 0, 0, 997, 2630),
    ("phase", "gcc_1", "phast", 2085, 1997, 0, 0, 997, 2628),
    ("overlap", "perlbench_1", "ideal", 586, 1997, 0, 0, 1997, 15319),
    ("overlap", "perlbench_2", "ideal", 572, 1993, 0, 0, 1993, 15316),
    ("overlap", "gcc_1", "ideal", 1795, 1997, 0, 0, 1997, 15303),
    ("overlap", "perlbench_1", "store-sets", 586, 1997, 0, 0, 1997, 15319),
    ("overlap", "perlbench_2", "store-sets", 572, 1993, 0, 0, 1993, 15316),
    ("overlap", "gcc_1", "store-sets", 1795, 1997, 0, 0, 1997, 15303),
    ("overlap", "perlbench_1", "nosq", 586, 1997, 0, 2, 1997, 15319),
    ("overlap", "perlbench_2", "nosq", 572, 1993, 0, 0, 1993, 15316),
    ("overlap", "gcc_1", "nosq", 1826, 1997, 2, 14, 1997, 15303),
    ("overlap", "perlbench_1", "mdp-tage", 586, 1997, 0, 0, 1997, 15319),
    ("overlap", "perlbench_2", "mdp-tage", 572, 1993, 0, 0, 1993, 15316),
    ("overlap", "gcc_1", "mdp-tage", 2192, 2009, 26, 0, 2009, 15303),
    ("overlap", "perlbench_1", "mdp-tage-s", 586, 1997, 0, 0, 1997, 15319),
    ("overlap", "perlbench_2", "mdp-tage-s", 572, 1993, 0, 0, 1993, 15316),
    ("overlap", "gcc_1", "mdp-tage-s", 1795, 1997, 0, 0, 1997, 15303),
    ("overlap", "perlbench_1", "phast", 586, 1997, 0, 0, 1997, 15319),
    ("overlap", "perlbench_2", "phast", 572, 1993, 0, 0, 1993, 15316),
    ("overlap", "gcc_1", "phast", 1795, 1997, 0, 0, 1997, 15303),
];

/// An observed row, shaped like [`Golden`] but with owned strings.
type ObservedRow = (&'static str, String, String, u64, u64, u64, u64, u64, u64);

fn run_grid() -> Vec<ObservedRow> {
    let budget = budget();
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::off();
    let mut kinds = vec![PredictorKind::Ideal];
    kinds.extend(PredictorKind::headline());
    let mut rows = Vec::new();
    for (shape, scfg) in shapes() {
        let grid = Sweep::serial().with_sampling(scfg).run_grid(&kinds, &cfg, &budget);
        for r in grid.iter().flatten() {
            assert!(r.ok(), "{shape}: {} × {} degraded", r.workload, r.predictor);
            let meta = r.sampling.as_ref().expect("sampled cell carries metadata");
            rows.push((
                shape,
                r.workload.clone(),
                r.predictor.clone(),
                r.stats.cycles,
                r.stats.committed,
                r.stats.violations,
                r.stats.false_dependences,
                meta.measured_insts,
                meta.warmed_insts,
            ));
        }
    }
    rows
}

#[test]
fn sampled_cells_match_the_pinned_goldens() {
    let rows = run_grid();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (s, w, p, cy, co, v, f, me, wa) in &rows {
            println!("    (\"{s}\", \"{w}\", \"{p}\", {cy}, {co}, {v}, {f}, {me}, {wa}),");
        }
        return;
    }
    assert_eq!(rows.len(), GOLDEN.len(), "grid shape changed — regenerate the goldens");
    for (got, want) in rows.iter().zip(GOLDEN) {
        let got_tuple =
            (got.0, got.1.as_str(), got.2.as_str(), got.3, got.4, got.5, got.6, got.7, got.8);
        assert_eq!(
            got_tuple, *want,
            "sampled results diverged for {} × {} ({})",
            got.1, got.2, got.0
        );
    }
}
