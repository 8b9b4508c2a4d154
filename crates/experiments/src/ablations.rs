//! Ablations of the design choices DESIGN.md calls out. These go beyond
//! the paper's figures: each isolates one mechanism the paper argues for
//! and measures the system without it.
//!
//! * **N+1 rule** (§IV-A2 / Fig. 5): PHAST keyed with L+1 entries (the
//!   oldest carrying the pre-store branch destination) versus plain
//!   L-entry histories.
//! * **Training point** (§IV-A1): PHAST trained at commit versus at
//!   detection.
//! * **Squash policy** (§IV-A1): lazy (commit-time) versus eager
//!   (detect-time) memory-order squash.
//! * **Confidence width**: PHAST's 4-bit confidence counter versus 2 and
//!   6 bits.
//! * **History-length set**: PHAST's MDP-tuned lengths versus TAGE's
//!   branch-prediction lengths (the paper's "an Omnipredictor cannot be
//!   tuned for both" claim, §IV-B).
//!
//! Each predictor variant is a [`PredictorKind`], so every variant runs
//! as ordinary sweep cells: one grid with the ideal baseline, plus the
//! paper's PHAST on an eager-squash core.

use crate::harness::{geomean, normalized_ipc, Budget, RunResult, Sweep};
use crate::predictors::PredictorKind;
use crate::tablefmt::TextTable;
use phast_ooo::{CoreConfig, MemSquashPolicy};

/// Runs all ablations and renders the report.
pub fn run(sweep: &Sweep, budget: &Budget) -> String {
    let cfg = CoreConfig::alder_lake();
    let kinds = [
        PredictorKind::Ideal,
        PredictorKind::Phast,
        PredictorKind::PhastNoNPlusOne,
        PredictorKind::PhastAtDetect,
        PredictorKind::PhastConfidence(2),
        PredictorKind::PhastConfidence(6),
        PredictorKind::PhastTageLengths,
    ];
    let rows = sweep.run_grid(&kinds, &cfg, budget);
    let mut eager_core = cfg.clone();
    eager_core.mem_squash = MemSquashPolicy::Eager;
    let eager = sweep.run_all(&PredictorKind::Phast, &eager_core, budget);

    let ideal = &rows[0];
    let mut t = TextTable::new(vec!["variant", "norm. IPC", "MPKI FN", "MPKI FP"]);
    let variants: [(&str, &[RunResult]); 7] = [
        ("phast (paper)", &rows[1]),
        ("no N+1 rule", &rows[2]),
        ("train at detect", &rows[3]),
        ("eager mem squash", &eager),
        ("2-bit confidence", &rows[4]),
        ("6-bit confidence", &rows[5]),
        ("TAGE history lengths", &rows[6]),
    ];
    for (name, runs) in variants {
        let g = geomean(&normalized_ipc(runs, ideal));
        let n = runs.len() as f64;
        let fnm = runs.iter().map(|r| r.stats.violation_mpki()).sum::<f64>() / n;
        let fpm = runs.iter().map(|r| r.stats.false_dep_mpki()).sum::<f64>() / n;
        t.row(vec![name.to_string(), format!("{g:.4}"), format!("{fnm:.3}"), format!("{fpm:.3}")]);
    }

    format!(
        "Ablations — PHAST design choices (IPC normalized to ideal)\n\n{t}\n\
         Expected: the paper configuration wins or ties every row; the\n\
         no-N+1 and TAGE-lengths variants lose on path-sensitive workloads.\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;

    #[test]
    fn ablations_render_on_tiny_budget() {
        let b = Budget { insts: 4_000, workload_iters: 20_000, max_workloads: Some(2), extra_workloads: Vec::new() };
        let sweep = Sweep::parallel();
        let out = run(&sweep, &b);
        assert!(out.contains("phast (paper)"));
        assert!(out.contains("no N+1 rule"));
        assert!(out.contains("eager mem squash"));
        // Every variant's rows name it: ideal, phast and five variants.
        let runs = sweep.artifact("ablations", &b, Duration::ZERO).runs;
        let labels: BTreeSet<&str> = runs.iter().map(|r| r.predictor.as_str()).collect();
        assert_eq!(labels.len(), 7, "{labels:?}");
    }

    #[test]
    fn sampled_ablations_sample_every_row() {
        let b = Budget { insts: 6_000, workload_iters: 30_000, max_workloads: Some(2), extra_workloads: Vec::new() };
        let sweep = Sweep::parallel().with_sampling(phast_sample::SampleConfig::new(3, 600, 400));
        run(&sweep, &b);
        let runs = sweep.artifact("ablations", &b, Duration::ZERO).runs;
        assert_eq!(runs.len(), 8 * 2, "ideal, phast, five variants and eager squash");
        for r in &runs {
            assert!(r.sampling.is_some(), "{} × {} ran in full detail", r.workload, r.predictor);
        }
    }
}
