//! One runner per table/figure of the paper. Every function takes the
//! [`Sweep`] engine to run on plus a [`Budget`] and returns a displayable
//! report; [`EXPERIMENTS`] and [`run_experiment`] map experiment ids to
//! them.
//!
//! Every (workload, predictor, core) run that writes an artifact row is a
//! sweep cell ([`Sweep::run_grid`] and friends: journaled, run once,
//! deadline-bound, panic-isolated); [`Sweep::map`] fans only the work
//! that is not a cell. Results are collected by matrix index, so a
//! parallel sweep renders the same bytes as a serial one.

use crate::harness::{geomean, normalized_ipc, Budget, RunResult, Sweep};
use crate::predictors::PredictorKind;
use crate::tablefmt::{f3, pct, TextTable};
use phast_ooo::CoreConfig;

/// An experiment's runner: the report it prints for a sweep and budget.
pub type Runner = fn(&Sweep, &Budget) -> String;

/// Every experiment as `(id, description, runner, in_all)`, in
/// `--list-experiments` order — the one table behind dispatch, the
/// listing, the unknown-id error and `all`. `all` skips the rows whose
/// `in_all` is false: only `sampled`, which runs its own full-detail
/// reference grid, so it is opt-in. Figures read from one grid share its
/// id: `fig6` renders Figs. 6-11 and `fig15` Figs. 14-16.
pub const EXPERIMENTS: &[(&str, &str, Runner, bool)] = &[
    ("fig1", "30 years of branch vs memory dependence predictors (MPKI)", fig1::run, true),
    ("fig2", "MDP MPKI and gap to ideal across processor generations", fig2::run, true),
    ("fig4", "percentage of loads depending on multiple stores", fig4::run, true),
    (
        "fig6",
        "unlimited-predictor limit study: IPC and paths vs history, per workload, conflict \
         lengths, history caps (figs. 6-11)",
        fig6::run,
        true,
    ),
    ("fig12", "forwarding-filter (FWD) ablation across predictors", fig12::run, true),
    ("fig13", "performance vs storage sweep", fig13::run, true),
    (
        "fig15",
        "headline predictors per workload: MPKI, IPC vs ideal and speedups, energy (figs. 14-16)",
        |s, b| fig15::run(s, b).report,
        true,
    ),
    ("table1", "system configuration constants", table1::run, true),
    ("table2", "predictor geometry, sizes and energy per access", table2::run, true),
    ("ablations", "design-choice ablations beyond the paper's figures", crate::ablations::run, true),
    (
        "sampled",
        "sampled-vs-full validation: stride and phase legs, one reference (opt-in)",
        |s, b| sampled::run(s, b).report,
        false,
    ),
    ("static_baseline", "static dependence signatures and zero-storage baseline", static_baseline::run, true),
];

/// Runs the experiment `id` of [`EXPERIMENTS`] on `sweep` and returns
/// its report; `None` for an unknown id.
pub fn run_experiment(id: &str, sweep: &Sweep, budget: &Budget) -> Option<String> {
    let &(_, _, run, _) = EXPERIMENTS.iter().find(|(e, ..)| *e == id)?;
    Some(run(sweep, budget))
}

/// Runs `kinds` prefixed by the ideal predictor as one flat grid; returns
/// the ideal row first, then one row per kind.
fn grid_with_ideal(
    sweep: &Sweep,
    kinds: &[PredictorKind],
    cfg: &CoreConfig,
    budget: &Budget,
) -> (Vec<RunResult>, Vec<Vec<RunResult>>) {
    let mut all = Vec::with_capacity(kinds.len() + 1);
    all.push(PredictorKind::Ideal);
    all.extend(kinds.iter().cloned());
    let mut rows = sweep.run_grid(&all, cfg, budget);
    let ideal = rows.remove(0);
    (ideal, rows)
}

/// Fig. 1: 30 years of branch predictors versus memory dependence
/// predictors, as average MPKI on a Nehalem-like core.
pub mod fig1 {
    use super::*;
    use phast_branch::DirectionConfig;

    /// Runs the study. Every point is a sweep cell: the six MDPs on the
    /// preset core, whose TAGE makes the Store Sets row the TAGE point of
    /// the branch table too, then Store Sets on the preset with each older
    /// direction predictor.
    pub fn run(sweep: &Sweep, budget: &Budget) -> String {
        let cfg = CoreConfig::nehalem();
        let mdps = [
            ("store-sets (1998)", PredictorKind::StoreSets),
            ("cht (1999)", PredictorKind::Cht),
            ("store-vector (2006)", PredictorKind::StoreVector),
            ("nosq (2006)", PredictorKind::NoSq),
            ("mdp-tage (2018)", PredictorKind::MdpTage),
            ("phast (2024)", PredictorKind::Phast),
        ];
        let kinds: Vec<PredictorKind> = mdps.iter().map(|(_, k)| k.clone()).collect();
        let rows = sweep.run_grid(&kinds, &cfg, budget);

        let older = [
            ("static-taken (1983)", DirectionConfig::StaticTaken),
            ("bimodal (1985)", DirectionConfig::Bimodal { entries: 4096 }),
            ("gshare (1993)", DirectionConfig::GShare { entries: 8192, history_bits: 12 }),
            ("perceptron (2001)", DirectionConfig::Perceptron { entries: 512, history_bits: 32 }),
        ];
        let older_rows: Vec<Vec<RunResult>> = older
            .iter()
            .map(|(_, direction)| {
                let dir_cfg = CoreConfig { direction: direction.clone(), ..cfg.clone() };
                sweep.run_all(&PredictorKind::StoreSets, &dir_cfg, budget)
            })
            .collect();

        let mut out = String::from("Fig. 1 — branch vs memory dependence prediction MPKI (Nehalem-like)\n\n");
        let mut t = TextTable::new(vec!["branch predictor (year)", "avg branch MPKI"]);
        let names = older.iter().map(|(name, _)| *name).chain(["tage (2011)"]);
        for (name, runs) in names.zip(older_rows.iter().chain([&rows[0]])) {
            let avg = runs.iter().map(|r| r.stats.branch_mpki()).sum::<f64>() / runs.len() as f64;
            t.row(vec![name.to_string(), f3(avg)]);
        }
        out.push_str(&t.to_string());

        let mut t = TextTable::new(vec![
            "memory dependence predictor (year)",
            "avg MPKI violations (FN)",
            "avg MPKI false deps (FP)",
        ]);
        for ((name, _), runs) in mdps.iter().zip(&rows) {
            let fnm = runs.iter().map(|r| r.stats.violation_mpki()).sum::<f64>() / runs.len() as f64;
            let fpm = runs.iter().map(|r| r.stats.false_dep_mpki()).sum::<f64>() / runs.len() as f64;
            t.row(vec![name.to_string(), f3(fnm), f3(fpm)]);
        }
        out.push('\n');
        out.push_str(&t.to_string());
        out
    }
}

/// Fig. 2: MDP MPKI (a) and gap to ideal (b) across processor generations.
pub mod fig2 {
    use super::*;

    /// Runs the study.
    pub fn run(sweep: &Sweep, budget: &Budget) -> String {
        let kinds = PredictorKind::headline();
        let mut mpki_t = TextTable::new(vec![
            "generation",
            "store-sets",
            "nosq",
            "mdp-tage",
            "mdp-tage-s",
            "phast",
        ]);
        let mut gap_t = mpki_t.clone();
        for cfg in CoreConfig::generations() {
            let (ideal, rows) = grid_with_ideal(sweep, &kinds, &cfg, budget);
            let mut mpki_row = vec![cfg.name.to_string()];
            let mut gap_row = vec![cfg.name.to_string()];
            for runs in &rows {
                let avg_mpki =
                    runs.iter().map(|r| r.stats.total_mpki()).sum::<f64>() / runs.len() as f64;
                let gap = 1.0 - geomean(&normalized_ipc(runs, &ideal));
                mpki_row.push(f3(avg_mpki));
                gap_row.push(pct(gap));
            }
            mpki_t.row(mpki_row);
            gap_t.row(gap_row);
        }
        format!(
            "Fig. 2a — average MDP MPKI per processor generation\n\n{mpki_t}\n\
             Fig. 2b — performance gap versus ideal MDP (lower is better)\n\n{gap_t}"
        )
    }
}

/// Fig. 4: percentage of loads depending on multiple stores.
pub mod fig4 {
    use super::*;
    use crate::predictors::ORACLE_WINDOW;
    use phast_mdp::{DepOracle, MultiStoreStats};

    /// Runs the study (pure emulation, no timing simulation).
    pub fn run(sweep: &Sweep, budget: &Budget) -> String {
        let mut t = TextTable::new(vec![
            "workload",
            "loads",
            "multi-store loads",
            "% of loads",
            "% same base reg",
        ]);
        let workloads = budget.workloads();
        let stats: Vec<MultiStoreStats> = sweep.map(&workloads, |_, w| {
            let program = w.build(budget.workload_iters);
            let oracle = DepOracle::build(&program, budget.insts, ORACLE_WINDOW).expect("emulates");
            oracle.multi_store_stats()
        });
        let mut total_pct = Vec::new();
        for (w, s) in workloads.iter().zip(&stats) {
            total_pct.push(s.multi_pct());
            t.row(vec![
                w.name.to_string(),
                s.loads.to_string(),
                s.multi_store_loads.to_string(),
                format!("{:.3}%", s.multi_pct()),
                format!("{:.1}%", s.same_base_pct()),
            ]);
        }
        let avg = total_pct.iter().sum::<f64>() / total_pct.len() as f64;
        format!(
            "Fig. 4 — loads depending on multiple stores (paper: 0.04% avg, 70% same-register)\n\n{t}\naverage: {avg:.3}%\n"
        )
    }
}

/// Figs. 6–11: the limit study over unlimited predictors (§III-C), run as
/// one grid of ideal, UnlimitedNoSQ at history lengths 1–16,
/// UnlimitedMDP-TAGE, and UnlimitedPHAST uncapped and at each of Fig. 11's
/// history caps. Fig. 6 compares the uncapped predictors; Figs. 7–9 break
/// UnlimitedPHAST down per workload; Fig. 10 sums its conflict lengths;
/// Fig. 11 compares its caps.
pub mod fig6 {
    use super::*;

    /// Fig. 11's capped history lengths; its `unlimited` row is the
    /// uncapped UnlimitedPHAST row of Fig. 6.
    const CAPS: [u32; 5] = [4, 8, 16, 32, 64];

    /// Runs the limit study and renders Figs. 6, 7–9, 10 and 11.
    pub fn run(sweep: &Sweep, budget: &Budget) -> String {
        let cfg = CoreConfig::alder_lake();
        let mut kinds: Vec<PredictorKind> =
            (1..=16).map(PredictorKind::UnlimitedNoSq).collect();
        kinds.push(PredictorKind::UnlimitedMdpTage);
        kinds.push(PredictorKind::UnlimitedPhast(None));
        let compared = kinds.len();
        kinds.extend(CAPS.map(|m| PredictorKind::UnlimitedPhast(Some(m))));
        let (ideal, rows) = grid_with_ideal(sweep, &kinds, &cfg, budget);
        let (compared_rows, capped_rows) = rows.split_at(compared);
        let unlimited = &compared_rows[compared - 1];

        let mut t = TextTable::new(vec!["predictor", "norm. IPC (geomean)", "avg paths tracked"]);
        for (kind, runs) in kinds.iter().zip(compared_rows) {
            let ipc = geomean(&normalized_ipc(runs, &ideal));
            let paths =
                runs.iter().map(|r| r.num_paths as f64).sum::<f64>() / runs.len() as f64;
            t.row(vec![kind.label(), format!("{ipc:.4}"), format!("{paths:.0}")]);
        }
        let mut out =
            format!("Fig. 6 — unlimited-predictor limit study (IPC normalized to ideal)\n\n{t}\n");

        let mut t = TextTable::new(vec![
            "workload",
            "norm. IPC (fig 7)",
            "MPKI FN (fig 8)",
            "MPKI FP (fig 8)",
            "paths (fig 9)",
        ]);
        for (r, i) in unlimited.iter().zip(&ideal) {
            t.row(vec![
                r.workload.clone(),
                format!("{:.4}", r.stats.ipc() / i.stats.ipc()),
                f3(r.stats.violation_mpki()),
                f3(r.stats.false_dep_mpki()),
                r.num_paths.to_string(),
            ]);
        }
        let g = geomean(&normalized_ipc(unlimited, &ideal));
        out.push_str(&format!(
            "Figs. 7-9 — UnlimitedPHAST per workload (paper: 0.47% mean gap to ideal)\n\n{t}\ngeomean normalized IPC: {g:.4} (gap {:.2}%)\n\n",
            100.0 * (1.0 - g)
        ));

        // A sampled window's cold predictor cannot see a whole run's
        // unique conflicts, so under sampling Fig. 10 runs the uncapped
        // row again in full detail.
        let full_detail = sweep.sampling().is_some().then(|| {
            let kinds = [PredictorKind::UnlimitedPhast(None)];
            let runs = sweep.grid(&kinds, &cfg, budget, None, &|_| {}).remove(0);
            sweep.record_all(&runs);
            runs
        });
        out.push_str(&conflict_lengths(full_detail.as_deref().unwrap_or(unlimited)));

        let mut t = TextTable::new(vec!["max history length", "norm. IPC (geomean)"]);
        let caps = CAPS.iter().map(u32::to_string).chain(["unlimited".to_string()]);
        for (label, runs) in caps.zip(capped_rows.iter().chain([unlimited])) {
            let g = geomean(&normalized_ipc(runs, &ideal));
            t.row(vec![label, format!("{g:.4}")]);
        }
        out.push_str(&format!(
            "\nFig. 11 — UnlimitedPHAST at capped history lengths (32 should suffice)\n\n{t}"
        ));
        out
    }

    /// Fig. 10: the percentage of unique conflicts detected at each
    /// history length, summed over full-detail UnlimitedPHAST `runs`.
    fn conflict_lengths(runs: &[RunResult]) -> String {
        let mut histogram: Vec<u64> = Vec::new();
        for run in runs {
            for (len, &n) in run.path_lengths.iter().enumerate() {
                if histogram.len() <= len {
                    histogram.resize(len + 1, 0);
                }
                histogram[len] += n;
            }
        }
        let total: u64 = histogram.iter().sum();
        let mut t = TextTable::new(vec!["history length (N)", "unique conflicts", "% of total"]);
        let mut within_32 = 0u64;
        for (len, &n) in histogram.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if len <= 32 {
                within_32 += n;
            }
            t.row(vec![
                len.to_string(),
                n.to_string(),
                format!("{:.2}%", 100.0 * n as f64 / total.max(1) as f64),
            ]);
        }
        format!(
            "Fig. 10 — unique conflicts per store→load history length\n\n{t}\n\
             conflicts with N <= 32: {:.1}% (paper: 85.4%)\n",
            100.0 * within_32 as f64 / total.max(1) as f64
        )
    }
}

/// Fig. 12: effect of the forwarding squash filter (§IV-A1).
pub mod fig12 {
    use super::*;

    /// Runs the ablation.
    pub fn run(sweep: &Sweep, budget: &Budget) -> String {
        let mut t = TextTable::new(vec!["predictor", "no-FWD norm. IPC", "FWD norm. IPC"]);
        let mut on_cfg = CoreConfig::alder_lake();
        on_cfg.forwarding_filter = true;
        let mut off_cfg = CoreConfig::alder_lake();
        off_cfg.forwarding_filter = false;
        // Both variants are normalized to the FWD-on ideal, as the paper
        // normalizes everything to its (single) perfect predictor.
        let kinds = PredictorKind::headline();
        let (ideal, on_rows) = grid_with_ideal(sweep, &kinds, &on_cfg, budget);
        let off_rows = sweep.run_grid(&kinds, &off_cfg, budget);
        for ((kind, on_runs), off_runs) in kinds.iter().zip(&on_rows).zip(&off_rows) {
            let on = geomean(&normalized_ipc(on_runs, &ideal));
            let off = geomean(&normalized_ipc(off_runs, &ideal));
            t.row(vec![kind.label(), format!("{off:.4}"), format!("{on:.4}")]);
        }
        format!("Fig. 12 — squash filtering through forwarding on/off\n\n{t}")
    }
}

/// Fig. 13: performance versus storage.
pub mod fig13 {
    use super::*;

    /// Runs the sweep.
    pub fn run(sweep: &Sweep, budget: &Budget) -> String {
        let cfg = CoreConfig::alder_lake();
        let mut t = TextTable::new(vec!["predictor", "storage (KB)", "norm. IPC (geomean)"]);
        let sweeps: Vec<PredictorKind> = vec![
            PredictorKind::PhastSets(32),
            PredictorKind::PhastSets(64),
            PredictorKind::Phast,
            PredictorKind::PhastSets(256),
            PredictorKind::NoSqSets(128),
            PredictorKind::NoSqSets(256),
            PredictorKind::NoSq,
            PredictorKind::NoSqSets(1024),
            PredictorKind::StoreSetsSized(2048, 1024),
            PredictorKind::StoreSetsSized(4096, 2048),
            PredictorKind::StoreSets,
            PredictorKind::StoreSetsSized(16384, 8192),
            PredictorKind::MdpTageScaled(1, 4),
            PredictorKind::MdpTageScaled(1, 2),
            PredictorKind::MdpTage,
            PredictorKind::MdpTageS,
        ];
        let (ideal, rows) = grid_with_ideal(sweep, &sweeps, &cfg, budget);
        let program = budget.workloads()[0].build(16);
        for (kind, runs) in sweeps.iter().zip(&rows) {
            let g = geomean(&normalized_ipc(runs, &ideal));
            let kb = kind.build(&program, 16).storage_bits() as f64 / 8192.0;
            t.row(vec![kind.label(), format!("{kb:.2}"), format!("{g:.4}")]);
        }
        format!("Fig. 13 — performance versus storage (IPC normalized to ideal)\n\n{t}")
    }
}

/// Figs. 14–16: the headline comparison (§VI) of ideal and the five
/// limited predictors, run as one grid. Fig. 14 is each predictor's MPKI
/// per workload, Fig. 15 its IPC normalized to ideal with PHAST's
/// speedups, and Fig. 16 its table energy.
pub mod fig15 {
    use super::*;
    use phast_energy::{total_energy_nj, Structure};

    /// Structured result for tests and benches.
    pub struct Results {
        /// Geomean normalized IPC per headline predictor, PHAST last.
        pub geomeans: Vec<(String, f64)>,
        /// PHAST speedup over each baseline: (name, mean %, max %).
        pub speedups: Vec<(String, f64, f64)>,
        /// Per-predictor per-workload runs (headline order).
        pub runs: Vec<Vec<RunResult>>,
        /// Rendered report.
        pub report: String,
    }

    /// Runs the headline comparison and renders Figs. 14, 15 and 16.
    pub fn run(sweep: &Sweep, budget: &Budget) -> Results {
        let cfg = CoreConfig::alder_lake();
        let kinds = PredictorKind::headline();
        let (ideal, all_runs) = grid_with_ideal(sweep, &kinds, &cfg, budget);

        let mut header = vec!["workload".to_string()];
        header.extend(kinds.iter().map(|k| k.label()));
        let mut t = TextTable::new(header);
        for (wi, w) in budget.workloads().iter().enumerate() {
            let mut row = vec![w.name.to_string()];
            for runs in &all_runs {
                row.push(format!("{:.4}", runs[wi].stats.ipc() / ideal[wi].stats.ipc()));
            }
            t.row(row);
        }

        let geomeans: Vec<(String, f64)> = kinds
            .iter()
            .zip(&all_runs)
            .map(|(k, runs)| (k.label(), geomean(&normalized_ipc(runs, &ideal))))
            .collect();

        // PHAST speedups over each baseline (paper: 5.05% over Store Sets,
        // 1.29% over NoSQ, 3.04% over MDP-TAGE, 2.10% over MDP-TAGE-S).
        let phast_runs = all_runs.last().expect("phast last in headline");
        let mut speedups = Vec::new();
        for (k, runs) in kinds.iter().zip(&all_runs).take(kinds.len() - 1) {
            let ratios: Vec<f64> = phast_runs
                .iter()
                .zip(runs)
                .map(|(p, b)| p.stats.ipc() / b.stats.ipc())
                .collect();
            let mean = geomean(&ratios) - 1.0;
            let max = ratios.iter().cloned().fold(f64::MIN, f64::max) - 1.0;
            speedups.push((k.label(), 100.0 * mean, 100.0 * max));
        }

        let mut report = mpki_per_workload(&kinds, &all_runs, budget);
        report.push_str(&format!(
            "\nFig. 15 — IPC normalized to the perfect MDP (higher is better)\n\n{t}\n"
        ));
        for (name, g) in &geomeans {
            report.push_str(&format!("  {:<12} geomean {:.4} (gap {:.2}%)\n", name, g, 100.0 * (1.0 - g)));
        }
        report.push_str("\nPHAST speedups:\n");
        for (name, mean, max) in &speedups {
            report.push_str(&format!("  vs {:<12} mean {:+.2}%  max {:+.2}%\n", name, mean, max));
        }
        report.push('\n');
        report.push_str(&energy(&kinds, &all_runs));
        Results { geomeans, speedups, runs: all_runs, report }
    }

    /// Fig. 14: each predictor's violation and false-dependence MPKI per
    /// workload, then averaged.
    fn mpki_per_workload(kinds: &[PredictorKind], all_runs: &[Vec<RunResult>], budget: &Budget) -> String {
        let mut header = vec!["workload".to_string()];
        for k in kinds {
            header.push(format!("{} FN/FP", k.label()));
        }
        let mut t = TextTable::new(header);
        for (wi, w) in budget.workloads().iter().enumerate() {
            let mut row = vec![w.name.to_string()];
            for runs in all_runs {
                let r = &runs[wi];
                row.push(format!(
                    "{:.3}/{:.3}",
                    r.stats.violation_mpki(),
                    r.stats.false_dep_mpki()
                ));
            }
            t.row(row);
        }
        let mut summary = String::new();
        for (k, runs) in kinds.iter().zip(all_runs) {
            let fnm = runs.iter().map(|r| r.stats.violation_mpki()).sum::<f64>() / runs.len() as f64;
            let fpm = runs.iter().map(|r| r.stats.false_dep_mpki()).sum::<f64>() / runs.len() as f64;
            summary.push_str(&format!(
                "  {:<12} avg FN {:.3}  avg FP {:.3}  total {:.3}\n",
                k.label(),
                fnm,
                fpm,
                fnm + fpm
            ));
        }
        format!("Fig. 14 — MPKI per workload (violations/false dependences)\n\n{t}\n{summary}")
    }

    /// Fig. 16: each predictor's table reads and writes over the whole run
    /// and their energy at Table II's per-access costs.
    fn energy(kinds: &[PredictorKind], all_runs: &[Vec<RunResult>]) -> String {
        let mut t = TextTable::new(vec![
            "predictor",
            "table reads",
            "table writes",
            "read energy (nJ)",
            "write energy (nJ)",
            "total (nJ)",
        ]);
        for (kind, runs) in kinds.iter().zip(all_runs) {
            let reads: u64 = runs.iter().map(|r| r.stats.predictor_accesses.reads).sum();
            let writes: u64 = runs.iter().map(|r| r.stats.predictor_accesses.writes).sum();
            let structure = match kind {
                PredictorKind::StoreSets => Structure::StoreSetsSsit,
                PredictorKind::NoSq => Structure::NoSq,
                PredictorKind::MdpTage => Structure::MdpTage,
                PredictorKind::MdpTageS => Structure::MdpTageS,
                _ => Structure::Phast,
            };
            let (rn, wn) = total_energy_nj(reads, writes, structure.per_table_probe());
            t.row(vec![
                kind.label(),
                reads.to_string(),
                writes.to_string(),
                format!("{rn:.1}"),
                format!("{wn:.1}"),
                format!("{:.1}", rn + wn),
            ]);
        }
        format!("Fig. 16 — predictor energy over the whole run (Table II per-access energies)\n\n{t}")
    }
}

/// Table I: the simulated system configuration.
pub mod table1 {
    use super::*;

    /// Renders the Alder-Lake-like configuration.
    pub fn run(_sweep: &Sweep, _budget: &Budget) -> String {
        let c = CoreConfig::alder_lake();
        let mut t = TextTable::new(vec!["parameter", "value"]);
        t.row(vec!["front-end width".to_string(), format!("{}-wide fetch and decode", c.fetch_width)]);
        t.row(vec!["branch predictor".into(), "TAGE (8 components, 2..128b histories)".to_string()]);
        t.row(vec!["back-end".to_string(), format!("{} execution ports, {}-wide commit", c.ports.total(), c.commit_width)]);
        t.row(vec![
            "ROB/IQ/LQ/SB".to_string(),
            format!("{}/{}/{}/{} entries", c.rob_size, c.iq_size, c.lq_size, c.sq_size),
        ]);
        t.row(vec!["load/store ports".to_string(), format!("{}/{}", c.ports.load, c.ports.store)]);
        let m = &c.memory;
        t.row(vec!["L1I".to_string(), format!("{}KB {}-way, {}-cycle", m.l1i.size_bytes / 1024, m.l1i.ways, m.l1i.hit_latency)]);
        t.row(vec!["L1D".to_string(), format!("{}KB {}-way, {}-cycle, {} MSHRs", m.l1d.size_bytes / 1024, m.l1d.ways, m.l1d.hit_latency, m.l1d.mshrs)]);
        t.row(vec!["L1D prefetcher".into(), "IP-stride, degree 3".to_string()]);
        t.row(vec!["L2".to_string(), format!("{}KB {}-way, {}-cycle", m.l2.size_bytes / 1024, m.l2.ways, m.l2.hit_latency)]);
        t.row(vec!["L3".to_string(), format!("{}MB {}-way, {}-cycle", m.l3.size_bytes / (1024 * 1024), m.l3.ways, m.l3.hit_latency)]);
        t.row(vec!["memory".to_string(), format!("{}-cycle access latency", m.dram_latency)]);
        format!("Table I — system configuration (Alder-Lake-like)\n\n{t}")
    }
}

/// Table II: predictor configurations, storage and access energy.
pub mod table2 {
    use super::*;
    use phast_energy::Structure;

    /// Renders the predictor configuration table.
    pub fn run(_sweep: &Sweep, budget: &Budget) -> String {
        let program = budget.workloads()[0].build(16);
        let mut t = TextTable::new(vec![
            "predictor",
            "tables",
            "total entries",
            "size (KB)",
            "energy/access (pJ)",
        ]);
        let rows: [(PredictorKind, Structure, usize); 5] = [
            (PredictorKind::StoreSets, Structure::StoreSetsSsit, 8 * 1024 + 4 * 1024),
            (PredictorKind::NoSq, Structure::NoSq, 4 * 1024),
            (PredictorKind::MdpTage, Structure::MdpTage, 16 * 1024),
            (PredictorKind::MdpTageS, Structure::MdpTageS, 4 * 1024),
            (PredictorKind::Phast, Structure::Phast, 4 * 1024),
        ];
        for (kind, s, entries) in rows {
            let kb = kind.build(&program, 16).storage_bits() as f64 / 8192.0;
            let pj = match kind {
                PredictorKind::StoreSets => {
                    Structure::StoreSetsSsit.paper_access_pj()
                        + Structure::StoreSetsLfst.paper_access_pj()
                }
                _ => s.paper_access_pj(),
            };
            t.row(vec![
                kind.label(),
                s.tables().to_string(),
                entries.to_string(),
                format!("{kb:.3}"),
                format!("{pj:.4}"),
            ]);
        }
        format!("Table II — predictor configurations (sizes match the paper exactly)\n\n{t}")
    }
}

/// Sampled-versus-full validation: one (workload × predictor) grid run in
/// full detail, stride-sampled and phase-sampled over the same intervals,
/// each sampled IPC checked against the documented error bound
/// (`docs/SAMPLING.md`). Every stride estimate must lie inside its bound;
/// every phase estimate inside the *tighter* of the cell's two bounds, so
/// phase mode's widened CI never buys it a pass stride would not get; and
/// phase must spend at least
/// [`INSTS_RATIO_BAR`](crate::figures::sampled::INSTS_RATIO_BAR) times fewer
/// detailed (measured + warm) instructions than stride. A missed gate
/// lands on the sweep's degraded registry, so the binary — and the CI
/// step running `--quick sampled` — exits non-zero.
pub mod sampled {
    use super::*;
    use phast_sample::{default_clusters_for, ipc_error_bound, SampleConfig, SampleMode};
    use std::time::Instant;

    /// The detailed-instruction ratio (stride over phase) phase mode must
    /// reach. It holds by construction at three or more windows: phase
    /// replays one window per cluster, and with
    /// K = max(2, ⌊3·windows/4⌋) clusters ([`default_clusters_for`]) that
    /// is at most three windows in four, so the ratio is about 4/3
    /// whatever the clustering finds. The bar therefore guards the K
    /// formula, not phase detection.
    pub const INSTS_RATIO_BAR: f64 = 1.3;

    /// The fewest workloads the validation grid runs on.
    pub const MIN_WORKLOADS: usize = 4;

    /// One grid cell of the three-way comparison.
    pub struct Cell {
        /// Workload name.
        pub workload: String,
        /// Predictor label.
        pub predictor: String,
        /// Full-detail reference IPC.
        pub full_ipc: f64,
        /// Stride-sampled IPC estimate.
        pub stride_ipc: f64,
        /// Phase-sampled IPC estimate.
        pub phase_ipc: f64,
        /// `|stride − full|`.
        pub stride_err: f64,
        /// `|phase − full|`.
        pub phase_err: f64,
        /// The bound the stride estimate is held to: `bound(stride CI)`.
        pub stride_bound: f64,
        /// The bound the phase estimate is held to:
        /// `min(bound(stride CI), bound(phase CI))`.
        pub phase_bound: f64,
    }

    /// Structured result for tests; the gates report through the
    /// sweep's degraded registry.
    pub struct Results {
        /// Per-cell comparison in grid order.
        pub cells: Vec<Cell>,
        /// Detailed-instruction ratio: stride (measured + warm) over
        /// phase (measured + warm). The bar is [`INSTS_RATIO_BAR`].
        pub insts_ratio: f64,
        /// Rendered report.
        pub report: String,
    }

    /// Runs the validation grid.
    ///
    /// The validation horizon is 25× the tier's detailed-instruction
    /// budget: sampling exists for horizons where the detailed windows
    /// are a small fraction of the run, and the full-detail reference
    /// covers the *same* horizon, so both the accuracy checks and the
    /// recorded speedups are honest like-for-like comparisons. Both legs
    /// take the sweep's sampling shape (or the budget's default); the
    /// phase leg clusters into the K that shape's window count gives
    /// ([`default_clusters_for`]).
    pub fn run(sweep: &Sweep, budget: &Budget) -> Results {
        let base = sweep.sampling().unwrap_or_else(|| budget.default_sampling());
        let stride_cfg = SampleConfig { mode: SampleMode::Stride, ..base };
        let phase_cfg = base.phase(default_clusters_for(base.windows));
        let cfg = CoreConfig::alder_lake();
        let kinds = [PredictorKind::StoreSets, PredictorKind::Phast];
        let vbudget = Budget { insts: budget.insts.saturating_mul(25), ..budget.clone() };
        assert!(
            vbudget.workloads().len() >= MIN_WORKLOADS,
            "validation needs at least {MIN_WORKLOADS} workloads"
        );

        // Each leg is one grid through the cell lifecycle; the full-detail
        // reference bypasses the sweep's sampling mode on purpose.
        let grid = |scfg| -> (Vec<RunResult>, f64) {
            let t = Instant::now();
            let rows: Vec<RunResult> =
                sweep.grid(&kinds, &cfg, &vbudget, scfg, &|_| {}).into_iter().flatten().collect();
            (rows, t.elapsed().as_secs_f64())
        };
        let (full, full_wall) = grid(None);
        let (mut stride, stride_wall) = grid(Some(stride_cfg));
        let (mut phase, phase_wall) = grid(Some(phase_cfg));

        let mut t = TextTable::new(vec![
            "workload",
            "predictor",
            "full IPC",
            "stride IPC",
            "phase IPC",
            "|err| stride",
            "|err| phase",
            "stride bound",
            "phase bound",
            "verdict",
        ]);
        let mut cells = Vec::with_capacity(full.len());
        let (mut stride_violations, mut phase_violations) = (0usize, 0usize);
        for ((f, s), p) in full.iter().zip(stride.iter_mut()).zip(phase.iter_mut()) {
            let full_ipc = f.stats.ipc();
            let (stride_ipc, phase_ipc) = (s.stats.ipc(), p.stats.ipc());
            let stride_err = (stride_ipc - full_ipc).abs();
            let phase_err = (phase_ipc - full_ipc).abs();
            let smeta = s.sampling.as_mut().expect("stride run carries metadata");
            let stride_bound = ipc_error_bound(full_ipc, smeta.ipc_ci_half);
            smeta.full_ipc = Some(full_ipc);
            smeta.ipc_error = Some(stride_err);
            let pmeta = p.sampling.as_mut().expect("phase run carries metadata");
            let phase_bound = ipc_error_bound(full_ipc, pmeta.ipc_ci_half).min(stride_bound);
            pmeta.full_ipc = Some(full_ipc);
            pmeta.ipc_error = Some(phase_err);
            let legs = [
                ("stride", stride_ipc, stride_err, stride_bound),
                ("phase", phase_ipc, phase_err, phase_bound),
            ];
            let mut missed = Vec::new();
            for (leg, ipc, err, bound) in legs {
                if err > bound {
                    missed.push(leg);
                    sweep.flag_degraded(format!(
                        "{} × {}: {leg} IPC {ipc:.4} vs full {full_ipc:.4} — \
                         error {err:.4} exceeds bound {bound:.4}",
                        p.workload, p.predictor
                    ));
                }
            }
            stride_violations += usize::from(missed.contains(&"stride"));
            phase_violations += usize::from(missed.contains(&"phase"));
            t.row(vec![
                p.workload.clone(),
                p.predictor.clone(),
                format!("{full_ipc:.4}"),
                format!("{stride_ipc:.4}"),
                format!("{phase_ipc:.4}"),
                format!("{stride_err:.4}"),
                format!("{phase_err:.4}"),
                format!("{stride_bound:.4}"),
                format!("{phase_bound:.4}"),
                match missed.as_slice() {
                    [] => "ok".into(),
                    legs => format!("VIOLATION ({})", legs.join("+")),
                },
            ]);
            cells.push(Cell {
                workload: p.workload.clone(),
                predictor: p.predictor.clone(),
                full_ipc,
                stride_ipc,
                phase_ipc,
                stride_err,
                phase_err,
                stride_bound,
                phase_bound,
            });
        }

        let detailed = |rows: &[RunResult]| -> u64 {
            rows.iter()
                .filter_map(|r| r.sampling.as_ref())
                .map(|m| m.measured_insts + m.warmed_insts)
                .sum()
        };
        let full_detailed = vbudget.insts * full.len() as u64;
        let stride_detailed = detailed(&stride);
        let phase_detailed = detailed(&phase);
        let insts_ratio = stride_detailed as f64 / phase_detailed.max(1) as f64;
        if insts_ratio < INSTS_RATIO_BAR {
            sweep.flag_degraded(format!(
                "phase spent only {insts_ratio:.2}x fewer detailed instructions than \
                 stride (acceptance bar: {INSTS_RATIO_BAR:.1}x) — {phase_detailed} vs \
                 {stride_detailed}"
            ));
        }

        // Phase rows first, then stride, then the full reference, into
        // BENCH_sampled.json — every sampled row annotated before
        // recording.
        sweep.record_all(&phase);
        sweep.record_all(&stride);
        sweep.record_all(&full);

        let speedup = |wall: f64| full_wall / wall.max(1e-9);
        let mean = |sel: fn(&Cell) -> f64| -> f64 {
            cells.iter().map(sel).sum::<f64>() / cells.len().max(1) as f64
        };
        let clusters: Vec<usize> = phase
            .iter()
            .filter_map(|r| r.sampling.as_ref())
            .map(|m| m.cluster_weights.len())
            .collect();
        let report = format!(
            "Sampled-vs-full validation ({} insts horizon; {} windows × {} insts, {} warm; \
             phase mode clusters the intervals into K={} target clusters; see \
             docs/SAMPLING.md)\n\n{t}\n\
             stride violations: {stride_violations} of {n} (bound = the stride estimate's)\n\
             phase violations: {phase_violations} of {n} (bound = tighter of stride/phase)\n\
             mean |error|: stride {:.4}, phase {:.4}\n\
             measured+warm instructions (stride leg): full {full_detailed}, sampled \
             {stride_detailed} ({:.1}x fewer)\n\
             detailed (measured+warm) instructions: stride {stride_detailed}, phase \
             {phase_detailed} — {insts_ratio:.2}x fewer (bar: {INSTS_RATIO_BAR:.2}x)\n\
             effective clusters per cell: {clusters:?}\n\
             wall-clock: full {full_wall:.2}s, stride {stride_wall:.2}s ({:.1}x), \
             phase {phase_wall:.2}s ({:.1}x)\n",
            vbudget.insts,
            base.windows,
            base.window_insts,
            base.warm_insts,
            phase_cfg.clusters,
            mean(|c| c.stride_err),
            mean(|c| c.phase_err),
            full_detailed as f64 / stride_detailed.max(1) as f64,
            speedup(stride_wall),
            speedup(phase_wall),
            n = cells.len(),
        );
        Results { cells, insts_ratio, report }
    }
}

/// `static_baseline`: what does dynamic memory dependence prediction buy
/// over what a compiler already knows?
///
/// Table A characterizes every budgeted workload through `phast-trace`'s
/// static dependence analysis: how many memory operations resolve to
/// constant addresses, how many statically provable store→load edges
/// exist (split straight-line vs loop-carried), and the workload's
/// signature digest — the same digest every BENCH artifact row carries as
/// `workload_signature`.
///
/// Table B then runs the zero-storage [`PredictorKind::StaticDeps`]
/// baseline against blind speculation, total ordering and the dynamic
/// predictors on the same grid. The static baseline can only wait on
/// edges the analysis proved, so its false-dependence rate is near zero
/// by construction; its violation rate shows exactly the dependences
/// that *only* a dynamic, context-sensitive predictor can see.
pub mod static_baseline {
    use super::*;

    /// Runs the study.
    pub fn run(sweep: &Sweep, budget: &Budget) -> String {
        let workloads = budget.workloads();
        let mut sig_t = TextTable::new(vec![
            "workload",
            "loads",
            "stores",
            "resolved",
            "edges",
            "dep loads",
            "SL/LC",
            "signature",
        ]);
        // The programs stay: the storage column probes the first.
        let built = sweep.map(&workloads, |_, w| {
            let program = w.build(budget.workload_iters);
            let sig = phast_trace::signature(&program);
            (program, sig)
        });
        for (w, (_, sig)) in workloads.iter().zip(&built) {
            let mem_ops = sig.loads + sig.stores;
            let resolved = sig.resolved_loads + sig.resolved_stores;
            let frac = if mem_ops > 0 { resolved as f64 / mem_ops as f64 } else { 0.0 };
            sig_t.row(vec![
                w.name.to_string(),
                sig.loads.to_string(),
                sig.stores.to_string(),
                pct(frac),
                sig.dep_edges.to_string(),
                sig.dep_loads.to_string(),
                format!("{}/{}", sig.straight_line, sig.loop_carried),
                sig.digest(),
            ]);
        }

        let cfg = CoreConfig::alder_lake();
        let kinds = [
            PredictorKind::Blind,
            PredictorKind::StaticDeps,
            PredictorKind::StoreSets,
            PredictorKind::Phast,
            PredictorKind::TotalOrder,
        ];
        let (ideal, rows) = grid_with_ideal(sweep, &kinds, &cfg, budget);
        let mut cmp_t = TextTable::new(vec![
            "predictor",
            "storage bits",
            "IPC vs ideal",
            "violation MPKI",
            "false-dep MPKI",
        ]);
        let probe = &built[0].0;
        for (kind, runs) in kinds.iter().zip(&rows) {
            let rel = geomean(&normalized_ipc(runs, &ideal));
            let fnm = runs.iter().map(|r| r.stats.violation_mpki()).sum::<f64>() / runs.len() as f64;
            let fpm = runs.iter().map(|r| r.stats.false_dep_mpki()).sum::<f64>() / runs.len() as f64;
            cmp_t.row(vec![
                kind.label(),
                kind.build(probe, budget.insts).storage_bits().to_string(),
                pct(rel),
                f3(fnm),
                f3(fpm),
            ]);
        }
        format!(
            "static_baseline A — static dependence signatures (resolved = \
             mem ops with constant addresses; SL/LC = straight-line vs \
             loop-carried edges)\n\n{sig_t}\n\
             static_baseline B — zero-storage static prediction vs dynamic \
             predictors (alderlake, IPC geomean normalized to ideal)\n\n{cmp_t}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_budget() -> Budget {
        Budget { insts: 4_000, workload_iters: 20_000, max_workloads: Some(2), extra_workloads: Vec::new() }
    }

    #[test]
    fn experiments_have_unique_ids_and_all_skips_only_the_shared_and_opt_in_ones() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "{ids:?}");
        // Retired ids: the sampled validation's old leg, and the figures
        // `fig6` and `fig15` render from their grids.
        for id in ["sampled_v2", "fig7", "fig10", "fig11", "fig14", "fig16"] {
            assert_eq!(run_experiment(id, &Sweep::serial(), &tiny_budget()), None, "{id}");
        }
        assert_eq!(ids.len(), 12, "{ids:?}");
        let skipped: Vec<&str> =
            EXPERIMENTS.iter().filter(|(.., in_all)| !in_all).map(|(id, ..)| *id).collect();
        assert_eq!(skipped, ["sampled"]);
    }

    #[test]
    fn table1_and_table2_render() {
        let b = tiny_budget();
        let s = Sweep::serial();
        let t1 = table1::run(&s, &b);
        assert!(t1.contains("512/204/192/114"));
        let t2 = table2::run(&s, &b);
        assert!(t2.contains("14.500"), "PHAST size row: {t2}");
        assert!(t2.contains("38.625"), "MDP-TAGE size row");
    }

    #[test]
    fn fig1_degrades_a_failing_workload_in_both_halves() {
        use phast_isa::{CondKind, ProgramBuilder, Reg};
        // Loops 100 times, then returns to a bogus block.
        let bad_ret = phast_workloads::Workload::dynamic("bad_ret".into(), "test".into(), |_| {
            let mut b = ProgramBuilder::new();
            let (entry, body, tail) = (b.block(), b.block(), b.block());
            b.at(entry).li(Reg(1), 100).li(Reg(2), 999).fallthrough(body);
            let mut c = b.at(body);
            c.addi(Reg(1), Reg(1), -1).branchi(CondKind::Ne, Reg(1), 0, body).fallthrough(tail);
            b.at(tail).ret_via(Reg(2));
            b.set_entry(entry);
            b.build().expect("valid program")
        });
        let b = Budget { insts: 3_000, extra_workloads: vec![bad_ret], ..tiny_budget() };
        let sweep = Sweep::with_workers(2);
        let out = fig1::run(&sweep, &b);
        assert!(out.contains("tage (2011)") && out.contains("phast (2024)"), "{out}");
        let degraded = sweep.take_degraded();
        // Four older direction predictors; the TAGE point is the Store
        // Sets cell of the six MDPs.
        assert_eq!(degraded.len(), 4 + 6, "{degraded:#?}");
        assert!(degraded.iter().all(|d| d.starts_with("bad_ret × ")), "{degraded:#?}");
    }

    #[test]
    fn fig1_cuts_every_cell_of_both_halves_at_the_watchdog() {
        let sweep = Sweep::with_workers(2).with_run_timeout(std::time::Duration::ZERO);
        fig1::run(&sweep, &tiny_budget());
        // Six MDPs and four older direction predictors, on two workloads.
        assert_eq!(sweep.deadline_count(), (6 + 4) * 2);
    }

    #[test]
    fn fig4_runs_on_tiny_budget() {
        let out = fig4::run(&Sweep::parallel(), &tiny_budget());
        assert!(out.contains("perlbench_1"));
    }

    #[test]
    fn sampled_validation_compares_three_legs_on_small_budget() {
        let b = Budget { insts: 8_000, workload_iters: 50_000, max_workloads: Some(4), extra_workloads: Vec::new() };
        let sweep =
            Sweep::parallel().with_sampling(phast_sample::SampleConfig::new(6, 800, 500));
        let r = sampled::run(&sweep, &b);
        assert_eq!(r.cells.len(), 8, "4 workloads × 2 predictors");
        assert!(r.insts_ratio > 1.0, "phase must replay fewer windows: {}", r.insts_ratio);
        assert!(r.report.contains("stride violations") && r.report.contains("phase violations"));
        for c in &r.cells {
            assert!(c.full_ipc > 0.0 && c.stride_ipc > 0.0 && c.phase_ipc > 0.0);
            assert!((c.stride_err - (c.stride_ipc - c.full_ipc).abs()).abs() < 1e-12);
            assert!((c.phase_err - (c.phase_ipc - c.full_ipc).abs()).abs() < 1e-12);
            assert!(c.phase_bound >= 0.05 && c.phase_bound <= c.stride_bound);
        }
    }

    #[test]
    fn sampled_phase_leg_takes_its_k_from_the_window_count() {
        // The shape `--windows=12` gives: the default config with only
        // the window count raised, its `clusters` still the default's.
        let scfg = phast_sample::SampleConfig { windows: 12, ..Default::default() };
        let b = Budget { insts: 2_000, workload_iters: 50_000, max_workloads: Some(4), extra_workloads: Vec::new() };
        let r = sampled::run(&Sweep::parallel().with_sampling(scfg), &b);
        assert!(r.report.contains("12 windows"), "{}", r.report);
        assert!(r.report.contains("into K=9 target clusters"), "{}", r.report);
    }

    #[test]
    fn static_baseline_runs_on_tiny_budget() {
        let out = static_baseline::run(&Sweep::parallel(), &tiny_budget());
        assert!(out.contains("static_baseline A"), "{out}");
        assert!(out.contains("static_baseline B"));
        assert!(out.contains("static-deps"));
        assert!(out.contains("phtr:"), "signature digests present");
    }

    #[test]
    fn fig6_renders_figs_6_to_11_from_one_grid() {
        let b = tiny_budget();
        let sweep = Sweep::parallel();
        let report = fig6::run(&sweep, &b);
        for title in ["Fig. 6 —", "Figs. 7-9 —", "Fig. 10 —", "Fig. 11 —"] {
            assert!(report.contains(title), "{title} missing: {report}");
        }
        // Fig. 10 counts the full-detail uncapped row's conflicts.
        assert!(!report.contains("conflicts with N <= 32: 0.0%"), "{report}");
        let runs = sweep.artifact("fig6", &b, std::time::Duration::ZERO).runs;
        let labels: Vec<&str> = runs.iter().map(|r| r.predictor.as_str()).collect();
        // Ideal, UnlimitedNoSQ 1-16, UnlimitedMDP-TAGE, then UnlimitedPHAST
        // uncapped and capped.
        let mut kinds = vec!["ideal".to_string()];
        kinds.extend((1..=16).map(|h| format!("unl-nosq-{h}")));
        kinds.extend(["unl-mdp-tage".into(), "unl-phast".into()]);
        kinds.extend([4, 8, 16, 32, 64].map(|m| format!("unl-phast-{m}")));
        let want: Vec<String> = kinds.into_iter().flat_map(|k| std::iter::repeat_n(k, 2)).collect();
        assert_eq!(labels, want, "24 kinds × 2 workloads, in grid order");
        assert!(runs.iter().all(|r| r.sampling.is_none()));
    }

    #[test]
    fn sampled_fig6_runs_only_the_conflict_row_in_full_detail() {
        let b = tiny_budget();
        let sweep = Sweep::parallel().with_sampling(phast_sample::SampleConfig::new(3, 600, 400));
        let report = fig6::run(&sweep, &b);
        assert!(report.contains("Fig. 10 —") && report.contains("Fig. 11 —"), "{report}");
        assert!(!report.contains("conflicts with N <= 32: 0.0%"), "{report}");
        let runs = sweep.artifact("fig6", &b, std::time::Duration::ZERO).runs;
        let grid = 24 * 2;
        assert_eq!(runs.len(), grid + 2, "the sampled grid, then one full-detail row per workload");
        assert!(runs[..grid].iter().all(|r| r.sampling.is_some()));
        assert!(runs[grid..].iter().all(|r| r.sampling.is_none() && r.predictor == "unl-phast"));
        let workloads: Vec<&str> = runs[grid..].iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(workloads, ["perlbench_1", "perlbench_2"]);
    }

    #[test]
    fn fig15_runs_on_tiny_budget() {
        let b = tiny_budget();
        let sweep = Sweep::parallel();
        let r = fig15::run(&sweep, &b);
        assert_eq!(r.geomeans.len(), 5);
        assert_eq!(r.speedups.len(), 4);
        assert_eq!(r.runs.len(), 5);
        assert!(r.report.contains("PHAST speedups"));
        for title in ["Fig. 14 —", "Fig. 15 —", "Fig. 16 —"] {
            assert!(r.report.contains(title), "{title} missing: {}", r.report);
        }
        assert!(r.report.contains("phast FN/FP") && r.report.contains("table reads"));
        let runs = sweep.artifact("fig15", &b, std::time::Duration::ZERO).runs;
        assert_eq!(runs.len(), 6 * 2, "ideal and five headline predictors × 2 workloads");
    }
}
