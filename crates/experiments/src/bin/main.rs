//! Command-line entry point regenerating any table or figure of the paper.
//!
//! ```text
//! cargo run -p phast-experiments --release -- fig15
//! cargo run -p phast-experiments --release -- all
//! cargo run -p phast-experiments --release -- --quick --workers=4 fig6
//! cargo run -p phast-experiments --release -- --json-dir=bench fig15
//! ```
//!
//! Parallel and serial sweeps print byte-identical reports. Unless
//! `--no-json` is given, each experiment writes a `BENCH_<id>.json`
//! artifact and journals its cells for `--resume`; the exit code tells
//! clean (0), degraded (1), usage (2), integrity (3) and deadline (4)
//! outcomes apart (docs/RESILIENCE.md). The flags, and the `--help` made
//! from them, are declared in `phast_experiments::cli::PHAST_EXPERIMENTS`.

use phast_experiments::cli::{self, Args};
use phast_experiments::figures::{self, EXPERIMENTS};
use phast_experiments::predictors::CATALOG;
use phast_experiments::{
    default_clusters_for, diag, exit_code, report, Budget, SampleConfig, Sweep, SweepArtifact,
};
use std::path::Path;
use std::time::Duration;

fn main() {
    let args = cli::PHAST_EXPERIMENTS.parse();
    match args.mode() {
        "--verify" => verify(&args.operands),
        "--list-workloads" => {
            for w in phast_workloads::all_workloads() {
                report!("{:<12} {}", w.name, w.description);
            }
        }
        "--list-predictors" => {
            for (kind, desc) in CATALOG {
                report!("{:<20} {desc}", kind.label());
            }
        }
        "--list-experiments" => {
            for (id, desc, ..) in EXPERIMENTS {
                report!("{id:<16} {desc}");
            }
        }
        _ => run(&args),
    }
}

/// Checks existing artifacts against their sealed digests and exits —
/// nothing is simulated.
fn verify(files: &[String]) -> ! {
    let mut intact = true;
    for file in files {
        match SweepArtifact::verify_file(Path::new(file)) {
            Ok(()) => report!("ok      {file} (sweep artifact)"),
            Err(e) => {
                intact = false;
                diag!("FAILED  {file}: {e}");
            }
        }
    }
    std::process::exit(if intact { exit_code::OK } else { exit_code::INTEGRITY });
}

fn run(args: &Args) -> ! {
    args.exclusive("--serial", "--workers");
    let workers = if args.has("--serial") { Some(1) } else { args.number("--workers", 1) };
    // `--run-timeout=0` is legal: the watchdog expires at the first poll,
    // which is how CI smokes the deadline exit path without a slow run.
    let run_timeout = args.number("--run-timeout", 0).map(Duration::from_secs);
    let windows: Option<usize> = args.number("--windows", 1);
    let warm: Option<u64> = args.number("--warm", 1);
    // --sampled raises the horizon to the sampled tier; --quick keeps the
    // quick grid (the combination is what the CI validation step runs).
    let mut budget = if args.has("--quick") {
        Budget::quick()
    } else if args.has("--sampled") {
        Budget::sampled()
    } else {
        Budget::full()
    };
    // 0 is legal: combined with --synth it sweeps only the extras.
    if let Some(n) = args.number("--max-workloads", 0) {
        budget.max_workloads = Some(n);
    }
    if let Some(n) = args.number("--synth", 1) {
        budget.extra_workloads.extend(phast_trace::synth_workloads(n, phast_trace::SYNTH_SEED));
    }
    // Every experiment needs at least one workload, so an empty set is a
    // malformed invocation.
    if budget.workloads().is_empty() {
        args.reject("no workloads to run");
    }
    let sampling_flags = ["--sampled", "--windows", "--warm", "--sample-mode"];
    let sampling: Option<SampleConfig> = sampling_flags.iter().any(|f| args.has(f)).then(|| {
        // Built through `SampleConfig::new` so that its cluster count
        // follows the window count `--windows` gives.
        let base = budget.default_sampling();
        let windows = windows.unwrap_or(base.windows);
        let scfg = SampleConfig::new(windows, warm.unwrap_or(base.warm_insts), base.window_insts);
        if args.value("--sample-mode") == Some("phase") {
            scfg.phase(default_clusters_for(windows))
        } else {
            scfg
        }
    });
    let selected: Vec<&str> = if args.operands == ["all"] {
        EXPERIMENTS.iter().filter(|(.., in_all)| *in_all).map(|(id, ..)| *id).collect()
    } else {
        args.operands.iter().map(String::as_str).collect()
    };
    if let Some(id) = selected.iter().find(|id| !EXPERIMENTS.iter().any(|(e, ..)| e == *id)) {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        args.reject(&format!("unknown experiment '{id}'; known: {} all", known.join(" ")));
    }

    // The journal fingerprints the sweep *shape*: resuming under a
    // different budget, synthesized workload set or sampling
    // configuration is refused up front (exit 3), never silently merged
    // into a nonsense artifact.
    let extras: Vec<&str> = budget.extra_workloads.iter().map(|w| w.name).collect();
    let fingerprint = format!(
        "insts={} iters={} max_workloads={:?} extras={:?} sampling={:?}",
        budget.insts, budget.workload_iters, budget.max_workloads, extras, sampling
    );
    let journal = args.journal(&fingerprint);

    let mut all_degraded: Vec<String> = Vec::new();
    let mut deadline_runs: usize = 0;
    for id in selected {
        // One sweep per experiment: its degraded-run registry and run log
        // are scoped to the experiment, so each BENCH_<id>.json describes
        // exactly the runs that produced this report.
        let mut sweep = workers.map_or_else(Sweep::parallel, Sweep::with_workers);
        // The validation experiments read the sampling config off the
        // sweep but run their full-detail reference through `Sweep::grid`
        // with no sampling, so setting sampled mode here is safe for
        // every id.
        if let Some(scfg) = sampling {
            sweep = sweep.with_sampling(scfg);
        }
        if let Some(t) = run_timeout {
            sweep = sweep.with_run_timeout(t);
        }
        if let Some((_, j)) = &journal {
            sweep = sweep.with_journal(j.scope(id));
        }
        let start = std::time::Instant::now();
        let out = figures::run_experiment(id, &sweep, &budget).expect("ids were checked");
        report!("=== {id} ===\n{out}");
        report!("[{id} took {:.1?} on {} worker(s)]\n", start.elapsed(), sweep.workers());
        if let Some((dir, _)) = &journal {
            let artifact = sweep.artifact(id, &budget, start.elapsed());
            match artifact.write_to(dir) {
                // Fail closed: re-read what actually landed on disk and
                // check its digest, so a torn or bit-flipped artifact is
                // caught here and not by a consumer.
                Ok(path) => match SweepArtifact::verify_file(&path) {
                    Ok(()) => diag!("wrote {}", path.display()),
                    Err(e) => {
                        diag!("error: {} failed self-verification: {e}", path.display());
                        std::process::exit(exit_code::INTEGRITY);
                    }
                },
                Err(e) => diag!("warning: could not write {}: {e}", artifact.file_name()),
            }
        }
        all_degraded.extend(sweep.take_degraded());
        deadline_runs += sweep.deadline_count();
    }

    // Degraded (failed but recovered) runs are collected per sweep so one
    // bad (workload, predictor) pair cannot abort a whole experiment; they
    // still must be visible at the end rather than scrolled away.
    if !all_degraded.is_empty() {
        diag!("{} degraded run(s) — their statistics are partial:", all_degraded.len());
        for d in &all_degraded {
            diag!("  - {d}");
        }
    }
    if deadline_runs > 0 {
        diag!("{deadline_runs} run(s) hit the --run-timeout deadline");
    }
    std::process::exit(exit_code::for_outcome(!all_degraded.is_empty(), deadline_runs > 0));
}
