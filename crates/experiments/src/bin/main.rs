//! Command-line entry point regenerating any table or figure of the paper.
//!
//! ```text
//! cargo run -p phast-experiments --release -- fig15
//! cargo run -p phast-experiments --release -- all
//! cargo run -p phast-experiments --release -- --quick fig6
//! cargo run -p phast-experiments --release -- --serial fig15      # 1 worker
//! cargo run -p phast-experiments --release -- --workers=4 fig15
//! cargo run -p phast-experiments --release -- --json-dir=bench fig15
//! ```
//!
//! Sweeps run in parallel by default (`available_parallelism()` workers,
//! also overridable with `PHAST_WORKERS`); parallel and serial sweeps
//! produce byte-identical reports. Unless `--no-json` is given, every
//! experiment also drops a machine-readable `BENCH_<id>.json` artifact
//! (per-run IPC/MPKI/wall-clock, worker count, budget, git describe) into
//! the current directory or `--json-dir`, plus a write-ahead
//! `journal.jsonl` that `--resume` replays after a crash or kill — only
//! the missing runs re-execute, and the merged artifact matches an
//! uninterrupted sweep byte for byte (modulo wall-clock and attempt
//! metadata). `--run-timeout` arms a per-run watchdog, `--retries` caps
//! re-attempts, and the exit code distinguishes clean (0), degraded (1),
//! usage (2), integrity (3) and deadline (4) outcomes; see
//! docs/RESILIENCE.md. `--verify <BENCH.json>...` checks existing
//! artifacts against their sealed digests without running anything,
//! exiting 3 on any mismatch.

use phast_experiments::figures::{self, EXPERIMENTS};
use phast_experiments::{
    default_clusters_for, exit_code, pool, Budget, Journal, PredictorKind, SampleConfig,
    SampleMode, Sweep, SweepArtifact,
};
use std::path::PathBuf;
use std::time::Duration;

/// Every flag [`main`] parses: bare switches, and `--flag=` prefixes for
/// flags that take a value. Any other `--` argument is a usage error.
const FLAGS: &[&str] = &[
    "--help",
    "--list-workloads",
    "--list-predictors",
    "--list-experiments",
    "--verify",
    "--verify=",
    "--quick",
    "--sampled",
    "--windows=",
    "--warm=",
    "--sample-mode=",
    "--clusters=",
    "--serial",
    "--workers=",
    "--json-dir=",
    "--no-json",
    "--resume",
    "--run-timeout=",
    "--retries=",
    "--max-workloads=",
    "--synth",
    "--synth=",
];

/// The space-separated experiment id list for usage/error lines.
fn experiment_ids() -> String {
    EXPERIMENTS.iter().map(|(id, _)| *id).collect::<Vec<_>>().join(" ")
}

fn usage() -> ! {
    eprintln!(
        "usage: phast-experiments [--quick] [--sampled] [--windows=N] [--warm=M] \
         [--sample-mode=phase|stride] [--clusters=K] \
         [--serial | --workers=N] [--json-dir=DIR | --no-json] \
         [--resume] [--run-timeout=SECS] [--retries=N] \
         [--max-workloads=N] [--synth[=N]] <experiment>..."
    );
    eprintln!("       phast-experiments --list-workloads | --list-predictors | --list-experiments");
    eprintln!("       phast-experiments --verify <BENCH.json>...");
    eprintln!("experiments: {} all", experiment_ids());
    eprintln!("(--help for resilience flags and the exit-code taxonomy)");
    std::process::exit(exit_code::USAGE);
}

fn help() {
    println!(
        "phast-experiments — regenerate any table or figure of the paper\n\
         \n\
         usage: phast-experiments [OPTIONS] <experiment>...\n\
         \n\
         budget / sampling:\n\
         \x20 --quick             quick grid (smoke-test budget)\n\
         \x20 --sampled           sampled-simulation horizon\n\
         \x20 --windows=N         override the sampled window count\n\
         \x20 --warm=M            override the per-window warm-up instructions\n\
         \x20 --sample-mode=MODE  'stride' (default: uniform windows, every one\n\
         \x20                     replayed) or 'phase' (cluster intervals by\n\
         \x20                     memory-access signature and replay one\n\
         \x20                     representative window per cluster; see\n\
         \x20                     docs/SAMPLING.md)\n\
         \x20 --clusters=K        phase-mode cluster count (implies\n\
         \x20                     --sample-mode=phase; default: derived from the\n\
         \x20                     window count)\n\
         \n\
         execution:\n\
         \x20 --serial            one worker (determinism reference)\n\
         \x20 --workers=N         explicit worker count (default: all cores)\n\
         \x20 --run-timeout=SECS  per-run watchdog; hung runs end as 'deadline'\n\
         \x20 --retries=N         attempts per run before it is recorded degraded\n\
         \n\
         workload set (see docs/TRACES.md):\n\
         \x20 --max-workloads=N   keep only the first N built-in workloads; 0 is\n\
         \x20                     legal with --synth and sweeps only the synthesized\n\
         \x20                     workloads (an empty set is a usage error)\n\
         \x20 --synth[=N]         append N (default 8) coverage-guided synthesized\n\
         \x20                     workloads (deterministic: same seed, same programs)\n\
         \n\
         artifacts / crash resilience:\n\
         \x20 --json-dir=DIR      where BENCH_<id>.json and journal.jsonl land\n\
         \x20 --no-json           no artifacts, no journal\n\
         \x20 --verify FILE...    verify BENCH_<id>.json digests and exit (0 intact,\n\
         \x20                     3 not); any other file fails verification\n\
         \x20 --resume            replay completed runs from DIR/journal.jsonl and\n\
         \x20                     execute only what is missing; the merged artifact\n\
         \x20                     is byte-identical to an uninterrupted sweep\n\
         \x20                     (modulo wall-clock and attempt metadata)\n\
         \n\
         exit codes:\n\
         \x20 0  every run completed cleanly\n\
         \x20 1  sweep finished but some runs are degraded (partial statistics)\n\
         \x20 2  usage error (unknown flag/experiment, malformed value)\n\
         \x20 3  integrity failure (corrupt journal, artifact digest mismatch)\n\
         \x20 4  at least one run hit the --run-timeout deadline\n"
    );
}

/// Parses the value of a `--flag=N` unsigned-integer option, exiting with
/// a clear error (status 2) on anything that is not a positive integer.
fn parse_count(flag: &str, raw: &str) -> u64 {
    match raw.trim().parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("error: {flag} expects a positive integer, got '{raw}'");
            std::process::exit(exit_code::USAGE);
        }
    }
}

fn list_workloads() {
    for w in phast_workloads::all_workloads() {
        println!("{:<12} {}", w.name, w.description);
    }
}

fn list_predictors() {
    let catalog: &[(PredictorKind, &str)] = &[
        (PredictorKind::Ideal, "perfect oracle (upper bound for every figure)"),
        (PredictorKind::Blind, "no prediction: every load speculates"),
        (PredictorKind::TotalOrder, "every load waits for all older stores"),
        (PredictorKind::Phast, "PHAST at the paper's 14.5 KB configuration"),
        (PredictorKind::PhastSets(64), "PHAST scaled to N sets per table (--: fig13 sweep)"),
        (PredictorKind::PhastNoNPlusOne, "PHAST without the N+1 history rule (ablation)"),
        (PredictorKind::PhastAtDetect, "PHAST trained at detection, not commit (ablation)"),
        (PredictorKind::PhastConfidence(2), "PHAST with N-bit confidence, N in 1..=7 (ablation)"),
        (PredictorKind::PhastTageLengths, "PHAST with TAGE's history lengths (ablation)"),
        (PredictorKind::UnlimitedPhast(None), "UnlimitedPHAST (optionally history-capped)"),
        (PredictorKind::NoSq, "NoSQ at the paper's 19 KB configuration"),
        (PredictorKind::NoSqSets(256), "NoSQ scaled to N sets per table"),
        (PredictorKind::UnlimitedNoSq(8), "UnlimitedNoSQ at a fixed history length"),
        (PredictorKind::StoreSets, "Store Sets at the paper's 18.5 KB configuration"),
        (PredictorKind::StoreSetsSized(4096, 2048), "Store Sets with explicit SSIT/LFST sizes"),
        (PredictorKind::StoreVector, "Store Vectors"),
        (PredictorKind::Cht, "CHT collision predictor"),
        (PredictorKind::MdpTage, "MDP-TAGE at the paper's 38.625 KB configuration"),
        (PredictorKind::MdpTageScaled(1, 2), "MDP-TAGE with set counts scaled by num/den"),
        (PredictorKind::MdpTageS, "MDP-TAGE-S (PHAST table layout, 13 KB)"),
        (PredictorKind::UnlimitedMdpTage, "UnlimitedMDPTAGE"),
    ];
    for (kind, desc) in catalog {
        println!("{:<20} {desc}", kind.label());
    }
    println!(
        "{:<20} zero-storage static baseline from phast-trace's dependence analysis",
        PredictorKind::StaticDeps.label()
    );
}

fn list_experiments() {
    for (id, desc) in EXPERIMENTS {
        println!("{id:<16} {desc}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        help();
        return;
    }
    // The strict-parse rule every flag here follows: a misspelled or
    // malformed flag is a usage error (exit 2), never silently ignored.
    if let Some(bad) = args.iter().find(|a| a.starts_with("--list-experiments=")) {
        eprintln!("error: {bad}: --list-experiments takes no value");
        std::process::exit(exit_code::USAGE);
    }
    let known = |a: &str| {
        FLAGS.iter().any(|f| if f.ends_with('=') { a.starts_with(f) } else { a == *f })
    };
    if let Some(bad) = args.iter().find(|a| a.starts_with("--") && !known(a)) {
        eprintln!("error: unknown argument '{bad}'");
        usage();
    }
    if args.iter().any(|a| a == "--list-workloads") {
        list_workloads();
        return;
    }
    if args.iter().any(|a| a == "--list-predictors") {
        list_predictors();
        return;
    }
    if args.iter().any(|a| a == "--list-experiments") {
        list_experiments();
        return;
    }
    // Verification mode: check existing artifacts against their sealed
    // digests and exit — nothing is simulated. Files come from
    // `--verify=PATH` and/or positional operands after a bare `--verify`.
    if args.iter().any(|a| a == "--verify" || a.starts_with("--verify=")) {
        let mut files: Vec<PathBuf> = args
            .iter()
            .filter_map(|a| a.strip_prefix("--verify="))
            .map(PathBuf::from)
            .collect();
        files.extend(args.iter().filter(|a| !a.starts_with("--")).map(PathBuf::from));
        if files.is_empty() {
            eprintln!("error: --verify expects at least one BENCH_<id>.json path");
            std::process::exit(exit_code::USAGE);
        }
        let mut intact = true;
        for file in &files {
            match SweepArtifact::verify_file(file) {
                Ok(()) => println!("ok      {} (sweep artifact)", file.display()),
                Err(e) => {
                    intact = false;
                    eprintln!("FAILED  {}: {e}", file.display());
                }
            }
        }
        std::process::exit(if intact { exit_code::OK } else { exit_code::INTEGRITY });
    }
    let quick = args.iter().any(|a| a == "--quick");
    let sampled = args.iter().any(|a| a == "--sampled");
    let no_json = args.iter().any(|a| a == "--no-json");
    let serial = args.iter().any(|a| a == "--serial");
    let resume = args.iter().any(|a| a == "--resume");
    // `--run-timeout=0` is legal: the watchdog expires at the first poll,
    // which is how CI smokes the deadline exit path without a slow run.
    let run_timeout: Option<Duration> = args
        .iter()
        .find_map(|a| a.strip_prefix("--run-timeout="))
        .map(|v| match v.trim().parse::<u64>() {
            Ok(secs) => Duration::from_secs(secs),
            Err(_) => {
                eprintln!("error: --run-timeout expects a whole number of seconds, got '{v}'");
                std::process::exit(exit_code::USAGE);
            }
        });
    let retries: Option<u64> =
        args.iter().find_map(|a| a.strip_prefix("--retries=")).map(|v| parse_count("--retries", v));
    let workers: Option<usize> = args.iter().find_map(|a| a.strip_prefix("--workers=")).map(|v| {
        pool::parse_workers(v).unwrap_or_else(|e| {
            eprintln!("error: --workers: {e}");
            std::process::exit(exit_code::USAGE);
        })
    });
    let windows: Option<u64> =
        args.iter().find_map(|a| a.strip_prefix("--windows=")).map(|v| parse_count("--windows", v));
    let warm: Option<u64> =
        args.iter().find_map(|a| a.strip_prefix("--warm=")).map(|v| parse_count("--warm", v));
    // Sampling-mode knobs reject garbage with the same exit-2 contract as
    // --workers: never a silent fallback.
    let sample_mode: Option<SampleMode> =
        args.iter().find_map(|a| a.strip_prefix("--sample-mode=")).map(|v| {
            SampleMode::parse(v).unwrap_or_else(|e| {
                eprintln!("error: --sample-mode: {e}");
                std::process::exit(exit_code::USAGE);
            })
        });
    let clusters_flag: Option<usize> =
        args.iter().find_map(|a| a.strip_prefix("--clusters=")).map(|v| {
            pool::parse_clusters(v).unwrap_or_else(|e| {
                eprintln!("error: --clusters: {e}");
                std::process::exit(exit_code::USAGE);
            })
        });
    if sample_mode == Some(SampleMode::Stride) && clusters_flag.is_some() {
        eprintln!("error: --clusters only applies to --sample-mode=phase");
        std::process::exit(exit_code::USAGE);
    }
    let phase_mode = sample_mode == Some(SampleMode::Phase) || clusters_flag.is_some();
    let json_dir: PathBuf = args
        .iter()
        .find_map(|a| a.strip_prefix("--json-dir="))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    // --sampled raises the horizon to the sampled tier; --quick keeps the
    // quick grid (the combination is what the CI validation step runs).
    let mut budget = if quick {
        Budget::quick()
    } else if sampled {
        Budget::sampled()
    } else {
        Budget::full()
    };
    // --max-workloads=N overrides the tier's built-in truncation. 0 is
    // legal: combined with --synth it sweeps only the extras.
    if let Some(v) = args.iter().find_map(|a| a.strip_prefix("--max-workloads=")) {
        match v.trim().parse::<usize>() {
            Ok(n) => budget.max_workloads = Some(n),
            Err(_) => {
                eprintln!("error: --max-workloads expects a non-negative integer, got '{v}'");
                std::process::exit(exit_code::USAGE);
            }
        }
    }
    // --synth[=N]: append N deterministic coverage-guided synthesized
    // workloads (docs/TRACES.md) after the built-in set.
    let synth: Option<u64> = args.iter().find_map(|a| {
        if a == "--synth" {
            Some(8)
        } else {
            a.strip_prefix("--synth=").map(|v| parse_count("--synth", v))
        }
    });
    if let Some(n) = synth {
        budget
            .extra_workloads
            .extend(phast_trace::synth_workloads(n as usize, phast_trace::SYNTH_SEED));
    }
    // The workload set is now fixed. Every experiment needs at least one
    // workload, so an empty set is a malformed invocation.
    if budget.workloads().is_empty() {
        eprintln!("error: no workloads to run");
        std::process::exit(exit_code::USAGE);
    }
    let sampling: Option<SampleConfig> =
        (sampled || windows.is_some() || warm.is_some() || phase_mode).then(|| {
            let mut scfg = budget.default_sampling();
            if let Some(n) = windows {
                scfg.windows = n as usize;
            }
            if let Some(m) = warm {
                scfg.warm_insts = m;
            }
            if phase_mode {
                let k = clusters_flag.unwrap_or_else(|| default_clusters_for(scfg.windows));
                scfg = scfg.phase(k);
            }
            scfg
        });
    let ids: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();

    if ids.is_empty() {
        usage();
    }

    let selected: Vec<&str> = if ids == ["all"] {
        let mut v: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        // fig7/8/9 share a runner; keep one instance. The sampled-vs-full
        // validation runs its own full-detail reference grid, so it is
        // opt-in rather than part of "all".
        v.retain(|e| *e != "fig8" && *e != "fig9" && *e != "sampled");
        v
    } else {
        ids
    };

    // The journal fingerprints the sweep *shape*: resuming under a
    // different budget or sampling configuration must be refused up front
    // (exit 3), never silently merged into a nonsense artifact.
    let journal: Option<Journal> = if no_json {
        None
    } else {
        let path = json_dir.join("journal.jsonl");
        // Extras are part of the sweep shape: resuming with a different
        // synth workload set must be refused like any other
        // budget mismatch.
        let extras: Vec<&str> = budget.extra_workloads.iter().map(|w| w.name).collect();
        let fingerprint = format!(
            "insts={} iters={} max_workloads={:?} extras={:?} sampling={:?}",
            budget.insts, budget.workload_iters, budget.max_workloads, extras, sampling
        );
        let opened = if resume {
            Journal::resume(&path, &fingerprint)
        } else {
            Journal::create(&path, &fingerprint)
        };
        match opened {
            Ok(j) => {
                if resume {
                    eprintln!(
                        "resuming from {} ({} completed run(s) will be replayed)",
                        j.path().display(),
                        j.completed_runs()
                    );
                }
                Some(j)
            }
            Err(e) => {
                eprintln!("error: journal {}: {e}", path.display());
                std::process::exit(exit_code::INTEGRITY);
            }
        }
    };

    let mut all_degraded: Vec<String> = Vec::new();
    let mut deadline_runs: usize = 0;
    for id in selected {
        // One sweep per experiment: its degraded-run registry and run log
        // are scoped to the experiment, so each BENCH_<id>.json describes
        // exactly the runs that produced this report.
        let mut sweep = if serial {
            Sweep::serial()
        } else {
            workers.map_or_else(Sweep::parallel, Sweep::with_workers)
        };
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
        if let Some(n) = retries {
            sweep = sweep.with_retries(n);
        }
        if let Some(j) = &journal {
            sweep = sweep.with_journal(j.scope(id));
        }
        let start = std::time::Instant::now();
        match figures::run_experiment(id, &sweep, &budget) {
            Some(out) => {
                println!("=== {id} ===\n{out}");
                println!(
                    "[{id} took {:.1?} on {} worker(s)]\n",
                    start.elapsed(),
                    sweep.workers()
                );
                if !no_json {
                    let artifact = sweep.artifact(id, &budget, start.elapsed());
                    match artifact.write_to(&json_dir) {
                        // Fail closed: re-read what actually landed on disk
                        // and check its digest, so a torn or bit-flipped
                        // artifact is caught here and not by a consumer.
                        Ok(path) => match SweepArtifact::verify_file(&path) {
                            Ok(()) => eprintln!("wrote {}", path.display()),
                            Err(e) => {
                                eprintln!("error: {} failed self-verification: {e}", path.display());
                                std::process::exit(exit_code::INTEGRITY);
                            }
                        },
                        Err(e) => eprintln!("warning: could not write {}: {e}", artifact.file_name()),
                    }
                }
                all_degraded.extend(sweep.take_degraded());
                deadline_runs += sweep.deadline_count();
            }
            None => {
                eprintln!("unknown experiment '{id}'; known: {}", experiment_ids());
                std::process::exit(exit_code::USAGE);
            }
        }
    }

    // Degraded (failed but recovered) runs are collected per sweep so one
    // bad (workload, predictor) pair cannot abort a whole experiment; they
    // still must be visible at the end rather than scrolled away.
    if !all_degraded.is_empty() {
        eprintln!("{} degraded run(s) — their statistics are partial:", all_degraded.len());
        for d in &all_degraded {
            eprintln!("  - {d}");
        }
    }
    if deadline_runs > 0 {
        eprintln!("{deadline_runs} run(s) hit the --run-timeout deadline");
    }
    std::process::exit(exit_code::for_outcome(!all_degraded.is_empty(), deadline_runs > 0));
}
