//! `phast-trace`: run one workload under one predictor and print
//! per-interval statistics — IPC, violation/false-dependence MPKI and
//! branch MPKI over time. Useful for watching predictors warm up and for
//! spotting phase behaviour.
//!
//! ```text
//! cargo run --release -p phast-experiments --bin phast-trace -- \
//!     gcc_1 phast --insts 300000 --interval 20000 --config alderlake
//! ```
//!
//! Each flag takes its value as the next argument. An unknown flag, a
//! missing or malformed value, or an unknown `--config` exits 2 naming
//! the flag; a simulation error exits 1.

use phast_experiments::{exit_code, PredictorKind};
use phast_ooo::{Core, CoreConfig, Deadline};

const USAGE: &str = "usage: phast-trace <workload> <predictor> [--insts N] [--interval N] \
                     [--config alderlake|skylake|haswell|nehalem]\n\
                     predictors: any label `phast-experiments --list-predictors` prints";

/// Prints `msg` and the usage line, and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(exit_code::USAGE);
}

/// The positive integer `raw` given to `flag`.
fn parse_count(flag: &str, raw: &str) -> u64 {
    match raw.parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!("{flag} expects a positive integer, got '{raw}'")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut insts = 300_000;
    let mut interval = 20_000;
    let mut cfg_name = "alderlake";
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            flag @ ("--insts" | "--interval" | "--config") => {
                let Some(value) = rest.next() else {
                    usage_error(&format!("{flag} needs a value"))
                };
                match flag {
                    "--insts" => insts = parse_count(flag, value),
                    "--interval" => interval = parse_count(flag, value),
                    _ => cfg_name = value,
                }
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag '{flag}'")),
            _ => positional.push(arg),
        }
    }
    let [wname, pname] = positional[..] else {
        usage_error("expected exactly a workload and a predictor")
    };
    let Some(workload) = phast_workloads::by_name(wname) else {
        eprintln!("unknown workload '{wname}'; see phast_workloads::all_workloads()");
        std::process::exit(exit_code::USAGE);
    };
    let Some(kind) = PredictorKind::from_label(pname) else {
        usage_error(&format!("unknown predictor '{pname}'"))
    };
    let Some(mut cfg) = CoreConfig::generations().into_iter().find(|c| c.name == cfg_name) else {
        usage_error(&format!("unknown --config '{cfg_name}'"))
    };
    let interval = interval.max(1_000);
    cfg.train_point = kind.train_point();

    let program = workload.build(10 * insts); // never loop-bound
    let mut predictor = kind.build(&program, insts);
    let mut core = Core::new(&program, cfg, predictor.as_mut());

    println!(
        "workload={} predictor={} insts={} interval={}\n",
        workload.name,
        kind.label(),
        insts,
        interval
    );
    println!(
        "{:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "committed", "IPC", "MPKI-FN", "MPKI-FP", "br-MPKI", "fwd-loads"
    );

    let mut prev = phast_ooo::SimStats::default();
    let mut target = interval;
    while target <= insts {
        let s = match core.try_run_within(target, u64::MAX, &Deadline::none()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("simulation failed: {e}");
                std::process::exit(exit_code::DEGRADED);
            }
        };
        let d_insts = s.committed - prev.committed;
        let d_cycles = s.cycles - prev.cycles;
        if d_insts == 0 {
            break;
        }
        let mpki = |d: u64| 1000.0 * d as f64 / d_insts as f64;
        println!(
            "{:>10} {:>8.3} {:>10.3} {:>10.3} {:>10.3} {:>10}",
            s.committed,
            d_insts as f64 / d_cycles.max(1) as f64,
            mpki(s.violations - prev.violations),
            mpki(s.false_dependences - prev.false_dependences),
            mpki(s.branch_mispredicts - prev.branch_mispredicts),
            s.forwarded_loads - prev.forwarded_loads,
        );
        if s.halted {
            break;
        }
        prev = s;
        target += interval;
    }
}
