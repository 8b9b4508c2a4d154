//! `phast-trace`: run one workload under one predictor and print
//! per-interval statistics — IPC, violation/false-dependence MPKI and
//! branch MPKI over time. Useful for watching predictors warm up and for
//! spotting phase behaviour.
//!
//! ```text
//! cargo run --release -p phast-experiments --bin phast-trace -- \
//!     gcc_1 phast --insts 300000 --interval 20000 --config alderlake
//! ```

use phast_branch::{Tage, TageConfig};
use phast_experiments::PredictorKind;
use phast_ooo::{Core, CoreConfig};

fn parse_config(name: &str) -> Option<CoreConfig> {
    CoreConfig::generations().into_iter().find(|c| c.name == name)
}

fn flag(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let usage = "usage: phast-trace <workload> <predictor> [--insts N] [--interval N] \
                 [--config alderlake|skylake|haswell|nehalem]\n\
                 predictors: any label `phast-experiments --list-predictors` prints";
    let (Some(wname), Some(pname)) = (positional.first(), positional.get(1)) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };

    let Some(workload) = phast_workloads::by_name(wname) else {
        eprintln!("unknown workload '{wname}'; see phast_workloads::all_workloads()");
        std::process::exit(2);
    };
    let Some(kind) = PredictorKind::from_label(pname) else {
        eprintln!("unknown predictor '{pname}'\n{usage}");
        std::process::exit(2);
    };
    let insts = flag(&args, "--insts", 300_000);
    let interval = flag(&args, "--interval", 20_000).max(1_000);
    let cfg_name = args
        .iter()
        .position(|a| a == "--config")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "alderlake".to_string());
    let Some(mut cfg) = parse_config(&cfg_name) else {
        eprintln!("unknown config '{cfg_name}'");
        std::process::exit(2);
    };
    cfg.train_point = kind.train_point();

    let program = workload.build(10 * insts); // never loop-bound
    let mut predictor = kind.build(&program, insts);
    let mut core =
        Core::new(&program, cfg, predictor.as_mut(), Box::new(Tage::new(TageConfig::default())));

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
        let s = core.run(target, u64::MAX);
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
