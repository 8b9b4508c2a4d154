//! `phast-trace`: run one workload under one predictor and print
//! per-interval statistics — IPC, violation/false-dependence MPKI and
//! branch MPKI over time. Useful for watching predictors warm up and for
//! spotting phase behaviour.
//!
//! ```text
//! cargo run --release -p phast-experiments --bin phast-trace -- \
//!     gcc_1 phast --insts=300000 --interval=20000 --config=alderlake
//! ```
//!
//! The predictor is any label `phast-experiments --list-predictors`
//! prints. The flags are declared in `phast_experiments::cli::PHAST_TRACE`: an
//! unknown flag, a missing or malformed value, or an unknown workload or
//! predictor exits 2 naming it; a simulation error exits 1.

use phast_experiments::{cli, diag, exit_code, report, PredictorKind};
use phast_ooo::{Core, CoreConfig, Deadline};

fn main() {
    let args = cli::PHAST_TRACE.parse();
    let insts: u64 = args.number("--insts", 1).unwrap_or(300_000);
    let interval: u64 = args.number("--interval", 1_000).unwrap_or(20_000);
    let cfg_name = args.value("--config").unwrap_or("alderlake");
    let [wname, pname] = &args.operands[..] else { unreachable!("the parser checks the operands") };
    let Some(workload) = phast_workloads::by_name(wname) else {
        args.reject(&format!("unknown workload '{wname}' (phast-experiments --list-workloads)"))
    };
    let Some(kind) = PredictorKind::from_label(pname) else {
        args.reject(&format!("unknown predictor '{pname}'"))
    };
    let mut cfg = CoreConfig::generations()
        .into_iter()
        .find(|c| c.name == cfg_name)
        .expect("the --config choices are CoreConfig::generations() names");
    cfg.train_point = kind.train_point();

    let program = workload.build(10 * insts); // never loop-bound
    let mut predictor = kind.build(&program, insts);
    let mut core = Core::new(&program, cfg, predictor.as_mut());

    report!(
        "workload={} predictor={} insts={} interval={}\n",
        workload.name,
        kind.label(),
        insts,
        interval
    );
    report!(
        "{:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "committed", "IPC", "MPKI-FN", "MPKI-FP", "br-MPKI", "fwd-loads"
    );

    let mut prev = phast_ooo::SimStats::default();
    let mut target = interval;
    while target <= insts {
        let s = match core.try_run_within(target, u64::MAX, &Deadline::none()) {
            Ok(s) => s,
            Err(e) => {
                diag!("simulation failed: {e}");
                std::process::exit(exit_code::DEGRADED);
            }
        };
        let d_insts = s.committed - prev.committed;
        let d_cycles = s.cycles - prev.cycles;
        if d_insts == 0 {
            break;
        }
        let mpki = |d: u64| 1000.0 * d as f64 / d_insts as f64;
        report!(
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
