//! Microbenchmark of the OoO simulation kernel itself: full
//! fetch→commit simulation of a few representative workloads, reported
//! as host wall-clock plus simulation throughput (simulated cycles per
//! host second and committed mega-instructions per host second).
//!
//! This is the number the allocation-free hot-path work optimizes —
//! run it before and after a simulator change:
//!
//! ```text
//! cargo bench -p phast-bench --bench simkernel
//! ```
//!
//! Workloads are chosen to stress different parts of the kernel:
//! `lbm` (memory-heavy stores), `gcc_1` (branchy, big footprint),
//! `exchange2` (tight integer loops) and `perlbench_1` (mixed). Each
//! runs under the headline PHAST predictor and under blind speculation,
//! bounding the predictor's share of the kernel cost.

use criterion::{criterion_group, criterion_main, Criterion};
use phast_experiments::harness::simulate_run;
use phast_experiments::{Budget, PredictorKind};
use phast_ooo::CoreConfig;
use std::hint::black_box;

const WORKLOADS: [&str; 4] = ["lbm", "gcc_1", "exchange2", "perlbench_1"];
const PREDICTORS: [PredictorKind; 2] = [PredictorKind::Blind, PredictorKind::Phast];

fn bench_simkernel(c: &mut Criterion) {
    let budget = Budget::bench();
    let cfg = CoreConfig::alder_lake();
    let mut g = c.benchmark_group("simkernel");
    g.sample_size(10);

    for name in WORKLOADS {
        let w = phast_workloads::by_name(name).expect("bench workload exists");
        let program = w.build(budget.workload_iters);
        for kind in &PREDICTORS {
            let label = kind.label();
            // Throughput is derived from the run's own stats, so report
            // it once outside the timed samples (one warm run), then let
            // criterion time the same closure.
            let mut pred = kind.build(&program, budget.insts);
            let r = simulate_run(name, &label, &program, &cfg, pred.as_mut(), budget.insts);
            assert!(r.ok(), "simkernel bench run degraded: {:?}", r.failure);
            let wall = r.wall.as_secs_f64();
            println!(
                "simkernel {name:<12} {label:<12} {:>8} cycles {:>8} committed  \
                 {:>7.2} Mcycles/s  {:>7.2} MIPS",
                r.stats.cycles,
                r.stats.committed,
                if wall > 0.0 { r.stats.cycles as f64 / wall / 1e6 } else { 0.0 },
                if wall > 0.0 { r.stats.committed as f64 / wall / 1e6 } else { 0.0 },
            );
            g.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| {
                    let mut pred = kind.build(&program, budget.insts);
                    black_box(simulate_run(
                        name,
                        &label,
                        &program,
                        &cfg,
                        pred.as_mut(),
                        budget.insts,
                    ))
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_simkernel);
criterion_main!(benches);
