//! `simbench`: one measured process of the simulator benchmark.
//!
//! ```text
//! simbench batch --workload detail_fig15|sampled_mem --seed N --out DIR [--synth] [--traced | --setup-only | --calibrate]
//! simbench serve --out DIR --seconds S [--traced | --setup-only | --calibrate]
//! ```
//!
//! Each process prints `ready <cpu seconds>` once its set-up is done: the
//! CPU time from the start of `main` (`run.py` takes it as `setup_s`;
//! process start-up before `main` is the loader's, not the program's
//! set-up, and its cost swings with the host's page state), then one JSON line
//! with what it measured. A batch process runs exactly one pass over its
//! grid, so every pass starts from a fresh CLI process's state. With
//! `--calibrate` a [`calib::Sampler`] measures the host's speed while the
//! pass or the rounds run, and the JSON carries CPU times and calibration
//! slices besides wall times.

mod calib;
mod grid;
mod serve_loop;
mod spans;
mod timed;

use grid::{Counts, Grid, PassOut};
use phast_experiments::artifact::JsonValue;
use phast_ooo::SimStats;
use spans::Tracer;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    out: PathBuf,
    seconds: f64,
    synth: bool,
    traced: bool,
    setup_only: bool,
    calibrate: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("simbench: {msg}");
    eprintln!("usage: simbench batch|serve --workload NAME --seed N --out DIR [--seconds S] [--synth] [--traced | --setup-only | --calibrate]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_else(|| usage("missing mode"));
    let mut a = Args {
        mode,
        workload: "serve_loopback".to_string(),
        seed: 0,
        out: PathBuf::from("simbench/out"),
        seconds: 10.0,
        synth: false,
        traced: false,
        setup_only: false,
        calibrate: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => {
                a.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed wants an integer"))
            }
            "--out" => a.out = PathBuf::from(value()),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds wants a number"))
            }
            "--synth" => a.synth = true,
            "--traced" => a.traced = true,
            "--setup-only" => a.setup_only = true,
            "--calibrate" => a.calibrate = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    a
}

/// Tells `run.py` that set-up is done, with the CPU seconds it took since
/// `main` began at `main_cpu_s`.
fn ready(main_cpu_s: f64) {
    let cpu_s = calib::process_cpu_s() - main_cpu_s;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {cpu_s:.9}")
        .and_then(|()| out.flush())
        .expect("stdout is open");
}

fn num(x: f64) -> JsonValue {
    JsonValue::Float(x)
}

fn int(x: u64) -> JsonValue {
    JsonValue::UInt(x)
}

fn main() {
    let main_cpu_s = calib::process_cpu_s();
    let args = parse_args();
    let doc = match args.mode.as_str() {
        "batch" => batch(&args, main_cpu_s),
        "serve" => serve(&args, main_cpu_s),
        other => usage(&format!("unknown mode {other}")),
    };
    println!("{}", doc.render_compact());
}

/// The cells of one pass as JSON: fingerprint, own wall, clean flag.
fn pass_json(p: &PassOut) -> Vec<(&'static str, JsonValue)> {
    let cells = p
        .cells
        .iter()
        .map(|c| {
            JsonValue::obj(vec![
                ("fp", JsonValue::Str(c.fp.clone())),
                ("wall_s", num(c.wall_s)),
                ("ok", JsonValue::Bool(c.ok)),
            ])
        })
        .collect();
    let sampled = |f: fn(&(u64, u64, u64)) -> u64| -> u64 {
        p.cells
            .iter()
            .filter_map(|c| c.sampled.as_ref().map(f))
            .sum()
    };
    vec![
        ("sweep_s", num(p.sweep_s)),
        ("cells", JsonValue::Array(cells)),
        ("committed", int(p.cells.iter().map(|c| c.committed).sum())),
        ("horizon", int(p.cells.iter().map(|c| c.horizon).sum())),
        ("measured", int(sampled(|s| s.0))),
        ("warmed", int(sampled(|s| s.1))),
        ("fast_forwarded", int(sampled(|s| s.2))),
        ("warm_clones", int(p.warm_clones)),
        ("artifact_ok", JsonValue::Bool(p.artifact_ok)),
    ]
}

fn batch(args: &Args, main_cpu_s: f64) -> JsonValue {
    let grid = Grid::parse(&args.workload)
        .unwrap_or_else(|| usage("batch runs detail_fig15 or sampled_mem"));
    let budget = grid.budget(args.seed, args.synth);
    if args.traced {
        std::fs::create_dir_all(&args.out).expect("output directory is writable");
        ready(main_cpu_s);
        let mut tr = Tracer::new();
        let mut counts = Counts::default();
        let pass = grid::traced_pass(grid, &budget, &args.out, &mut tr, &mut counts);
        let emu_s = match grid {
            Grid::Sampled => grid::emulate_horizons(&budget, &mut counts),
            Grid::Detail => 0.0,
        };
        let spans_file = args.out.join(format!("spans_{}.jsonl", args.workload));
        std::fs::write(&spans_file, tr.to_jsonl()).expect("spans file is writable");
        let mut fields = pass_json(&pass);
        fields.push(("layers", layers(&tr, &counts, &pass, emu_s)));
        fields.push((
            "spans_file",
            JsonValue::Str(spans_file.display().to_string()),
        ));
        JsonValue::obj(fields)
    } else {
        let sweep = grid::setup_sweep(grid, &budget, &args.out);
        ready(main_cpu_s);
        if args.setup_only {
            return JsonValue::obj(vec![("setup_only", JsonValue::Bool(true))]);
        }
        if !args.calibrate {
            return JsonValue::obj(pass_json(&grid::untraced_pass(&sweep, &budget, &args.out)));
        }
        let sampler = calib::Sampler::start();
        let busy0 = sampler.busy_s();
        let t0 = sampler.origin.elapsed().as_secs_f64();
        let pass = grid::untraced_pass(&sweep, &budget, &args.out);
        let busy_s = sampler.busy_s() - busy0;
        let slices = sampler.take_slices();
        let mut fields = pass_json(&pass);
        fields.extend(calibration(busy_s, &slices));
        // When each slice ended, from the start of the pass, so that a
        // cell can be calibrated by the slices taken around it.
        fields.push(("cal_t0_s", num(t0)));
        let series = |f: fn(&calib::Slice) -> f64| {
            JsonValue::Array(slices.iter().map(|s| num(f(s))).collect())
        };
        fields.push(("cal_at_s", series(|s| s.0)));
        fields.push(("cal_cpu_s", series(|s| s.1)));
        JsonValue::obj(fields)
    }
}

/// CPU seconds of a pass or round outside the sampler, and the median
/// and count of the calibration slices taken while it ran.
fn calibration(busy_s: f64, slices: &[calib::Slice]) -> Vec<(&'static str, JsonValue)> {
    let cpu: Vec<f64> = slices.iter().map(|s| s.1).collect();
    vec![
        ("busy_s", num(busy_s)),
        ("cal_slice_s", num(calib::median(&cpu))),
        ("cal_slices", int(slices.len() as u64)),
    ]
}

/// The per-layer metrics of one traced pass, named as in BENCHMARK.json.
fn layers(tr: &Tracer, counts: &Counts, pass: &PassOut, emu_s: f64) -> JsonValue {
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.2);
    let stats: Vec<&SimStats> = pass.cells.iter().filter_map(|c| c.stats.as_ref()).collect();
    let sum = |f: fn(&SimStats) -> u64| -> u64 { stats.iter().map(|s| f(s)).sum() };
    let mut pred = timed::PredLedger::default();
    for (_, l) in &counts.pred {
        pred.merge(l);
    }
    let pred_s = pred.total_ns() as f64 / 1e9;
    let cycles = sum(|s| s.cycles);
    let emu_insts = counts.emu_insts;
    let mut m: Vec<(String, JsonValue)> = Vec::new();
    let mut put = |k: &str, v: JsonValue| m.push((k.to_string(), v));
    put("mdp.oracle_build_s", num(total("mdp.oracle_build")));
    put("mdp.oracle_builds", int(counts.oracle_builds));
    put("mdp.oracle_insts", int(counts.oracle_insts));
    put("sample.capture_s", num(total("sample.capture")));
    put("sample.captures", int(counts.captures));
    put("sample.window_s", num(total("sample.window")));
    put("sample.window_self_s", num(own("sample.window")));
    put("sample.windows", int(counts.windows));
    let sampled = |f: fn(&(u64, u64, u64)) -> u64| -> u64 {
        pass.cells
            .iter()
            .filter_map(|c| c.sampled.as_ref().map(f))
            .sum()
    };
    put("sample.fast_forwarded_insts", int(sampled(|s| s.2)));
    put("sample.warmed_insts", int(sampled(|s| s.1)));
    put("sample.measured_insts", int(sampled(|s| s.0)));
    put("sample.warm_clones", int(pass.warm_clones));
    put("sample.estimate_s", num(total("sample.estimate")));
    put("isa.emu_s", num(emu_s));
    put(
        "isa.ns_per_inst",
        num(if emu_insts > 0 {
            emu_s * 1e9 / emu_insts as f64
        } else {
            0.0
        }),
    );
    put("pred.predict_s", num(pred.predict.ns as f64 / 1e9));
    put("pred.predict_calls", int(pred.predict.calls));
    put("pred.train_s", num(pred.train.ns as f64 / 1e9));
    put("pred.train_calls", int(pred.train.calls));
    put("pred.other_s", num(pred.other.ns as f64 / 1e9));
    put("pred.other_calls", int(pred.other.calls));
    put("pred.build_s", num(total("pred.build")));
    for (label, l) in &counts.pred {
        put(
            &format!("pred.{label}.self_s"),
            num(l.total_ns() as f64 / 1e9),
        );
    }
    put("ooo.simulate_s", num(total("ooo.simulate")));
    put("ooo.self_s", num(own("ooo.simulate")));
    put(
        "ooo.ns_per_cycle",
        num(if cycles > 0 && total("ooo.simulate") > 0.0 {
            own("ooo.simulate") * 1e9 / cycles as f64
        } else {
            0.0
        }),
    );
    put("ooo.cycles", int(cycles));
    put("ooo.committed", int(sum(|s| s.committed)));
    put("ooo.squashed_uops", int(sum(|s| s.squashed_uops)));
    put("ooo.violations", int(sum(|s| s.violations)));
    put("ooo.false_deps", int(sum(|s| s.false_dependences)));
    put("ooo.mdp_stalled_loads", int(sum(|s| s.mdp_stalled_loads)));
    put("mem.l1d_hits", int(sum(|s| s.memory.l1d.hits)));
    put("mem.l1d_misses", int(sum(|s| s.memory.l1d.misses)));
    put("mem.l2_misses", int(sum(|s| s.memory.l2.misses)));
    put("mem.l3_misses", int(sum(|s| s.memory.l3.misses)));
    put("mem.dram_accesses", int(sum(|s| s.memory.dram_accesses)));
    put(
        "mem.mshr_stall_cycles",
        int(sum(|s| {
            let h = &s.memory;
            h.l1i.mshr_stall_cycles
                + h.l1d.mshr_stall_cycles
                + h.l2.mshr_stall_cycles
                + h.l3.mshr_stall_cycles
        })),
    );
    put(
        "mem.prefetch_fills",
        int(sum(|s| {
            let h = &s.memory;
            h.l1i.prefetch_fills + h.l1d.prefetch_fills + h.l2.prefetch_fills + h.l3.prefetch_fills
        })),
    );
    put("workloads.build_s", num(total("workloads.build")));
    put("workloads.builds", int(counts.builds));
    put("trace.signature_s", num(total("trace.signature")));
    put("trace.signature_calls", int(counts.signature_calls));
    put("trace.signature_programs", int(counts.signature_programs));
    put("harness.artifact_s", num(total("harness.artifact")));
    // Time the traced pass spends outside every layer span: the glue of
    // the pass and cell spans themselves.
    put("tracing.glue_s", num(own("pass") + own("cell")));
    put("tracing.pass_s", num(total("pass")));
    put("tracing.pred_s", num(pred_s));
    let calls = pred.predict.calls + pred.train.calls + pred.other.calls;
    put(
        "tracing.timer_overhead_s",
        num(calls as f64 * timed::clock_cost_ns() / 1e9),
    );
    JsonValue::Object(m)
}

fn serve(args: &Args, main_cpu_s: f64) -> JsonValue {
    let out = args.out.join("serve");
    let mut lb = serve_loop::Loopback::start(&out);
    ready(main_cpu_s);
    lb.ping();
    if args.setup_only {
        return JsonValue::obj(vec![("exit", int(lb.shutdown() as u64))]);
    }
    let sampler = args.calibrate.then(calib::Sampler::start);
    let start = Instant::now();
    let now = || match &sampler {
        Some(s) => s.busy_s(),
        None => start.elapsed().as_secs_f64(),
    };
    let mut rounds = Vec::new();
    let mut slices = Vec::new();
    // A traced run spends half its time on daemon rounds; the layers
    // inside the cells come from a traced direct pass over the same cells
    // afterwards, since the daemon's cells cannot be wrapped from outside.
    let budget_s = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    while rounds.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        if let Some(s) = &sampler {
            s.take_slices();
        }
        rounds.push(lb.round(&format!("round{}", rounds.len()), &out, &now));
        slices.push(sampler.as_ref().map(|s| s.take_slices()));
    }
    drop(sampler);
    let accept_s = lb.accept_s();
    let exit = lb.shutdown();
    let reference = serve_loop::reference_keys();
    let mismatched: u64 = rounds
        .iter()
        .map(|r| {
            (0..reference.len().max(r.keys.len()))
                .filter(|&i| reference.get(i) != r.keys.get(i))
                .count() as u64
        })
        .sum();
    let round_json = |(r, sl): (&serve_loop::Round, &Option<Vec<calib::Slice>>)| {
        let mut fields = vec![
            ("sweep_s", num(r.sweep_s)),
            ("first_cell_s", num(r.first_cell_s)),
            (
                "gaps",
                JsonValue::Array(r.gaps.iter().map(|&g| num(g)).collect()),
            ),
            ("fetch_s", num(r.fetch_s)),
            ("cells", int(r.cells)),
            ("extra_attempts", int(r.extra_attempts)),
            ("wall_sum_s", num(r.wall_sum_s)),
            ("committed", int(r.committed)),
            ("failed", int(r.failed)),
            ("artifact_ok", JsonValue::Bool(r.artifact_ok)),
            (
                "digest",
                JsonValue::Str(format!(
                    "{:08x}",
                    phast_sample::crc32(r.keys.join("\n").as_bytes())
                )),
            ),
        ];
        if let Some(sl) = sl {
            // In busy (CPU) seconds, the round's own time is its sweep.
            fields.extend(calibration(r.sweep_s, sl));
        }
        JsonValue::obj(fields)
    };
    let mut fields = vec![
        (
            "rounds",
            JsonValue::Array(rounds.iter().zip(&slices).map(round_json).collect()),
        ),
        ("accept_s", num(accept_s)),
        ("exit", int(exit as u64)),
        ("reference_cells", int(reference.len() as u64)),
        ("mismatched_cells", int(mismatched)),
    ];
    if args.traced {
        let budget = phast_experiments::Budget::quick();
        let mut tr = Tracer::new();
        let mut counts = Counts::default();
        let pass = grid::traced_pass(Grid::Detail, &budget, &args.out, &mut tr, &mut counts);
        std::fs::write(args.out.join("spans_serve_loopback.jsonl"), tr.to_jsonl())
            .expect("spans file is writable");
        fields.push(("direct", JsonValue::obj(pass_json(&pass))));
        fields.push(("layers", layers(&tr, &counts, &pass, 0.0)));
    }
    JsonValue::obj(fields)
}
