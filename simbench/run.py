#!/usr/bin/env python3
"""Simulator benchmark: one command per workload.

    python3 simbench/run.py --workload detail_fig15|sampled_mem|serve_loopback
                            --seed N --seconds S --trace 0|1 [--synth]

Builds the `simbench` package (cargo, offline, release), then measures
the workload for about S seconds from outside the simulator:

* `detail_fig15`, `sampled_mem`: set-up probes, then one `simbench batch`
  process per pass, so each pass starts from the state a fresh CLI
  process has;
* `serve_loopback`: set-up probes, then one process that runs the daemon
  and its client in a closed loop.

Every simbench process is pinned to one CPU. Trace 0 prints every
end-to-end metric, the simulation times calibrated to the reference host
speed (see calibrated() and src/calib.rs); trace 1 runs untraced and traced passes
and prints every per-layer metric, in raw wall seconds, plus the layer
ledger. The last line of standard output is one JSON object: correct,
attempted, failed, metrics. Results, spans and artifacts go to
simbench/out/. See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BATCH = ("detail_fig15", "sampled_mem")
WORKLOADS = BATCH + ("serve_loopback",)
LABELS = ("ideal", "store-sets", "nosq", "mdp-tage", "mdp-tage-s", "phast")
CHILD_TIMEOUT_S = 150
# Processes started only to time set-up, besides the measured ones.
SETUP_PROBES = 40
# CPU seconds one calibration slice (src/calib.rs) takes on the reference
# host: about what it takes on an idle Sapphire Rapids core of the host
# the bounds were set on.
CAL_REF_S = 0.001
# How a pass's time follows the slices', per workload: its time goes as
# the slice time to this power. The slice, a few KiB of code and data,
# feels a contended core less than the simulator does. Log-log fits of
# pass (round) CPU time on median slice, over passes pinned next to the
# sampler on that host: detail_fig15 2.2 (40 passes, r = 0.95),
# serve_loopback 2.0-2.4 (r = 0.94-0.97), sampled_mem 1.5 (12 passes,
# r = 0.88); rounded down.
SENSITIVITY = {"detail_fig15": 2.0, "sampled_mem": 1.5, "serve_loopback": 2.0}
# A batch cell is calibrated by the slices that ended within this many
# seconds of its middle (or within the cell, if it is longer): about 25
# slices, while the host's speed holds for seconds at a time.
CELL_WINDOW_S = 0.25

# Per-layer metrics, in ledger order, with the end-to-end metric each
# should move and the workload it should move on (the rest: flat).
LAYERS = [
    ("mdp.oracle_build_s", "s", "sweep_s, covered_mips, cell_p90_s on sampled_mem"),
    ("mdp.oracle_builds", "count", ""),
    ("mdp.oracle_insts", "count", ""),
    ("sample.capture_s", "s", "covered_mips, peak_rss_mb on sampled_mem"),
    ("sample.captures", "count", ""),
    ("sample.window_s", "s", "covered_mips on sampled_mem"),
    ("sample.window_self_s", "s", "covered_mips on sampled_mem"),
    ("sample.windows", "count", ""),
    ("sample.fast_forwarded_insts", "count", ""),
    ("sample.warmed_insts", "count", ""),
    ("sample.measured_insts", "count", ""),
    ("sample.warm_clones", "count", "peak_rss_mb on sampled_mem"),
    ("sample.estimate_s", "s", "covered_mips on sampled_mem"),
    ("isa.emu_s", "s", "covered_mips on sampled_mem"),
    ("isa.ns_per_inst", "ns", "covered_mips on sampled_mem"),
    ("pred.predict_s", "s", "sim_mips, cell_p90_s on detail_fig15, serve_loopback"),
    ("pred.predict_calls", "count", ""),
    ("pred.train_s", "s", "sim_mips, cell_p90_s on detail_fig15, serve_loopback"),
    ("pred.train_calls", "count", ""),
    ("pred.other_s", "s", "sim_mips, cell_p90_s on detail_fig15, serve_loopback"),
    ("pred.other_calls", "count", ""),
    ("pred.build_s", "s", "sweep_s on detail_fig15, serve_loopback"),
] + [
    ("pred.%s.self_s" % label, "s", "sim_mips, cell_p90_s on detail_fig15, serve_loopback")
    for label in LABELS
] + [
    ("ooo.simulate_s", "s", "sim_mips, cell_p50_s on detail_fig15, serve_loopback"),
    ("ooo.self_s", "s", "sim_mips, cell_p50_s on detail_fig15, serve_loopback"),
    ("ooo.ns_per_cycle", "ns", "sim_mips on detail_fig15, serve_loopback"),
    ("ooo.cycles", "count", ""),
    ("ooo.committed", "count", ""),
    ("ooo.squashed_uops", "count", ""),
    ("ooo.violations", "count", ""),
    ("ooo.false_deps", "count", ""),
    ("ooo.mdp_stalled_loads", "count", ""),
    ("mem.l1d_hits", "count", "context for ooo.self_s"),
    ("mem.l1d_misses", "count", "context for ooo.self_s"),
    ("mem.l2_misses", "count", "context for ooo.self_s"),
    ("mem.l3_misses", "count", "context for ooo.self_s"),
    ("mem.dram_accesses", "count", "context for ooo.self_s"),
    ("mem.mshr_stall_cycles", "count", "context for ooo.self_s"),
    ("mem.prefetch_fills", "count", "context for ooo.self_s"),
    ("workloads.build_s", "s", "sweep_s on detail_fig15"),
    ("workloads.builds", "count", ""),
    ("trace.signature_s", "s", "sweep_s on detail_fig15"),
    ("trace.signature_calls", "count", ""),
    ("trace.signature_programs", "count", ""),
    ("harness.self_s", "s", "sweep_s on detail_fig15"),
    ("harness.artifact_s", "s", "sweep_s on detail_fig15"),
    ("serve.accept_s", "s", "first_cell_s on serve_loopback"),
    ("serve.self_s", "s", "sweep_s, first_cell_s on serve_loopback"),
    ("serve.fetch_s", "s", "sweep_s on serve_loopback"),
    ("serve.cells", "count", ""),
    ("serve.extra_attempts", "count", ""),
    ("tracing.overhead_frac", "ratio", ""),
    ("tracing.layer_sum_frac", "ratio", ""),
    ("tracing.timer_overhead_s", "s", ""),
]

END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sim_mips", "MIPS"),
    ("covered_mips", "MIPS"),
    ("cell_p50_s", "s"),
    ("cell_p90_s", "s"),
    ("first_cell_s", "s"),
    ("peak_rss_mb", "MB"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("simbench: " + msg)
    sys.exit(code)


def build():
    """Builds the benchmark package; returns the binary's path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed (cargo exit %d)" % res.returncode)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", "simbench")


def pinned_cpu():
    """The one CPU every simbench process runs on: calibration slices and
    measured work then share a core (src/calib.rs)."""
    return max(os.sched_getaffinity(0))


def spawn(binary, args):
    """Runs one simbench process. Returns (setup CPU seconds, result, peak RSS MB).

    Set-up time is the CPU time from the start of the process's `main` to
    the `ready` line it prints once the first cell can start.
    """
    t0 = time.perf_counter()
    cpu = pinned_cpu()
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    deadline = t0 + CHILD_TIMEOUT_S
    first = proc.stdout.readline().split()
    if len(first) != 2 or first[0] != "ready":
        proc.kill()
        os.wait4(proc.pid, 0)
        fail("simbench %s did not report ready: %r" % (" ".join(args), " ".join(first)[:200]))
    setup_s = float(first[1])
    rest = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() > deadline:
        fail("simbench %s overran %d s" % (" ".join(args), CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        fail("simbench %s exited with %d" % (" ".join(args), proc.returncode))
    lines = rest.strip().splitlines()
    if not lines:
        fail("simbench %s printed no result" % " ".join(args))
    return setup_s, json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def quantile(values, q):
    """The q-quantile (0 < q < 1) by nearest rank: always one of the
    values, never a point between two cells of different kinds."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def digest(fingerprints):
    return "%08x" % zlib.crc32("\n".join(fingerprints).encode())


def provenance():
    def cmd(args):
        try:
            r = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=20)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            return None

    commit = cmd(["git", "rev-parse", "HEAD"])
    dirty = None
    if commit is not None:
        status = cmd(["git", "status", "--porcelain", "--untracked-files=no"])
        dirty = bool(status) if status is not None else None
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": cmd(["rustc", "-V"]) or "unknown",
    }


class Checks:
    """Counts what was attempted and what failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def cells(self, cells, fingerprints=None, what="cell"):
        """Each cell is one attempt: it fails if it did not run cleanly or
        its fingerprint differs from the reference."""
        for i, cell in enumerate(cells):
            self.attempted += 1
            bad = not cell["ok"] or (fingerprints is not None and cell["fp"] != fingerprints[i])
            if bad:
                self.failed += 1
                self.reasons.append("%s %d differs or degraded" % (what, i))

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


def batch_args(workload, seed, synth, mode=None):
    """`mode`: None, "--traced", "--setup-only" or "--calibrate"."""
    args = ["batch", "--workload", workload, "--seed", str(seed), "--out", OUT]
    if synth:
        args.append("--synth")
    if mode:
        args.append(mode)
    return args


def pass_fingerprints(p):
    return [c["fp"] for c in p["cells"]]


def run_batch(binary, workload, seed, seconds, trace, synth, checks):
    """Runs passes for about `seconds`, with set-up probes among them. Returns
    (set-up times, untraced, traced); the pass lists hold
    (setup_s, result, rss_mb)."""
    untraced, traced, setups = [], [], []
    start = time.perf_counter()
    probe = batch_args(workload, seed, synth, "--setup-only")
    # End-to-end passes run calibrated; the untraced passes of a traced
    # run are the tracer's uncalibrated reference.
    plain = batch_args(workload, seed, synth, None if trace else "--calibrate")
    while True:
        # Set-up probes are spread over the run, a share of them before
        # each pass, so that they see the host as the passes do.
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < max(SETUP_PROBES // 4, SETUP_PROBES * share):
            setups.append(spawn(binary, probe)[0])
        untraced.append(spawn(binary, plain))
        if trace:
            traced.append(spawn(binary, batch_args(workload, seed, synth, "--traced")))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        # At least two untraced passes, or one untraced and one traced.
        if len(untraced) + len(traced) >= 2 and elapsed + per_round > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(spawn(binary, probe)[0])
    reference = pass_fingerprints(untraced[0][1])
    for _, p, _ in untraced:
        checks.cells(p["cells"], reference)
        checks.check(p["artifact_ok"], "artifact failed verification")
    for _, p, _ in traced:
        checks.cells(p["cells"], reference, "traced cell")
        checks.check(p["artifact_ok"], "traced artifact failed verification")
    return setups + [s for s, _, _ in untraced], untraced, traced


def speed(unit, workload):
    """Reference-host seconds per second measured in a pass or round of
    `workload` whose calibration slices had median `unit["cal_slice_s"]`."""
    if not unit["cal_slices"]:
        fail("a measured pass took no calibration slice")
    return (CAL_REF_S / unit["cal_slice_s"]) ** SENSITIVITY[workload]


def cell_speeds(p, workload, pass_speed):
    """The speed of each cell of batch pass `p`, from the slices taken
    around it. A serial sweep runs its cells in row order, so a cell's
    place in time is the sum of the walls before it (a sampled ideal
    cell's wall also holds its program's capture, which ran first; the
    window absorbs that). Too few slices: the pass's speed."""
    slices = list(zip(p["cal_at_s"], p["cal_cpu_s"]))
    speeds, t = [], p["cal_t0_s"]
    for c in p["cells"]:
        mid, half = t + c["wall_s"] / 2, max(c["wall_s"] / 2, CELL_WINDOW_S)
        near = [cpu for at, cpu in slices if abs(at - mid) <= half]
        if len(near) >= 5:
            speeds.append((CAL_REF_S / statistics.median(near)) ** SENSITIVITY[workload])
        else:
            speeds.append(pass_speed)
        t += c["wall_s"]
    return speeds


def calibrated(workload, setups, units, sweep, walls, committed, horizon, local=None):
    """The simulation-time metrics of passes or rounds, each in
    reference-host seconds: the unit's CPU time outside the sampler
    (`busy_s`) times its speed(). `sweep(u)` and `walls(u)` give a unit's
    time and per-cell times in its own clock, in which `busy_s` is the
    whole unit; `local(u, f)`, if given, gives each cell its own speed
    in place of the unit's `f`. Set-up stays in CPU seconds: it does not
    follow the slices.

    A cell quantile is taken within each unit, over the grid's cells, and
    then the median over units: the grid is fixed, so a quantile names
    the same cell (or gap) in every unit. Pooled over units, it would
    fall between kinds of cells that differ 30-fold (sampled_mem's ideal
    cells against its window cells)."""
    speeds = [speed(u, workload) for u in units]
    cells = [[w * g for w, g in zip(walls(u), local(u, f) if local else [f] * len(walls(u)))]
             for u, f in zip(units, speeds)]
    norm = [sweep(u) * f for u, f in zip(units, speeds)]
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(norm),
        "sim_mips": statistics.median(committed(u) / n / 1e6 for u, n in zip(units, norm)),
        "covered_mips": statistics.median(horizon(u) / n / 1e6 for u, n in zip(units, norm)),
        "cell_p50_s": statistics.median(quantile(c, 0.5) for c in cells),
        "cell_p90_s": statistics.median(quantile(c, 0.9) for c in cells),
    }, len(cells[0]), speeds


def batch_metrics(workload, setups, untraced):
    passes = [p for _, p, _ in untraced]
    # A pass's cells carry wall seconds; scaled by the pass's CPU share
    # they are in the pass's busy clock.
    metrics, samples, speeds = calibrated(
        workload, setups, passes,
        sweep=lambda p: p["busy_s"],
        walls=lambda p: [c["wall_s"] * p["busy_s"] / p["sweep_s"] for c in p["cells"]],
        committed=lambda p: p["committed"],
        horizon=lambda p: p["horizon"],
        local=lambda p, f: cell_speeds(p, workload, f),
    )
    # A batch sweep shows no cell until its report prints at the end of
    # the pass, so its first result arrives with the whole grid.
    metrics["first_cell_s"] = metrics["sweep_s"]
    metrics["peak_rss_mb"] = statistics.median(rss for _, _, rss in untraced)
    raw = {"wall_sweep_s": statistics.median(p["sweep_s"] for p in passes),
           "busy_sweep_s": statistics.median(p["busy_s"] for p in passes)}
    return metrics, samples, speeds, raw


def batch_layers(untraced, traced, checks):
    sweep = statistics.median(p["sweep_s"] for _, p, _ in untraced)
    per_pass = [p["layers"] for _, p, _ in traced]
    layers = {k: statistics.median(l[k] for l in per_pass) for k in per_pass[0]}
    traced_sweep = statistics.median(p["sweep_s"] for _, p, _ in traced)
    pass_s, glue = layers["tracing.pass_s"], layers["tracing.glue_s"]
    # What the untraced pass spends outside the layers the traced pass
    # covers (pool, journal, rendering), with the timer's own clock reads
    # taken back out of the traced layer time.
    layers["harness.self_s"] = sweep - (pass_s - glue - layers["tracing.timer_overhead_s"])
    layers["tracing.overhead_frac"] = traced_sweep / sweep - 1.0
    layers["tracing.layer_sum_frac"] = (pass_s - glue) / pass_s
    checks.check(
        layers["tracing.layer_sum_frac"] >= 0.95, "layer self times cover under 95% of the traced pass"
    )
    return layers, pass_s


def run_serve(binary, seconds, trace, checks):
    setups = []
    start = time.perf_counter()
    for _ in range(SETUP_PROBES):
        setup_s, res, _ = spawn(binary, ["serve", "--out", OUT, "--setup-only"])
        setups.append(setup_s)
        checks.check(res["exit"] == 0, "daemon set-up probe exited %d" % res["exit"])
    remaining = max(1.0, seconds - (time.perf_counter() - start))
    args = ["serve", "--out", OUT, "--seconds", "%.3f" % remaining]
    args.append("--traced" if trace else "--calibrate")
    setup_s, res, rss = spawn(binary, args)
    setups.append(setup_s)
    rounds = res["rounds"]
    checks.check(res["exit"] == 0, "daemon exited %d" % res["exit"])
    checks.check(res["reference_cells"] == 36, "reference grid has %d cells" % res["reference_cells"])
    for r in rounds:
        checks.attempted += r["cells"]
        checks.failed += r["failed"]
        checks.check(r["artifact_ok"], "daemon artifact failed verification")
        checks.check(r["digest"] == rounds[0]["digest"], "daemon rounds disagree")
    if res["mismatched_cells"]:
        checks.failed += res["mismatched_cells"]
        checks.reasons.append("%d daemon cells differ from detail_fig15" % res["mismatched_cells"])
    return setups, res, rss


def serve_metrics(setups, res, rss):
    """A calibrated run's rounds are timed in busy seconds (src/calib.rs)."""
    rounds = res["rounds"]
    metrics, samples, speeds = calibrated(
        "serve_loopback", setups, rounds,
        sweep=lambda r: r["busy_s"],
        walls=lambda r: r["gaps"],
        committed=lambda r: r["committed"],
        horizon=lambda r: r["committed"],
    )
    # Submit to the first `cell` event stays in CPU seconds: it does not
    # follow the slices (log-log slope under 0.2 over rounds).
    metrics["first_cell_s"] = statistics.median(r["first_cell_s"] for r in rounds)
    metrics["peak_rss_mb"] = rss
    raw = {"busy_sweep_s": statistics.median(r["busy_s"] for r in rounds)}
    return metrics, samples, speeds, raw


def serve_layers(res, checks):
    """Layers inside the cells come from the direct traced pass; the
    serve rows from the daemon rounds (medians)."""
    rounds = res["rounds"]
    med = lambda key: statistics.median(r[key] for r in rounds)
    direct = res["direct"]
    reference = [c["fp"] for c in direct["cells"]]
    checks.cells(direct["cells"], reference, "direct traced cell")
    layers = dict(res["layers"])
    pass_s, glue = layers["tracing.pass_s"], layers["tracing.glue_s"]
    layers["harness.self_s"] = 0.0
    layers["serve.accept_s"] = res["accept_s"]
    layers["serve.self_s"] = statistics.median(r["sweep_s"] - r["wall_sum_s"] for r in rounds)
    layers["serve.fetch_s"] = med("fetch_s")
    layers["serve.cells"] = rounds[-1]["cells"]
    layers["serve.extra_attempts"] = sum(r["extra_attempts"] for r in rounds)
    # The direct pass runs the rounds' cells behind the predictor timer.
    layers["tracing.overhead_frac"] = pass_s / med("sweep_s") - 1.0
    layers["tracing.layer_sum_frac"] = (pass_s - glue) / pass_s
    return layers, med("sweep_s")


def ledger(current):
    """One row per per-layer metric, one column per workload with a saved
    traced result: the value, and for times the share of that workload's
    traced pass."""
    cols = []
    for w in WORKLOADS:
        path = os.path.join(OUT, "traced_%s.json" % w)
        if w == current[0]:
            cols.append((w, current[1], current[2]))
        elif os.path.exists(path):
            with open(path) as f:
                saved = json.load(f)
            cols.append((w, saved["layers"], saved["pass_s"]))
    header = ["metric", "unit"] + [w for w, _, _ in cols] + ["should move"]
    rows = []
    for name, unit, moves in LAYERS:
        row = [name, unit]
        for _, layers, pass_s in cols:
            v = layers.get(name, 0.0)
            if unit == "s":
                row.append("%.4f (%5.1f%%)" % (v, 100.0 * v / pass_s if pass_s else 0.0))
            elif unit == "count":
                row.append("%d" % v)
            else:
                row.append("%.4g" % v)
        row.append(moves)
        rows.append(row)
    rows.append(["(traced pass)", "s"] + ["%.4f (100.0%%)" % p for _, _, p in cols] + [""])
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    fmt = lambda r: "  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip()
    print("layer ledger (share = of the workload's traced pass)")
    print(fmt(header))
    print(fmt(["-" * w for w in widths]))
    for r in rows:
        print(fmt(r))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--synth", action="store_true",
                    help="swap in phast_trace::synth_workloads(n, seed) programs (batch workloads)")
    a = ap.parse_args()
    if a.synth and a.workload == "serve_loopback":
        fail("serve_loopback submits the daemon's built-in quick grid; --synth does not apply", 2)

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    checks = Checks()
    detail = {}
    if a.workload in BATCH:
        setups, untraced, traced = run_batch(binary, a.workload, a.seed, a.seconds, a.trace, a.synth, checks)
        fingerprints = pass_fingerprints(untraced[0][1])
        detail["passes"] = len(untraced)
        if a.trace:
            layers, pass_s = batch_layers(untraced, traced, checks)
        else:
            metrics, samples, speeds, raw = batch_metrics(a.workload, setups, untraced)
    else:
        setups, res, rss = run_serve(binary, a.seconds, a.trace, checks)
        fingerprints = [r["digest"] for r in res["rounds"]][:1]
        detail["rounds"] = len(res["rounds"])
        if a.trace:
            layers, pass_s = serve_layers(res, checks)
        else:
            metrics, samples, speeds, raw = serve_metrics(setups, res, rss)
    detail["digest"] = digest(fingerprints)
    if not a.trace:
        detail["cells_per_unit"] = samples
        # Reference-host seconds per measured second: below 1 on a host
        # (or at a moment) faster than the reference.
        detail["speed_median"] = round(statistics.median(speeds), 4)
        detail["speed_range"] = "%.3f-%.3f" % (min(speeds), max(speeds))
        detail.update({k: round(v, 4) for k, v in raw.items()})
    detail["failed_frac"] = checks.failed / max(1, checks.attempted)

    units = dict(END_TO_END)
    print("workload %s  seed %d  %s" % (a.workload, a.seed, " ".join("%s=%s" % kv for kv in detail.items())))
    if checks.reasons:
        print("failed checks: " + "; ".join(checks.reasons[:10]))
    if a.trace:
        ledger((a.workload, layers, pass_s))
        out_metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit, _ in LAYERS}
    else:
        for name, unit in END_TO_END:
            print("%-14s %14.6f %s" % (name, metrics[name], unit))
        out_metrics = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "synth": a.synth,
        "provenance": provenance(),
        "detail": detail,
        "metrics": out_metrics,
        "failed_reasons": checks.reasons,
    }
    with open(os.path.join(OUT, "result_%s_seed%d_trace%d.json" % (a.workload, a.seed, a.trace)), "w") as f:
        json.dump(record, f, indent=1)
    if a.trace:
        with open(os.path.join(OUT, "traced_%s.json" % a.workload), "w") as f:
            json.dump({"layers": layers, "pass_s": pass_s, "provenance": record["provenance"]}, f, indent=1)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": out_metrics,
    }))


if __name__ == "__main__":
    main()
