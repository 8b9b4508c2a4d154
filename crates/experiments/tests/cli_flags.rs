//! The binaries refuse flags they do not parse: exit 2 with the flag
//! named on stderr, never a silent run with the flag ignored or a
//! malformed value replaced by a default. Retired flags (lane count,
//! trace record/replay, checkpoint dumps, remote workers, daemon leases,
//! chaos injection, the retry cap and the phase cluster count) get the
//! same answer as a typo, and so do a flag given twice or outside its
//! mode, a zero worker or admission count, a trace interval below 1000,
//! an invocation with no workloads to run or too few for `sampled`, and
//! the retired ids of figures that `fig6` and `fig15` render.
//! `--verify` takes only sweep artifacts: a retired trace or checkpoint
//! file fails closed. Flags that are accepted do what they say: a
//! `--run-timeout` too large for the clock never expires, and the ids
//! of one `--json-dir` run share its journal, one key per cell.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_phast-experiments");
const SERVE: &str = env!("CARGO_BIN_EXE_phast-serve");
const TRACE: &str = env!("CARGO_BIN_EXE_phast-trace");

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let (code, _, stderr) = output(bin, args);
    (code, stderr)
}

/// Runs `bin` with `args` and returns its exit code, stdout and stderr.
/// A child still running after 60 s is killed and fails the test: a flag
/// that slipped through could start a sweep or a daemon that never exits.
fn output(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{bin} {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (mut stdout, mut stderr) = (String::new(), String::new());
    child.stdout.take().expect("piped").read_to_string(&mut stdout).expect("stdout");
    child.stderr.take().expect("piped").read_to_string(&mut stderr).expect("stderr");
    (status.code(), stdout, stderr)
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for flag in [
        "--wokers=4",
        "--lanes=8",
        "--trace=x.phtr",
        "--record-trace=x.phtr",
        "--dump-checkpoints=x.phsc",
        "--worker=127.0.0.1:1",
        "--chaos-net-seed=7",
        "--retries=2",
        "--clusters=4",
    ] {
        let cases: [(&str, Vec<&str>); 2] = [
            (EXPERIMENTS, vec!["--no-json", "--quick", flag, "table1"]),
            (SERVE, vec!["--addr=127.0.0.1:0", flag]),
        ];
        for (bin, args) in cases {
            let (code, stderr) = run(bin, &args);
            assert_eq!(code, Some(2), "{bin} {args:?}: stderr {stderr}");
            assert!(
                stderr.contains(flag),
                "{bin} {args:?} must name {flag}: {stderr}"
            );
        }
    }
}

#[test]
fn repeated_and_inapplicable_flags_exit_2_naming_the_argument() {
    let daemon = "--addr=127.0.0.1:0";
    for (bin, args, named) in [
        (EXPERIMENTS, &["--quick", "--no-json", "--resume", "table1"][..], "--resume"),
        (EXPERIMENTS, &["--quick", "--no-json", "--json-dir=DIR", "table1"], "--json-dir=DIR"),
        (EXPERIMENTS, &["--quick", "--serial", "--workers=4", "table1"], "--workers=4"),
        (EXPERIMENTS, &["--quick", "--warm=1", "--warm=abc", "table1"], "--warm=abc"),
        (EXPERIMENTS, &["--verify=BENCH_table1.json"], "--verify=BENCH_table1.json"),
        (SERVE, &["--client=ping", "--workers=4", "--max-active=3"], "--workers=4"),
        (SERVE, &[daemon, "--kinds=phast", "--no-watch", "--digest=crc32:00000000"], "--kinds"),
        (SERVE, &[daemon, "--workers=2", "--workers=x"], "--workers=x"),
        (TRACE, &["exchange2", "phast", "--insts=4000", "--insts=5000"], "--insts=5000"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains(named), "{args:?} must name {named}: {stderr}");
    }
}

#[test]
fn sample_mode_alone_turns_sampling_on() {
    let report = |flag: &str| {
        let args = ["--quick", "--no-json", "--max-workloads=1", flag, "fig15"];
        let (code, stdout, stderr) = output(EXPERIMENTS, &args);
        assert_eq!(code, Some(0), "{args:?}: stderr {stderr}");
        stdout.lines().filter(|l| !l.contains(" took ")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(report("--sample-mode=stride"), report("--sampled"));
}

/// A stride sweep's journaled sampling config carries the cluster count
/// of the window count `--windows` gives (⌊3·12/4⌋ = 9), not the
/// default window count's, since the fingerprint pins it on `--resume`.
#[test]
fn windows_sets_the_journaled_cluster_count() {
    let dir = temp_path("windows");
    let json_dir = format!("--json-dir={}", dir.display());
    let args = ["--quick", "--windows=12", "--max-workloads=1", &json_dir, "table1"];
    let (code, stderr) = run(EXPERIMENTS, &args);
    let journal = std::fs::read_to_string(dir.join("journal.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{args:?}: stderr {stderr}");
    let journal = journal.expect("journal written");
    let header = journal.lines().next().expect("header line");
    assert!(
        header.contains("SampleConfig { windows: 12,")
            && header.contains("mode: Stride, clusters: 9 }"),
        "{header}"
    );
}

#[test]
fn serve_refuses_retired_flags_and_non_positive_counts() {
    for flag in [
        "--heartbeat-ms=10000",
        "--lease-secs=600",
        "--chaos-seed=7",
        "--chaos-kill=1",
        "--chaos-stall=1",
        "--chaos-kill-at=3:1",
        "--chaos-stall-at=3:1",
        "--workers=0",
        "--workers=four",
        "--max-active=0",
        "--max-active=-1",
    ] {
        let args = ["--addr=127.0.0.1:0", "--no-json", flag];
        let (code, stderr) = run(SERVE, &args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        let name = flag.split('=').next().expect("flag name");
        assert!(stderr.contains(name), "{args:?} must name {name}: {stderr}");
    }
}

#[test]
fn known_flags_still_run() {
    let (code, stderr) = run(EXPERIMENTS, &["--no-json", "--quick", "table1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    // phast-trace takes every label --list-predictors prints.
    let (code, stderr) = run(TRACE, &["exchange2", "unl-mdp-tage", "--insts=5000"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn trace_refuses_unknown_flags_and_bad_values() {
    for (args, name) in [
        (&["--bogus"][..], "--bogus"),
        (&["--insts=2O000"], "--insts"),
        (&["--interval"], "--interval"),
        (&["--interval=999"], "--interval"),
        (&["--config=pentium"], "--config"),
        (&["--insts", "4000"], "--insts"),
    ] {
        let args: Vec<&str> = ["exchange2", "phast"].iter().chain(args).copied().collect();
        let (code, stderr) = run(TRACE, &args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains(name), "{args:?} must name {name}: {stderr}");
    }
    // Flags take their value after `=`, as in the other two binaries.
    for args in [
        &["exchange2", "phast", "--insts=4000", "--interval=2000", "--config=nehalem"][..],
        &["exchange2", "phast", "--insts=6000", "--interval=5000"],
    ] {
        let (code, stderr) = run(TRACE, args);
        assert_eq!(code, Some(0), "{args:?}: stderr {stderr}");
    }
}

/// The last interval ends at `--insts`, so a run shorter than one
/// interval still prints a line and the tail past the last whole interval
/// is printed as a partial one.
#[test]
fn trace_prints_its_last_partial_interval() {
    let committed = |args: &[&str]| -> Vec<u64> {
        let args: Vec<&str> = ["exchange2", "phast"].iter().chain(args).copied().collect();
        let (code, stdout, stderr) = output(TRACE, &args);
        assert_eq!(code, Some(0), "{args:?}: stderr {stderr}");
        // Interval lines are the ones that start with a number.
        stdout
            .lines()
            .filter_map(|l| l.split_whitespace().next()?.parse().ok())
            .collect()
    };
    let lines = committed(&["--insts=2500", "--interval=1000"]);
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines[2] >= 2_500, "{lines:?}");
    assert_eq!(committed(&["--insts=999"]).len(), 1);
}

/// Figures rendered inside another id's grid have no id of their own:
/// each old id is refused like a typo, naming every known id.
#[test]
fn merged_figure_ids_exit_2_listing_the_known_ids() {
    let known: Vec<&str> =
        phast_experiments::figures::EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
    let listing = format!("known: {} all", known.join(" "));
    for id in ["fig7", "fig10", "fig11", "fig14", "fig16"] {
        let (code, stderr) = run(EXPERIMENTS, &["--quick", "--no-json", id]);
        assert_eq!(code, Some(2), "{id}: stderr {stderr}");
        assert!(stderr.contains(&format!("unknown experiment '{id}'")), "{id}: {stderr}");
        assert!(stderr.contains(&listing), "{id} must list {listing}: {stderr}");
    }
}

/// A path in the temp directory unique to this test process.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("phast-cli-flags-{tag}-{}", std::process::id()))
}

#[test]
fn empty_workload_sets_exit_2() {
    let args = ["--quick", "--no-json", "--max-workloads=0", "fig15"];
    let (code, stderr) = run(EXPERIMENTS, &args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("no workloads to run"), "{args:?}: {stderr}");
    let (code, stderr) =
        run(EXPERIMENTS, &["--quick", "--no-json", "--max-workloads=0", "--synth=1", "fig1"]);
    assert_eq!(code, Some(0), "synthesized extras alone still run: {stderr}");
    // The sampled validation needs four workloads, however they are made.
    for args in [
        &["--quick", "--no-json", "--max-workloads=2", "sampled"][..],
        &["--quick", "--no-json", "--max-workloads=0", "--synth=2", "sampled"],
    ] {
        let (code, stderr) = run(EXPERIMENTS, args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains("sampled needs at least 4 workloads"), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_and_checkpoint_files_fail_verification_closed() {
    for (tag, bytes) in [
        ("trace.phtr", &b"PHTR\x01\x00\x00\x00not an artifact"[..]),
        ("ckpt.phsc", &b"PHSC\x03\x00\x00\x00not an artifact"[..]),
    ] {
        let file = temp_path(tag);
        std::fs::write(&file, bytes).expect("temp file");
        let path = file.display().to_string();
        let (code, stderr) = run(EXPERIMENTS, &["--verify", &path]);
        let _ = std::fs::remove_file(&file);
        assert_eq!(code, Some(3), "{tag}: stderr {stderr}");
        assert!(stderr.contains("FAILED"), "{tag}: {stderr}");
    }
}

/// A `--run-timeout` too large for the clock to add to now never cuts a
/// cell (it used to expire every cell at cycle 0, exit 4).
#[test]
fn a_run_timeout_beyond_the_clock_never_expires() {
    let args = [
        "--quick",
        "--no-json",
        "--max-workloads=1",
        "--run-timeout=18446744073709551615",
        "table1",
        "fig15",
    ];
    let (code, stderr) = run(EXPERIMENTS, &args);
    assert_eq!(code, Some(0), "{args:?}: stderr {stderr}");
}

/// Every id of one run shares the run's journal: a key starts with the
/// workload, not the id, `fig15` replays the Alder Lake cells `fig2`
/// journaled, so no key is journaled `done` twice, and `fig15` reports
/// what it reports alone without a journal.
#[test]
fn ids_share_the_journal_and_journal_each_cell_once() {
    let dir = temp_path("shared");
    let json_dir = format!("--json-dir={}", dir.display());
    let args = ["--quick", "--max-workloads=1", &json_dir, "fig2", "fig15"];
    let (code, stdout, stderr) = output(EXPERIMENTS, &args);
    let journal = std::fs::read_to_string(dir.join("journal.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{args:?}: stderr {stderr}");
    let journal = journal.expect("journal written");
    let mut keys: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"kind\":\"done\""))
        .filter_map(|l| l.split_once("\"key\":\"")?.1.split_once('"'))
        .map(|(key, _)| key)
        .collect();
    let workload = phast_workloads::all_workloads()[0].name;
    assert!(keys.iter().all(|k| k.starts_with(&format!("{workload}|"))), "{keys:?}");
    let done = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), done, "a key journaled done twice: {journal}");

    let fig15 = |stdout: &str| -> String {
        let from = stdout.find("=== fig15 ===").expect("fig15 report");
        stdout[from..].lines().filter(|l| !l.contains(" took ")).collect::<Vec<_>>().join("\n")
    };
    let alone = ["--quick", "--no-json", "--max-workloads=1", "fig15"];
    let (code, alone_stdout, stderr) = output(EXPERIMENTS, &alone);
    assert_eq!(code, Some(0), "{alone:?}: stderr {stderr}");
    assert_eq!(fig15(&stdout), fig15(&alone_stdout));
}
