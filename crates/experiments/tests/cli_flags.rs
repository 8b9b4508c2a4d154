//! The binaries refuse flags they do not parse: exit 2 with the flag
//! named on stderr, never a silent run with the flag ignored or a
//! malformed value replaced by a default. Retired flags (lane count,
//! trace record/replay, checkpoint dumps, remote workers, daemon leases,
//! chaos injection, the retry cap and the phase cluster count) get the
//! same answer as a typo, and so do a flag given twice or outside its
//! mode, a zero worker or admission count and an invocation with no
//! workloads to run.
//! `--verify` takes only sweep artifacts: a retired trace or checkpoint
//! file fails closed.

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
