//! Both binaries refuse flags they do not parse: exit 2 with the flag
//! named on stderr, never a silent run with the flag ignored. A retired
//! flag (the old lane-count flag) gets the same answer as a typo.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_phast-experiments");
const SERVE: &str = env!("CARGO_BIN_EXE_phast-serve");

/// Runs `bin` with `args` and returns its exit code and stderr. A child
/// still running after 60 s is killed and fails the test: a flag that
/// slipped through could start a sweep or a daemon that never exits.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
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
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut stderr)
        .expect("stderr");
    (status.code(), stderr)
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for flag in ["--wokers=4", "--lanes=8"] {
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
fn known_flags_still_run() {
    let (code, stderr) = run(EXPERIMENTS, &["--no-json", "--quick", "table1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
