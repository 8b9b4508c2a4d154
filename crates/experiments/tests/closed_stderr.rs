//! The binaries keep working after the process reading their stderr has
//! exited, when every later write to stderr fails with a broken pipe: a
//! sweep whose cells all degrade (each one writes a warning) still ends
//! with the sweep's exit code. In `phast-serve` it delivers `done` and
//! frees its admission slot, and SIGTERM still drains the daemon. Every
//! wait is bounded, so a process that stalls fails the test instead of
//! hanging it.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_phast-experiments");
const SERVE: &str = env!("CARGO_BIN_EXE_phast-serve");

/// The daemon process, killed if the test fails before it drains.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The exit code of `child`, waiting at most 60 s; a child still running
/// then is killed and fails the test.
fn exit_code(child: &mut Child, what: &str) -> Option<i32> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("wait") {
            return status.code();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `phast-serve --addr=ADDR` with `args` as a client; returns its
/// exit code and stdout.
fn client(addr: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(SERVE)
        .arg(format!("--addr={addr}"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("client starts");
    let code = exit_code(&mut child, &format!("client {args:?}"));
    let mut out = String::new();
    child.stdout.take().expect("piped").read_to_string(&mut out).expect("stdout");
    (code, out)
}

#[test]
fn daemon_survives_a_closed_stderr() {
    let args =
        ["--addr=127.0.0.1:0", "--workers=1", "--max-active=1", "--no-json", "--run-timeout=0"];
    let mut daemon = Daemon(
        Command::new(SERVE)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon starts"),
    );
    // Read the first stderr line on a thread that then closes the pipe.
    let stderr = daemon.0.stderr.take().expect("piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stderr).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(Duration::from_secs(60)).expect("the daemon names its address");
    reader.join().expect("the stderr reader ends");
    let addr = line.trim().strip_prefix("phast-serve listening on ").expect("address line");

    // Every cell hits the zero deadline and degrades with a warning.
    let submit = ["--client=submit", "--id=closed", "--kinds=blind", "--budget=bench"];
    let (code, out) = client(addr, &submit);
    assert_eq!(code, Some(4), "{out}");
    assert!(out.contains("done closed:") && out.contains("exit=4"), "{out}");
    let (code, out) = client(addr, &["--client=status"]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("active_sweeps=0"), "{out}");

    let pid = daemon.0.id().to_string();
    assert!(Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs").success());
    assert_eq!(exit_code(&mut daemon.0, "the daemon after SIGTERM"), Some(4));
}

#[test]
fn batch_run_survives_a_closed_stderr() {
    let mut run = Command::new(EXPERIMENTS)
        .args(["--quick", "--no-json", "--max-workloads=1", "--run-timeout=0", "fig15"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("phast-experiments starts");
    drop(run.stderr.take());
    assert_eq!(exit_code(&mut run, "phast-experiments"), Some(4));
}
