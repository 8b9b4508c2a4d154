//! The binaries keep their exit code after the process reading their
//! stdout has exited, when every later write to stdout fails with a
//! broken pipe: `phast-trace` prints its interval lines while it
//! simulates, and `phast-experiments` prints each experiment's report
//! before it writes the artifact. Every wait is bounded, so a process that
//! stalls fails the test instead of hanging it.

#![cfg(unix)]

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args`, closing the read end of its stdout right after
/// the spawn; returns its exit code, waiting at most 60 s (a child still
/// running then is killed and fails the test).
fn exit_code_with_closed_stdout(bin: &str, args: &[&str]) -> Option<i32> {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary starts");
    drop(child.stdout.take());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("wait") {
            return status.code();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{bin} {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn trace_survives_a_closed_stdout() {
    let args = ["exchange2", "phast", "--insts=20000", "--interval=5000"];
    let code = exit_code_with_closed_stdout(env!("CARGO_BIN_EXE_phast-trace"), &args);
    assert_eq!(code, Some(0));
}

#[test]
fn batch_run_survives_a_closed_stdout() {
    let args = ["--quick", "--no-json", "--max-workloads=1", "table1"];
    let code = exit_code_with_closed_stdout(env!("CARGO_BIN_EXE_phast-experiments"), &args);
    assert_eq!(code, Some(0));
}
