//! `phast-serve` — the persistent simulation daemon, and its client.
//!
//! ```text
//! # daemon: bind, accept sweeps, drain on SIGTERM
//! phast-serve --addr=127.0.0.1:7878 --workers=4 --json-dir=bench
//!
//! # client: one request to a running daemon
//! phast-serve --client=submit --addr=127.0.0.1:7878 --id=ci --kinds=phast,store-sets
//! phast-serve --client=fetch --addr=127.0.0.1:7878 --digest=crc32:deadbeef
//! ```
//!
//! Each admitted sweep runs on the batch engine of `phast-experiments`,
//! and a client that disconnects does not cancel it. `SIGTERM` (or the
//! `shutdown` op) drains the daemon, which exits with the worst outcome
//! of everything it ran in the same exit-code taxonomy; a client that
//! cannot reach the daemon exits 5 (docs/SERVICE.md). The daemon's own
//! stderr lines drop write errors, so a drain works whatever happened to
//! the process reading them. The flags of both modes are declared in
//! `phast_experiments::cli::PHAST_SERVE`.

use phast_experiments::cli::{self, Args};
use phast_experiments::serve::{Client, Event, Request, ServeConfig, Server};
use phast_experiments::{diag, exit_code, report};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Raw `SIGTERM`/`SIGINT` handling without a signal-handling crate: a C
/// handler flips an atomic that the watcher thread polls. Only flag
/// stores happen in the handler (async-signal-safe).
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the signal handler; polled by the watcher thread.
    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for `SIGTERM` and `SIGINT`.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }
}

fn main() {
    let args = cli::PHAST_SERVE.parse();
    match args.mode() {
        "--client" => std::process::exit(run_client(&args)),
        _ => run_daemon(&args),
    }
}

/// Daemon mode: build the configuration from flags, start the server,
/// and wait for a drain (SIGTERM, SIGINT, or the `shutdown` op).
fn run_daemon(args: &Args) -> ! {
    let mut cfg = ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:7878").to_string(),
        ..ServeConfig::default()
    };
    cfg.sched.workers = args.number("--workers", 1).unwrap_or(cfg.sched.workers);
    cfg.max_active_sweeps = args.number("--max-active", 1).unwrap_or(cfg.max_active_sweeps);
    cfg.run_timeout = args.number("--run-timeout", 0).map(Duration::from_secs);
    // The daemon serves many sweep shapes from one journal, so the
    // fingerprint versions the *service*, not one sweep. A cell's key
    // carries its tier's instruction budget, and each tier fixes its
    // workload iterations, so every sweep shares the journal's cells.
    if let Some((dir, journal)) = args.journal("phast-serve-v1") {
        cfg.json_dir = Some(dir);
        cfg.journal = Some(journal);
    }
    let server = match Server::start(cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            diag!("error: bind failed: {e}");
            std::process::exit(exit_code::USAGE);
        }
    };
    diag!("phast-serve listening on {}", server.local_addr());
    #[cfg(unix)]
    {
        sigterm::install();
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            while !sigterm::TERM.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            server.shutdown();
            diag!("signal received: draining (in-flight sweeps will finish)");
        });
    }
    // Blocks until a graceful drain completes — via signal above or the
    // wire-level `shutdown` op.
    let code = server.join();
    diag!("phast-serve drained; exit {code}");
    std::process::exit(code);
}

/// Client mode: one request per invocation, speaking the same protocol
/// the tests and CI use. The command line is checked before connecting.
fn run_client(args: &Args) -> i32 {
    let op = args.value("--client").expect("the mode's selector");
    let need = |flag: &str| {
        args.value(flag).unwrap_or_else(|| args.reject(&format!("--client={op} needs {flag}")))
    };
    let request = match op {
        "ping" => Request::Ping,
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        "fetch" => Request::Fetch { digest: need("--digest").to_string() },
        _ => {
            let kinds = need("--kinds").split(',').map(str::trim).filter(|k| !k.is_empty());
            Request::Submit {
                id: need("--id").to_string(),
                kinds: kinds.map(String::from).collect(),
                budget: args.value("--budget").unwrap_or("quick").to_string(),
                watch: !args.has("--no-watch"),
            }
        }
    };
    let drop_after: Option<u64> = args.number("--drop-after", 0);
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let mut client = match Client::connect_with_patience(addr, Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => {
            diag!("error: connect {addr}: {e}");
            return exit_code::CONNECTION;
        }
    };
    let reply = match client.request(&request) {
        Ok(ev) => ev,
        Err(e) => {
            diag!("error: {e}");
            return 1;
        }
    };
    match (&request, reply) {
        (Request::Ping, Event::Pong { workers }) => report!("pong: {workers} worker(s)"),
        (Request::Status, Event::Status(s)) => {
            report!(
                "workers={} queue_depth={} outstanding={} active_sweeps={} draining={}",
                s.workers, s.queue_depth, s.outstanding, s.active_sweeps, s.draining
            );
            for (id, digest) in &s.artifacts {
                report!("artifact {id} {digest}");
            }
        }
        (Request::Shutdown, Event::Draining) => report!("draining"),
        (Request::Fetch { .. }, Event::Artifact { body, .. }) => report!("{body}"),
        (Request::Submit { watch, .. }, first) => {
            return client_submit(&mut client, first, *watch, drop_after)
        }
        (_, other) => return unexpected(&other),
    }
    exit_code::OK
}

/// An off-protocol reply (the daemon answered, but not what this op
/// expects) — report and fail.
fn unexpected(ev: &Event) -> i32 {
    diag!("error: unexpected reply: {ev:?}");
    1
}

/// `--client=submit`, from the daemon's first reply: unless `watch` is
/// off, stream the sweep's cell events and exit with the sweep's exit
/// code. `drop_after` tears the connection after that many cell events
/// to exercise the daemon's fire-and-forget downgrade.
fn client_submit(client: &mut Client, first: Event, watch: bool, drop_after: Option<u64>) -> i32 {
    match first {
        Event::Accepted { id, cells, replayed } => {
            report!("accepted {id}: {cells} cell(s), {replayed} replayed");
        }
        Event::Rejected { reason, retry_after_ms } => {
            let retry = retry_after_ms.map(|ms| format!(" (retry after {ms} ms)"));
            diag!("rejected: {reason}{}", retry.unwrap_or_default());
            return 1;
        }
        Event::Error { reason } => {
            diag!("error: {reason}");
            return exit_code::USAGE;
        }
        other => return unexpected(&other),
    }
    if !watch {
        return exit_code::OK;
    }
    let mut seen: u64 = 0;
    loop {
        match client.recv() {
            Ok(Event::Cell { workload, predictor, status, attempts }) => {
                seen += 1;
                report!("cell {workload}/{predictor}: {status} (attempt {attempts})");
                if drop_after.is_some_and(|n| seen >= n) {
                    // Deliberate torn connection: the daemon downgrades
                    // the sweep to fire-and-forget and serves the
                    // artifact by digest later.
                    report!("dropping connection after {seen} cell event(s)");
                    return exit_code::OK;
                }
            }
            Ok(Event::Done { id, digest, runs, degraded, deadline_runs, exit }) => {
                report!(
                    "done {id}: digest={digest} runs={runs} degraded={degraded} \
                     deadline_runs={deadline_runs} exit={exit}"
                );
                return exit as i32;
            }
            Ok(other) => return unexpected(&other),
            Err(e) => {
                diag!("error: stream: {e}");
                return 1;
            }
        }
    }
}
