//! `phast-serve` — the persistent simulation daemon.
//!
//! ```text
//! # daemon (default mode): bind, accept sweeps, drain on SIGTERM
//! phast-serve --addr=127.0.0.1:7878 --workers=4 --json-dir=bench
//!
//! # client mode: talk to a running daemon over the same wire protocol
//! phast-serve --client=ping    --addr=127.0.0.1:7878
//! phast-serve --client=status  --addr=127.0.0.1:7878
//! phast-serve --client=submit  --addr=... --id=ci --kinds=phast,storesets --budget=quick
//! phast-serve --client=fetch   --addr=... --digest=crc32:deadbeef
//! phast-serve --client=shutdown --addr=...
//! ```
//!
//! The daemon accepts sweep submissions over a TCP JSON-lines protocol
//! (`docs/SERVICE.md`) and runs each one on the same batch engine as
//! `phast-experiments`, one sweep at a time across `--workers` threads;
//! a client that disconnects mid-stream does not cancel its sweep.
//! `SIGTERM` (or the `shutdown` op) triggers a graceful drain: admission
//! stops, in-flight sweeps finish and flush their artifacts, and the
//! process exits with the worst outcome across everything it ran — the
//! same exit-code taxonomy as `phast-experiments` (0 ok / 1 degraded /
//! 2 usage / 3 integrity / 4 deadline); a client that cannot reach the
//! daemon exits 5.

use phast_experiments::exit_code;
use phast_experiments::pool;
use phast_experiments::serve::{Client, Event, Request, ServeConfig, Server};
use phast_experiments::Journal;
use std::path::PathBuf;
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

fn usage() -> ! {
    eprintln!(
        "usage: phast-serve [--addr=HOST:PORT] [--workers=N] [--max-active=N] \
         [--json-dir=DIR | --no-json] [--resume] [--run-timeout=SECS]"
    );
    eprintln!(
        "       phast-serve --client=ping|status|shutdown [--addr=HOST:PORT]\n\
         \x20      phast-serve --client=submit --id=ID --kinds=A,B --budget=TIER \\\n\
         \x20                  [--no-watch] [--drop-after=N] [--addr=HOST:PORT]\n\
         \x20      phast-serve --client=fetch --digest=DIGEST [--addr=HOST:PORT]"
    );
    eprintln!("(--help for semantics and the exit-code taxonomy)");
    std::process::exit(exit_code::USAGE);
}

fn help() {
    println!(
        "phast-serve — persistent simulation daemon\n\
         \n\
         daemon mode (default):\n\
         \x20 --addr=HOST:PORT    bind address (default 127.0.0.1:7878; port 0 = OS pick)\n\
         \x20 --workers=N         worker threads a sweep's cells fan across; admitted\n\
         \x20                     sweeps take turns (default: all cores)\n\
         \x20 --max-active=N      sweeps in flight before submissions are rejected\n\
         \x20                     with retry_after_ms backpressure (default 2)\n\
         \x20 --json-dir=DIR      where BENCH_<id>.json artifacts and the write-ahead\n\
         \x20                     journal.jsonl land (default: current directory)\n\
         \x20 --no-json           keep artifacts in memory only (served by digest)\n\
         \x20 --resume            replay DIR/journal.jsonl: resubmitted sweep ids skip\n\
         \x20                     their completed cells\n\
         \x20 --run-timeout=SECS  per-cell watchdog; hung cells end as 'deadline'\n\
         \n\
         sampling (see docs/SAMPLING.md):\n\
         \x20 daemon sweeps execute every cell full-detail; the sampling engine\n\
         \x20 (stride or phase-clustered windows) belongs to phast-experiments'\n\
         \x20 --sampled / --sample-mode=phase|stride / --clusters=K runs\n\
         \n\
         client mode (--client=OP talks to a running daemon):\n\
         \x20 ping                liveness probe; prints worker count\n\
         \x20 status              queue health + artifact index\n\
         \x20 submit              submit a sweep: --id=ID --kinds=A,B --budget=TIER\n\
         \x20                     (tiers: full quick bench sampled); streams cell events\n\
         \x20                     and exits with the sweep's exit code. --no-watch\n\
         \x20                     returns after acceptance; --drop-after=N tears the\n\
         \x20                     connection after N cell events (the sweep continues\n\
         \x20                     fire-and-forget; fetch the artifact by digest later)\n\
         \x20 fetch               print an artifact body by --digest=DIGEST\n\
         \x20 shutdown            ask the daemon to drain gracefully\n\
         \n\
         exit codes (daemon: worst outcome across every sweep it ran):\n\
         \x20 0 ok   1 degraded   2 usage   3 integrity   4 deadline   5 connection\n\
         \x20 (5: a client could not reach the daemon)\n"
    );
}

/// Parses the value of a `--flag=N` unsigned-integer option, exiting
/// with a clear error (status 2) otherwise.
fn parse_u64(flag: &str, raw: &str) -> u64 {
    match raw.trim().parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: {flag} expects an unsigned integer, got '{raw}'");
            std::process::exit(exit_code::USAGE);
        }
    }
}

/// Parses the value of a `--flag=N` count that must be at least 1,
/// exiting with a clear error (status 2) otherwise.
fn parse_count(flag: &str, raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("error: {flag} expects a positive integer, got '{raw}'");
            std::process::exit(exit_code::USAGE);
        }
    }
}

/// Looks up `--flag=VALUE` in `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let prefix = format!("{flag}=");
    args.iter().find_map(|a| a.strip_prefix(prefix.as_str()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        help();
        return;
    }
    for a in &args {
        let known = a.starts_with("--addr=")
            || a.starts_with("--workers=")
            || a.starts_with("--max-active=")
            || a.starts_with("--json-dir=")
            || a == "--no-json"
            || a == "--resume"
            || a.starts_with("--run-timeout=")
            || a.starts_with("--client=")
            || a.starts_with("--id=")
            || a.starts_with("--kinds=")
            || a.starts_with("--budget=")
            || a == "--no-watch"
            || a.starts_with("--drop-after=")
            || a.starts_with("--digest=");
        if !known {
            eprintln!("error: unknown argument '{a}'");
            usage();
        }
    }
    let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7878").to_string();
    if let Some(op) = flag_value(&args, "--client") {
        std::process::exit(run_client(op, &addr, &args));
    }
    run_daemon(addr, &args);
}

/// Daemon mode: build the configuration from flags, start the server,
/// and wait for a drain (SIGTERM, SIGINT, or the `shutdown` op).
fn run_daemon(addr: String, args: &[String]) -> ! {
    let mut cfg = ServeConfig { addr, ..ServeConfig::default() };
    if let Some(v) = flag_value(args, "--workers") {
        cfg.sched.workers = pool::parse_workers(v).unwrap_or_else(|e| {
            eprintln!("error: --workers: {e}");
            std::process::exit(exit_code::USAGE);
        });
    }
    if let Some(v) = flag_value(args, "--max-active") {
        cfg.max_active_sweeps = parse_count("--max-active", v);
    }
    if let Some(v) = flag_value(args, "--run-timeout") {
        cfg.run_timeout = Some(Duration::from_secs(parse_u64("--run-timeout", v)));
    }
    let no_json = args.iter().any(|a| a == "--no-json");
    let resume = args.iter().any(|a| a == "--resume");
    if no_json {
        cfg.json_dir = None;
        cfg.journal = None;
    } else {
        let dir =
            flag_value(args, "--json-dir").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("."));
        let path = dir.join("journal.jsonl");
        // The daemon serves many sweep shapes from one journal, so the
        // fingerprint versions the *service*, not one sweep; each sweep
        // journals under its id as scope.
        let opened = if resume {
            Journal::resume(&path, "phast-serve-v1")
        } else {
            Journal::create(&path, "phast-serve-v1")
        };
        match opened {
            Ok(j) => {
                if resume {
                    eprintln!(
                        "resuming from {} ({} completed run(s) will be replayed)",
                        j.path().display(),
                        j.completed_runs()
                    );
                }
                cfg.journal = Some(j);
            }
            Err(e) => {
                eprintln!("error: journal: {e}");
                std::process::exit(exit_code::INTEGRITY);
            }
        }
        cfg.json_dir = Some(dir);
    }
    let server = match Server::start(cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            std::process::exit(exit_code::USAGE);
        }
    };
    eprintln!("phast-serve listening on {}", server.local_addr());
    #[cfg(unix)]
    {
        sigterm::install();
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            while !sigterm::TERM.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!("signal received: draining (in-flight sweeps will finish)");
            server.shutdown();
        });
    }
    // Blocks until a graceful drain completes — via signal above or the
    // wire-level `shutdown` op.
    let code = server.join();
    eprintln!("phast-serve drained; exit {code}");
    std::process::exit(code);
}

/// Client mode: one op per invocation, speaking the same protocol the
/// tests and CI use.
fn run_client(op: &str, addr: &str, args: &[String]) -> i32 {
    let mut client = match Client::connect_with_patience(addr, Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connect {addr}: {e}");
            return exit_code::CONNECTION;
        }
    };
    let outcome = match op {
        "ping" => client.request(&Request::Ping).map(|ev| match ev {
            Event::Pong { workers } => {
                println!("pong: {workers} worker(s)");
                exit_code::OK
            }
            other => unexpected(&other),
        }),
        "status" => client.request(&Request::Status).map(|ev| match ev {
            Event::Status(s) => {
                println!(
                    "workers={} queue_depth={} outstanding={} active_sweeps={} draining={}",
                    s.workers, s.queue_depth, s.outstanding, s.active_sweeps, s.draining
                );
                for (id, digest) in &s.artifacts {
                    println!("artifact {id} {digest}");
                }
                exit_code::OK
            }
            other => unexpected(&other),
        }),
        "shutdown" => client.request(&Request::Shutdown).map(|ev| match ev {
            Event::Draining => {
                println!("draining");
                exit_code::OK
            }
            other => unexpected(&other),
        }),
        "fetch" => {
            let Some(digest) = flag_value(args, "--digest") else {
                eprintln!("error: --client=fetch needs --digest=DIGEST");
                return exit_code::USAGE;
            };
            client.fetch(digest).map(|body| {
                println!("{body}");
                exit_code::OK
            })
        }
        "submit" => return client_submit(&mut client, args),
        other => {
            eprintln!("error: unknown client op '{other}'");
            return exit_code::USAGE;
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// An off-protocol reply (the daemon answered, but not what this op
/// expects) — report and fail.
fn unexpected(ev: &Event) -> i32 {
    eprintln!("error: unexpected reply: {ev:?}");
    1
}

/// `--client=submit`: submit a sweep and (unless `--no-watch`) stream
/// its cell events; exits with the sweep's exit code. `--drop-after=N`
/// tears the connection after N cell events to exercise the daemon's
/// fire-and-forget downgrade.
fn client_submit(client: &mut Client, args: &[String]) -> i32 {
    let Some(id) = flag_value(args, "--id") else {
        eprintln!("error: --client=submit needs --id=ID");
        return exit_code::USAGE;
    };
    let Some(kinds) = flag_value(args, "--kinds") else {
        eprintln!("error: --client=submit needs --kinds=A,B,...");
        return exit_code::USAGE;
    };
    let budget = flag_value(args, "--budget").unwrap_or("quick");
    let watch = !args.iter().any(|a| a == "--no-watch");
    let drop_after: Option<u64> =
        flag_value(args, "--drop-after").map(|v| parse_u64("--drop-after", v));
    let req = Request::Submit {
        id: id.to_string(),
        kinds: kinds.split(',').map(|k| k.trim().to_string()).filter(|k| !k.is_empty()).collect(),
        budget: budget.to_string(),
        watch,
    };
    let first = match client.request(&req) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: submit: {e}");
            return 1;
        }
    };
    match first {
        Event::Accepted { id, cells, replayed } => {
            println!("accepted {id}: {cells} cell(s), {replayed} replayed");
        }
        Event::Rejected { reason, retry_after_ms } => {
            match retry_after_ms {
                Some(ms) => eprintln!("rejected: {reason} (retry after {ms} ms)"),
                None => eprintln!("rejected: {reason}"),
            }
            return 1;
        }
        Event::Error { reason } => {
            eprintln!("error: {reason}");
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
                println!("cell {workload}/{predictor}: {status} (attempt {attempts})");
                if drop_after.is_some_and(|n| seen >= n) {
                    // Deliberate torn connection: the daemon downgrades
                    // the sweep to fire-and-forget and serves the
                    // artifact by digest later.
                    println!("dropping connection after {seen} cell event(s)");
                    return exit_code::OK;
                }
            }
            Ok(Event::Done { id, digest, runs, degraded, deadline_runs, exit }) => {
                println!(
                    "done {id}: digest={digest} runs={runs} degraded={degraded} \
                     deadline_runs={deadline_runs} exit={exit}"
                );
                return exit as i32;
            }
            Ok(other) => return unexpected(&other),
            Err(e) => {
                eprintln!("error: stream: {e}");
                return 1;
            }
        }
    }
}
