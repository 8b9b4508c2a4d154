//! The daemon itself: TCP accept loop, per-connection protocol threads,
//! admission control, artifact index, and graceful drain.
//!
//! Connection model: one thread per client, blocking JSON-lines reads.
//! A `submit` with `watch` dedicates the connection to that sweep — the
//! thread streams [`Event::Cell`] lines and the final [`Event::Done`].
//! If the client vanishes mid-stream (torn connection, closed socket),
//! the sweep is **not** cancelled: it downgrades to fire-and-forget, the
//! daemon finishes it, journals it, writes the artifact, and serves it
//! later by digest via `fetch` — client lifetime and result lifetime are
//! deliberately decoupled.
//!
//! Admission control: at most `max_active_sweeps` sweeps may be in
//! flight; excess submissions are rejected with a typed
//! [`Event::Rejected`] carrying `retry_after_ms`, so clients back off
//! instead of piling work onto a saturated queue.
//!
//! Graceful drain ([`Server::shutdown`] or the `shutdown` op): stop
//! accepting connections and admitting sweeps, let in-flight sweeps
//! finish (lease reclaims and retries included), flush their artifacts,
//! drain the scheduler, and publish a process exit code from the
//! established taxonomy (`0` ok / `1` degraded / `3` integrity / `4`
//! deadline) covering everything the daemon ran.

use super::proto::{self, Event, Request, StatusBody, WireError};
use super::runner::{submit_sweep, SweepRun, SweepSpec};
use super::sched::{SchedConfig, Scheduler};
use crate::harness::exit_code;
use crate::journal::Journal;
use crate::predictors::PredictorKind;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration.
pub struct ServeConfig {
    /// Bind address; use port `0` to let the OS pick (tests).
    pub addr: String,
    /// Scheduler shape and resilience policy.
    pub sched: SchedConfig,
    /// Admission cap: sweeps in flight before submissions are rejected
    /// with backpressure.
    pub max_active_sweeps: usize,
    /// Where finished `BENCH_<id>.json` artifacts are written (`None`
    /// keeps them in memory only, served by digest).
    pub json_dir: Option<PathBuf>,
    /// Daemon journal: every sweep journals its cells here under its id
    /// as scope, and resubmitted cells replay.
    pub journal: Option<Journal>,
    /// Per-run wall-clock watchdog applied to every cell.
    pub run_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            sched: SchedConfig::default(),
            max_active_sweeps: 2,
            json_dir: None,
            journal: None,
            run_timeout: None,
        }
    }
}

/// One finished artifact in the daemon's in-memory index.
struct ArtifactEntry {
    id: String,
    digest: String,
    body: String,
}

struct ServerShared {
    sched: Scheduler,
    json_dir: Option<PathBuf>,
    journal: Option<Journal>,
    run_timeout: Option<Duration>,
    max_active_sweeps: usize,
    addr: SocketAddr,
    active_sweeps: AtomicUsize,
    artifacts: Mutex<Vec<ArtifactEntry>>,
    shutdown: AtomicBool,
    any_degraded: AtomicBool,
    any_deadline: AtomicBool,
    any_integrity: AtomicBool,
    exit: Mutex<Option<i32>>,
    exited: Condvar,
}

/// A running `phast-serve` daemon. [`Server::start`] binds and spawns
/// everything; [`Server::join`] blocks until a graceful drain completes
/// and returns the process exit code.
pub struct Server {
    shared: Arc<ServerShared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Binds `cfg.addr`, starts the scheduler, and begins accepting
    /// connections.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            sched: Scheduler::start(cfg.sched),
            json_dir: cfg.json_dir,
            journal: cfg.journal,
            run_timeout: cfg.run_timeout,
            max_active_sweeps: cfg.max_active_sweeps.max(1),
            addr,
            active_sweeps: AtomicUsize::new(0),
            artifacts: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            any_degraded: AtomicBool::new(false),
            any_deadline: AtomicBool::new(false),
            any_integrity: AtomicBool::new(false),
            exit: Mutex::new(None),
            exited: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Server { shared, accept: Mutex::new(Some(accept)) })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests a graceful drain (idempotent; also triggered by the
    /// `shutdown` op and, in the binary, by `SIGTERM`).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the drain completes and returns the daemon's exit
    /// code: the worst outcome across every sweep it ran.
    pub fn join(&self) -> i32 {
        let mut exit = self.shared.exit.lock().expect("exit slot");
        while exit.is_none() {
            exit = self.shared.exited.wait(exit).expect("exit condvar");
        }
        let code = exit.expect("published");
        drop(exit);
        if let Some(h) = self.accept.lock().expect("accept handle").take() {
            let _ = h.join();
        }
        code
    }
}

/// Accept connections until shutdown, then run the drain sequence.
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || client_thread(stream, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    drop(listener); // stop accepting: new connections are refused
    // Let every admitted sweep finish and flush its artifact...
    while shared.active_sweeps.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...then take the scheduler down (no outstanding jobs remain).
    shared.sched.drain();
    let code = if shared.any_integrity.load(Ordering::SeqCst) {
        exit_code::INTEGRITY
    } else {
        exit_code::for_outcome(
            shared.any_degraded.load(Ordering::SeqCst),
            shared.any_deadline.load(Ordering::SeqCst),
        )
    };
    *shared.exit.lock().expect("exit slot") = Some(code);
    shared.exited.notify_all();
}

/// Writes one event line; an error means the client is gone.
fn send(stream: &mut TcpStream, ev: &Event) -> std::io::Result<()> {
    let mut line = proto::render_event(ev);
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Reads one request line under the wire cap. `Ok(false)` means the
/// connection ended (EOF, socket error, or a length-bomb line — the
/// latter gets a best-effort typed error before the drop, since a peer
/// that abandons framing cannot be trusted to resume it).
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &mut String,
) -> bool {
    match proto::read_line_capped(reader, line, proto::MAX_REQUEST_LINE) {
        Ok(0) | Err(WireError::Io(_)) => false,
        Err(e @ WireError::TooLong { .. }) => {
            let _ = send(writer, &Event::Error { reason: e.to_string() });
            false
        }
        Ok(_) => true,
    }
}

/// One connection: read request lines until EOF, serving each.
fn client_thread(stream: TcpStream, shared: Arc<ServerShared>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if !read_request_line(&mut reader, &mut writer, &mut line) {
            return;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = match proto::parse_request(trimmed) {
            Ok(r) => r,
            Err(reason) => {
                if send(&mut writer, &Event::Error { reason }).is_err() {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Ping => send(
                &mut writer,
                &Event::Pong { workers: shared.sched.workers() as u64 },
            )
            .is_ok(),
            Request::Status => send(&mut writer, &status_event(&shared)).is_ok(),
            Request::Fetch { digest } => {
                let found = shared
                    .artifacts
                    .lock()
                    .expect("artifact index")
                    .iter()
                    .find(|a| a.digest == digest)
                    .map(|a| (a.digest.clone(), a.body.clone()));
                let ev = match found {
                    Some((digest, body)) => Event::Artifact { digest, body },
                    None => Event::Error { reason: format!("no artifact with digest {digest}") },
                };
                send(&mut writer, &ev).is_ok()
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                send(&mut writer, &Event::Draining).is_ok()
            }
            Request::Submit { id, kinds, budget, watch } => {
                handle_submit(&shared, &mut writer, id, kinds, budget, watch)
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// The `status` reply: scheduler health plus the artifact index.
fn status_event(shared: &ServerShared) -> Event {
    let stats = shared.sched.stats();
    let artifacts = shared
        .artifacts
        .lock()
        .expect("artifact index")
        .iter()
        .map(|a| (a.id.clone(), a.digest.clone()))
        .collect();
    Event::Status(StatusBody {
        workers: shared.sched.workers() as u64,
        queue_depth: shared.sched.queue_depth() as u64,
        outstanding: shared.sched.outstanding() as u64,
        active_sweeps: shared.active_sweeps.load(Ordering::SeqCst) as u64,
        draining: shared.shutdown.load(Ordering::SeqCst) || shared.sched.draining(),
        reclaimed: stats.reclaimed,
        lost: stats.lost,
        respawns: stats.respawns,
        artifacts,
    })
}

/// Admission control, submission, and (for watchers) the event stream.
/// Returns whether the connection is still usable.
fn handle_submit(
    shared: &Arc<ServerShared>,
    writer: &mut TcpStream,
    id: String,
    kinds: Vec<String>,
    budget: String,
    watch: bool,
) -> bool {
    if shared.shutdown.load(Ordering::SeqCst) || shared.sched.draining() {
        return send(
            writer,
            &Event::Rejected { reason: "draining".to_string(), retry_after_ms: None },
        )
        .is_ok();
    }
    // Backpressure: admit up to the cap, atomically.
    let admitted = shared
        .active_sweeps
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.max_active_sweeps).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        let backlog = shared.sched.outstanding() as u64;
        return send(
            writer,
            &Event::Rejected {
                reason: "queue-full".to_string(),
                retry_after_ms: Some(250 * (backlog + 1)),
            },
        )
        .is_ok();
    }
    // Past admission: every early return must release the slot.
    let release = |shared: &ServerShared| {
        shared.active_sweeps.fetch_sub(1, Ordering::SeqCst);
    };
    let Some(budget) = proto::parse_budget(&budget) else {
        release(shared);
        return send(writer, &Event::Error { reason: format!("unknown budget tier '{budget}'") })
            .is_ok();
    };
    let mut parsed: Vec<PredictorKind> = Vec::with_capacity(kinds.len());
    for label in &kinds {
        match PredictorKind::from_label(label) {
            Some(k) => parsed.push(k),
            None => {
                release(shared);
                return send(
                    writer,
                    &Event::Error { reason: format!("unknown predictor label '{label}'") },
                )
                .is_ok();
            }
        }
    }
    if id.is_empty() || !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
        release(shared);
        return send(
            writer,
            &Event::Error { reason: format!("bad sweep id '{id}' (want [A-Za-z0-9_-]+)") },
        )
        .is_ok();
    }
    let spec = SweepSpec {
        id: id.clone(),
        kinds: parsed,
        budget,
        cfg: phast_ooo::CoreConfig::alder_lake(),
        run_timeout: shared.run_timeout,
    };
    let scope = shared.journal.as_ref().map(|j| j.scope(&id));
    let run = match submit_sweep(spec, &shared.sched, scope) {
        Ok(run) => run,
        Err(e) => {
            release(shared);
            return send(writer, &Event::Rejected { reason: e.to_string(), retry_after_ms: None })
                .is_ok();
        }
    };
    let accepted = Event::Accepted {
        id: id.clone(),
        cells: run.cells() as u64,
        replayed: run.replayed() as u64,
    };
    if send(writer, &accepted).is_err() {
        // Client died between submit and ack: fire-and-forget from here.
        drive_sweep(Arc::clone(shared), run);
        return false;
    }
    if watch {
        // The connection is dedicated to this sweep until Done (or until
        // the client tears it down, which downgrades to fire-and-forget).
        drive_sweep_inline(shared, run, writer)
    } else {
        let shared2 = Arc::clone(shared);
        std::thread::spawn(move || drive_sweep(shared2, run));
        true
    }
}

/// Drives a sweep to completion on the calling (connection) thread,
/// streaming events until the client disconnects. Returns whether the
/// connection survived.
fn drive_sweep_inline(shared: &Arc<ServerShared>, run: SweepRun, writer: &mut TcpStream) -> bool {
    let mut attached = true;
    while let Some(cell) = run.next_event() {
        if attached {
            let ev = Event::Cell {
                workload: cell.workload,
                predictor: cell.predictor,
                status: cell.status,
                attempts: cell.attempts,
            };
            if send(writer, &ev).is_err() {
                // Torn connection: downgrade to fire-and-forget. The
                // sweep keeps running; the artifact will be served by
                // digest.
                attached = false;
            }
        }
    }
    let done = finish_sweep(shared, run);
    if attached {
        attached = send(writer, &done).is_ok();
    }
    attached
}

/// Detached driver for fire-and-forget sweeps (no client, or the client
/// died before acknowledgement).
fn drive_sweep(shared: Arc<ServerShared>, run: SweepRun) {
    while run.next_event().is_some() {}
    let _ = finish_sweep(&shared, run);
}

/// Completes a sweep: assemble + persist the artifact, index it, fold
/// its verdict into the daemon's exit taxonomy, release the admission
/// slot, and build the `done` event.
fn finish_sweep(shared: &Arc<ServerShared>, run: SweepRun) -> Event {
    let outcome = run.finish(shared.sched.workers(), shared.json_dir.as_deref());
    if !outcome.degraded.is_empty() {
        shared.any_degraded.store(true, Ordering::SeqCst);
    }
    if outcome.deadline_runs > 0 {
        shared.any_deadline.store(true, Ordering::SeqCst);
    }
    if outcome.exit == exit_code::INTEGRITY {
        shared.any_integrity.store(true, Ordering::SeqCst);
    }
    if let Some(e) = &outcome.write_error {
        eprintln!("warning: artifact write failed ({e}); serving from memory only");
    }
    let done = Event::Done {
        id: outcome.artifact.id.clone(),
        digest: outcome.digest.clone(),
        runs: outcome.artifact.runs.len() as u64,
        degraded: outcome.degraded.len() as u64,
        deadline_runs: outcome.deadline_runs as u64,
        exit: outcome.exit as u64,
    };
    shared.artifacts.lock().expect("artifact index").push(ArtifactEntry {
        id: outcome.artifact.id.clone(),
        digest: outcome.digest,
        body: outcome.body,
    });
    shared.active_sweeps.fetch_sub(1, Ordering::SeqCst);
    done
}
