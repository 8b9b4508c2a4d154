//! The daemon itself: TCP accept loop, per-connection protocol threads,
//! admission control, sweep threads, artifact index, and graceful drain.
//!
//! Execution model: each admitted sweep runs on a thread of its own as a
//! batch [`Sweep`] with the daemon's worker count, watchdog and journal
//! scope — the same kind-major grid, per-cell lifecycle (journal lookup →
//! `start` → attempt under a deadline → `done`) and artifact as
//! `phast-experiments`. Sweeps take turns on one daemon-wide lock, so the
//! worker count caps the cells simulating at once; two admitted sweeps
//! run one after the other, not interleaved.
//!
//! Connection model: one thread per client, blocking JSON-lines reads.
//! A `submit` with `watch` dedicates the connection to that sweep — the
//! thread relays the [`Event::Cell`] lines the sweep's thread sends into
//! a channel, then the final [`Event::Done`], so a slow watcher never
//! stalls simulation. If the client vanishes mid-stream (torn
//! connection, closed socket), the sweep is **not** cancelled: the
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
//! finish, flush their artifacts, and publish a process exit code from
//! the established taxonomy (`0` ok / `1` degraded / `3` integrity / `4`
//! deadline) covering everything the daemon ran.

use super::proto::{self, Event, Request, StatusBody, WireError};
use crate::artifact::SweepArtifact;
use crate::harness::{exit_code, Budget, CellProgress, RunFailure, Sweep};
use crate::journal::Journal;
use crate::pool;
use crate::predictors::PredictorKind;
use phast_ooo::CoreConfig;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many cells the daemon simulates at once.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Worker threads a sweep fans its cells across (clamped to at
    /// least 1).
    pub workers: usize,
    /// Ignored: every cell runs solo. The field outlives the lane-batched
    /// cycle loop it used to size only because the benchmark package's
    /// daemon loop (`simbench/src/serve_loop.rs`) still sets `lanes: 1`
    /// in a struct literal; delete it once that literal drops it.
    pub lanes: usize,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig { workers: pool::default_workers(), lanes: 1 }
    }
}

/// Daemon configuration.
pub struct ServeConfig {
    /// Bind address; use port `0` to let the OS pick (tests).
    pub addr: String,
    /// How many cells simulate at once.
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
    workers: usize,
    json_dir: Option<PathBuf>,
    journal: Option<Journal>,
    run_timeout: Option<Duration>,
    max_active_sweeps: usize,
    addr: SocketAddr,
    /// Held by the sweep that is simulating: admitted sweeps take turns.
    turn: Mutex<()>,
    /// The threads of admitted sweeps not yet joined: admission joins the
    /// finished ones, the drain all of them. Admission checks `shutdown`
    /// while holding this lock, so no sweep is admitted after the drain
    /// has taken the list.
    sweeps: Mutex<Vec<JoinHandle<()>>>,
    active_sweeps: AtomicUsize,
    /// Live cells admitted but not started.
    queued: AtomicUsize,
    /// Live cells admitted but not delivered.
    outstanding: AtomicUsize,
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
    /// Binds `cfg.addr` and begins accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            workers: cfg.sched.workers.max(1),
            json_dir: cfg.json_dir,
            journal: cfg.journal,
            run_timeout: cfg.run_timeout,
            max_active_sweeps: cfg.max_active_sweeps.max(1),
            addr,
            turn: Mutex::new(()),
            sweeps: Mutex::new(Vec::new()),
            active_sweeps: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
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
    // Let every admitted sweep finish and flush its artifact.
    join_sweeps(&shared, std::mem::take(&mut *shared.sweeps.lock().expect("sweep list")));
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

/// Joins sweep threads. One that panicked produced no artifact: it
/// counts as degraded in the daemon's exit code.
fn join_sweeps(shared: &ServerShared, sweeps: impl IntoIterator<Item = JoinHandle<()>>) {
    for sweep in sweeps {
        if sweep.join().is_err() {
            shared.any_degraded.store(true, Ordering::SeqCst);
        }
    }
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
            Request::Ping => {
                send(&mut writer, &Event::Pong { workers: shared.workers as u64 }).is_ok()
            }
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
                handle_submit(&shared, &mut writer, id, &kinds, &budget, watch)
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// The `status` reply: queue health plus the artifact index.
fn status_event(shared: &ServerShared) -> Event {
    let artifacts = shared
        .artifacts
        .lock()
        .expect("artifact index")
        .iter()
        .map(|a| (a.id.clone(), a.digest.clone()))
        .collect();
    Event::Status(StatusBody {
        workers: shared.workers as u64,
        queue_depth: shared.queued.load(Ordering::SeqCst) as u64,
        outstanding: shared.outstanding.load(Ordering::SeqCst) as u64,
        active_sweeps: shared.active_sweeps.load(Ordering::SeqCst) as u64,
        draining: shared.shutdown.load(Ordering::SeqCst),
        artifacts,
    })
}

/// Admission, then (for watchers) the sweep's event stream. Returns
/// whether the connection is still usable.
fn handle_submit(
    shared: &Arc<ServerShared>,
    writer: &mut TcpStream,
    id: String,
    kinds: &[String],
    budget: &str,
    watch: bool,
) -> bool {
    let (accepted, events) = match admit(shared, id, kinds, budget) {
        Ok(admitted) => admitted,
        Err(refusal) => return send(writer, &refusal).is_ok(),
    };
    // From here the sweep runs whatever the client does: a client that
    // dies before the acknowledgement or mid-stream leaves it running
    // fire-and-forget, and its artifact is served by digest.
    if send(writer, &accepted).is_err() {
        return false;
    }
    !watch || events.iter().all(|ev| send(writer, &ev).is_ok())
}

/// Admission control. Refuses with [`Event::Rejected`] while draining or
/// at the in-flight cap, and with [`Event::Error`] (consuming no slot)
/// for an unknown budget tier or predictor label or a bad id. Otherwise
/// spawns the sweep's thread and returns the `accepted` event plus the
/// channel its `cell` and `done` events arrive on.
fn admit(
    shared: &Arc<ServerShared>,
    id: String,
    kinds: &[String],
    budget: &str,
) -> Result<(Event, mpsc::Receiver<Event>), Event> {
    let mut sweeps = shared.sweeps.lock().expect("sweep list");
    join_sweeps(shared, sweeps.extract_if(.., |sweep| sweep.is_finished()));
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(Event::Rejected { reason: "draining".to_string(), retry_after_ms: None });
    }
    if shared.active_sweeps.load(Ordering::SeqCst) >= shared.max_active_sweeps {
        let backlog = shared.outstanding.load(Ordering::SeqCst) as u64;
        return Err(Event::Rejected {
            reason: "queue-full".to_string(),
            retry_after_ms: Some(250 * (backlog + 1)),
        });
    }
    let error = |reason: String| Event::Error { reason };
    let budget = proto::parse_budget(budget)
        .ok_or_else(|| error(format!("unknown budget tier '{budget}'")))?;
    let kinds = kinds
        .iter()
        .map(|label| {
            PredictorKind::from_label(label)
                .ok_or_else(|| error(format!("unknown predictor label '{label}'")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if id.is_empty() || !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
        return Err(error(format!("bad sweep id '{id}' (want [A-Za-z0-9_-]+)")));
    }
    let mut sweep = Sweep::with_workers(shared.workers);
    if let Some(t) = shared.run_timeout {
        sweep = sweep.with_run_timeout(t);
    }
    if let Some(j) = &shared.journal {
        sweep = sweep.with_journal(j.scope(&id));
    }
    let cfg = CoreConfig::alder_lake();
    let cells = kinds.len() * budget.workloads().len();
    let replayed = sweep.journaled_cells(&kinds, &cfg, &budget);
    shared.active_sweeps.fetch_add(1, Ordering::SeqCst);
    shared.queued.fetch_add(cells - replayed, Ordering::SeqCst);
    shared.outstanding.fetch_add(cells - replayed, Ordering::SeqCst);
    let accepted =
        Event::Accepted { id: id.clone(), cells: cells as u64, replayed: replayed as u64 };
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(shared);
    sweeps.push(std::thread::spawn(move || {
        // A sweep that panics, for whatever reason, still frees its
        // admission slot, counts as degraded, and ends its watcher's
        // stream.
        let last = pool::catch_job(|| run_sweep(&shared, &sweep, &id, &kinds, &cfg, &budget, &tx))
            .unwrap_or_else(|panic| {
                shared.any_degraded.store(true, Ordering::SeqCst);
                shared.active_sweeps.fetch_sub(1, Ordering::SeqCst);
                Event::Error { reason: format!("sweep {id}: {panic}") }
            });
        let _ = tx.send(last);
    }));
    Ok((accepted, rx))
}

/// One admitted sweep, on its own thread: wait for the daemon's turn,
/// run the grid on the batch engine while sending each live cell's
/// `cell` event into `events`, then seal the artifact and return the
/// `done` event.
fn run_sweep(
    shared: &ServerShared,
    sweep: &Sweep,
    id: &str,
    kinds: &[PredictorKind],
    cfg: &CoreConfig,
    budget: &Budget,
    events: &mpsc::Sender<Event>,
) -> Event {
    let wall = {
        // The turn guards no data, so a poisoned lock is still a turn.
        let _turn = shared.turn.lock().unwrap_or_else(PoisonError::into_inner);
        let started = Instant::now();
        // A send fails only once the watcher is gone; the sweep goes on.
        let rows = sweep.grid(kinds, cfg, budget, None, &|progress| match progress {
            CellProgress::Started => {
                shared.queued.fetch_sub(1, Ordering::SeqCst);
            }
            CellProgress::Done(run) => {
                shared.outstanding.fetch_sub(1, Ordering::SeqCst);
                let _ = events.send(Event::Cell {
                    workload: run.workload.clone(),
                    predictor: run.predictor.clone(),
                    status: run.failure.as_ref().map_or("ok", RunFailure::kind).to_string(),
                    attempts: run.attempts,
                });
            }
        });
        for row in &rows {
            sweep.record_all(row);
        }
        started.elapsed()
    };
    finish_sweep(shared, sweep, id, budget, wall)
}

/// Completes a sweep: seal, self-verify and persist the artifact, index
/// it, fold its verdict into the daemon's exit taxonomy, release the
/// admission slot, and build the `done` event.
fn finish_sweep(
    shared: &ServerShared,
    sweep: &Sweep,
    id: &str,
    budget: &Budget,
    wall: Duration,
) -> Event {
    let artifact = sweep.artifact(id, budget, wall);
    let body = artifact.to_json();
    // Fail-closed self-check: the rendered artifact must verify against
    // its own digest before anyone is told it is good.
    let integrity_ok = SweepArtifact::verify_json(&body).is_ok();
    if let (Some(dir), true) = (&shared.json_dir, integrity_ok) {
        if let Err(e) = artifact.write_to(dir) {
            crate::diag!(
                "warning: artifact write failed ({}: {e}); serving from memory only",
                dir.display()
            );
        }
    }
    let degraded = artifact.degraded.len();
    let deadline_runs = sweep.deadline_count();
    let exit = if integrity_ok {
        exit_code::for_outcome(degraded > 0, deadline_runs > 0)
    } else {
        exit_code::INTEGRITY
    };
    if degraded > 0 {
        shared.any_degraded.store(true, Ordering::SeqCst);
    }
    if deadline_runs > 0 {
        shared.any_deadline.store(true, Ordering::SeqCst);
    }
    if !integrity_ok {
        shared.any_integrity.store(true, Ordering::SeqCst);
    }
    let digest = artifact.digest();
    let done = Event::Done {
        id: id.to_string(),
        digest: digest.clone(),
        runs: artifact.runs.len() as u64,
        degraded: degraded as u64,
        deadline_runs: deadline_runs as u64,
        exit: exit as u64,
    };
    shared.artifacts.lock().expect("artifact index").push(ArtifactEntry {
        id: id.to_string(),
        digest,
        body,
    });
    shared.active_sweeps.fetch_sub(1, Ordering::SeqCst);
    done
}
