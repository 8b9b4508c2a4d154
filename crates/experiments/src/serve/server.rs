//! The daemon itself: TCP accept loop, per-connection protocol threads,
//! admission control, the runner, artifact index, and graceful drain.
//!
//! Execution model: one runner thread, started by the first admitted
//! sweep, takes admitted sweeps from a queue in admission order and runs
//! each as a batch [`Sweep`] with the daemon's worker count, watchdog
//! and journal — the same kind-major grid, per-cell lifecycle
//! (journal lookup → `start` → attempt under a deadline → `done`) and
//! artifact as `phast-experiments`. So the worker count caps the cells
//! simulating at once, and two admitted sweeps run one after the other,
//! not interleaved.
//!
//! Connection model: one thread per client, blocking JSON-lines reads.
//! A `submit` with `watch` dedicates the connection to that sweep — the
//! thread relays the [`Event::Cell`] lines the runner sends into a
//! channel, then the final [`Event::Done`], so a slow watcher never
//! stalls simulation. If the client vanishes mid-stream (torn
//! connection, closed socket), the sweep is **not** cancelled: the
//! daemon finishes it, journals it, writes the artifact, and serves it
//! later by digest via `fetch` — client lifetime and result lifetime are
//! deliberately decoupled.
//!
//! Admission control: at most `max_active_sweeps` admitted sweeps may be
//! unfinished — one running, the rest waiting in the runner's queue;
//! further submissions are rejected with a typed [`Event::Rejected`]
//! carrying `retry_after_ms`, so clients back off instead of piling work
//! onto a saturated daemon.
//!
//! Graceful drain ([`Server::shutdown`] or the `shutdown` op): stop
//! accepting connections and admitting sweeps, close the runner's queue,
//! and wait for the runner to finish every admitted sweep and flush its
//! artifact. The runner then returns the process exit code from the
//! established taxonomy (`0` ok / `1` degraded / `3` integrity / `4`
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
use std::sync::{mpsc, Arc, LazyLock, Mutex};
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
    /// Daemon journal: every sweep journals its cells here, and a cell
    /// any sweep journaled `ok`, in this run or one it resumed, replays.
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

/// An admitted sweep on its way to the runner.
struct Admitted {
    id: String,
    sweep: Sweep,
    kinds: Vec<PredictorKind>,
    cfg: CoreConfig,
    budget: Budget,
    /// Its cells the journal did not hold at admission, counted into
    /// `queued` and `outstanding` then.
    live: usize,
    /// Where its `cell` events and final event go, for a watcher.
    events: mpsc::Sender<Event>,
}

struct ServerShared {
    workers: usize,
    json_dir: Option<PathBuf>,
    journal: Option<Journal>,
    run_timeout: Option<Duration>,
    max_active_sweeps: usize,
    addr: SocketAddr,
    /// The runner's queue and thread, from the first admission until the
    /// drain takes them. Admission checks `shutdown` while holding this
    /// lock, so no sweep is queued after the drain has closed the queue.
    runner: Mutex<Option<(mpsc::Sender<Admitted>, JoinHandle<i32>)>>,
    /// Admitted sweeps not yet finished: the running one and the queued.
    active_sweeps: AtomicUsize,
    /// Live cells admitted but not started.
    queued: AtomicUsize,
    /// Live cells admitted but not delivered.
    outstanding: AtomicUsize,
    artifacts: Mutex<Vec<ArtifactEntry>>,
    shutdown: AtomicBool,
}

/// A running `phast-serve` daemon. [`Server::start`] binds and starts the
/// accept loop; [`Server::join`] blocks until a graceful drain completes
/// and returns the process exit code.
pub struct Server {
    shared: Arc<ServerShared>,
    /// The accept loop, joined when first forced: it returns the
    /// daemon's exit code once the drain completes.
    accept: LazyLock<i32, Box<dyn FnOnce() -> i32 + Send>>,
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
            runner: Mutex::new(None),
            active_sweeps: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            artifacts: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        // An accept loop that panicked drained nothing for certain.
        let join = Box::new(move || accept.join().unwrap_or(exit_code::DEGRADED));
        Ok(Server { shared, accept: LazyLock::new(join) })
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
        *LazyLock::force(&self.accept)
    }
}

/// Accepts connections until shutdown, then drains: closes the runner's
/// queue and returns the exit code the runner returns once it has run
/// every admitted sweep.
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) -> i32 {
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
    let runner = shared.runner.lock().expect("runner").take();
    let Some((queue, runner)) = runner else { return exit_code::OK };
    drop(queue);
    // A runner that panicked left its sweeps unfinished: degraded.
    runner.join().unwrap_or(exit_code::DEGRADED)
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
/// at the admission cap, and with [`Event::Error`] (consuming no slot)
/// for an unknown budget tier or predictor label or a bad id. Otherwise
/// queues the sweep for the runner, starting the runner with the first
/// admission, and returns the `accepted` event plus the channel its
/// `cell` and `done` events arrive on.
fn admit(
    shared: &Arc<ServerShared>,
    id: String,
    kinds: &[String],
    budget: &str,
) -> Result<(Event, mpsc::Receiver<Event>), Event> {
    let mut runner = shared.runner.lock().expect("runner");
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
        sweep = sweep.with_journal(j.clone());
    }
    let cfg = CoreConfig::alder_lake();
    let cells = kinds.len() * budget.workloads().len();
    let replayed = sweep.journaled_cells(&kinds, &cfg, &budget);
    let live = cells - replayed;
    shared.active_sweeps.fetch_add(1, Ordering::SeqCst);
    shared.queued.fetch_add(live, Ordering::SeqCst);
    shared.outstanding.fetch_add(live, Ordering::SeqCst);
    let accepted =
        Event::Accepted { id: id.clone(), cells: cells as u64, replayed: replayed as u64 };
    let (events, watched) = mpsc::channel();
    let (queue, _) = runner.get_or_insert_with(|| {
        let (queue, admitted) = mpsc::channel();
        let shared = Arc::clone(shared);
        (queue, std::thread::spawn(move || run_queue(&shared, admitted)))
    });
    let admitted = Admitted { id, sweep, kinds, cfg, budget, live, events };
    queue.send(admitted).expect("the runner outlives its queue");
    Ok((accepted, watched))
}

/// The runner: runs admitted sweeps one at a time, in admission order,
/// until the drain closes the queue, and returns the daemon's exit code,
/// the worst outcome across them.
fn run_queue(shared: &ServerShared, queue: mpsc::Receiver<Admitted>) -> i32 {
    let (mut degraded, mut deadline, mut integrity) = (false, false, false);
    for admitted in queue {
        // A sweep that panics, for whatever reason, still frees its
        // admission slot, counts as degraded, and ends its watcher's
        // stream.
        let last = pool::catch_job(|| run_sweep(shared, &admitted)).unwrap_or_else(|panic| {
            shared.active_sweeps.fetch_sub(1, Ordering::SeqCst);
            Event::Error { reason: format!("sweep {}: {panic}", admitted.id) }
        });
        match &last {
            Event::Done { degraded: runs, deadline_runs, exit, .. } => {
                degraded |= *runs > 0;
                deadline |= *deadline_runs > 0;
                integrity |= *exit == exit_code::INTEGRITY as u64;
            }
            _ => degraded = true,
        }
        let _ = admitted.events.send(last);
    }
    if integrity {
        exit_code::INTEGRITY
    } else {
        exit_code::for_outcome(degraded, deadline)
    }
}

/// One admitted sweep: run the grid on the batch engine while sending
/// each live cell's `cell` event to the watcher, then seal the artifact
/// and return the `done` event.
fn run_sweep(shared: &ServerShared, admitted: &Admitted) -> Event {
    let Admitted { id, sweep, kinds, cfg, budget, live, events } = admitted;
    let started = Instant::now();
    let ran = AtomicUsize::new(0);
    // A send fails only once the watcher is gone; the sweep goes on.
    let rows = sweep.grid(kinds, cfg, budget, None, &|progress| match progress {
        CellProgress::Started => {
            ran.fetch_add(1, Ordering::SeqCst);
            shared.queued.fetch_sub(1, Ordering::SeqCst);
        }
        CellProgress::Done(run) => {
            shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            let _ = events.send(Event::Cell {
                workload: run.workload.clone(),
                predictor: run.predictor.clone(),
                status: run.failure.as_ref().map_or("ok", RunFailure::kind).to_string(),
                attempts: 1,
            });
        }
    });
    // A cell counted live at admission that a sweep ahead of this one
    // journaled meanwhile replayed here: it neither started nor delivered.
    let replayed_since = live - ran.into_inner();
    shared.queued.fetch_sub(replayed_since, Ordering::SeqCst);
    shared.outstanding.fetch_sub(replayed_since, Ordering::SeqCst);
    for row in &rows {
        sweep.record_all(row);
    }
    finish_sweep(shared, sweep, id, budget, started.elapsed())
}

/// Completes a sweep: seal, self-verify and persist the artifact, index
/// it, release the admission slot, and build the `done` event, whose
/// `exit` is the sweep's verdict in the exit taxonomy.
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
