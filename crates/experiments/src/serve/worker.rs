//! The remote worker: `phast-serve --worker=ADDR`.
//!
//! A worker process connects to a daemon over the same JSON-lines TCP
//! protocol clients use, registers, and then loops: **lease** one
//! (workload, predictor) cell, rebuild it from its wire name (workload
//! by [`phast_workloads::by_name`], predictor by
//! [`PredictorKind::from_label`], core fixed to `alder_lake()` — the
//! daemon only grants cells it knows are rebuildable), run it through
//! [`execute_cell_once`] under the same per-attempt fault reseed a local
//! worker would use, stream **heartbeats** carrying the `Deadline`
//! progress counter while the simulation runs, and **deliver** the
//! finished cell with its fencing token, a verbatim `RunRecord`
//! rendering, and a digest over those exact bytes. One cell per lease
//! means no leased cell waits, without heartbeats, behind another.
//!
//! Fault model, mirroring `docs/RESILIENCE.md`:
//!
//! * **Connection loss** (daemon restart, partition, proxy cut): raise
//!   the in-flight cancel, keep the finished result as *pending*, and
//!   reconnect with capped-exponential seeded backoff
//!   ([`super::backoff`]). One outage spans failed dials and failed
//!   registrations alike and ends only at a successful `register`; once
//!   it outlasts the patience window the worker gives up. Pending
//!   results are redelivered first — at-least-once from the worker,
//!   deduplicated to at-most-once by the daemon's fence table.
//! * **Revocation** (the daemon reclaimed a lease that looked dead):
//!   the `BeatAck` names the revoked fence; the worker cancels the run
//!   and discards its result — the daemon has already requeued the
//!   cell, and a stale delivery would be fenced off anyway.
//! * **Drain** (daemon shutting down, or local `SIGTERM` via `stop`):
//!   finish and deliver the cell in hand, then exit cleanly.
//!
//! Partitions are detected by a read timeout on the socket: a silent
//! peer is indistinguishable from a dead one, and both roads lead to
//! the reconnect path.

use super::backoff::{Backoff, BackoffPolicy};
use super::chaos::{NetPlan, NetProxy};
use super::proto::{self, BeatEntry, Event, GrantCell, Request};
use crate::harness::{
    execute_cell_once, failed_result, reseed_for_attempt, Budget, RunFailure, RunResult,
};
use crate::journal::record_digest;
use crate::predictors::PredictorKind;
use phast_ooo::{CoreConfig, Deadline};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How a worker run is configured — address, identity, and the
/// fault-handling knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Worker name, echoed in daemon-side lease diagnostics.
    pub name: String,
    /// Heartbeat cadence while a cell is running.
    pub beat_every: Duration,
    /// Poll interval when the daemon has no work to grant.
    pub idle_poll: Duration,
    /// Socket read timeout — the partition detector.
    pub read_timeout: Duration,
    /// How long one outage may last before the worker gives up. An
    /// outage runs from the first failed dial or registration to the
    /// next successful `register`; attempts within it back off under
    /// `backoff`.
    pub patience: Duration,
    /// Reconnect backoff policy (capped exponential, seeded jitter).
    pub backoff: BackoffPolicy,
    /// Optional scripted network-fault layer: when set, traffic flows
    /// through an in-process [`NetProxy`] armed with this plan.
    pub net: Option<NetPlan>,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            addr: "127.0.0.1:7340".to_string(),
            name: format!("worker-{}", std::process::id()),
            beat_every: Duration::from_millis(250),
            idle_poll: Duration::from_millis(25),
            read_timeout: Duration::from_secs(10),
            patience: Duration::from_secs(30),
            backoff: BackoffPolicy::default(),
            net: None,
        }
    }
}

/// What a worker did over its lifetime, for exit reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Results the daemon accepted as fresh.
    pub delivered: u64,
    /// Results the daemon fenced off as stale (reclaimed lease or
    /// duplicate redelivery).
    pub stale: u64,
    /// Successful TCP connects (reconnects after the first).
    pub connects: u64,
    /// True when the worker exited via a drain (daemon shutdown or
    /// local stop), not an error.
    pub drained: bool,
}

/// Why a worker run ended unsuccessfully.
#[derive(Debug)]
pub enum WorkerError {
    /// The daemon stayed unreachable (or kept failing registration) for
    /// a whole patience window.
    Connect(std::io::Error),
    /// The daemon refused the registration handshake.
    Rejected(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Connect(e) => write!(f, "daemon unreachable: {e}"),
            WorkerError::Rejected(reason) => write!(f, "registration rejected: {reason}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// One registered connection to the daemon.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        let mut line = proto::render_request(req);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<Event> {
        let mut line = String::new();
        loop {
            let n =
                proto::read_line_capped(&mut self.reader, &mut line, proto::MAX_EVENT_LINE)
                    .map_err(std::io::Error::from)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return proto::parse_event(trimmed)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
            }
        }
    }

    fn request(&mut self, req: &Request) -> std::io::Result<Event> {
        self.send(req)?;
        self.recv()
    }
}

/// A finished result awaiting (re)delivery across reconnects.
struct Pending {
    fence: u64,
    status: String,
    detail: Option<String>,
    record: String,
    digest: String,
}

/// Runs the worker loop until the daemon drains, `stop` is raised, or
/// an outage outlasts the patience window. See the module docs for the
/// fault model.
///
/// # Errors
///
/// [`WorkerError::Connect`] when an outage (failed connects and failed
/// registrations alike) outlasts the patience window;
/// [`WorkerError::Rejected`] when registration is refused.
pub fn run_worker(cfg: WorkerConfig, stop: &AtomicBool) -> Result<WorkerSummary, WorkerError> {
    let proxy = match &cfg.net {
        Some(plan) => {
            Some(NetProxy::start(&cfg.addr, plan.clone()).map_err(WorkerError::Connect)?)
        }
        None => None,
    };
    let dial = proxy.as_ref().map_or_else(|| cfg.addr.clone(), NetProxy::addr);
    let mut summary = WorkerSummary::default();
    let mut pending: Vec<Pending> = Vec::new();
    'outer: loop {
        let Some(mut conn) = connect(&dial, &cfg, stop, &mut summary)? else {
            summary.drained = true;
            break;
        };
        // Redeliver anything finished before the last disconnect. The
        // daemon dedups by fence, so this is safe to repeat.
        while let Some(p) = pending.first() {
            match deliver_one(&mut conn, p, &mut summary) {
                Ok(()) => {
                    pending.remove(0);
                }
                Err(_) => continue 'outer,
            }
        }
        // Lease loop: one cell at a time, heartbeating while it runs.
        let mut backoff = Backoff::new(cfg.backoff);
        loop {
            if stop.load(Ordering::SeqCst) {
                summary.drained = true;
                break 'outer;
            }
            let cells = match conn.request(&Request::Lease { max: 1 }) {
                Ok(Event::Grant { cells }) => cells,
                Ok(Event::Draining) => {
                    summary.drained = true;
                    break 'outer;
                }
                Ok(Event::Rejected { retry_after_ms, .. }) => {
                    std::thread::sleep(backoff.hinted(retry_after_ms));
                    continue;
                }
                Ok(_) | Err(_) => continue 'outer,
            };
            if cells.is_empty() {
                std::thread::sleep(cfg.idle_poll);
                continue;
            }
            backoff.reset();
            for grant in cells {
                if run_grant(&mut conn, &cfg, grant, &mut pending, &mut summary).is_err() {
                    continue 'outer;
                }
            }
        }
    }
    Ok(summary)
}

/// Dials and registers with the daemon. Failed dials and failed
/// registrations (a proxy that accepts and then closes, a daemon that
/// hangs up mid-handshake) belong to one outage: one backoff schedule
/// (capped exponential, seeded jitter) and one start time across every
/// redial, until a `register` succeeds or the outage outlasts
/// `cfg.patience`. `Ok(None)` means the worker should drain: `stop` was
/// raised, or the daemon answered `register` with `draining`.
///
/// # Errors
///
/// [`WorkerError::Connect`] once the outage outlasts the patience
/// window; [`WorkerError::Rejected`] when the daemon refuses the
/// registration.
fn connect(
    dial: &str,
    cfg: &WorkerConfig,
    stop: &AtomicBool,
    summary: &mut WorkerSummary,
) -> Result<Option<Conn>, WorkerError> {
    let mut backoff = Backoff::new(cfg.backoff);
    let start = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let failure = match dial_once(dial, cfg) {
            Ok(mut conn) => {
                summary.connects += 1;
                match conn.request(&Request::Register { name: cfg.name.clone() }) {
                    Ok(Event::Registered { .. }) => return Ok(Some(conn)),
                    Ok(Event::Draining) => return Ok(None),
                    Ok(Event::Error { reason }) => return Err(WorkerError::Rejected(reason)),
                    Ok(other) => {
                        return Err(WorkerError::Rejected(format!(
                            "unexpected reply to register: {other:?}"
                        )))
                    }
                    Err(e) => e,
                }
            }
            Err(e) => e,
        };
        if start.elapsed() >= cfg.patience {
            return Err(WorkerError::Connect(failure));
        }
        std::thread::sleep(backoff.next_delay());
    }
}

/// One TCP connect to the daemon, with the worker's socket options.
fn dial_once(dial: &str, cfg: &WorkerConfig) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(dial)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok(Conn { reader, writer: stream })
}

/// Sends one pending delivery and classifies the daemon's verdict.
fn deliver_one(
    conn: &mut Conn,
    p: &Pending,
    summary: &mut WorkerSummary,
) -> std::io::Result<()> {
    let reply = conn.request(&Request::Deliver {
        fence: p.fence,
        status: p.status.clone(),
        detail: p.detail.clone(),
        record: p.record.clone(),
        digest: p.digest.clone(),
    })?;
    match reply {
        Event::Delivered { fresh: true, .. } => summary.delivered += 1,
        Event::Delivered { fresh: false, .. } => summary.stale += 1,
        // A verification error is terminal for this payload: the daemon
        // kept the fence live, but resending identical bytes cannot
        // succeed either, so count it stale and move on.
        _ => summary.stale += 1,
    }
    Ok(())
}

/// Runs one granted cell to completion: executes it on a separate
/// thread, heartbeats its progress every `beat_every`, honours a
/// revocation, and delivers the result unless it was revoked.
///
/// A socket error anywhere cancels the run, stashes its result in
/// `pending` (unless revoked), and bubbles the error so the caller
/// reconnects.
fn run_grant(
    conn: &mut Conn,
    cfg: &WorkerConfig,
    grant: GrantCell,
    pending: &mut Vec<Pending>,
    summary: &mut WorkerSummary,
) -> std::io::Result<()> {
    let cancel = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<RunResult>();
    let executor = {
        let grant = grant.clone();
        let (cancel, progress) = (Arc::clone(&cancel), Arc::clone(&progress));
        std::thread::spawn(move || {
            let _ = tx.send(execute_grant(&grant, &cancel, &progress));
        })
    };
    let mut revoked = false;
    // Heartbeat until the executor reports in.
    let result = loop {
        match rx.recv_timeout(cfg.beat_every) {
            Ok(result) => break Some(result),
            Err(mpsc::RecvTimeoutError::Disconnected) => break None,
            // A revoked run is already cancelled; nothing left to beat.
            Err(mpsc::RecvTimeoutError::Timeout) if revoked => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let beat =
                    BeatEntry { fence: grant.fence, progress: progress.load(Ordering::Relaxed) };
                match conn.request(&Request::Beat { beats: vec![beat] }) {
                    Ok(Event::BeatAck { revoked: fences }) => {
                        if fences.contains(&grant.fence) {
                            revoked = true;
                            cancel.store(true, Ordering::SeqCst);
                        }
                    }
                    Ok(_) | Err(_) => {
                        // Connection gone: cancel the run, keep its result,
                        // and hand the error up to reconnect.
                        cancel.store(true, Ordering::SeqCst);
                        let result = rx.recv().ok();
                        let _ = executor.join();
                        if let Some(result) = result.filter(|_| !revoked) {
                            pending.push(render_pending(&grant, result));
                        }
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::BrokenPipe,
                            "connection lost mid-grant",
                        ));
                    }
                }
            }
        }
    };
    let _ = executor.join();
    let Some(result) = result.filter(|_| !revoked) else {
        return Ok(());
    };
    let p = render_pending(&grant, result);
    if let Err(e) = deliver_one(conn, &p, summary) {
        // The result survives for redelivery after reconnecting.
        pending.push(p);
        return Err(e);
    }
    Ok(())
}

/// Renders one finished cell into its wire form: the `RunRecord` a
/// local run would have put in the artifact, serialized compactly, with
/// the journal's `crc32:` digest over those exact bytes.
fn render_pending(grant: &GrantCell, mut result: RunResult) -> Pending {
    result.attempts = grant.attempt;
    let status = result.failure.as_ref().map_or("ok", RunFailure::kind).to_string();
    let detail = result.failure.as_ref().map(|f| f.to_string());
    let record = result.to_record().to_json();
    Pending {
        fence: grant.fence,
        status,
        detail,
        record: record.render_compact(),
        digest: record_digest(&record),
    }
}

/// Executes one granted cell through [`execute_cell_once`], the same
/// solo path a local worker runs. A cell that cannot be rebuilt from its
/// wire names degrades to a `panicked` result rather than wedging the
/// lease.
fn execute_grant(
    grant: &GrantCell,
    cancel: &Arc<AtomicBool>,
    progress: &Arc<AtomicU64>,
) -> RunResult {
    let rebuilt = phast_workloads::by_name(&grant.workload)
        .ok_or_else(|| format!("unknown workload {:?}", grant.workload))
        .and_then(|workload| {
            let kind = PredictorKind::from_label(&grant.predictor)
                .ok_or_else(|| format!("unknown predictor {:?}", grant.predictor))?;
            Ok((workload, kind))
        });
    let (workload, kind) = match rebuilt {
        Ok(cell) => cell,
        Err(reason) => {
            return failed_result(
                &grant.workload,
                &grant.predictor,
                RunFailure::Panicked(format!("worker could not rebuild the cell: {reason}")),
            )
        }
    };
    let deadline = match grant.timeout_ms {
        Some(ms) => Deadline::after(Duration::from_millis(ms)),
        None => Deadline::none(),
    }
    .with_cancel(Arc::clone(cancel))
    .with_progress(Arc::clone(progress));
    let budget = Budget {
        insts: grant.insts,
        workload_iters: grant.iters,
        max_workloads: None,
        extra_workloads: Vec::new(),
    };
    let (cfg_attempt, _) = reseed_for_attempt(&CoreConfig::alder_lake(), grant.attempt);
    execute_cell_once(&workload, &kind, &cfg_attempt, &budget, &deadline)
}
