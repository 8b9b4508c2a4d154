//! The daemon's work-stealing scheduler: persistent workers, per-worker
//! deques, leased execution, and a housekeeping thread.
//!
//! The one-shot scoped pool ([`crate::pool`]) is the right engine for a
//! batch sweep — spawn, fan out, join, exit — but a daemon needs workers
//! that outlive any single batch and a queue that absorbs submissions
//! while earlier ones still run. This scheduler provides that:
//!
//! * **per-worker deques with stealing** — a worker pops its own deque
//!   from the front and steals from the *back* of others', so batches
//!   spread across workers without a central contended queue;
//! * **cooperative park/unpark** — idle workers park on a condvar with a
//!   short timeout (no spinning); submissions and requeues notify it;
//! * **leased execution** — every attempt runs under a
//!   [`LeaseTable`] lease; a **housekeeping thread** periodically expires
//!   bad leases (dead worker, stalled heartbeat, age cap), requeues the
//!   job as a fresh attempt — or, once the attempt budget is exhausted,
//!   delivers a degraded [`RunFailure::Lost`] result so the batch always
//!   completes — and respawns dead worker threads;
//! * **at-most-once delivery** — a result is delivered only if its
//!   attempt still holds the lease; results from reclaimed attempts are
//!   discarded as stale, so retries can never double-deliver.
//!
//! Jobs are owned `'static` closures over a [`JobCtx`] (attempt number,
//! cancellation flag, progress cell) — the sweep-cell runner in
//! [`crate::serve::runner`] builds them from plain data, so nothing here
//! borrows from a caller's stack the way the scoped pool does.

use super::chaos::ChaosPlan;
use super::lease::{LeaseConfig, LeaseTable};
use crate::artifact::RunRecord;
use crate::harness::{failed_result, RunFailure, RunResult};
use crate::jsonio;
use crate::pool;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle worker parks before rechecking the queues — bounds
/// the wakeup latency a (rare) lost notify can add.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// Scheduler shape and resilience policy.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Persistent worker threads (clamped to at least 1).
    pub workers: usize,
    /// Ignored: every job runs solo. The field outlives the lane-batched
    /// cycle loop it used to size only because the benchmark package's
    /// daemon loop (`simbench/src/serve_loop.rs`) still sets `lanes: 1`
    /// in a struct literal; delete it once that literal drops it.
    pub lanes: usize,
    /// Lease liveness policy (heartbeat window, age cap).
    pub lease: LeaseConfig,
    /// Total attempts a job may consume across lease reclaims before it
    /// degrades to [`RunFailure::Lost`] (clamped to at least 1).
    pub max_attempts: u64,
    /// How often the housekeeping thread scans leases and dead workers.
    pub housekeep_every: Duration,
    /// Service-layer fault injection (inert by default).
    pub chaos: ChaosPlan,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            workers: pool::default_workers(),
            lanes: 1,
            lease: LeaseConfig::default(),
            max_attempts: 3,
            housekeep_every: Duration::from_millis(25),
            chaos: ChaosPlan::none(),
        }
    }
}

/// What a running attempt sees of its lease: plumb `cancel` and
/// `progress` into the run's `Deadline` (via `with_cancel` /
/// `with_progress`) so reclamation can stop the attempt cooperatively
/// and the housekeeper can observe forward progress.
pub struct JobCtx {
    /// Attempt number (1-based) this execution is.
    pub attempt: u64,
    /// Raised when the lease is reclaimed — the attempt should stop at
    /// its next poll; its result will be discarded as stale.
    pub cancel: Arc<AtomicBool>,
    /// The heartbeat cell; the simulation's amortized deadline poll
    /// ticks it.
    pub progress: Arc<AtomicU64>,
}

/// The work function of one job.
pub type JobFn = Arc<dyn Fn(&JobCtx) -> RunResult + Send + Sync>;

/// The wire-shippable form of a simulation cell: the plain data a remote
/// worker process needs to rebuild and execute it (workload name and
/// predictor label travel in the grant; budget and watchdog here), plus
/// the daemon-side hooks. Jobs without one never leave the process —
/// custom core configs and synthesized workloads a remote could not
/// rebuild stay local, which is what keeps remote execution
/// byte-identical: a cell is only shipped when the worker can
/// reconstruct *exactly* the computation the daemon would run.
#[derive(Clone)]
pub struct RemoteCell {
    /// Budget: detailed instructions per run.
    pub insts: u64,
    /// Budget: workload drive iterations.
    pub iters: u64,
    /// Per-run watchdog to arm on the worker, if the sweep carries one.
    pub timeout_ms: Option<u64>,
    /// Invoked with the attempt number when a remote lease is granted —
    /// the runner journals the write-ahead `start` line here, exactly as
    /// the local path does at pickup.
    pub on_start: Arc<dyn Fn(u64) + Send + Sync>,
    /// Converts a verified remote delivery into the cell's [`RunResult`].
    pub finish: Arc<dyn Fn(RemoteOutcome) -> RunResult + Send + Sync>,
}

/// A remote delivery that survived verification: digest checked against
/// the wire bytes, record parsed, and workload/predictor labels matched
/// against the granted cell.
pub struct RemoteOutcome {
    /// `"ok"` or the failure kind the worker reported.
    pub status: String,
    /// Failure detail (the worker's `RunFailure` display), if any.
    pub detail: Option<String>,
    /// The run record, parsed back from the wire.
    pub record: RunRecord,
}

/// Callback invoked exactly once when a job's result is delivered (fresh
/// lease release or lost-job degradation) — the runner journals `done`
/// lines here.
pub type DeliveredFn = Arc<dyn Fn(&RunResult) + Send + Sync>;

/// One schedulable job: labels (for degraded results), the work closure,
/// and an optional delivery hook.
#[derive(Clone)]
pub struct JobSpec {
    /// Workload label, used for the degraded result if the job is lost.
    pub workload: String,
    /// Predictor label, likewise.
    pub predictor: String,
    /// The work.
    pub run: JobFn,
    /// The cell's wire-shippable form; `None` jobs never leave the
    /// process.
    pub remote: Option<RemoteCell>,
    /// Invoked once on delivery, before the batch slot fills.
    pub on_delivered: Option<DeliveredFn>,
}

/// A progress event: one cell of a batch delivered.
#[derive(Clone, Debug)]
pub struct CellEvent {
    /// Index of the job within its batch (submission order).
    pub index: usize,
    /// Workload label.
    pub workload: String,
    /// Predictor label.
    pub predictor: String,
    /// `"ok"` or the failure kind (`"deadline"`, `"panicked"`, `"lost"`,
    /// ...).
    pub status: String,
    /// Attempts the job consumed.
    pub attempts: u64,
}

/// Shared completion state of one submitted batch.
struct BatchShared {
    slots: Vec<Mutex<Option<RunResult>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    /// Present while the batch is incomplete; dropped on the last
    /// delivery so the event receiver observes end-of-stream.
    events: Mutex<Option<mpsc::Sender<CellEvent>>>,
}

/// The caller's handle to a submitted batch: stream per-cell events,
/// then collect results in submission order.
pub struct BatchHandle {
    shared: Arc<BatchShared>,
    events: mpsc::Receiver<CellEvent>,
}

impl BatchHandle {
    /// Blocks for the next delivery event; `None` once every cell has
    /// delivered.
    pub fn next_event(&self) -> Option<CellEvent> {
        self.events.recv().ok()
    }

    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.shared.slots.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.shared.slots.is_empty()
    }

    /// Blocks until every cell has delivered and returns the results in
    /// submission order. Every slot is guaranteed filled: jobs that
    /// exhaust their attempts deliver a degraded
    /// [`RunFailure::Lost`] result rather than vanishing.
    pub fn wait(self) -> Vec<RunResult> {
        let mut remaining = self.shared.remaining.lock().expect("batch remaining");
        while *remaining > 0 {
            remaining = self.shared.done.wait(remaining).expect("batch condvar");
        }
        drop(remaining);
        self.shared
            .slots
            .iter()
            .map(|s| s.lock().expect("batch slot").take().expect("slot delivered"))
            .collect()
    }
}

/// One queued/running job.
struct JobEntry {
    id: u64,
    index: usize,
    spec: JobSpec,
    /// Attempt number the next pickup runs as; bumped by the housekeeper
    /// on reclaim, read by the worker at pickup. Only one copy of the
    /// entry is ever queued, so there is no write race.
    attempt_next: AtomicU64,
    batch: Arc<BatchShared>,
}

/// Monotonic resilience counters, snapshotted by [`Scheduler::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Leases reclaimed (dead worker, heartbeat loss, age cap).
    pub reclaimed: u64,
    /// Results discarded because their attempt had been reclaimed.
    pub stale: u64,
    /// Jobs degraded to [`RunFailure::Lost`] after exhausting attempts.
    pub lost: u64,
    /// Worker threads respawned by the housekeeper.
    pub respawns: u64,
    /// Worker deaths injected by the chaos plan.
    pub chaos_kills: u64,
    /// Cells delivered by remote workers (fresh fences only).
    pub remote_delivered: u64,
    /// Remote deliveries rejected because their fence was spent —
    /// reclaimed leases and duplicate deliveries both land here.
    pub remote_stale: u64,
}

#[derive(Default)]
struct StatCells {
    reclaimed: AtomicU64,
    stale: AtomicU64,
    lost: AtomicU64,
    respawns: AtomicU64,
    chaos_kills: AtomicU64,
    remote_delivered: AtomicU64,
    remote_stale: AtomicU64,
}

struct SchedInner {
    cfg: SchedConfig,
    deques: Vec<Mutex<VecDeque<Arc<JobEntry>>>>,
    jobs: Mutex<HashMap<u64, Arc<JobEntry>>>,
    leases: LeaseTable,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// No new batches are admitted.
    draining: AtomicBool,
    /// Workers and the housekeeper exit at their next check.
    stop: AtomicBool,
    outstanding: AtomicUsize,
    next_job: AtomicU64,
    next_deque: AtomicUsize,
    alive: Mutex<Vec<Arc<AtomicBool>>>,
    /// Fencing tokens are allocated from here, starting at 1 (fence 0 is
    /// reserved on the wire) and never reused — monotonicity across the
    /// daemon's lifetime is what makes a resurrected worker's old fence
    /// provably stale.
    next_fence: AtomicU64,
    /// Remote worker ids are allocated above the local range
    /// (`cfg.workers..`) so the lease table's `worker` field names
    /// locals and remotes uniformly.
    next_worker: AtomicUsize,
    /// Liveness flag per registered remote worker; dropped sessions
    /// clear the flag and the housekeeper reclaims from there.
    remotes: Mutex<HashMap<usize, Arc<AtomicBool>>>,
    /// Outstanding remote grants by fence. An entry exists exactly while
    /// the daemon would accept a delivery for that fence; removal (by
    /// delivery or by lease reclaim) spends the fence forever.
    remote_held: Mutex<HashMap<u64, RemoteHeld>>,
    stats: StatCells,
}

/// Daemon-side state of one outstanding remote grant.
struct RemoteHeld {
    entry: Arc<JobEntry>,
    attempt: u64,
    /// The lease's cancellation flag — raised by reclaim, checked when
    /// heartbeats arrive so a revoked cell is reported back to the
    /// worker.
    cancel: Arc<AtomicBool>,
    /// The lease's observed-progress cell; wire heartbeats store into
    /// it, which is what makes the in-process stall detector work
    /// unchanged for remote attempts.
    progress: Arc<AtomicU64>,
}

/// Why a batch was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler is draining for shutdown and admits nothing new.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "scheduler is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The persistent work-stealing scheduler. Start one per daemon with
/// [`Scheduler::start`]; submit batches from any thread; call
/// [`Scheduler::drain`] for a graceful shutdown.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    housekeeper: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns the worker threads and the housekeeper.
    pub fn start(mut cfg: SchedConfig) -> Scheduler {
        cfg.workers = cfg.workers.max(1);
        cfg.max_attempts = cfg.max_attempts.max(1);
        let n = cfg.workers;
        let inner = Arc::new(SchedInner {
            leases: LeaseTable::new(cfg.lease),
            cfg,
            deques: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            jobs: Mutex::new(HashMap::new()),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
            next_job: AtomicU64::new(1),
            next_deque: AtomicUsize::new(0),
            alive: Mutex::new(Vec::new()),
            next_fence: AtomicU64::new(1),
            next_worker: AtomicUsize::new(n),
            remotes: Mutex::new(HashMap::new()),
            remote_held: Mutex::new(HashMap::new()),
            stats: StatCells::default(),
        });
        let mut handles = Vec::with_capacity(n);
        {
            let mut alive = inner.alive.lock().expect("alive flags");
            for me in 0..n {
                let flag = Arc::new(AtomicBool::new(true));
                alive.push(Arc::clone(&flag));
                let inner = Arc::clone(&inner);
                handles.push(Some(std::thread::spawn(move || worker_loop(inner, me, flag))));
            }
        }
        let hk = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || housekeeper_loop(inner))
        };
        Scheduler {
            inner,
            workers: Mutex::new(handles),
            housekeeper: Mutex::new(Some(hk)),
        }
    }

    /// Submits a batch of jobs; they spread round-robin across the
    /// worker deques (stealing rebalances from there). Returns a handle
    /// to stream events and collect results.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] once [`Scheduler::drain`] has begun.
    pub fn submit(&self, jobs: Vec<JobSpec>) -> Result<BatchHandle, SubmitError> {
        if self.inner.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        let n = jobs.len();
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(BatchShared {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            events: Mutex::new(if n > 0 { Some(tx) } else { None }),
        });
        self.inner.outstanding.fetch_add(n, Ordering::SeqCst);
        for (index, spec) in jobs.into_iter().enumerate() {
            let id = self.inner.next_job.fetch_add(1, Ordering::SeqCst);
            let entry = Arc::new(JobEntry {
                id,
                index,
                spec,
                attempt_next: AtomicU64::new(1),
                batch: Arc::clone(&shared),
            });
            self.inner.jobs.lock().expect("job map").insert(id, Arc::clone(&entry));
            self.inner.push_job(entry);
        }
        Ok(BatchHandle { shared, events: rx })
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.inner.cfg.workers
    }

    /// Jobs admitted but not yet delivered (queued + running).
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::SeqCst)
    }

    /// Jobs sitting in deques right now (not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.inner.deques.iter().map(|d| d.lock().expect("deque").len()).sum()
    }

    /// Leases currently held (attempts running right now).
    pub fn leases_held(&self) -> usize {
        self.inner.leases.held()
    }

    /// Snapshot of the resilience counters.
    pub fn stats(&self) -> SchedStats {
        let s = &self.inner.stats;
        SchedStats {
            reclaimed: s.reclaimed.load(Ordering::Relaxed),
            stale: s.stale.load(Ordering::Relaxed),
            lost: s.lost.load(Ordering::Relaxed),
            respawns: s.respawns.load(Ordering::Relaxed),
            chaos_kills: s.chaos_kills.load(Ordering::Relaxed),
            remote_delivered: s.remote_delivered.load(Ordering::Relaxed),
            remote_stale: s.remote_stale.load(Ordering::Relaxed),
        }
    }

    /// Registers a remote worker process and returns its session handle.
    /// Dropping the session (or calling
    /// [`RemoteSession::disconnect`]) marks the worker dead; the
    /// housekeeper then reclaims its leases and requeues the cells, so a
    /// torn TCP connection degrades to exactly the dead-local-worker
    /// path — and when the last remote vanishes, the local workers drain
    /// whatever is left.
    pub fn register_remote(&self, name: &str) -> RemoteSession {
        let worker = self.inner.next_worker.fetch_add(1, Ordering::SeqCst);
        let alive = Arc::new(AtomicBool::new(true));
        self.inner.remotes.lock().expect("remotes").insert(worker, Arc::clone(&alive));
        RemoteSession { inner: Arc::clone(&self.inner), worker, alive, name: name.to_string() }
    }

    /// Remote worker processes currently registered and live.
    pub fn remote_workers(&self) -> usize {
        self.inner
            .remotes
            .lock()
            .expect("remotes")
            .values()
            .filter(|f| f.load(Ordering::SeqCst))
            .count()
    }

    /// True once [`Scheduler::drain`] has begun.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop admitting, let every outstanding job
    /// deliver (including lease-reclaim retries), then stop and join all
    /// threads. Idempotent; concurrent callers all block until the
    /// scheduler is down.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        while self.inner.outstanding.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.park_cv.notify_all();
        for h in self.workers.lock().expect("worker handles").iter_mut() {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.housekeeper.lock().expect("housekeeper handle").take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    /// Forced teardown: threads stop at their next check. Jobs still
    /// queued are abandoned (their batch handles are necessarily
    /// abandoned too, or the caller would have drained) — use
    /// [`Scheduler::drain`] for the graceful path.
    fn drop(&mut self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.park_cv.notify_all();
        for h in self.workers.lock().expect("worker handles").iter_mut() {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.housekeeper.lock().expect("housekeeper handle").take() {
            let _ = h.join();
        }
    }
}

/// One cell granted to a remote worker: the fence plus everything the
/// worker needs to rebuild the run. The server renders this onto the
/// wire as a `GrantCell`.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteGrant {
    /// The fencing token authenticating this (cell, attempt).
    pub fence: u64,
    /// Workload name.
    pub workload: String,
    /// Predictor label.
    pub predictor: String,
    /// Attempt number the worker must reseed with.
    pub attempt: u64,
    /// Budget: detailed instructions.
    pub insts: u64,
    /// Budget: drive iterations.
    pub iters: u64,
    /// Per-run watchdog, if armed.
    pub timeout_ms: Option<u64>,
}

/// The daemon's verdict on one remote delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteVerdict {
    /// The fence was live and the result was delivered — at most one
    /// delivery per fence ever gets this.
    Fresh,
    /// The fence was spent (lease reclaimed, or an earlier delivery won)
    /// and the result was discarded.
    Stale,
    /// The payload failed verification (digest mismatch, unparseable
    /// record, or labels not matching the grant). The fence stays live:
    /// the worker may redeliver an intact copy, and if it never does the
    /// heartbeat stall reclaims the lease.
    Corrupt(String),
}

/// A registered remote worker's session with the scheduler: lease cells,
/// relay heartbeats, deliver results. One per live connection; the
/// server thread owns it and drops it when the socket dies.
pub struct RemoteSession {
    inner: Arc<SchedInner>,
    worker: usize,
    alive: Arc<AtomicBool>,
    name: String,
}

impl RemoteSession {
    /// The worker id the scheduler assigned (above the local range).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The name the worker registered with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Leases up to `max` remote-eligible cells: each is stolen from the
    /// deques (oldest first), put under a lease held by this worker,
    /// assigned a fresh fence, and has its write-ahead `start` hook
    /// fired.
    pub fn lease(&self, max: usize) -> Vec<RemoteGrant> {
        let mut grants = Vec::new();
        if !self.alive.load(Ordering::SeqCst) {
            return grants;
        }
        for _ in 0..max {
            let Some(entry) = self.inner.pop_remote() else { break };
            let remote = entry.spec.remote.as_ref().expect("pop_remote returns remote-capable");
            let attempt = entry.attempt_next.load(Ordering::Relaxed);
            let grant = self.inner.leases.acquire(entry.id, attempt, self.worker, false);
            (remote.on_start)(attempt);
            let fence = self.inner.next_fence.fetch_add(1, Ordering::SeqCst);
            let grants_entry = RemoteGrant {
                fence,
                workload: entry.spec.workload.clone(),
                predictor: entry.spec.predictor.clone(),
                attempt,
                insts: remote.insts,
                iters: remote.iters,
                timeout_ms: remote.timeout_ms,
            };
            self.inner.remote_held.lock().expect("remote grants").insert(
                fence,
                RemoteHeld {
                    entry: Arc::clone(&entry),
                    attempt,
                    cancel: Arc::clone(&grant.cancel),
                    progress: grant.progress(),
                },
            );
            grants.push(grants_entry);
        }
        grants
    }

    /// Stores wire heartbeats into the corresponding leases' observed
    /// cells and returns the fences that are no longer live — the worker
    /// must cancel those runs and discard their results.
    pub fn beat(&self, beats: &[(u64, u64)]) -> Vec<u64> {
        let held = self.inner.remote_held.lock().expect("remote grants");
        beats
            .iter()
            .filter(|(fence, progress)| match held.get(fence) {
                Some(h) if !h.cancel.load(Ordering::SeqCst) => {
                    h.progress.store(*progress, Ordering::Relaxed);
                    false
                }
                _ => true,
            })
            .map(|(fence, _)| *fence)
            .collect()
    }

    /// Attempts to deliver a finished cell for `fence`. The payload is
    /// verified (digest over the exact wire bytes, record parse, label
    /// match) and then the lease release decides freshness — the same
    /// at-most-once gate local workers pass through, so duplicate and
    /// resurrected deliveries are discarded identically.
    pub fn deliver(
        &self,
        fence: u64,
        status: &str,
        detail: Option<&str>,
        record_line: &str,
        digest: &str,
    ) -> RemoteVerdict {
        let Some(h) = self.inner.remote_held.lock().expect("remote grants").remove(&fence) else {
            self.inner.stats.remote_stale.fetch_add(1, Ordering::Relaxed);
            return RemoteVerdict::Stale;
        };
        // Verification happens against the bytes as received — the same
        // `crc32:` digest scheme the journal uses — so a record that was
        // truncated or altered in flight can never reach an artifact.
        let computed = format!("crc32:{:08x}", phast_sample::crc32(record_line.as_bytes()));
        let verified = if computed != digest {
            Err(format!("record digest mismatch: wire {digest}, computed {computed}"))
        } else {
            jsonio::parse(record_line)
                .map_err(|e| format!("unparseable record: {e}"))
                .and_then(|v| {
                    RunRecord::from_json(&v).map_err(|e| format!("malformed record: {e}"))
                })
                .and_then(|r| {
                    if r.workload == h.entry.spec.workload && r.predictor == h.entry.spec.predictor
                    {
                        Ok(r)
                    } else {
                        Err(format!(
                            "record labels {}x{} do not match the grant {}x{}",
                            r.workload, r.predictor, h.entry.spec.workload, h.entry.spec.predictor
                        ))
                    }
                })
        };
        let record = match verified {
            Ok(r) => r,
            Err(reason) => {
                // The fence stays live for an intact redelivery.
                self.inner.remote_held.lock().expect("remote grants").insert(fence, h);
                return RemoteVerdict::Corrupt(reason);
            }
        };
        if !self.inner.leases.release(h.entry.id, h.attempt) {
            self.inner.stats.remote_stale.fetch_add(1, Ordering::Relaxed);
            return RemoteVerdict::Stale;
        }
        let remote = h.entry.spec.remote.as_ref().expect("remote-held entry is remote-capable");
        let outcome = RemoteOutcome {
            status: status.to_string(),
            detail: detail.map(str::to_string),
            record,
        };
        let result = match pool::catch_job(|| (remote.finish)(outcome)) {
            Ok(r) => r,
            Err(p) => failed_result(
                &h.entry.spec.workload,
                &h.entry.spec.predictor,
                RunFailure::Panicked(p.message),
            ),
        };
        self.inner.deliver(&h.entry, result, h.attempt);
        self.inner.stats.remote_delivered.fetch_add(1, Ordering::Relaxed);
        RemoteVerdict::Fresh
    }

    /// Marks the worker dead. The housekeeper reclaims every lease it
    /// held and requeues the cells for local (or other remote) pickup.
    pub fn disconnect(&self) {
        self.alive.store(false, Ordering::SeqCst);
        // Wake parked local workers: requeued cells are coming.
        self.inner.park_cv.notify_all();
    }
}

impl Drop for RemoteSession {
    /// A dropped session is a dead worker — the server thread drops it
    /// when the connection tears, which is the connection-loss ⇒ lease
    /// reclaim ⇒ requeue path.
    fn drop(&mut self) {
        self.disconnect();
    }
}

impl SchedInner {
    /// Queues an entry on the next deque round-robin and wakes a parked
    /// worker.
    fn push_job(&self, entry: Arc<JobEntry>) {
        let n = self.deques.len();
        let at = self.next_deque.fetch_add(1, Ordering::Relaxed) % n;
        self.deques[at].lock().expect("deque").push_back(entry);
        self.park_cv.notify_all();
    }

    /// Own deque from the front, then steal from the back of the others
    /// (oldest work first, minimizing contention with the owner).
    fn pop_job(&self, me: usize) -> Option<Arc<JobEntry>> {
        if let Some(e) = self.deques[me].lock().expect("deque").pop_front() {
            return Some(e);
        }
        let n = self.deques.len();
        for step in 1..n {
            let victim = (me + step) % n;
            if let Some(e) = self.deques[victim].lock().expect("deque").pop_back() {
                return Some(e);
            }
        }
        None
    }

    /// Steals the oldest remote-eligible entry from any deque, leaving
    /// local-only jobs in place.
    fn pop_remote(&self) -> Option<Arc<JobEntry>> {
        for d in &self.deques {
            let mut d = d.lock().expect("deque");
            if let Some(at) = d.iter().position(|e| e.spec.remote.is_some()) {
                return d.remove(at);
            }
        }
        None
    }

    /// Delivers a result for `entry` exactly once: the delivery hook
    /// fires, the batch slot fills, the event streams, and the job
    /// retires from the scheduler.
    fn deliver(&self, entry: &Arc<JobEntry>, mut result: RunResult, attempts: u64) {
        result.attempts = attempts;
        if let Some(hook) = &entry.spec.on_delivered {
            hook(&result);
        }
        let status =
            result.failure.as_ref().map_or_else(|| "ok".to_string(), |f| f.kind().to_string());
        let event = CellEvent {
            index: entry.index,
            workload: entry.spec.workload.clone(),
            predictor: entry.spec.predictor.clone(),
            status,
            attempts,
        };
        if let Some(tx) = entry.batch.events.lock().expect("batch events").as_ref() {
            let _ = tx.send(event);
        }
        *entry.batch.slots[entry.index].lock().expect("batch slot") = Some(result);
        {
            let mut remaining = entry.batch.remaining.lock().expect("batch remaining");
            *remaining -= 1;
            if *remaining == 0 {
                // Close the event stream so receivers see end-of-batch.
                entry.batch.events.lock().expect("batch events").take();
                entry.batch.done.notify_all();
            }
        }
        self.jobs.lock().expect("job map").remove(&entry.id);
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One persistent worker: pop or steal, lease, run, deliver-if-fresh.
fn worker_loop(inner: Arc<SchedInner>, me: usize, alive: Arc<AtomicBool>) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Some(entry) = inner.pop_job(me) else {
            let guard = inner.park_lock.lock().expect("park lock");
            let _ = inner
                .park_cv
                .wait_timeout(guard, PARK_TIMEOUT)
                .expect("park condvar");
            continue;
        };
        let attempt = entry.attempt_next.load(Ordering::Relaxed);
        if inner.cfg.chaos.kills_worker(entry.id, attempt) {
            // Simulated SIGKILL: die on the spot *holding the lease* —
            // no unwind, no release, no delivery. The housekeeper finds
            // the dead worker, reclaims the lease, and respawns us.
            let _grant = inner.leases.acquire(entry.id, attempt, me, false);
            inner.stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
            break;
        }
        let suppress = inner.cfg.chaos.drops_heartbeat(entry.id, attempt);
        let grant = inner.leases.acquire(entry.id, attempt, me, suppress);
        let ctx = JobCtx {
            attempt,
            cancel: Arc::clone(&grant.cancel),
            progress: grant.progress(),
        };
        let result = match pool::catch_job(|| (entry.spec.run)(&ctx)) {
            Ok(r) => r,
            Err(p) => failed_result(
                &entry.spec.workload,
                &entry.spec.predictor,
                RunFailure::Panicked(p.message),
            ),
        };
        if inner.leases.release(entry.id, attempt) {
            inner.deliver(&entry, result, attempt);
        } else {
            // The lease was reclaimed under us: a replacement attempt
            // owns the job, so this result must not be delivered.
            inner.stats.stale.fetch_add(1, Ordering::Relaxed);
        }
    }
    alive.store(false, Ordering::SeqCst);
}

/// The housekeeping thread: expire bad leases, requeue or degrade their
/// jobs, respawn dead workers.
fn housekeeper_loop(inner: Arc<SchedInner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(inner.cfg.housekeep_every);
        let reclaimed = {
            let alive = inner.alive.lock().expect("alive flags");
            let remotes = inner.remotes.lock().expect("remotes");
            // Worker ids below the local range index the alive vector;
            // everything above is a remote, and a remote the map no
            // longer knows is dead by definition.
            inner.leases.expire(|w| {
                if w < alive.len() {
                    !alive[w].load(Ordering::SeqCst)
                } else {
                    remotes.get(&w).is_none_or(|f| !f.load(Ordering::SeqCst))
                }
            })
        };
        if !reclaimed.is_empty() {
            // Spend the fences of reclaimed remote grants: a delivery
            // arriving later for one of them finds no entry and is
            // rejected as stale — at-most-once, across the wire.
            let gone: HashSet<(u64, u64)> =
                reclaimed.iter().map(|e| (e.job, e.attempt)).collect();
            inner
                .remote_held
                .lock()
                .expect("remote grants")
                .retain(|_, h| !gone.contains(&(h.entry.id, h.attempt)));
        }
        // Forget dead remotes; their leases were just reclaimed above
        // (absent-from-map also reads as dead, so ordering is safe).
        inner.remotes.lock().expect("remotes").retain(|_, f| f.load(Ordering::SeqCst));
        for e in reclaimed {
            inner.stats.reclaimed.fetch_add(1, Ordering::Relaxed);
            let entry = inner.jobs.lock().expect("job map").get(&e.job).cloned();
            let Some(entry) = entry else { continue };
            if e.attempt >= inner.cfg.max_attempts {
                inner.stats.lost.fetch_add(1, Ordering::Relaxed);
                let result = failed_result(
                    &entry.spec.workload,
                    &entry.spec.predictor,
                    RunFailure::Lost(format!("{} (attempt {} of {})", e.reason, e.attempt,
                        inner.cfg.max_attempts)),
                );
                inner.deliver(&entry, result, e.attempt);
            } else {
                entry.attempt_next.store(e.attempt + 1, Ordering::Relaxed);
                inner.push_job(entry);
            }
        }
        // Respawn any dead worker (chaos kill or escaped panic) so the
        // pool keeps its capacity; skip once shutdown has begun.
        if !inner.stop.load(Ordering::SeqCst) {
            let mut alive = inner.alive.lock().expect("alive flags");
            for me in 0..alive.len() {
                if !alive[me].load(Ordering::SeqCst) {
                    let flag = Arc::new(AtomicBool::new(true));
                    alive[me] = Arc::clone(&flag);
                    let inner2 = Arc::clone(&inner);
                    std::thread::spawn(move || worker_loop(inner2, me, flag));
                    inner.stats.respawns.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_ooo::SimStats;

    /// A clean result for fake jobs (no simulation involved).
    fn ok_result(workload: &str, predictor: &str) -> RunResult {
        let mut r = failed_result(workload, predictor, RunFailure::Panicked(String::new()));
        r.failure = None;
        r.stats = SimStats::default();
        r
    }

    fn fast_cfg(workers: usize) -> SchedConfig {
        SchedConfig {
            workers,
            lease: LeaseConfig {
                heartbeat: Duration::from_millis(40),
                max_age: Duration::from_secs(30),
            },
            max_attempts: 3,
            housekeep_every: Duration::from_millis(5),
            chaos: ChaosPlan::none(),
            ..SchedConfig::default()
        }
    }

    fn counting_job(counter: Arc<AtomicU64>, workload: &str) -> JobSpec {
        let w = workload.to_string();
        JobSpec {
            workload: w.clone(),
            predictor: "fake".to_string(),
            run: Arc::new(move |ctx: &JobCtx| {
                counter.fetch_add(1, Ordering::SeqCst);
                ctx.progress.fetch_add(1, Ordering::SeqCst);
                ok_result(&w, "fake")
            }),
            remote: None,
            on_delivered: None,
        }
    }

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let sched = Scheduler::start(fast_cfg(4));
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<JobSpec> =
            (0..16).map(|i| counting_job(Arc::clone(&ran), &format!("w{i}"))).collect();
        let handle = sched.submit(jobs).expect("admitted");
        let results = handle.wait();
        assert_eq!(results.len(), 16);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.workload, format!("w{i}"), "submission order preserved");
            assert!(r.ok());
            assert_eq!(r.attempts, 1);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        sched.drain();
    }

    #[test]
    fn events_stream_one_per_cell_then_close() {
        let sched = Scheduler::start(fast_cfg(2));
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<JobSpec> =
            (0..5).map(|i| counting_job(Arc::clone(&ran), &format!("w{i}"))).collect();
        let handle = sched.submit(jobs).expect("admitted");
        let mut events = Vec::new();
        while let Some(ev) = handle.next_event() {
            events.push(ev);
        }
        assert_eq!(events.len(), 5);
        let results = handle.wait();
        assert_eq!(results.len(), 5);
        sched.drain();
    }

    #[test]
    fn panicking_job_degrades_without_killing_its_worker() {
        let sched = Scheduler::start(fast_cfg(2));
        let ran = Arc::new(AtomicU64::new(0));
        let boom = JobSpec {
            workload: "boom".to_string(),
            predictor: "fake".to_string(),
            run: Arc::new(|_: &JobCtx| panic!("job exploded")),
            remote: None,
            on_delivered: None,
        };
        let jobs = vec![counting_job(Arc::clone(&ran), "a"), boom, counting_job(ran, "b")];
        let results = sched.submit(jobs).expect("admitted").wait();
        assert!(results[0].ok());
        assert!(results[2].ok());
        let failure = results[1].failure.as_ref().expect("panic captured");
        assert_eq!(failure.kind(), "panicked");
        assert!(format!("{failure}").contains("job exploded"));
        assert_eq!(sched.stats().respawns, 0, "panic is caught at the job boundary");
        sched.drain();
    }

    #[test]
    fn chaos_worker_kill_is_reclaimed_retried_and_respawned() {
        let mut cfg = fast_cfg(2);
        // Kill whichever worker picks up job 1's first attempt.
        cfg.chaos = ChaosPlan { kill_at: Some((1, 1)), ..ChaosPlan::none() };
        let sched = Scheduler::start(cfg);
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<JobSpec> =
            (0..4).map(|i| counting_job(Arc::clone(&ran), &format!("w{i}"))).collect();
        let results = sched.submit(jobs).expect("admitted").wait();
        assert!(results.iter().all(RunResult::ok), "retry recovered the killed attempt");
        assert_eq!(results[0].attempts, 2, "first job took a second attempt");
        assert!(results[1..].iter().all(|r| r.attempts == 1));
        let stats = sched.stats();
        assert_eq!(stats.chaos_kills, 1);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.lost, 0);
        // The respawn lands later in the housekeeping tick than the
        // requeue that let the batch finish; poll briefly for it.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sched.stats().respawns == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sched.stats().respawns >= 1, "the dead worker was replaced");
        sched.drain();
    }

    #[test]
    fn heartbeat_loss_cancels_and_retries_the_attempt() {
        let mut cfg = fast_cfg(2);
        cfg.chaos = ChaosPlan { stall_at: Some((1, 1)), ..ChaosPlan::none() };
        let sched = Scheduler::start(cfg);
        // The job ticks progress in a loop until cancelled — on the
        // stalled attempt the housekeeper sees no progress (decoy cell)
        // and reclaims; the retry runs with a live heartbeat and exits
        // promptly via its own attempt number.
        let job = JobSpec {
            workload: "w".to_string(),
            predictor: "fake".to_string(),
            run: Arc::new(move |ctx: &JobCtx| {
                if ctx.attempt == 1 {
                    // Simulate a long run: keep ticking until cancelled.
                    while !ctx.cancel.load(Ordering::SeqCst) {
                        ctx.progress.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // Cancelled mid-run: degraded result (would be
                    // discarded as stale anyway).
                    failed_result("w", "fake", RunFailure::Panicked("cancelled".into()))
                } else {
                    ok_result("w", "fake")
                }
            }),
            remote: None,
            on_delivered: None,
        };
        let results = sched.submit(vec![job]).expect("admitted").wait();
        assert!(results[0].ok(), "retry delivered a clean result");
        assert_eq!(results[0].attempts, 2);
        assert_eq!(sched.stats().reclaimed, 1);
        // The cancelled first attempt releases its lease a beat after
        // the retry delivers; poll briefly for the stale-discard count.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sched.stats().stale == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sched.stats().stale, 1, "the cancelled attempt's result was discarded");
        sched.drain();
    }

    #[test]
    fn exhausted_attempts_degrade_to_lost_not_hang() {
        let mut cfg = fast_cfg(2);
        cfg.max_attempts = 2;
        // Attempt 1 is killed outright; attempt 2 runs with a suppressed
        // heartbeat — the job burns its whole attempt budget.
        cfg.chaos =
            ChaosPlan { kill_at: Some((1, 1)), stall_at: Some((1, 2)), ..ChaosPlan::none() };
        let sched = Scheduler::start(cfg);
        let job = JobSpec {
            workload: "doomed".to_string(),
            predictor: "fake".to_string(),
            run: Arc::new(move |ctx: &JobCtx| {
                // Attempt 2 runs with a suppressed heartbeat and ticks
                // until cancelled (so it stalls from the table's view).
                while !ctx.cancel.load(Ordering::SeqCst) {
                    ctx.progress.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                }
                failed_result("doomed", "fake", RunFailure::Panicked("cancelled".into()))
            }),
            remote: None,
            on_delivered: None,
        };
        let results = sched.submit(vec![job]).expect("admitted").wait();
        let failure = results[0].failure.as_ref().expect("job was lost");
        assert_eq!(failure.kind(), "lost");
        assert_eq!(results[0].attempts, 2, "both attempts were consumed");
        assert_eq!(sched.stats().lost, 1);
        sched.drain();
    }

    #[test]
    fn delivery_hook_fires_exactly_once_per_job() {
        let sched = Scheduler::start(fast_cfg(2));
        let hook_count = Arc::new(AtomicU64::new(0));
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| {
                let c = Arc::clone(&hook_count);
                let w = format!("w{i}");
                JobSpec {
                    workload: w.clone(),
                    predictor: "fake".to_string(),
                    run: Arc::new(move |_: &JobCtx| ok_result(&w, "fake")),
                            remote: None,
                    on_delivered: Some(Arc::new(move |_: &RunResult| {
                        c.fetch_add(1, Ordering::SeqCst);
                    })),
                }
            })
            .collect();
        sched.submit(jobs).expect("admitted").wait();
        assert_eq!(hook_count.load(Ordering::SeqCst), 6);
        sched.drain();
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_outstanding() {
        let sched = Arc::new(Scheduler::start(fast_cfg(2)));
        let ran = Arc::new(AtomicU64::new(0));
        let slow: Vec<JobSpec> = (0..4)
            .map(|i| {
                let c = Arc::clone(&ran);
                let w = format!("w{i}");
                JobSpec {
                    workload: w.clone(),
                    predictor: "fake".to_string(),
                    run: Arc::new(move |ctx: &JobCtx| {
                        std::thread::sleep(Duration::from_millis(10));
                        ctx.progress.fetch_add(1, Ordering::SeqCst);
                        c.fetch_add(1, Ordering::SeqCst);
                        ok_result(&w, "fake")
                    }),
                            remote: None,
                    on_delivered: None,
                }
            })
            .collect();
        let handle = sched.submit(slow).expect("admitted");
        let drainer = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.drain())
        };
        // Wait for the drain to take effect, then try to submit.
        while !sched.draining() {
            std::thread::yield_now();
        }
        let refused = sched.submit(vec![counting_job(Arc::clone(&ran), "late")]);
        assert_eq!(refused.err(), Some(SubmitError::Draining));
        let results = handle.wait();
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(RunResult::ok), "outstanding work finished during drain");
        drainer.join().expect("drain completes");
        assert_eq!(ran.load(Ordering::SeqCst), 4, "the refused job never ran");
    }

    // ---- remote-worker fencing -------------------------------------

    /// A job that spins (heartbeating) until `gate` opens — pins a local
    /// worker so remote-capable jobs stay in the deque for a
    /// [`RemoteSession`] to steal.
    fn gated_job(gate: Arc<AtomicBool>) -> JobSpec {
        JobSpec {
            workload: "blocker".to_string(),
            predictor: "fake".to_string(),
            run: Arc::new(move |ctx: &JobCtx| {
                while !gate.load(Ordering::SeqCst) {
                    ctx.progress.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                }
                ok_result("blocker", "fake")
            }),
            remote: None,
            on_delivered: None,
        }
    }

    /// A remote-capable fake job: runs instantly when a local worker
    /// gets it, and carries the wire hooks a [`RemoteSession`] needs.
    fn remote_job(workload: &str) -> JobSpec {
        let w = workload.to_string();
        let w_run = w.clone();
        JobSpec {
            workload: w.clone(),
            predictor: "fake".to_string(),
            run: Arc::new(move |ctx: &JobCtx| {
                ctx.progress.fetch_add(1, Ordering::SeqCst);
                ok_result(&w_run, "fake")
            }),
            remote: Some(RemoteCell {
                insts: 1_000,
                iters: 10,
                timeout_ms: None,
                on_start: Arc::new(|_| {}),
                finish: Arc::new(|out: RemoteOutcome| {
                    crate::harness::remote_result(&out.status, out.detail.as_deref(), out.record)
                }),
            }),
            on_delivered: None,
        }
    }

    /// The wire form of a clean result for `workload`: the compact
    /// record line plus the `crc32:` digest over those exact bytes.
    fn wire_record(workload: &str) -> (String, String) {
        let record = ok_result(workload, "fake").to_record().to_json();
        (record.render_compact(), crate::journal::record_digest(&record))
    }

    /// A config whose heartbeat is long enough that an unbeaten lease
    /// survives the few milliseconds these tests hold one.
    fn calm_cfg(workers: usize) -> SchedConfig {
        SchedConfig {
            lease: LeaseConfig {
                heartbeat: Duration::from_secs(5),
                max_age: Duration::from_secs(30),
            },
            ..fast_cfg(workers)
        }
    }

    #[test]
    fn remote_delivery_is_fenced_at_most_once() {
        let sched = Scheduler::start(calm_cfg(1));
        let gate = Arc::new(AtomicBool::new(false));
        let handle =
            sched.submit(vec![gated_job(Arc::clone(&gate)), remote_job("r1")]).expect("admitted");
        let session = sched.register_remote("box-a");
        let grants = session.lease(4);
        assert_eq!(grants.len(), 1, "only the remote-capable job is stealable");
        let g = &grants[0];
        assert_eq!((g.workload.as_str(), g.attempt), ("r1", 1));
        assert!(g.fence > 0, "fence 0 is reserved");
        assert!(session.beat(&[(g.fence, 5)]).is_empty(), "live lease is not revoked");
        let (line, digest) = wire_record("r1");
        let first = session.deliver(g.fence, "ok", None, &line, &digest);
        assert!(matches!(first, RemoteVerdict::Fresh), "first delivery lands: {first:?}");
        // The duplicate redelivery (worker retrying after a lost ack) is
        // fenced off — at most once, exactly like the local lease gate.
        let dup = session.deliver(g.fence, "ok", None, &line, &digest);
        assert!(matches!(dup, RemoteVerdict::Stale), "duplicate is stale: {dup:?}");
        gate.store(true, Ordering::SeqCst);
        let results = handle.wait();
        assert!(results.iter().all(RunResult::ok));
        let stats = sched.stats();
        assert_eq!(stats.remote_delivered, 1);
        assert_eq!(stats.remote_stale, 1);
        sched.drain();
    }

    #[test]
    fn corrupt_delivery_keeps_the_fence_live_for_an_intact_retry() {
        let sched = Scheduler::start(calm_cfg(1));
        let gate = Arc::new(AtomicBool::new(false));
        let handle =
            sched.submit(vec![gated_job(Arc::clone(&gate)), remote_job("r2")]).expect("admitted");
        let session = sched.register_remote("box-b");
        let g = session.lease(1).pop().expect("granted");
        let (line, digest) = wire_record("r2");
        let bad = session.deliver(g.fence, "ok", None, &line, "crc32:00000000");
        assert!(matches!(bad, RemoteVerdict::Corrupt(_)), "digest mismatch refused: {bad:?}");
        let truncated = &line[..line.len() / 2];
        let bad = session.deliver(g.fence, "ok", None, truncated, &digest);
        assert!(matches!(bad, RemoteVerdict::Corrupt(_)), "truncated record refused: {bad:?}");
        // Wrong-cell record (label mismatch) is refused even with a
        // valid digest over its own bytes.
        let (other_line, other_digest) = wire_record("not-r2");
        let bad = session.deliver(g.fence, "ok", None, &other_line, &other_digest);
        assert!(matches!(bad, RemoteVerdict::Corrupt(_)), "label mismatch refused: {bad:?}");
        let good = session.deliver(g.fence, "ok", None, &line, &digest);
        assert!(matches!(good, RemoteVerdict::Fresh), "intact redelivery lands: {good:?}");
        gate.store(true, Ordering::SeqCst);
        assert!(handle.wait().iter().all(RunResult::ok));
        sched.drain();
    }

    #[test]
    fn reclaimed_lease_fences_off_the_resurrected_worker() {
        let sched = Scheduler::start(fast_cfg(1));
        let gate = Arc::new(AtomicBool::new(false));
        let handle =
            sched.submit(vec![gated_job(Arc::clone(&gate)), remote_job("r3")]).expect("admitted");
        let session = sched.register_remote("box-c");
        let g = session.lease(1).pop().expect("granted");
        // Never beat: the housekeeper declares the lease wedged
        // (heartbeat 40ms in fast_cfg) and requeues the cell.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sched.stats().reclaimed == 0 {
            assert!(std::time::Instant::now() < deadline, "lease was never reclaimed");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The local worker retries the cell (attempt 2) once unblocked.
        gate.store(true, Ordering::SeqCst);
        let results = handle.wait();
        assert!(results.iter().all(RunResult::ok));
        assert_eq!(results[1].attempts, 2, "retry after reclamation");
        // The partitioned worker resurfaces and delivers attempt 1:
        // fenced off as stale, never double-counted.
        let (line, digest) = wire_record("r3");
        let late = session.deliver(g.fence, "ok", None, &line, &digest);
        assert!(matches!(late, RemoteVerdict::Stale), "stale fence rejected: {late:?}");
        assert_eq!(sched.stats().remote_delivered, 0);
        assert!(sched.stats().remote_stale >= 1);
        sched.drain();
    }

    #[test]
    fn dead_remote_worker_reclaims_to_a_local_drain() {
        let sched = Scheduler::start(fast_cfg(1));
        let gate = Arc::new(AtomicBool::new(false));
        let handle =
            sched.submit(vec![gated_job(Arc::clone(&gate)), remote_job("r4")]).expect("admitted");
        let session = sched.register_remote("box-d");
        let g = session.lease(1).pop().expect("granted");
        assert_eq!(sched.remote_workers(), 1);
        // Connection loss: the session drops, the worker is dead, and
        // the housekeeper reclaims its lease like a died local worker's.
        session.disconnect();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sched.stats().reclaimed == 0 {
            assert!(std::time::Instant::now() < deadline, "dead remote never reclaimed");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sched.remote_workers(), 0, "dead remote is forgotten");
        // Graceful degradation: the local workers drain everything.
        gate.store(true, Ordering::SeqCst);
        let results = handle.wait();
        assert!(results.iter().all(RunResult::ok));
        let late = session.deliver(g.fence, "ok", None, "{}", "crc32:00000000");
        assert!(matches!(late, RemoteVerdict::Stale), "post-mortem delivery fenced: {late:?}");
        sched.drain();
    }
}
