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
use crate::harness::{failed_result, RunFailure, RunResult};
use crate::pool;
use std::collections::{HashMap, VecDeque};
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
}

#[derive(Default)]
struct StatCells {
    reclaimed: AtomicU64,
    stale: AtomicU64,
    lost: AtomicU64,
    respawns: AtomicU64,
    chaos_kills: AtomicU64,
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
    stats: StatCells,
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
        }
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
            inner.leases.expire(|w| !alive[w].load(Ordering::SeqCst))
        };
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
}
