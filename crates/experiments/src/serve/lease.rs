//! Job leases: every running attempt is held under a lease with a
//! liveness obligation, and leases that go bad are reclaimed.
//!
//! A worker **acquires** a lease when it picks a job up and **releases**
//! it when it delivers the result. In between, the housekeeper
//! ([`crate::serve::sched`]) periodically [`expire`](LeaseTable::expire)s
//! the table; a lease is reclaimed when
//!
//! * its worker thread is dead (panic escaped the job boundary, or the
//!   chaos harness simulated a `SIGKILL`),
//! * its **progress heartbeat** stalls — the simulation's cycle loop
//!   bumps a shared counter every `DEADLINE_CHECK_INTERVAL` cycles via
//!   [`Deadline::tick`](phast_ooo::Deadline::tick), so "no counter
//!   movement for a whole heartbeat window" means the run is wedged, not
//!   merely slow, or
//! * the lease exceeds its hard age cap.
//!
//! Reclaiming raises the lease's cooperative cancellation flag (a still-
//! running attempt stops at its next deadline poll instead of racing its
//! replacement) and removes the entry, which is what makes delivery
//! **at-most-once**: [`release`](LeaseTable::release) returns `false` for
//! a reclaimed attempt, telling the worker its result is stale and must
//! be discarded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Liveness policy for leases.
#[derive(Clone, Copy, Debug)]
pub struct LeaseConfig {
    /// Maximum time a lease may go without observed forward progress
    /// before it is reclaimed as stalled.
    pub heartbeat: Duration,
    /// Hard cap on a single attempt's total lease age, progress or not.
    pub max_age: Duration,
}

impl Default for LeaseConfig {
    /// Production defaults: generous enough that a legitimate build phase
    /// (workload + predictor construction runs before the first cycle
    /// ticks the counter) never trips the stall detector.
    fn default() -> LeaseConfig {
        LeaseConfig { heartbeat: Duration::from_secs(10), max_age: Duration::from_secs(600) }
    }
}

/// One held lease: who runs the attempt, since when, and the shared
/// state the housekeeper observes.
struct Lease {
    attempt: u64,
    worker: usize,
    started: Instant,
    /// The progress cell the running simulation bumps.
    observed: Arc<AtomicU64>,
    /// Counter value at the last heartbeat, and when it was seen to move.
    last_seen: u64,
    last_beat: Instant,
    cancel: Arc<AtomicBool>,
}

/// What a worker holds while running an attempt: the cancellation flag to
/// plumb into the run's `Deadline`, and the progress cell the lease
/// watches.
pub struct LeaseGrant {
    /// Job id the lease covers.
    pub job: u64,
    /// Attempt number the lease covers.
    pub attempt: u64,
    /// Cooperative cancellation flag; raised when the lease is reclaimed.
    pub cancel: Arc<AtomicBool>,
    observed: Arc<AtomicU64>,
    suppressed: bool,
}

impl LeaseGrant {
    /// The progress cell the running job should tick. Under chaos
    /// heartbeat suppression this is a *decoy* cell the lease table does
    /// not watch, so the attempt looks wedged to the housekeeper while
    /// genuinely advancing — exactly the failure a lost heartbeat
    /// produces in a distributed setting.
    pub fn progress(&self) -> Arc<AtomicU64> {
        if self.suppressed {
            Arc::new(AtomicU64::new(0))
        } else {
            Arc::clone(&self.observed)
        }
    }
}

/// A reclaimed lease, as reported by [`LeaseTable::expire`].
#[derive(Clone, Debug)]
pub struct Expired {
    /// Job whose lease was reclaimed.
    pub job: u64,
    /// The attempt that was underway.
    pub attempt: u64,
    /// Worker that held the lease.
    pub worker: usize,
    /// Human-readable reclaim reason (worker death, heartbeat loss,
    /// age cap).
    pub reason: String,
}

/// The table of currently held leases. All operations lock one mutex;
/// the table is touched once per job pickup/delivery and once per
/// housekeeping tick, never on the simulation hot path.
pub struct LeaseTable {
    cfg: LeaseConfig,
    held: Mutex<HashMap<u64, Lease>>,
}

impl LeaseTable {
    /// An empty table under the given liveness policy.
    pub fn new(cfg: LeaseConfig) -> LeaseTable {
        LeaseTable { cfg, held: Mutex::new(HashMap::new()) }
    }

    /// Acquires the lease for `(job, attempt)` on behalf of `worker`.
    /// `suppress_heartbeat` arms the chaos decoy (see
    /// [`LeaseGrant::progress`]).
    pub fn acquire(
        &self,
        job: u64,
        attempt: u64,
        worker: usize,
        suppress_heartbeat: bool,
    ) -> LeaseGrant {
        let observed = Arc::new(AtomicU64::new(0));
        let cancel = Arc::new(AtomicBool::new(false));
        let now = Instant::now();
        let lease = Lease {
            attempt,
            worker,
            started: now,
            observed: Arc::clone(&observed),
            last_seen: 0,
            last_beat: now,
            cancel: Arc::clone(&cancel),
        };
        let prior = self.held.lock().expect("lease table").insert(job, lease);
        debug_assert!(prior.is_none(), "job {job} double-leased");
        LeaseGrant { job, attempt, cancel, observed, suppressed: suppress_heartbeat }
    }

    /// Releases the lease for `(job, attempt)`. Returns `true` if this
    /// attempt still held it — the result is fresh and must be delivered
    /// — or `false` if the housekeeper reclaimed it first, in which case
    /// the result is stale and must be discarded (a replacement attempt
    /// owns the job now).
    pub fn release(&self, job: u64, attempt: u64) -> bool {
        let mut held = self.held.lock().expect("lease table");
        match held.get(&job) {
            Some(l) if l.attempt == attempt => {
                held.remove(&job);
                true
            }
            _ => false,
        }
    }

    /// One housekeeping pass: reclaims every bad lease (dead worker,
    /// stalled heartbeat, age cap), raising its cancellation flag and
    /// removing it from the table. `worker_dead` reports whether a worker
    /// index is known to have exited.
    pub fn expire(&self, worker_dead: impl Fn(usize) -> bool) -> Vec<Expired> {
        let now = Instant::now();
        let mut held = self.held.lock().expect("lease table");
        let mut reclaimed = Vec::new();
        held.retain(|&job, lease| {
            let cur = lease.observed.load(Ordering::Relaxed);
            if cur != lease.last_seen {
                lease.last_seen = cur;
                lease.last_beat = now;
            }
            let reason = if worker_dead(lease.worker) {
                Some(format!("worker {} died", lease.worker))
            } else if now.duration_since(lease.last_beat) > self.cfg.heartbeat {
                Some(format!(
                    "heartbeat lost: no progress for {}ms",
                    now.duration_since(lease.last_beat).as_millis()
                ))
            } else if now.duration_since(lease.started) > self.cfg.max_age {
                Some(format!("lease exceeded {}s age cap", self.cfg.max_age.as_secs()))
            } else {
                None
            };
            match reason {
                Some(reason) => {
                    lease.cancel.store(true, Ordering::Relaxed);
                    reclaimed.push(Expired {
                        job,
                        attempt: lease.attempt,
                        worker: lease.worker,
                        reason,
                    });
                    false
                }
                None => true,
            }
        });
        reclaimed
    }

    /// Number of leases currently held.
    pub fn held(&self) -> usize {
        self.held.lock().expect("lease table").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> LeaseConfig {
        LeaseConfig { heartbeat: Duration::from_millis(20), max_age: Duration::from_secs(60) }
    }

    #[test]
    fn release_is_at_most_once() {
        let t = LeaseTable::new(fast());
        let g = t.acquire(1, 1, 0, false);
        assert_eq!(t.held(), 1);
        assert!(t.release(g.job, g.attempt), "fresh attempt delivers");
        assert!(!t.release(g.job, g.attempt), "second release is stale");
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn dead_worker_lease_is_reclaimed_and_cancelled() {
        let t = LeaseTable::new(fast());
        let g = t.acquire(7, 1, 3, false);
        let reclaimed = t.expire(|w| w == 3);
        assert_eq!(reclaimed.len(), 1);
        assert_eq!(reclaimed[0].job, 7);
        assert!(reclaimed[0].reason.contains("worker 3 died"), "{}", reclaimed[0].reason);
        assert!(g.cancel.load(Ordering::Relaxed), "reclaim raises cancel");
        assert!(!t.release(7, 1), "reclaimed attempt is stale");
    }

    #[test]
    fn advancing_heartbeat_keeps_the_lease_alive() {
        let t = LeaseTable::new(fast());
        let g = t.acquire(1, 1, 0, false);
        for _ in 0..3 {
            g.progress().fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(10));
            assert!(t.expire(|_| false).is_empty(), "progress defers the stall detector");
        }
        // Now stop ticking: the stall detector fires within a window.
        std::thread::sleep(Duration::from_millis(30));
        let reclaimed = t.expire(|_| false);
        assert_eq!(reclaimed.len(), 1);
        assert!(reclaimed[0].reason.contains("heartbeat lost"), "{}", reclaimed[0].reason);
    }

    #[test]
    fn suppressed_grant_hands_out_a_decoy_cell() {
        let t = LeaseTable::new(fast());
        let g = t.acquire(1, 1, 0, true);
        // The job ticks its (decoy) cell constantly...
        g.progress().fetch_add(100, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(30));
        // ...but the table watches the real cell, which never moved.
        let reclaimed = t.expire(|_| false);
        assert_eq!(reclaimed.len(), 1, "suppressed heartbeat looks like a stall");
    }

    #[test]
    fn newer_attempt_is_not_clobbered_by_a_stale_release() {
        let t = LeaseTable::new(fast());
        let _g1 = t.acquire(5, 1, 0, false);
        let _ = t.expire(|w| w == 0); // attempt 1 reclaimed
        let _g2 = t.acquire(5, 2, 1, false);
        assert!(!t.release(5, 1), "attempt 1 is stale");
        assert!(t.release(5, 2), "attempt 2 owns the job");
    }
}
