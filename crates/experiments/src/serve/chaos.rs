//! Seeded fault injection for the service layer itself.
//!
//! The simulator already has a fault-injection plane
//! (`phast_ooo::check::FaultPlan`) that perturbs *predictions*; this
//! module perturbs the **daemon** — workers die mid-lease, heartbeats go
//! silent — so the lease/reclaim machinery in [`crate::serve::sched`] is
//! exercised by tests the same way the simulator's resilience is: from a
//! seed, deterministically, with no wall-clock or OS randomness in the
//! decision path.
//!
//! Decisions are pure functions of `(seed, job id, attempt)`, so a chaos
//! schedule replays identically across runs and across machines, and a
//! retried attempt of the same job draws a *fresh* decision — a job
//! killed on attempt 1 is not doomed to be killed on attempt 2.

/// Denominator for the per-pickup chaos rates (matches the simulator's
/// fault-plan convention of rates per 4096).
pub const CHAOS_DENOM: u64 = 4096;

/// A seeded schedule of service-layer faults, consulted by each worker
/// when it picks a job up.
///
/// The default plan injects nothing; tests arm individual knobs. The
/// `kill_job`/`stall_job` knobs target one exact `(job, attempt)` pickup
/// for tests that need a scripted fault rather than a statistical one.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Seed for the per-pickup decisions.
    pub seed: u64,
    /// Rate (per [`CHAOS_DENOM`] pickups) at which the worker thread dies
    /// on the spot — holding its lease, running nothing, unwinding
    /// nothing — as a stand-in for `SIGKILL` / OOM-kill.
    pub kill_worker: u64,
    /// Rate (per [`CHAOS_DENOM`] pickups) at which the job runs with its
    /// progress heartbeat disconnected, so the housekeeper sees a
    /// wedged lease even though the simulation is advancing.
    pub drop_heartbeat: u64,
    /// Kill the worker deterministically on exactly this `(job, attempt)`
    /// pickup (in addition to the statistical rate).
    pub kill_at: Option<(u64, u64)>,
    /// Disconnect the heartbeat deterministically on exactly this
    /// `(job, attempt)` pickup.
    pub stall_at: Option<(u64, u64)>,
}

impl ChaosPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Should the worker picking up `(job, attempt)` die holding the
    /// lease?
    pub fn kills_worker(&self, job: u64, attempt: u64) -> bool {
        if self.kill_at == Some((job, attempt)) {
            return true;
        }
        self.kill_worker > 0 && draw(self.seed, job, attempt, 0x6b69) < self.kill_worker
    }

    /// Should `(job, attempt)` run with its heartbeat disconnected?
    pub fn drops_heartbeat(&self, job: u64, attempt: u64) -> bool {
        if self.stall_at == Some((job, attempt)) {
            return true;
        }
        self.drop_heartbeat > 0 && draw(self.seed, job, attempt, 0x6862) < self.drop_heartbeat
    }

    /// True if this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.kill_worker == 0
            && self.drop_heartbeat == 0
            && self.kill_at.is_none()
            && self.stall_at.is_none()
    }
}

/// One deterministic draw in `[0, CHAOS_DENOM)` from the decision tuple —
/// a splitmix64 finalizer over the mixed inputs, the same generator
/// family the simulator's fault plan uses.
fn draw(seed: u64, job: u64, attempt: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(job.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(attempt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z % CHAOS_DENOM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = ChaosPlan::none();
        assert!(p.is_inert());
        for job in 0..64 {
            for attempt in 1..4 {
                assert!(!p.kills_worker(job, attempt));
                assert!(!p.drops_heartbeat(job, attempt));
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = ChaosPlan { seed: 7, kill_worker: 512, drop_heartbeat: 512, ..ChaosPlan::none() };
        let b = a.clone();
        let draws: Vec<(bool, bool)> =
            (0..256).map(|j| (a.kills_worker(j, 1), a.drops_heartbeat(j, 1))).collect();
        let again: Vec<(bool, bool)> =
            (0..256).map(|j| (b.kills_worker(j, 1), b.drops_heartbeat(j, 1))).collect();
        assert_eq!(draws, again);
        // At rate 512/4096 (1 in 8), 256 pickups should see both outcomes.
        assert!(draws.iter().any(|d| d.0), "some pickups draw a kill");
        assert!(draws.iter().any(|d| !d.0), "most pickups do not");
    }

    #[test]
    fn retried_attempts_draw_fresh_decisions() {
        let p = ChaosPlan { seed: 3, kill_worker: 2048, ..ChaosPlan::none() };
        let flips = (0..512).filter(|&j| p.kills_worker(j, 1) != p.kills_worker(j, 2)).count();
        assert!(flips > 0, "attempt number participates in the draw");
    }

    #[test]
    fn scripted_faults_target_one_exact_pickup() {
        let p = ChaosPlan { kill_at: Some((5, 1)), stall_at: Some((9, 2)), ..ChaosPlan::none() };
        assert!(p.kills_worker(5, 1));
        assert!(!p.kills_worker(5, 2), "retry of the killed job survives");
        assert!(!p.kills_worker(4, 1));
        assert!(p.drops_heartbeat(9, 2));
        assert!(!p.drops_heartbeat(9, 1));
    }
}
