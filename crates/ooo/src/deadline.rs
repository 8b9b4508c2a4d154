//! Cooperative per-run watchdog: wall-clock deadlines.
//!
//! A [`Deadline`] is a cheap token a caller plumbs into
//! [`Core::try_run_within`](crate::Core::try_run_within) (or
//! [`try_simulate_within`](crate::try_simulate_within)). The cycle loop
//! polls it on the existing cycle-ceiling path — once every
//! [`DEADLINE_CHECK_INTERVAL`] cycles, so the steady-state loop stays
//! allocation-free and the poll cost is amortized to nothing — and
//! converts an expired deadline into a structured
//! [`SimError::Deadline`](crate::SimError::Deadline) instead of letting a
//! hung run stall a whole sweep.
//!
//! The token is *cooperative*: it cannot interrupt a single simulated
//! cycle, only stop the run between cycles. That is exactly the guarantee
//! the sweep engine needs — a run that has genuinely wedged inside one
//! cycle would already have tripped the deadlock watchdog or an invariant
//! audit.

use std::time::{Duration, Instant};

/// How often (in cycles) the core polls its [`Deadline`]. A power of two,
/// so the check is a mask against the cycle counter.
pub const DEADLINE_CHECK_INTERVAL: u64 = 2048;

/// A wall-clock deadline for one simulation run.
///
/// The default token is unbounded: [`Deadline::expired`] is `false`
/// forever and polling it costs one `Option` discriminant read.
#[derive(Clone, Debug, Default)]
pub struct Deadline {
    started: Option<Instant>,
    at: Option<Instant>,
}

impl Deadline {
    /// An unbounded token: never expires.
    pub fn none() -> Deadline {
        Deadline::default()
    }

    /// A deadline `budget` of wall-clock time from now. A budget that
    /// reaches past what the clock can represent never expires.
    pub fn after(budget: Duration) -> Deadline {
        let now = Instant::now();
        Deadline { started: Some(now), at: now.checked_add(budget) }
    }

    /// True once the wall-clock deadline has passed.
    pub fn expired(&self) -> bool {
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Wall-clock time since the token was created (zero for unbounded
    /// tokens, which never record a start).
    pub fn elapsed(&self) -> Duration {
        self.started.map(|s| s.elapsed()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert_eq!(d.elapsed(), Duration::ZERO);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
    }

    #[test]
    fn generous_budget_has_not_expired_yet() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
    }

    #[test]
    fn check_interval_is_a_power_of_two() {
        assert!(DEADLINE_CHECK_INTERVAL.is_power_of_two());
    }
}
