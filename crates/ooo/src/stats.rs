//! Simulation statistics and the paper's derived metrics.

use phast_mdp::AccessStats;
use phast_mem::{CacheStats, HierarchyStats};

/// Everything measured during one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub committed_loads: u64,
    /// Stores committed.
    pub committed_stores: u64,
    /// Conditional branches committed.
    pub committed_cond_branches: u64,
    /// Conditional-branch mispredictions (resolved on the committed path).
    pub branch_mispredicts: u64,
    /// Indirect-target mispredictions (indirect jumps and returns).
    pub indirect_mispredicts: u64,
    /// Memory-order violations squashed at commit (MDP false negatives).
    pub violations: u64,
    /// Committed loads delayed by a dependence prediction that did not
    /// forward from the awaited store (MDP false positives).
    pub false_dependences: u64,
    /// Loads that received at least one byte by store-to-load forwarding.
    pub forwarded_loads: u64,
    /// Squashes suppressed by the §IV-A1 forwarding filter.
    pub filtered_violations: u64,
    /// Total instructions discarded by squashes (wrong-path work).
    pub squashed_uops: u64,
    /// Loads whose issue was delayed by an MDP prediction.
    pub mdp_stalled_loads: u64,
    /// Predictor table traffic.
    pub predictor_accesses: AccessStats,
    /// Memory hierarchy statistics.
    pub memory: HierarchyStats,
    /// True if the program ran to its `Halt` before any budget expired.
    pub halted: bool,
    /// True if the cycle ceiling expired before the run finished: the
    /// statistics are truncated mid-flight, not a clean sample. Only set
    /// by the infallible legacy entry points; `try_run`/`try_simulate`
    /// report the ceiling as an error instead.
    pub ceiling_hit: bool,
    /// Commits cross-checked against the reference emulator (lockstep).
    pub checked_commits: u64,
    /// Faults deliberately injected into speculation state.
    pub injected_faults: u64,
    /// Structural-invariant audits performed.
    pub invariant_audits: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Memory-order-violation mispredictions per kilo-instruction
    /// (the paper's false-negative MPKI, red markers in Fig. 1/14).
    pub fn violation_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            1000.0 * self.violations as f64 / self.committed as f64
        }
    }

    /// False-dependence mispredictions per kilo-instruction
    /// (the paper's false-positive MPKI, green markers in Fig. 1/14).
    pub fn false_dep_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            1000.0 * self.false_dependences as f64 / self.committed as f64
        }
    }

    /// Total MDP MPKI (violations + false dependences).
    pub fn total_mpki(&self) -> f64 {
        self.violation_mpki() + self.false_dep_mpki()
    }

    /// Conditional-branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            1000.0 * self.branch_mispredicts as f64 / self.committed as f64
        }
    }

    /// The counters of the span between two cumulative snapshots of one
    /// run, `self` taken after `before`: field-wise `self − before`, with
    /// `self`'s flags. A sampled window's statistics are this delta
    /// between two resumable `try_run` calls.
    pub fn since(&self, before: &SimStats) -> SimStats {
        self.combine(before, |a, b| a - b, |a, _| a, CacheStats::since)
    }

    /// Field-wise `self + wt × other`, with the flags OR'd: the weighted
    /// sum of sampled windows' statistics.
    pub fn add_weighted(&self, other: &SimStats, wt: u64) -> SimStats {
        self.combine(other, |a, b| a + wt * b, |a, b| a || b, |a, b| a.add_weighted(b, wt))
    }

    /// One field list for [`since`](Self::since) and
    /// [`add_weighted`](Self::add_weighted): `count` over each pair of
    /// counters, `flag` over each pair of flags, `cache` over each cache
    /// level. Destructured and rebuilt without `..`, so a new field does
    /// not compile until it is handled here.
    fn combine(
        &self,
        other: &SimStats,
        count: impl Fn(u64, u64) -> u64,
        flag: impl Fn(bool, bool) -> bool,
        cache: impl Fn(CacheStats, CacheStats) -> CacheStats,
    ) -> SimStats {
        let SimStats {
            cycles,
            committed,
            committed_loads,
            committed_stores,
            committed_cond_branches,
            branch_mispredicts,
            indirect_mispredicts,
            violations,
            false_dependences,
            forwarded_loads,
            filtered_violations,
            squashed_uops,
            mdp_stalled_loads,
            predictor_accesses: AccessStats { reads, writes },
            memory: HierarchyStats { l1i, l1d, l2, l3, dram_accesses },
            halted,
            ceiling_hit,
            checked_commits,
            injected_faults,
            invariant_audits,
        } = *self;
        let m = &other.memory;
        SimStats {
            cycles: count(cycles, other.cycles),
            committed: count(committed, other.committed),
            committed_loads: count(committed_loads, other.committed_loads),
            committed_stores: count(committed_stores, other.committed_stores),
            committed_cond_branches: count(committed_cond_branches, other.committed_cond_branches),
            branch_mispredicts: count(branch_mispredicts, other.branch_mispredicts),
            indirect_mispredicts: count(indirect_mispredicts, other.indirect_mispredicts),
            violations: count(violations, other.violations),
            false_dependences: count(false_dependences, other.false_dependences),
            forwarded_loads: count(forwarded_loads, other.forwarded_loads),
            filtered_violations: count(filtered_violations, other.filtered_violations),
            squashed_uops: count(squashed_uops, other.squashed_uops),
            mdp_stalled_loads: count(mdp_stalled_loads, other.mdp_stalled_loads),
            predictor_accesses: AccessStats {
                reads: count(reads, other.predictor_accesses.reads),
                writes: count(writes, other.predictor_accesses.writes),
            },
            memory: HierarchyStats {
                l1i: cache(l1i, m.l1i),
                l1d: cache(l1d, m.l1d),
                l2: cache(l2, m.l2),
                l3: cache(l3, m.l3),
                dram_accesses: count(dram_accesses, m.dram_accesses),
            },
            halted: flag(halted, other.halted),
            ceiling_hit: flag(ceiling_hit, other.ceiling_hit),
            checked_commits: count(checked_commits, other.checked_commits),
            injected_faults: count(injected_faults, other.injected_faults),
            invariant_audits: count(invariant_audits, other.invariant_audits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1000,
            committed: 4000,
            violations: 8,
            false_dependences: 4,
            branch_mispredicts: 40,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 4.0);
        assert_eq!(s.violation_mpki(), 2.0);
        assert_eq!(s.false_dep_mpki(), 1.0);
        assert_eq!(s.total_mpki(), 3.0);
        assert_eq!(s.branch_mpki(), 10.0);
    }

    #[test]
    fn window_arithmetic_covers_every_field() {
        let cache = |n| CacheStats {
            hits: n,
            misses: n + 1,
            mshr_merges: n + 2,
            mshr_stall_cycles: n + 3,
            prefetch_fills: n + 4,
        };
        let w = SimStats {
            cycles: 100,
            committed: 400,
            violations: 3,
            predictor_accesses: AccessStats { reads: 7, writes: 5 },
            memory: HierarchyStats {
                l1i: cache(10),
                l1d: cache(20),
                l2: cache(30),
                l3: cache(40),
                dram_accesses: 9,
            },
            halted: true,
            invariant_audits: 2,
            ..SimStats::default()
        };
        // Distinct values per field, so a field mapped to another one's
        // counter breaks the round trip.
        let tripled = SimStats::default().add_weighted(&w, 3);
        assert_eq!(tripled.memory.l3.prefetch_fills, 132);
        assert!(tripled.halted && !tripled.ceiling_hit);
        let doubled = w.add_weighted(&w, 1);
        assert_eq!(format!("{:?}", tripled.since(&doubled)), format!("{w:?}"));
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.total_mpki(), 0.0);
    }
}
