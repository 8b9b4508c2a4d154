//! Core configuration and the processor-generation presets used by the
//! paper's Fig. 2 trend study.

use crate::check::CheckConfig;
use phast_branch::{DirectionConfig, TageConfig};
use phast_mem::HierarchyConfig;

/// How memory-order violations squash the pipeline (§IV-A1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSquashPolicy {
    /// Squash when the violating load reaches commit (the paper's
    /// evaluated configuration): only architecturally real violations
    /// cost a squash.
    Lazy,
    /// Squash as soon as the violation is detected (store-execute time):
    /// faster recovery, but wrong-path "violations" squash too. Training
    /// happens at detection in this mode (a commit-time update would need
    /// the §IV-A1 side buffer).
    Eager,
}

/// When the memory dependence predictor is trained after a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainPoint {
    /// Train as soon as the violation is detected (store-execute time).
    /// The paper found the state-of-the-art baselines prefer this.
    Detect,
    /// Train when the violating load reaches commit — the dependence is
    /// then guaranteed architectural. PHAST prefers this (§IV-A1).
    Commit,
}

/// Per-class execution port counts.
#[derive(Clone, Copy, Debug)]
pub struct Ports {
    /// Integer ALU ports (also multiply/divide).
    pub int: u32,
    /// Floating-point ports.
    pub fp: u32,
    /// Load ports (parallel LQ/L1D searches per cycle).
    pub load: u32,
    /// Store ports.
    pub store: u32,
    /// Branch-resolution ports.
    pub branch: u32,
}

impl Ports {
    /// Total port count (the paper quotes 12 for Alder Lake).
    pub fn total(&self) -> u32 {
        self.int + self.fp + self.load + self.store + self.branch
    }
}

/// Full configuration of the out-of-order core.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Instructions fetched (and dispatched) per cycle.
    pub fetch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-queue entries (dispatched but not yet issued).
    pub iq_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// Store-queue/store-buffer entries (dispatch until written back).
    pub sq_size: usize,
    /// Execution ports.
    pub ports: Ports,
    /// Cycles between fetch and earliest issue (front-end depth; also the
    /// bulk of the squash penalty).
    pub frontend_latency: u32,
    /// Extra cycles to redirect fetch after a squash.
    pub redirect_penalty: u32,
    /// Memory hierarchy parameters.
    pub memory: HierarchyConfig,
    /// Conditional-direction predictor: TAGE at its default
    /// configuration in every preset; Fig. 1 sweeps the older ones.
    pub direction: DirectionConfig,
    /// When to train the memory dependence predictor.
    pub train_point: TrainPoint,
    /// When to squash on a memory-order violation.
    pub mem_squash: MemSquashPolicy,
    /// §IV-A1 forwarding filter: ignore "violations" from stores older
    /// than the store that forwarded the load's data (Fig. 3c). On for
    /// every headline result; Fig. 12 evaluates it off.
    pub forwarding_filter: bool,
    /// Safety net: abort if no instruction commits for this many cycles.
    pub deadlock_cycles: u64,
    /// Integrity machinery (lockstep checking, invariant audits, fault
    /// injection). The default is on in debug builds, off in release.
    pub check: CheckConfig,
}

impl CoreConfig {
    /// Alder-Lake-like core (paper Table I): 6-wide front end, 12 ports,
    /// 512/204/192/114 ROB/IQ/LQ/SB, 12-wide commit.
    pub fn alder_lake() -> CoreConfig {
        CoreConfig {
            name: "alderlake",
            fetch_width: 6,
            commit_width: 12,
            rob_size: 512,
            iq_size: 204,
            lq_size: 192,
            sq_size: 114,
            ports: Ports { int: 4, fp: 3, load: 3, store: 2, branch: 2 },
            frontend_latency: 12,
            redirect_penalty: 2,
            memory: HierarchyConfig::default(),
            direction: DirectionConfig::Tage(TageConfig::default()),
            train_point: TrainPoint::Detect,
            mem_squash: MemSquashPolicy::Lazy,
            forwarding_filter: true,
            deadlock_cycles: 200_000,
            check: CheckConfig::default(),
        }
    }

    /// Nehalem-like core (2008): 4-wide, 128-entry ROB.
    pub fn nehalem() -> CoreConfig {
        use phast_mem::CacheConfig;
        CoreConfig {
            name: "nehalem",
            fetch_width: 4,
            commit_width: 4,
            rob_size: 128,
            iq_size: 36,
            lq_size: 48,
            sq_size: 32,
            ports: Ports { int: 3, fp: 1, load: 1, store: 1, branch: 1 },
            frontend_latency: 10,
            redirect_penalty: 2,
            memory: HierarchyConfig {
                l1i: CacheConfig { size_bytes: 32 * 1024, ways: 4, hit_latency: 4, mshrs: 16 },
                l1d: CacheConfig { size_bytes: 32 * 1024, ways: 8, hit_latency: 4, mshrs: 16 },
                l2: CacheConfig { size_bytes: 256 * 1024, ways: 8, hit_latency: 10, mshrs: 32 },
                l3: CacheConfig {
                    size_bytes: 8 * 1024 * 1024,
                    ways: 16,
                    hit_latency: 35,
                    mshrs: 32,
                },
                dram_latency: 120,
                prefetcher: Default::default(),
            },
            direction: DirectionConfig::Tage(TageConfig::default()),
            train_point: TrainPoint::Detect,
            mem_squash: MemSquashPolicy::Lazy,
            forwarding_filter: true,
            deadlock_cycles: 200_000,
            check: CheckConfig::default(),
        }
    }

    /// Haswell-like core (2013): 4-wide, 192-entry ROB.
    pub fn haswell() -> CoreConfig {
        use phast_mem::CacheConfig;
        CoreConfig {
            name: "haswell",
            fetch_width: 4,
            commit_width: 4,
            rob_size: 192,
            iq_size: 60,
            lq_size: 72,
            sq_size: 42,
            ports: Ports { int: 4, fp: 2, load: 2, store: 1, branch: 1 },
            frontend_latency: 11,
            redirect_penalty: 2,
            memory: HierarchyConfig {
                l1i: CacheConfig { size_bytes: 32 * 1024, ways: 8, hit_latency: 4, mshrs: 32 },
                l1d: CacheConfig { size_bytes: 32 * 1024, ways: 8, hit_latency: 4, mshrs: 32 },
                l2: CacheConfig { size_bytes: 256 * 1024, ways: 8, hit_latency: 12, mshrs: 32 },
                l3: CacheConfig {
                    size_bytes: 8 * 1024 * 1024,
                    ways: 16,
                    hit_latency: 34,
                    mshrs: 32,
                },
                dram_latency: 110,
                prefetcher: Default::default(),
            },
            direction: DirectionConfig::Tage(TageConfig::default()),
            train_point: TrainPoint::Detect,
            mem_squash: MemSquashPolicy::Lazy,
            forwarding_filter: true,
            deadlock_cycles: 200_000,
            check: CheckConfig::default(),
        }
    }

    /// Skylake-like core (2015): 5-wide, 224-entry ROB.
    pub fn skylake() -> CoreConfig {
        use phast_mem::CacheConfig;
        CoreConfig {
            name: "skylake",
            fetch_width: 5,
            commit_width: 6,
            rob_size: 224,
            iq_size: 97,
            lq_size: 72,
            sq_size: 56,
            ports: Ports { int: 4, fp: 2, load: 2, store: 1, branch: 2 },
            frontend_latency: 11,
            redirect_penalty: 2,
            memory: HierarchyConfig {
                l1i: CacheConfig { size_bytes: 32 * 1024, ways: 8, hit_latency: 4, mshrs: 32 },
                l1d: CacheConfig { size_bytes: 32 * 1024, ways: 8, hit_latency: 4, mshrs: 64 },
                l2: CacheConfig { size_bytes: 1024 * 1024, ways: 16, hit_latency: 13, mshrs: 64 },
                l3: CacheConfig {
                    size_bytes: 8 * 1024 * 1024,
                    ways: 16,
                    hit_latency: 34,
                    mshrs: 64,
                },
                dram_latency: 105,
                prefetcher: Default::default(),
            },
            direction: DirectionConfig::Tage(TageConfig::default()),
            train_point: TrainPoint::Detect,
            mem_squash: MemSquashPolicy::Lazy,
            forwarding_filter: true,
            deadlock_cycles: 200_000,
            check: CheckConfig::default(),
        }
    }

    /// All generation presets, oldest first (Fig. 2 x-axis).
    pub fn generations() -> Vec<CoreConfig> {
        vec![
            CoreConfig::nehalem(),
            CoreConfig::haswell(),
            CoreConfig::skylake(),
            CoreConfig::alder_lake(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alder_lake_matches_table_1() {
        let c = CoreConfig::alder_lake();
        assert_eq!(c.fetch_width, 6, "6-wide fetch and decode");
        assert_eq!(c.commit_width, 12, "12-wide commit");
        assert_eq!((c.rob_size, c.iq_size, c.lq_size, c.sq_size), (512, 204, 192, 114));
        assert_eq!(c.ports.load, 3, "3 load ports");
        assert_eq!(c.ports.store, 2, "2 store ports");
        assert_eq!(c.ports.total(), 14);
    }

    #[test]
    fn generations_grow_monotonically() {
        let gens = CoreConfig::generations();
        for w in gens.windows(2) {
            assert!(w[0].rob_size < w[1].rob_size, "ROB grows across generations");
            assert!(w[0].sq_size < w[1].sq_size, "SQ grows across generations");
        }
    }
}
