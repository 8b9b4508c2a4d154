//! A set-associative cache tag array with true-LRU replacement and
//! MSHR-limited miss tracking.

use crate::LINE_BYTES;
use std::collections::VecDeque;

/// Geometry and timing of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles (pipelined; adds to the request's total).
    pub hit_latency: u64,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    pub fn sets(&self) -> usize {
        let sets = (self.size_bytes / LINE_BYTES) as usize / self.ways;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two, got {sets}");
        sets
    }

    /// Storage of the data array in bits (for reporting).
    pub fn storage_bits(&self) -> usize {
        (self.size_bytes * 8) as usize
    }
}

/// Per-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses merged into an already-outstanding line (MSHR hit).
    pub mshr_merges: u64,
    /// Cycles of stall charged because all MSHRs were busy.
    pub mshr_stall_cycles: u64,
    /// Lines installed by prefetch.
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// The counters of the span between two cumulative snapshots of one
    /// cache, `self` taken after `before`: field-wise `self − before`.
    pub fn since(self, before: CacheStats) -> CacheStats {
        self.combine(before, |a, b| a - b)
    }

    /// Field-wise `self + wt × other`: the weighted sum of sampled
    /// windows' counters.
    pub fn add_weighted(self, other: CacheStats, wt: u64) -> CacheStats {
        self.combine(other, |a, b| a + wt * b)
    }

    /// `f` over each pair of counters. Destructured and rebuilt without
    /// `..`, so a new counter does not compile until it is handled here.
    fn combine(self, other: CacheStats, f: impl Fn(u64, u64) -> u64) -> CacheStats {
        let CacheStats { hits, misses, mshr_merges, mshr_stall_cycles, prefetch_fills } = self;
        CacheStats {
            hits: f(hits, other.hits),
            misses: f(misses, other.misses),
            mshr_merges: f(mshr_merges, other.mshr_merges),
            mshr_stall_cycles: f(mshr_stall_cycles, other.mshr_stall_cycles),
            prefetch_fills: f(prefetch_fills, other.prefetch_fills),
        }
    }
}

/// One cache level: tag array + MSHRs.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Flat tag array, `cfg.ways` consecutive entries per set — one
    /// contiguous allocation so a probe walks a single cache-line-sized
    /// span instead of chasing a per-set pointer.
    tags: Vec<u64>,
    /// Last-use stamp of each way, parallel to `tags`. A way is valid iff
    /// its stamp is non-zero: stamps come from `lru_clock`, which is
    /// incremented before every use, so a zeroed array is an empty cache.
    /// Both arrays are allocated zeroed, which a fresh mapping provides
    /// without writing the sets a run never touches.
    lru: Vec<u32>,
    set_mask: usize,
    lru_clock: u32,
    /// Outstanding misses: (line, completion_cycle). Pruned lazily.
    inflight: VecDeque<(u64, u64)>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            cfg,
            tags: vec![0; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            set_mask: sets - 1,
            lru_clock: 0,
            inflight: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The level's statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The tags and stamps of `line`'s set.
    #[inline]
    fn set_of(&mut self, line: u64) -> (&mut [u64], &mut [u32]) {
        let base = ((line as usize) & self.set_mask) * self.cfg.ways;
        let ways = base..base + self.cfg.ways;
        (&mut self.tags[ways.clone()], &mut self.lru[ways])
    }

    /// Looks up `line`, updating LRU on hit. Returns true on hit.
    pub fn probe(&mut self, line: u64) -> bool {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let (tags, lru) = self.set_of(line);
        for (&tag, stamp) in tags.iter().zip(lru) {
            if tag == line && *stamp != 0 {
                *stamp = clock;
                return true;
            }
        }
        false
    }

    /// Installs `line`, evicting the LRU way. Returns the evicted line.
    pub fn fill(&mut self, line: u64) -> Option<u64> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let (tags, lru) = self.set_of(line);
        // Already present (e.g. a prefetch raced a demand fill): refresh.
        for (&tag, stamp) in tags.iter().zip(lru.iter_mut()) {
            if tag == line && *stamp != 0 {
                *stamp = clock;
                return None;
            }
        }
        // The first smallest stamp: an invalid way (stamp 0) if any.
        let victim = (0..lru.len()).min_by_key(|&w| lru[w]).expect("ways > 0");
        let evicted = (lru[victim] != 0).then_some(tags[victim]);
        tags[victim] = line;
        lru[victim] = clock;
        evicted
    }

    fn prune_inflight(&mut self, now: u64) {
        while let Some(&(_, done)) = self.inflight.front() {
            if done <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Accounts a miss for `line` that will be filled by `fill_done`.
    ///
    /// Returns the actual completion cycle after MSHR constraints:
    /// * if the line is already outstanding, the request merges and
    ///   completes with the existing miss;
    /// * if all MSHRs are busy, the request is delayed until one frees.
    pub fn track_miss(&mut self, line: u64, now: u64, fill_done: u64) -> u64 {
        self.prune_inflight(now);
        if let Some(&(_, done)) = self.inflight.iter().find(|(l, _)| *l == line) {
            self.stats.mshr_merges += 1;
            return done;
        }
        let mut start = now;
        if self.inflight.len() >= self.cfg.mshrs {
            // Wait for the oldest outstanding miss to retire its MSHR.
            let free_at = self.inflight[self.inflight.len() - self.cfg.mshrs].1;
            self.stats.mshr_stall_cycles += free_at.saturating_sub(now);
            start = free_at;
        }
        let done = fill_done + (start - now);
        // Keep completion order sorted so pruning stays correct.
        let pos = self.inflight.partition_point(|&(_, d)| d <= done);
        self.inflight.insert(pos, (line, done));
        self.stats.misses += 1;
        done
    }

    /// Records a demand hit.
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Records a prefetch fill.
    pub fn note_prefetch_fill(&mut self) {
        self.stats.prefetch_fills += 1;
    }

    /// Hit latency of this level.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { size_bytes: 4 * 64 * 2, ways: 2, hit_latency: 3, mshrs: 2 })
    }

    #[test]
    fn config_sets() {
        let c = CacheConfig { size_bytes: 48 * 1024, ways: 12, hit_latency: 5, mshrs: 64 };
        assert_eq!(c.sets(), 64, "48KB/12-way/64B lines = 64 sets (Alder Lake L1D)");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_bad_geometry() {
        let c = CacheConfig { size_bytes: 48 * 1024, ways: 10, hit_latency: 5, mshrs: 64 };
        let _ = c.sets();
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.probe(100));
        c.fill(100);
        assert!(c.probe(100));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(); // 4 sets, 2 ways
        // Lines 0, 4, 8 all map to set 0.
        c.fill(0);
        c.fill(4);
        assert!(c.probe(0), "refresh line 0");
        let evicted = c.fill(8);
        assert_eq!(evicted, Some(4), "line 4 is LRU");
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn mshr_merge_returns_same_completion() {
        let mut c = small();
        let d1 = c.track_miss(100, 10, 110);
        let d2 = c.track_miss(100, 12, 130);
        assert_eq!(d1, 110);
        assert_eq!(d2, 110, "second request merges into the outstanding miss");
        assert_eq!(c.stats().mshr_merges, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn mshr_exhaustion_delays() {
        let mut c = small(); // 2 MSHRs
        let d1 = c.track_miss(1, 0, 100);
        let _d2 = c.track_miss(2, 0, 100);
        let d3 = c.track_miss(3, 0, 100);
        assert_eq!(d1, 100);
        assert!(d3 > 100, "third concurrent miss must wait for an MSHR");
        assert!(c.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn mshrs_free_over_time() {
        let mut c = small();
        c.track_miss(1, 0, 50);
        c.track_miss(2, 0, 50);
        // At cycle 60, both are done; a new miss proceeds immediately.
        let d = c.track_miss(3, 60, 160);
        assert_eq!(d, 160);
    }

    #[test]
    fn fill_of_present_line_evicts_nothing() {
        let mut c = small();
        c.fill(0);
        assert_eq!(c.fill(0), None);
    }

    /// The `Vec<Way>` layout the parallel tag and stamp arrays replaced,
    /// kept as their reference model.
    #[derive(Clone, Copy, Debug, Default)]
    struct Way {
        valid: bool,
        tag: u64,
        lru: u32,
    }

    struct WayModel {
        ways: Vec<Way>,
        n_ways: usize,
        set_mask: usize,
        lru_clock: u32,
    }

    impl WayModel {
        fn set_of(&mut self, line: u64) -> &mut [Way] {
            let base = ((line as usize) & self.set_mask) * self.n_ways;
            &mut self.ways[base..base + self.n_ways]
        }

        fn probe(&mut self, line: u64) -> bool {
            self.lru_clock += 1;
            let clock = self.lru_clock;
            for way in self.set_of(line) {
                if way.valid && way.tag == line {
                    way.lru = clock;
                    return true;
                }
            }
            false
        }

        fn fill(&mut self, line: u64) -> Option<u64> {
            self.lru_clock += 1;
            let clock = self.lru_clock;
            let set = self.set_of(line);
            for way in set.iter_mut() {
                if way.valid && way.tag == line {
                    way.lru = clock;
                    return None;
                }
            }
            let victim =
                set.iter_mut().min_by_key(|w| if w.valid { w.lru } else { 0 }).expect("ways > 0");
            let evicted = victim.valid.then_some(victim.tag);
            *victim = Way { valid: true, tag: line, lru: clock };
            evicted
        }
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        /// The same probe/fill stream gives the same hits and evictions
        /// as the `Vec<Way>` model, from states with invalid ways whose
        /// tags match probed lines and with valid ways of equal stamps.
        #[test]
        fn matches_the_array_of_ways_model(
            preset in vec((0usize..16, 0u64..24, 0u32..4), 0..12),
            ops in vec((any::<bool>(), 0u64..24), 1..200),
        ) {
            // 4 sets × 4 ways; lines 0..24 put up to six lines in a set.
            let mut cache =
                Cache::new(CacheConfig { size_bytes: 16 * 64, ways: 4, hit_latency: 1, mshrs: 1 });
            let mut model =
                WayModel { ways: vec![Way::default(); 16], n_ways: 4, set_mask: 3, lru_clock: 0 };
            // Stamps 0..4 tie with each other and with the first ops'
            // stamps; a 0 stamp leaves the way invalid with a stale tag.
            for (w, tag, stamp) in preset {
                cache.tags[w] = tag;
                cache.lru[w] = stamp;
                model.ways[w] = Way { valid: stamp != 0, tag, lru: stamp };
            }
            for (i, (is_fill, line)) in ops.into_iter().enumerate() {
                if is_fill {
                    let (got, want) = (cache.fill(line), model.fill(line));
                    prop_assert_eq!(got, want, "op {} fill {}", i, line);
                } else {
                    let (got, want) = (cache.probe(line), model.probe(line));
                    prop_assert_eq!(got, want, "op {} probe {}", i, line);
                }
            }
        }
    }
}
