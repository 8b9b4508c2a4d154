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

/// Sets per block of tag storage: the unit a [`Cache`] allocates on the
/// first fill into it and a clone copies.
const BLOCK_SETS: usize = 64;

/// The tags and LRU stamps of [`BLOCK_SETS`] consecutive sets (all of
/// them in a smaller cache), `ways` consecutive entries per set.
#[derive(Clone, Debug)]
struct Block {
    tags: Box<[u64]>,
    /// Last-use stamp of each way, parallel to `tags`. A way is valid iff
    /// its stamp is non-zero: stamps come from `lru_clock`, which is
    /// incremented before every use, so a zeroed block is empty.
    lru: Box<[u32]>,
}

impl Block {
    /// The ways of the set whose first way is at `base`.
    #[inline]
    fn set(&mut self, base: usize, ways: usize) -> (&mut [u64], &mut [u32]) {
        let ways = base..base + ways;
        (&mut self.tags[ways.clone()], &mut self.lru[ways])
    }
}

/// One cache level: tag array + MSHRs.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag storage, one slot per [`BLOCK_SETS`] consecutive sets, empty
    /// until the first fill into one of them; a probe of an empty slot
    /// misses without allocating. A cache, and each clone of it (sampled
    /// simulation snapshots every level), holds only the blocks a run has
    /// filled, while a probe still walks one contiguous span per set.
    blocks: Vec<Option<Block>>,
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
            blocks: vec![None; sets.div_ceil(BLOCK_SETS)],
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

    /// Sets this cache holds storage for: every set of each block that a
    /// fill has reached. What a clone of it copies.
    pub fn allocated_sets(&self) -> usize {
        self.blocks.iter().flatten().count() * self.block_sets()
    }

    fn block_sets(&self) -> usize {
        (self.set_mask + 1).min(BLOCK_SETS)
    }

    /// `line`'s block slot and the offset of its set's first way there.
    #[inline]
    fn locate(&self, line: u64) -> (usize, usize) {
        let set = (line as usize) & self.set_mask;
        (set / BLOCK_SETS, set % BLOCK_SETS * self.cfg.ways)
    }

    /// The tags and stamps of `line`'s set, allocating its block (empty)
    /// if no fill has reached it yet.
    fn set_or_allocate(&mut self, line: u64) -> (&mut [u64], &mut [u32]) {
        let (slot, base) = self.locate(line);
        let (ways, len) = (self.cfg.ways, self.block_sets() * self.cfg.ways);
        let block = self.blocks[slot]
            .get_or_insert_with(|| Block { tags: vec![0; len].into(), lru: vec![0; len].into() });
        block.set(base, ways)
    }

    /// Looks up `line`, updating LRU on hit. Returns true on hit.
    pub fn probe(&mut self, line: u64) -> bool {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let (slot, base) = self.locate(line);
        let ways = self.cfg.ways;
        let Some(block) = &mut self.blocks[slot] else { return false };
        let (tags, lru) = block.set(base, ways);
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
        let (tags, lru) = self.set_or_allocate(line);
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

    /// Sets the model test reaches: blocks 0 and 1 take presets and ops
    /// (sets 63 and 64 straddle their boundary), block 2 only ops, so its
    /// first ops probe it unallocated, and block 3 only probes, so it is
    /// never filled.
    const MODEL_SETS: [u64; 7] = [0, 1, 63, 64, 127, 130, 255];
    const PROBE_ONLY_SET: u64 = 255;

    /// 256 sets × 4 ways: four blocks.
    fn four_blocks() -> Cache {
        Cache::new(CacheConfig { size_bytes: 256 * 4 * 64, ways: 4, hit_latency: 1, mshrs: 1 })
    }

    #[test]
    fn probes_never_allocate() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 12 * 1024 * 1024,
            ways: 12,
            hit_latency: 36,
            mshrs: 64,
        });
        for line in (0..100_000).step_by(7) {
            assert!(!c.probe(line));
        }
        assert_eq!(c.allocated_sets(), 0);
        assert_eq!(c.lru_clock, 14_286, "every probe advances the clock");
    }

    #[test]
    fn a_fill_allocates_exactly_its_own_block() {
        let mut c = four_blocks();
        c.fill(130);
        assert_eq!(c.allocated_sets(), 64);
        let filled: Vec<usize> = (0..4).filter(|&b| c.blocks[b].is_some()).collect();
        assert_eq!(filled, [2], "sets 128..192 form block 2");
        c.fill(130 + 256);
        c.fill(191);
        assert_eq!(c.allocated_sets(), 64, "more fills into block 2 allocate nothing");
        c.fill(63);
        assert_eq!(c.allocated_sets(), 128);
        assert!(c.blocks[0].is_some() && c.blocks[1].is_none() && c.blocks[3].is_none());
        assert_eq!(small().allocated_sets(), 0);
        let mut s = small();
        s.fill(3);
        assert_eq!(s.allocated_sets(), 4, "a cache smaller than a block is one block");
    }

    #[test]
    fn a_clone_driven_like_its_original_returns_the_same_results() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(29);
        // Eight lines per set of the first `sets` sets.
        let mut op = move |sets: u64| {
            (rng.gen::<bool>(), rng.gen_range(0..sets) + 256 * rng.gen_range(0..8u64))
        };
        // The original fills blocks 0 and 1 only; the clone copies them,
        // and both then allocate blocks 2 and 3 on their own.
        let mut original = four_blocks();
        for _ in 0..2_000 {
            let (is_fill, line) = op(128);
            if is_fill {
                original.fill(line);
            } else {
                original.probe(line);
            }
        }
        let mut clone = original.clone();
        assert_eq!(clone.allocated_sets(), 128);
        for i in 0..4_000 {
            let (is_fill, line) = op(256);
            if is_fill {
                assert_eq!(clone.fill(line), original.fill(line), "op {i} fill {line}");
            } else {
                assert_eq!(clone.probe(line), original.probe(line), "op {i} probe {line}");
            }
        }
        assert_eq!((clone.allocated_sets(), original.allocated_sets()), (256, 256));
    }

    /// The `Vec<Way>` layout the block storage replaced, kept as its
    /// reference model.
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
        /// The same probe/fill stream gives the same hits, evictions and
        /// clock as the `Vec<Way>` model, from states with invalid ways
        /// whose tags match probed lines and with valid ways of equal
        /// stamps, across four blocks of which one is probed but never
        /// filled and one is first probed unallocated.
        #[test]
        fn matches_the_array_of_ways_model(
            preset in vec((0usize..5, 0usize..4, 0u64..6, 0u32..4), 0..12),
            ops in vec((any::<bool>(), 0usize..MODEL_SETS.len(), 0u64..6), 1..200),
        ) {
            // Line `set + 256k` for k in 0..6 puts six lines in a 4-way set.
            let mut cache = four_blocks();
            let mut model =
                WayModel { ways: vec![Way::default(); 1024], n_ways: 4, set_mask: 255, lru_clock: 0 };
            // Presets go to blocks 0 and 1, written through the block
            // layout. Stamps 0..4 tie with each other and with the first
            // ops' stamps; a 0 stamp leaves the way invalid with a stale
            // tag.
            for (s, w, k, stamp) in preset {
                let set = MODEL_SETS[s];
                let tag = set + 256 * k;
                let (tags, lru) = cache.set_or_allocate(set);
                tags[w] = tag;
                lru[w] = stamp;
                model.ways[set as usize * 4 + w] = Way { valid: stamp != 0, tag, lru: stamp };
            }
            for (i, (is_fill, s, k)) in ops.into_iter().enumerate() {
                let line = MODEL_SETS[s] + 256 * k;
                if is_fill && MODEL_SETS[s] != PROBE_ONLY_SET {
                    let (got, want) = (cache.fill(line), model.fill(line));
                    prop_assert_eq!(got, want, "op {} fill {}", i, line);
                } else {
                    let (got, want) = (cache.probe(line), model.probe(line));
                    prop_assert_eq!(got, want, "op {} probe {}", i, line);
                }
            }
            prop_assert_eq!(cache.lru_clock, model.lru_clock);
            prop_assert!(cache.blocks[3].is_none(), "probes never allocate");
        }
    }
}
