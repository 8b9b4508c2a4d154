//! The full cache hierarchy: L1I, L1D, L2, L3, DRAM, plus the L1D
//! IP-stride prefetcher.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::prefetch::{StridePrefetcher, StridePrefetcherConfig};
use crate::line_of;
use phast_isa::Pc;

/// What kind of access is being performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (uses L1I).
    Fetch,
    /// Demand data load (uses L1D, trains the prefetcher).
    Load,
    /// Committed store writing back from the store buffer (uses L1D).
    Store,
}

/// Configuration of the whole hierarchy. Defaults follow Table I of the
/// paper (Alder-Lake-like).
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3 (all banks aggregated; latency is the banked latency).
    pub l3: CacheConfig,
    /// Flat DRAM access latency in cycles.
    pub dram_latency: u64,
    /// L1D prefetcher configuration.
    pub prefetcher: StridePrefetcherConfig,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig { size_bytes: 32 * 1024, ways: 8, hit_latency: 4, mshrs: 64 },
            l1d: CacheConfig { size_bytes: 48 * 1024, ways: 12, hit_latency: 5, mshrs: 64 },
            l2: CacheConfig { size_bytes: 1280 * 1024, ways: 10, hit_latency: 14, mshrs: 64 },
            l3: CacheConfig { size_bytes: 4 * 3 * 1024 * 1024, ways: 12, hit_latency: 36, mshrs: 64 },
            dram_latency: 100,
            prefetcher: StridePrefetcherConfig::default(),
        }
    }
}

/// Aggregated statistics for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    /// Per-level (l1i, l1d, l2, l3) stats.
    pub l1i: CacheStats,
    /// L1D stats.
    pub l1d: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// L3 stats.
    pub l3: CacheStats,
    /// Demand accesses that went all the way to DRAM.
    pub dram_accesses: u64,
}

/// The memory hierarchy latency model.
///
/// `access` returns the cycle at which the requested data is available,
/// updating tag state eagerly (a common simplification in trace-driven
/// simulators: the fill is installed at request time but timed correctly).
#[derive(Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    dram_latency: u64,
    prefetcher: StridePrefetcher,
    dram_accesses: u64,
    /// Reusable scratch buffer for prefetch candidates (keeps the access
    /// path allocation-free in steady state).
    pf_buf: Vec<u64>,
    /// Line of the most recent data-side *warm* access. A consecutive
    /// warm access to the same line is an L1D hit whose only effect is
    /// re-stamping an LRU entry that is already the youngest in its set,
    /// so the walk is skipped — exact as long as nothing else has touched
    /// L1D in between, which every other L1D-touching path guarantees by
    /// clearing the marker.
    warm_data_line: Option<u64>,
}

impl Hierarchy {
    /// Creates a hierarchy with cold caches.
    pub fn new(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            dram_latency: cfg.dram_latency,
            prefetcher: StridePrefetcher::new(cfg.prefetcher),
            dram_accesses: 0,
            pf_buf: Vec::with_capacity(cfg.prefetcher.degree as usize),
            warm_data_line: None,
        }
    }

    /// Performs an access at cycle `now`; returns the completion cycle.
    ///
    /// For `Load` accesses, `pc` trains the IP-stride prefetcher and
    /// confirmed streams are prefetched into L1D.
    pub fn access(&mut self, kind: AccessKind, pc: Pc, addr: u64, now: u64) -> u64 {
        let line = line_of(addr);
        let done = match kind {
            AccessKind::Fetch => self.access_from(Level::L1I, line, now),
            AccessKind::Load | AccessKind::Store => {
                self.warm_data_line = None;
                self.access_from(Level::L1D, line, now)
            }
        };
        if kind == AccessKind::Load {
            let mut pf_buf = std::mem::take(&mut self.pf_buf);
            self.prefetcher.observe_into(pc, addr, &mut pf_buf);
            for &pf_addr in &pf_buf {
                self.prefetch(line_of(pf_addr), now);
            }
            self.pf_buf = pf_buf;
        }
        done
    }

    fn access_from(&mut self, first: Level, line: u64, now: u64) -> u64 {
        let l1 = match first {
            Level::L1I => &mut self.l1i,
            Level::L1D => &mut self.l1d,
        };
        let l1_lat = l1.hit_latency();
        if l1.probe(line) {
            l1.note_hit();
            return now + l1_lat;
        }
        // L1 miss: find the data below, charge cumulative latency.
        let fill_done = if self.l2.probe(line) {
            self.l2.note_hit();
            now + l1_lat + self.l2.hit_latency()
        } else if self.l3.probe(line) {
            self.l3.note_hit();
            let done = now + l1_lat + self.l2.hit_latency() + self.l3.hit_latency();
            self.l2.track_miss(line, now, done);
            self.l2.fill(line);
            done
        } else {
            self.dram_accesses += 1;
            let done = now
                + l1_lat
                + self.l2.hit_latency()
                + self.l3.hit_latency()
                + self.dram_latency;
            let done = self.l3.track_miss(line, now, done);
            self.l3.fill(line);
            self.l2.track_miss(line, now, done);
            self.l2.fill(line);
            done
        };
        let l1 = match first {
            Level::L1I => &mut self.l1i,
            Level::L1D => &mut self.l1d,
        };
        let done = l1.track_miss(line, now, fill_done);
        l1.fill(line);
        done
    }

    /// Warms the hierarchy with an access that moves tag/LRU state exactly
    /// like [`access`](Self::access) but records **no statistics** (no
    /// hit/miss counts, no MSHR timing, no DRAM accounting). Used by the
    /// sampled-simulation engine to warm caches during functional
    /// fast-forward without polluting the detailed window's demand stats.
    ///
    /// For `Load` accesses the prefetcher is trained and confirmed streams
    /// are installed (also stat-free), mirroring the demand path.
    pub fn warm(&mut self, kind: AccessKind, pc: Pc, addr: u64) {
        let line = line_of(addr);
        match kind {
            AccessKind::Fetch => self.warm_from(Level::L1I, line),
            AccessKind::Load | AccessKind::Store => {
                if self.warm_data_line != Some(line) {
                    self.warm_from(Level::L1D, line);
                    self.warm_data_line = Some(line);
                }
            }
        }
        if kind == AccessKind::Load {
            let mut pf_buf = std::mem::take(&mut self.pf_buf);
            self.prefetcher.observe_into(pc, addr, &mut pf_buf);
            if !pf_buf.is_empty() {
                // Prefetch probes/fills touch L1D, so the skip argument
                // above no longer holds for the next access.
                self.warm_data_line = None;
            }
            for &pf_addr in &pf_buf {
                let pf_line = line_of(pf_addr);
                if !self.l1d.probe(pf_line) {
                    self.warm_from(Level::L1D, pf_line);
                }
            }
            self.pf_buf = pf_buf;
        }
    }

    /// Stat-free tag walk of [`access_from`](Self::access_from): probes the
    /// same levels in the same order and fills the same lines, touching
    /// only replacement state.
    fn warm_from(&mut self, first: Level, line: u64) {
        let l1 = match first {
            Level::L1I => &mut self.l1i,
            Level::L1D => &mut self.l1d,
        };
        if l1.probe(line) {
            return;
        }
        if !self.l2.probe(line) {
            if !self.l3.probe(line) {
                self.l3.fill(line);
            }
            self.l2.fill(line);
        }
        let l1 = match first {
            Level::L1I => &mut self.l1i,
            Level::L1D => &mut self.l1d,
        };
        l1.fill(line);
    }

    fn prefetch(&mut self, line: u64, now: u64) {
        if self.l1d.probe(line) {
            return;
        }
        // Prefetches ride the regular path but are not demand misses for
        // accounting; install into L1D.
        let _ = self.access_from(Level::L1D, line, now);
        self.l1d.note_prefetch_fill();
    }

    /// The shared L3, for inspecting its storage
    /// ([`Cache::allocated_sets`]).
    pub fn l3(&self) -> &Cache {
        &self.l3
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            l3: *self.l3.stats(),
            dram_accesses: self.dram_accesses,
        }
    }
}

#[derive(Clone, Copy)]
enum Level {
    L1I,
    L1D,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn cold_load_pays_full_latency() {
        let mut m = h();
        let done = m.access(AccessKind::Load, 0x40_0000, 0x1_0000, 0);
        assert_eq!(done, 5 + 14 + 36 + 100, "L1D + L2 + L3 + DRAM");
        assert_eq!(m.stats().dram_accesses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = h();
        m.access(AccessKind::Load, 0x40_0000, 0x1_0000, 0);
        let done = m.access(AccessKind::Load, 0x40_0000, 0x1_0000, 200);
        assert_eq!(done, 205, "L1D hit latency is 5");
    }

    #[test]
    fn fetch_uses_l1i() {
        let mut m = h();
        let done = m.access(AccessKind::Fetch, 0x40_0000, 0x40_0000, 0);
        assert_eq!(done, 4 + 14 + 36 + 100);
        let done2 = m.access(AccessKind::Fetch, 0x40_0000, 0x40_0000, 200);
        assert_eq!(done2, 204, "L1I hit latency is 4");
    }

    #[test]
    fn i_and_d_do_not_share_l1() {
        let mut m = h();
        m.access(AccessKind::Fetch, 0x40_0000, 0x5000, 0);
        // Same line through the D-side: misses L1D but hits L2.
        let done = m.access(AccessKind::Load, 0x40_0000, 0x5000, 200);
        assert_eq!(done, 200 + 5 + 14, "hits in L2 which was filled by the fetch path");
    }

    #[test]
    fn stride_stream_gets_prefetched() {
        let mut m = h();
        let pc = 0x40_0100;
        let mut t = 0;
        for i in 0..4u64 {
            t = m.access(AccessKind::Load, pc, 0x2_0000 + i * 64, t);
        }
        // The 4th access issued prefetches for +1..+3 lines; the 5th access
        // should now hit in L1D.
        let before = t;
        let done = m.access(AccessKind::Load, pc, 0x2_0000 + 4 * 64, before);
        assert_eq!(done, before + 5, "prefetched line hits in L1D");
        assert!(m.stats().l1d.prefetch_fills > 0);
    }

    #[test]
    fn warm_moves_tags_without_stats() {
        let mut m = h();
        m.warm(AccessKind::Load, 0x40_0000, 0x1_0000);
        let s = m.stats();
        assert_eq!(s.l1d.hits, 0);
        assert_eq!(s.l1d.misses, 0);
        assert_eq!(s.dram_accesses, 0, "warming must not count demand DRAM accesses");
        // The warmed line now hits at L1D latency like any resident line.
        let done = m.access(AccessKind::Load, 0x40_0000, 0x1_0000, 100);
        assert_eq!(done, 105, "warmed line hits in L1D");
        assert_eq!(m.stats().l1d.hits, 1);
    }

    #[test]
    fn warm_trains_prefetcher_like_demand_path() {
        let mut warm = h();
        let mut demand = h();
        let pc = 0x40_0100;
        let mut t = 0;
        for i in 0..4u64 {
            warm.warm(AccessKind::Load, pc, 0x2_0000 + i * 64);
            t = demand.access(AccessKind::Load, pc, 0x2_0000 + i * 64, t);
        }
        // Both hierarchies should have the +1 line resident after the
        // confirmed stride stream.
        let w = warm.access(AccessKind::Load, pc, 0x2_0000 + 4 * 64, 1000);
        let d = demand.access(AccessKind::Load, pc, 0x2_0000 + 4 * 64, 1000);
        assert_eq!(w, d, "warm path installs the same prefetch lines");
        assert_eq!(w, 1005);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = h();
        m.access(AccessKind::Load, 0x40_0000, 0x9000, 0);
        m.access(AccessKind::Load, 0x40_0000, 0x9000, 100);
        let s = m.stats();
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l1d.hits, 1);
    }
}
