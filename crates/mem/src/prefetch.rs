//! IP-stride prefetcher (Table I: "IP-stride with a prefetch degree of 3").

use phast_isa::Pc;

/// Configuration of the [`StridePrefetcher`].
#[derive(Clone, Copy, Debug)]
pub struct StridePrefetcherConfig {
    /// Number of entries in the PC-indexed stride table (power of two).
    pub entries: usize,
    /// How many strides ahead to prefetch once a stride is confirmed.
    pub degree: u32,
    /// Confidence needed before issuing prefetches (stride repeats).
    pub threshold: u8,
}

impl Default for StridePrefetcherConfig {
    fn default() -> StridePrefetcherConfig {
        StridePrefetcherConfig { entries: 256, degree: 3, threshold: 2 }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    tag: u32,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// Classic per-instruction-pointer stride detector.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    cfg: StridePrefetcherConfig,
    table: Vec<Entry>,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates a prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(cfg: StridePrefetcherConfig) -> StridePrefetcher {
        assert!(cfg.entries.is_power_of_two(), "entries must be a power of two");
        StridePrefetcher { table: vec![Entry::default(); cfg.entries], cfg, issued: 0 }
    }

    /// Observes a demand load and returns the addresses to prefetch.
    pub fn observe(&mut self, pc: Pc, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(pc, addr, &mut out);
        out
    }

    /// Observes a demand load, appending the addresses to prefetch to
    /// `out` (cleared first). Allocation-free when `out` has capacity for
    /// the prefetch degree — the cycle-loop hot path reuses one buffer.
    pub fn observe_into(&mut self, pc: Pc, addr: u64, out: &mut Vec<u64>) {
        out.clear();
        let idx = ((pc >> 2) as usize) & (self.cfg.entries - 1);
        let tag = (pc >> 2) as u32;
        let e = &mut self.table[idx];
        if e.tag == tag && (e.confidence > 0 || e.last_addr != 0) {
            let stride = addr.wrapping_sub(e.last_addr) as i64;
            if stride == e.stride && stride != 0 {
                e.confidence = (e.confidence + 1).min(7);
                if e.confidence >= self.cfg.threshold {
                    for d in 1..=self.cfg.degree {
                        out.push(addr.wrapping_add((stride * i64::from(d)) as u64));
                    }
                    self.issued += out.len() as u64;
                }
            } else {
                e.stride = stride;
                e.confidence = 0;
            }
            e.last_addr = addr;
        } else {
            *e = Entry { tag, last_addr: addr, stride: 0, confidence: 0 };
        }
    }

    /// Total prefetch addresses produced so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_constant_stride() {
        let mut p = StridePrefetcher::new(StridePrefetcherConfig::default());
        let pc = 0x40_0010;
        assert!(p.observe(pc, 0x1000).is_empty(), "first touch trains");
        assert!(p.observe(pc, 0x1040).is_empty(), "stride learned");
        assert!(p.observe(pc, 0x1080).is_empty(), "confidence builds");
        let pf = p.observe(pc, 0x10c0);
        assert_eq!(pf, vec![0x1100, 0x1140, 0x1180], "degree-3 prefetch");
    }

    #[test]
    fn resets_on_stride_change() {
        let mut p = StridePrefetcher::new(StridePrefetcherConfig::default());
        let pc = 0x40_0010;
        p.observe(pc, 0x1000);
        p.observe(pc, 0x1040);
        p.observe(pc, 0x1080);
        p.observe(pc, 0x10c0);
        assert!(p.observe(pc, 0x9000).is_empty(), "stride break stops prefetching");
        assert!(p.observe(pc, 0x9040).is_empty(), "must re-earn confidence");
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = StridePrefetcher::new(StridePrefetcherConfig::default());
        p.observe(0x40_0010, 0x1000);
        p.observe(0x40_0014, 0x2000);
        p.observe(0x40_0010, 0x1040);
        p.observe(0x40_0014, 0x2040);
        p.observe(0x40_0010, 0x1080);
        p.observe(0x40_0014, 0x2080);
        assert!(!p.observe(0x40_0010, 0x10c0).is_empty());
        assert!(!p.observe(0x40_0014, 0x20c0).is_empty());
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StridePrefetcher::new(StridePrefetcherConfig::default());
        let pc = 0x40_0010;
        for _ in 0..10 {
            assert!(p.observe(pc, 0x5000).is_empty(), "same address repeatedly");
        }
    }
}
