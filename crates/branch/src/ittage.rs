//! ITTAGE indirect-target predictor (Seznec, CBP-2 2011).
//!
//! The paper's front end pairs TAGE-SC-L with an ITTAGE-style indirect
//! predictor; our core defaults to a last-target table but can use this
//! tagged, geometric-history predictor for indirect jumps and returns,
//! which matters on dispatch-heavy workloads (povray/blender-like).

use phast_isa::{BlockId, Pc};

/// Configuration of an [`Ittage`] predictor.
#[derive(Clone, Debug)]
pub struct IttageConfig {
    /// log2 of the base (history-less) table size.
    pub base_log2: u32,
    /// log2 of each tagged table size.
    pub tagged_log2: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// Geometric history lengths (≤ 64 each), shortest first.
    pub history_lengths: Vec<u32>,
    /// Halve the usefulness counters after this many updates.
    pub reset_period: u64,
}

impl Default for IttageConfig {
    fn default() -> IttageConfig {
        IttageConfig {
            base_log2: 9,
            tagged_log2: 8,
            tag_bits: 9,
            history_lengths: vec![2, 4, 8, 16, 32, 64],
            reset_period: 256 * 1024,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    valid: bool,
    tag: u16,
    target: BlockId,
    confidence: u8, // 2-bit
    useful: u8,     // 1-bit
}

impl Default for Entry {
    fn default() -> Entry {
        Entry { valid: false, tag: 0, target: BlockId(0), confidence: 0, useful: 0 }
    }
}

/// Tagged geometric-history indirect-target predictor.
#[derive(Clone, Debug)]
pub struct Ittage {
    cfg: IttageConfig,
    base: Vec<Option<BlockId>>,
    tables: Vec<Vec<Entry>>,
    updates: u64,
    lfsr: u32,
}

impl Ittage {
    /// Creates an ITTAGE predictor.
    ///
    /// # Panics
    ///
    /// Panics if the length list is empty or any length exceeds 64.
    pub fn new(cfg: IttageConfig) -> Ittage {
        assert!(!cfg.history_lengths.is_empty(), "need at least one tagged component");
        assert!(cfg.history_lengths.iter().all(|&h| h <= 64), "histories must fit u64 paths");
        let tables = vec![vec![Entry::default(); 1 << cfg.tagged_log2]; cfg.history_lengths.len()];
        Ittage { base: vec![None; 1 << cfg.base_log2], tables, cfg, updates: 0, lfsr: 0x1d2f }
    }

    fn fold(ghr: u128, len: u32, bits: u32) -> u64 {
        let mut acc = 0u64;
        let mask = (1u64 << bits) - 1;
        let mut remaining = len;
        let mut h = ghr;
        while remaining > 0 {
            let take = remaining.min(bits);
            acc ^= (h as u64) & ((1u64 << take) - 1);
            acc = acc.rotate_left(3) & mask | (acc >> (bits.saturating_sub(3))).min(mask);
            acc &= mask;
            h >>= take;
            remaining -= take;
        }
        acc
    }

    fn index(&self, t: usize, pc: Pc, ghr: u128) -> usize {
        let bits = self.cfg.tagged_log2;
        let h = Self::fold(ghr, self.cfg.history_lengths[t], bits);
        (((pc >> 2) ^ (pc >> 11) ^ h ^ (t as u64)) & ((1 << bits) - 1)) as usize
    }

    fn tag(&self, t: usize, pc: Pc, ghr: u128) -> u16 {
        let bits = self.cfg.tag_bits;
        let h = Self::fold(ghr, self.cfg.history_lengths[t], bits);
        (((pc >> 2) ^ (pc >> 7) ^ h.rotate_left(2)) & ((1 << bits) - 1)) as u16
    }

    fn base_index(&self, pc: Pc) -> usize {
        ((pc >> 2) & ((1 << self.cfg.base_log2) - 1)) as usize
    }

    fn provider(&self, pc: Pc, ghr: u128) -> Option<(usize, usize)> {
        (0..self.tables.len()).rev().find_map(|t| {
            let i = self.index(t, pc, ghr);
            let e = &self.tables[t][i];
            (e.valid && e.tag == self.tag(t, pc, ghr)).then_some((t, i))
        })
    }

    /// Predicts the target of the indirect branch at `pc` under history
    /// `ghr` (the same conditional-outcome history TAGE uses).
    pub fn predict(&self, pc: Pc, ghr: u128) -> Option<BlockId> {
        self.target_of(pc, self.provider(pc, ghr))
    }

    /// The target `provider` (or, without one, the base table) predicts.
    fn target_of(&self, pc: Pc, provider: Option<(usize, usize)>) -> Option<BlockId> {
        match provider {
            Some((t, i)) => Some(self.tables[t][i].target),
            None => self.base[self.base_index(pc)],
        }
    }

    /// Trains with the resolved target.
    pub fn update(&mut self, pc: Pc, ghr: u128, target: BlockId) {
        let provider = self.provider(pc, ghr);
        let predicted = self.target_of(pc, provider);

        match provider {
            Some((t, i)) => {
                let e = &mut self.tables[t][i];
                if e.target == target {
                    e.confidence = (e.confidence + 1).min(3);
                    e.useful = 1;
                } else if e.confidence > 0 {
                    e.confidence -= 1;
                } else {
                    e.target = target;
                    e.confidence = 1;
                }
            }
            None => {
                let bi = self.base_index(pc);
                self.base[bi] = Some(target);
            }
        }

        // Allocate a longer-history entry on a mispredict.
        if predicted != Some(target) {
            let start = provider.map_or(0, |(t, _)| t + 1);
            let r = {
                // 16-bit LFSR step.
                let lsb = self.lfsr & 1;
                self.lfsr >>= 1;
                if lsb != 0 {
                    self.lfsr ^= 0xB400;
                }
                self.lfsr
            };
            let n = self.tables.len();
            for t in start..n {
                let i = self.index(t, pc, ghr);
                let tag = self.tag(t, pc, ghr);
                let last = t + 1 == n;
                let e = &mut self.tables[t][i];
                if (!e.valid || e.useful == 0) && (last || r & (1 << t) == 0) {
                    *e = Entry { valid: true, tag, target, confidence: 1, useful: 0 };
                    break;
                }
            }
        }

        self.updates += 1;
        if self.updates.is_multiple_of(self.cfg.reset_period) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful = 0;
                }
            }
        }
    }

    /// Total storage in bits (valid + tag + 32-bit target + conf + u per
    /// tagged entry; 32-bit target + valid in the base table).
    pub fn storage_bits(&self) -> usize {
        let tagged = self.tables.len()
            * (1 << self.cfg.tagged_log2)
            * (1 + self.cfg.tag_bits as usize + 32 + 2 + 1);
        let base = (1 << self.cfg.base_log2) * 33;
        tagged + base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_monomorphic_target() {
        let mut p = Ittage::new(IttageConfig::default());
        for _ in 0..4 {
            p.update(0x40_0100, 0, BlockId(7));
        }
        assert_eq!(p.predict(0x40_0100, 0), Some(BlockId(7)));
    }

    #[test]
    fn separates_targets_by_history() {
        let mut p = Ittage::new(IttageConfig::default());
        let pc = 0x40_0200;
        for _ in 0..64 {
            p.update(pc, 0b01, BlockId(1));
            p.update(pc, 0b10, BlockId(2));
        }
        assert_eq!(p.predict(pc, 0b01), Some(BlockId(1)), "history 01 -> target 1");
        assert_eq!(p.predict(pc, 0b10), Some(BlockId(2)), "history 10 -> target 2");
    }

    #[test]
    fn beats_last_target_on_alternating_patterns() {
        use crate::indirect::LastTargetPredictor;
        let mut it = Ittage::new(IttageConfig::default());
        let mut lt = LastTargetPredictor::new(512);
        let pc = 0x40_0300;
        let mut ghr: u128 = 0;
        let mut it_ok = 0;
        let mut lt_ok = 0;
        for i in 0..4000u64 {
            let taken = i % 2 == 0;
            let target = if taken { BlockId(1) } else { BlockId(2) };
            if it.predict(pc, ghr) == Some(target) {
                it_ok += 1;
            }
            if lt.predict(pc) == Some(target) {
                lt_ok += 1;
            }
            it.update(pc, ghr, target);
            lt.update(pc, target);
            ghr = (ghr << 1) | u128::from(taken);
        }
        assert!(
            it_ok > lt_ok + 1000,
            "ITTAGE must crush last-target on alternation ({it_ok} vs {lt_ok})"
        );
    }

    #[test]
    fn storage_is_positive_and_stable() {
        let p = Ittage::new(IttageConfig::default());
        assert!(p.storage_bits() > 0);
        assert_eq!(p.storage_bits(), Ittage::new(IttageConfig::default()).storage_bits());
    }

    #[test]
    fn polymorphic_base_falls_back_to_last_target() {
        let mut p = Ittage::new(IttageConfig::default());
        p.update(0x40_0400, 0, BlockId(9));
        // Unseen history falls back to the base table's last target.
        assert_eq!(p.predict(0x40_0400, 0xdead_beef), Some(BlockId(9)));
    }
}
