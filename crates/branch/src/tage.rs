//! A TAGE conditional-branch predictor (Seznec, MICRO 2011).
//!
//! The paper's simulated core uses TAGE-SC-L; we implement the TAGE core
//! (base bimodal + tagged components with geometric history lengths,
//! usefulness counters and periodic aging). The statistical corrector and
//! loop predictor are omitted — they shave a little conditional MPKI but do
//! not change memory-dependence behaviour (see DESIGN.md substitutions).

use crate::direction::DirectionPredictor;
use phast_isa::Pc;

/// Configuration of a [`Tage`] predictor.
#[derive(Clone, Debug)]
pub struct TageConfig {
    /// log2 of the base bimodal table size.
    pub base_log2: u32,
    /// log2 of each tagged table size.
    pub tagged_log2: u32,
    /// Tag width in bits for the tagged tables.
    pub tag_bits: u32,
    /// Geometric history lengths, shortest first (≤ 128 each).
    pub history_lengths: Vec<u32>,
    /// Reset the usefulness counters after this many updates.
    pub reset_period: u64,
}

impl Default for TageConfig {
    fn default() -> TageConfig {
        TageConfig {
            base_log2: 12,
            tagged_log2: 10,
            tag_bits: 10,
            history_lengths: vec![2, 4, 8, 16, 32, 64, 96, 128],
            reset_period: 512 * 1024,
        }
    }
}

#[derive(Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: u8, // 3-bit saturating, 4 = weakly taken threshold
    useful: u8,
}

/// TAGE predictor with a bimodal base and geometric tagged components.
#[derive(Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<u8>,
    tables: Vec<Vec<TaggedEntry>>,
    updates: u64,
    lfsr: u32,
}

struct Lookup {
    provider: Option<(usize, usize)>, // (table, index)
    pred: bool,
    alt_pred: bool,
}

/// Most tagged components a [`Tage`] may have, so one lookup's keys fit a
/// fixed array.
const MAX_COMPONENTS: usize = 16;

/// One tagged component's table index and tag for a (pc, history) pair.
/// Eight bytes, so one lookup's key array is 128 bytes, which the compiler
/// zeroes and moves inline rather than through a libc call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Key {
    index: u32,
    tag: u16,
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any history length exceeds 128 or the length list is empty
    /// or longer than 16.
    pub fn new(cfg: TageConfig) -> Tage {
        assert!(!cfg.history_lengths.is_empty(), "need at least one tagged component");
        assert!(cfg.history_lengths.len() <= MAX_COMPONENTS, "at most 16 tagged components");
        assert!(cfg.history_lengths.iter().all(|&h| h <= 128), "histories must fit u128");
        let tables =
            vec![vec![TaggedEntry::default(); 1 << cfg.tagged_log2]; cfg.history_lengths.len()];
        Tage { base: vec![1; 1 << cfg.base_log2], tables, cfg, updates: 0, lfsr: 0xace1 }
    }

    /// XOR of the `bits`-wide chunks of the `len` newest history bits.
    ///
    /// Computed by doubling: after the step at shift `s`, bit `p` holds
    /// the XOR of the bits at `p`, `p + bits`, … up to `p + 2s − bits`, so
    /// once `2s ≥ len` the low `bits` bits hold every chunk.
    fn fold_hist(ghr: u128, len: u32, bits: u32) -> u64 {
        // `len` may be 128, where `1 << len` would overflow.
        let mut x = ghr & 1u128.checked_shl(len).map_or(u128::MAX, |b| b - 1);
        let mut s = bits;
        while s < len {
            x ^= x >> s;
            s *= 2;
        }
        x as u64 & ((1u64 << bits) - 1)
    }

    /// Every component's index and tag for one lookup, folded once and
    /// shared by prediction, allocation and usefulness decay.
    fn keys(&self, pc: Pc, ghr: u128) -> [Key; MAX_COMPONENTS] {
        let (index_bits, tag_bits) = (self.cfg.tagged_log2, self.cfg.tag_bits);
        let mut keys = [Key::default(); MAX_COMPONENTS];
        for (t, (key, &len)) in keys.iter_mut().zip(&self.cfg.history_lengths).enumerate() {
            let h = Self::fold_hist(ghr, len, index_bits);
            let pch = (pc >> 2) ^ (pc >> (2 + index_bits as u64)) ^ (t as u64);
            key.index = ((pch ^ h) & ((1 << index_bits) - 1)) as u32;
            let ht = if tag_bits == index_bits { h } else { Self::fold_hist(ghr, len, tag_bits) };
            let h2 = Self::fold_hist(ghr, len, tag_bits - 1) << 1;
            key.tag = (((pc >> 2) ^ ht ^ h2) & ((1 << tag_bits) - 1)) as u16;
        }
        keys
    }

    fn base_index(&self, pc: Pc) -> usize {
        ((pc >> 2) & ((1 << self.cfg.base_log2) - 1)) as usize
    }

    fn lookup(&self, pc: Pc, keys: &[Key]) -> Lookup {
        let mut provider = None;
        let mut alt: Option<(usize, usize)> = None;
        for t in (0..self.tables.len()).rev() {
            let (index, tag) = (keys[t].index as usize, keys[t].tag);
            if self.tables[t][index].tag == tag {
                if provider.is_none() {
                    provider = Some((t, index));
                } else {
                    alt = Some((t, index));
                    break;
                }
            }
        }
        let base_pred = self.base[self.base_index(pc)] >= 2;
        let alt_pred = match alt {
            Some((t, i)) => self.tables[t][i].ctr >= 4,
            None => base_pred,
        };
        let pred = match provider {
            Some((t, i)) => self.tables[t][i].ctr >= 4,
            None => base_pred,
        };
        Lookup { provider, pred, alt_pred }
    }

    fn rand(&mut self) -> u32 {
        // 16-bit Galois LFSR for allocation randomization; deterministic.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }
}

impl DirectionPredictor for Tage {
    fn predict(&self, pc: Pc, ghr: u128) -> bool {
        self.lookup(pc, &self.keys(pc, ghr)).pred
    }

    fn update(&mut self, pc: Pc, ghr: u128, taken: bool) {
        let keys = self.keys(pc, ghr);
        let l = self.lookup(pc, &keys);
        let mispredicted = l.pred != taken;

        // Update provider (or base) counter.
        match l.provider {
            Some((t, i)) => {
                let e = &mut self.tables[t][i];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                // Usefulness: provider correct where alternate was wrong.
                if l.pred != l.alt_pred {
                    if l.pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let i = self.base_index(pc);
                crate::direction::ctr_update(&mut self.base[i], taken, 3);
            }
        }

        // Allocate on misprediction in a longer-history component.
        if mispredicted {
            let start = l.provider.map_or(0, |(t, _)| t + 1);
            let mut allocated = false;
            let r = self.rand();
            let n = self.tables.len();
            for (t, &Key { index, tag }) in keys[..n].iter().enumerate().skip(start) {
                let idx = index as usize;
                if self.tables[t][idx].useful == 0 {
                    // Skip a free slot with probability 1/2 to spread
                    // allocations across components, but never skip the
                    // last candidate.
                    let last = t + 1 == n;
                    if last || r & (1 << t) == 0 {
                        self.tables[t][idx] =
                            TaggedEntry { tag, ctr: if taken { 4 } else { 3 }, useful: 0 };
                        allocated = true;
                        break;
                    }
                }
            }
            if !allocated {
                // Decay usefulness along the would-be allocation path.
                for (table, key) in self.tables.iter_mut().zip(&keys).skip(start) {
                    let e = &mut table[key.index as usize];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        self.updates += 1;
        if self.updates.is_multiple_of(self.cfg.reset_period) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
    }

    fn storage_bits(&self) -> usize {
        let tagged_entry_bits = self.cfg.tag_bits as usize + 3 + 2;
        self.base.len() * 2 + self.tables.len() * (1 << self.cfg.tagged_log2) * tagged_entry_bits
    }

    fn name(&self) -> &'static str {
        "tage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern(p: &mut Tage, pattern: impl Fn(u64, u128) -> bool, iters: u64) -> f64 {
        let mut ghr: u128 = 0;
        let mut correct = 0u64;
        let pc = 0x40_2000;
        for i in 0..iters {
            let taken = pattern(i, ghr);
            if p.predict(pc, ghr) == taken {
                correct += 1;
            }
            p.update(pc, ghr, taken);
            ghr = (ghr << 1) | u128::from(taken);
        }
        correct as f64 / iters as f64
    }

    #[test]
    fn learns_simple_bias() {
        let mut p = Tage::new(TageConfig::default());
        let acc = run_pattern(&mut p, |_, _| true, 2000);
        assert!(acc > 0.99, "bias accuracy {acc}");
    }

    #[test]
    fn learns_long_period_pattern() {
        // Period-24 pattern: needs more history than bimodal/gshare-8.
        let mut p = Tage::new(TageConfig::default());
        let acc = run_pattern(&mut p, |i, _| (i % 24) < 5, 30_000);
        assert!(acc > 0.95, "period-24 accuracy {acc}");
    }

    #[test]
    fn outperforms_bimodal_on_history_pattern() {
        use crate::direction::Bimodal;
        let pattern = |i: u64, _: u128| i.is_multiple_of(7) || i.is_multiple_of(5);
        let mut tage = Tage::new(TageConfig::default());
        let tage_acc = run_pattern(&mut tage, pattern, 20_000);

        let mut bim = Bimodal::new(4096);
        let mut ghr: u128 = 0;
        let mut correct = 0u64;
        for i in 0..20_000u64 {
            let taken = pattern(i, ghr);
            if bim.predict(0x40_2000, ghr) == taken {
                correct += 1;
            }
            bim.update(0x40_2000, ghr, taken);
            ghr = (ghr << 1) | u128::from(taken);
        }
        let bim_acc = correct as f64 / 20_000.0;
        assert!(tage_acc > bim_acc + 0.05, "tage {tage_acc} vs bimodal {bim_acc}");
    }

    #[test]
    fn storage_is_reported() {
        let p = Tage::new(TageConfig::default());
        // 4K*2 + 8*1K*(10+3+2) bits.
        assert_eq!(p.storage_bits(), 4096 * 2 + 8 * 1024 * 15);
    }

    /// The chunk loop `fold_hist` replaced, kept as its reference model:
    /// XOR the `len` newest history bits into `bits` bits, `bits` at a time.
    fn fold_hist_chunked(ghr: u128, len: u32, bits: u32) -> u64 {
        let mut acc = 0u64;
        let mask = (1u64 << bits) - 1;
        let mut remaining = len;
        let mut h = ghr;
        while remaining > 0 {
            let take = remaining.min(bits);
            acc ^= (h as u64) & ((1u64 << take) - 1);
            acc &= mask;
            h >>= take;
            remaining -= take;
        }
        acc
    }

    #[test]
    fn doubling_fold_matches_the_chunk_loop() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(22);
        let mut histories = vec![0, u128::MAX, 1, 1 << 127];
        histories.extend((0..60).map(|_| rng.gen::<u128>()));
        for ghr in histories {
            for len in 0..=128 {
                for bits in 1..=16 {
                    assert_eq!(
                        Tage::fold_hist(ghr, len, bits),
                        fold_hist_chunked(ghr, len, bits),
                        "ghr {ghr:#x} len {len} bits {bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn key_array_matches_per_component_index_and_tag() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // The index and tag each component computed per call before the
        // keys were shared (both folds through the reference chunk loop).
        fn index(cfg: &TageConfig, t: usize, pc: Pc, ghr: u128) -> usize {
            let bits = cfg.tagged_log2;
            let h = fold_hist_chunked(ghr, cfg.history_lengths[t], bits);
            let pch = (pc >> 2) ^ (pc >> (2 + bits as u64)) ^ (t as u64);
            ((pch ^ h) & ((1 << bits) - 1)) as usize
        }
        fn tag(cfg: &TageConfig, t: usize, pc: Pc, ghr: u128) -> u16 {
            let bits = cfg.tag_bits;
            let h = fold_hist_chunked(ghr, cfg.history_lengths[t], bits);
            let h2 = fold_hist_chunked(ghr, cfg.history_lengths[t], bits - 1) << 1;
            (((pc >> 2) ^ h ^ h2) & ((1 << bits) - 1)) as u16
        }
        let mut rng = SmallRng::seed_from_u64(23);
        let configs = [
            TageConfig::default(),
            TageConfig { tag_bits: 12, ..TageConfig::default() },
            TageConfig {
                tagged_log2: 7,
                tag_bits: 9,
                history_lengths: vec![0, 5, 13, 128],
                ..TageConfig::default()
            },
        ];
        for cfg in configs {
            let p = Tage::new(cfg.clone());
            for _ in 0..500 {
                let (pc, ghr) = (rng.gen::<u64>(), rng.gen::<u128>());
                let keys = p.keys(pc, ghr);
                for (t, key) in keys[..cfg.history_lengths.len()].iter().enumerate() {
                    let want =
                        Key { index: index(&cfg, t, pc, ghr) as u32, tag: tag(&cfg, t, pc, ghr) };
                    assert_eq!(*key, want, "component {t} pc {pc:#x} ghr {ghr:#x}");
                }
            }
        }
    }

    #[test]
    fn fold_hist_is_stable_and_bounded() {
        let f = Tage::fold_hist(0xdead_beef_dead_beef, 64, 10);
        assert!(f < 1024);
        assert_eq!(f, Tage::fold_hist(0xdead_beef_dead_beef, 64, 10));
        assert_ne!(
            Tage::fold_hist(0b01, 2, 10),
            Tage::fold_hist(0b10, 2, 10),
            "order matters within the window"
        );
    }
}
