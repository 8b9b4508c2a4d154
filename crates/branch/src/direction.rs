//! Conditional-branch direction predictors.
//!
//! These cover the 30-year trend line of the paper's Fig. 1: static,
//! bimodal (2-bit counters), gshare, and perceptron. TAGE lives in its own
//! module. All predictors are pure over `(pc, ghr)`: the core owns the
//! speculative global history register and passes it in, which makes
//! checkpoint/restore on squash trivial. A core names its predictor with
//! a [`DirectionConfig`] and holds the [`Direction`] built from it.

use crate::tage::{Tage, TageConfig};
use phast_isa::Pc;

/// Which conditional-direction predictor a core uses, and its size.
#[derive(Clone, Debug)]
pub enum DirectionConfig {
    /// [`StaticTaken`].
    StaticTaken,
    /// [`Bimodal`].
    Bimodal {
        /// Counters (a power of two).
        entries: usize,
    },
    /// [`GShare`].
    GShare {
        /// Counters (a power of two).
        entries: usize,
        /// Global-history bits XORed into the index (≤ 64).
        history_bits: u32,
    },
    /// [`Perceptron`].
    Perceptron {
        /// Perceptrons (a power of two).
        entries: usize,
        /// Global-history bits each perceptron weighs (≤ 64).
        history_bits: u32,
    },
    /// [`Tage`].
    Tage(TageConfig),
}

impl DirectionConfig {
    /// The configured predictor, cold.
    ///
    /// # Panics
    ///
    /// As the configured predictor's constructor does on a size it
    /// rejects.
    pub fn build(&self) -> Direction {
        match self {
            DirectionConfig::StaticTaken => Direction::StaticTaken(StaticTaken),
            DirectionConfig::Bimodal { entries } => Direction::Bimodal(Bimodal::new(*entries)),
            DirectionConfig::GShare { entries, history_bits } => {
                Direction::GShare(GShare::new(*entries, *history_bits))
            }
            DirectionConfig::Perceptron { entries, history_bits } => {
                Direction::Perceptron(Perceptron::new(*entries, *history_bits))
            }
            DirectionConfig::Tage(cfg) => Direction::Tage(Tage::new(cfg.clone())),
        }
    }
}

/// A predictor built from a [`DirectionConfig`]: one cloneable type for
/// every kind, so a core and the sampled capture that warms and
/// snapshots its structures hold whichever one is configured.
#[derive(Clone)]
pub enum Direction {
    /// Always taken.
    StaticTaken(StaticTaken),
    /// PC-indexed 2-bit counters.
    Bimodal(Bimodal),
    /// Global history XOR PC.
    GShare(GShare),
    /// Perceptron over global history.
    Perceptron(Perceptron),
    /// TAGE.
    Tage(Tage),
}

/// `$body` with `$p` bound to the predictor inside `$direction`.
macro_rules! dispatch {
    ($direction:expr, $p:ident => $body:expr) => {
        match $direction {
            Direction::StaticTaken($p) => $body,
            Direction::Bimodal($p) => $body,
            Direction::GShare($p) => $body,
            Direction::Perceptron($p) => $body,
            Direction::Tage($p) => $body,
        }
    };
}

impl DirectionPredictor for Direction {
    fn predict(&self, pc: Pc, ghr: u128) -> bool {
        dispatch!(self, p => p.predict(pc, ghr))
    }

    fn update(&mut self, pc: Pc, ghr: u128, taken: bool) {
        dispatch!(self, p => p.update(pc, ghr, taken))
    }

    fn storage_bits(&self) -> usize {
        dispatch!(self, p => p.storage_bits())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }
}

/// A conditional-branch direction predictor.
///
/// `predict` must not mutate predictor state observable by later
/// predictions (internal statistics are fine); all learning happens in
/// `update`, which the core calls at branch resolution with the same
/// history value used to predict.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc` under global history
    /// `ghr` (newest outcome in bit 0).
    fn predict(&self, pc: Pc, ghr: u128) -> bool;

    /// Trains the predictor with the resolved outcome.
    fn update(&mut self, pc: Pc, ghr: u128, taken: bool);

    /// Total storage in bits, for the Fig. 1 storage accounting.
    fn storage_bits(&self) -> usize;

    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Always predicts taken — the degenerate 1983-era baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticTaken;

impl DirectionPredictor for StaticTaken {
    fn predict(&self, _pc: Pc, _ghr: u128) -> bool {
        true
    }

    fn update(&mut self, _pc: Pc, _ghr: u128, _taken: bool) {}

    fn storage_bits(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "static-taken"
    }
}

#[inline]
pub(crate) fn ctr_update(ctr: &mut u8, taken: bool, max: u8) {
    if taken {
        if *ctr < max {
            *ctr += 1;
        }
    } else if *ctr > 0 {
        *ctr -= 1;
    }
}

/// Classic bimodal predictor: a PC-indexed table of 2-bit counters.
#[derive(Clone, Debug)]
pub struct Bimodal {
    table: Vec<u8>,
    index_mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` counters (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Bimodal {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Bimodal { table: vec![1; entries], index_mask: entries as u64 - 1 }
    }

    #[inline]
    fn index(&self, pc: Pc) -> usize {
        ((pc >> 2) & self.index_mask) as usize
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: Pc, _ghr: u128) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: Pc, _ghr: u128, taken: bool) {
        let i = self.index(pc);
        ctr_update(&mut self.table[i], taken, 3);
    }

    fn storage_bits(&self) -> usize {
        self.table.len() * 2
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

/// McFarling's gshare: global history XOR PC indexes a 2-bit counter table.
#[derive(Clone, Debug)]
pub struct GShare {
    table: Vec<u8>,
    index_mask: u64,
    history_bits: u32,
}

impl GShare {
    /// Creates a gshare predictor with `entries` counters (power of two)
    /// and `history_bits` of global history (≤ 64).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits > 64`.
    pub fn new(entries: usize, history_bits: u32) -> GShare {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(history_bits <= 64, "history_bits must be <= 64");
        GShare { table: vec![1; entries], index_mask: entries as u64 - 1, history_bits }
    }

    #[inline]
    fn index(&self, pc: Pc, ghr: u128) -> usize {
        let h = (ghr as u64) & ((1u64 << self.history_bits.min(63)) - 1);
        (((pc >> 2) ^ h) & self.index_mask) as usize
    }
}

impl DirectionPredictor for GShare {
    fn predict(&self, pc: Pc, ghr: u128) -> bool {
        self.table[self.index(pc, ghr)] >= 2
    }

    fn update(&mut self, pc: Pc, ghr: u128, taken: bool) {
        let i = self.index(pc, ghr);
        ctr_update(&mut self.table[i], taken, 3);
    }

    fn storage_bits(&self) -> usize {
        self.table.len() * 2
    }

    fn name(&self) -> &'static str {
        "gshare"
    }
}

/// Jiménez & Lin's perceptron predictor.
#[derive(Clone, Debug)]
pub struct Perceptron {
    weights: Vec<Vec<i16>>, // [entry][history_bits + 1 (bias)]
    history_bits: u32,
    threshold: i32,
    index_mask: u64,
}

impl Perceptron {
    /// Creates a perceptron predictor with `entries` perceptrons over
    /// `history_bits` bits of history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits > 64`.
    pub fn new(entries: usize, history_bits: u32) -> Perceptron {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(history_bits <= 64, "history_bits must be <= 64");
        let threshold = (1.93 * history_bits as f64 + 14.0) as i32;
        Perceptron {
            weights: vec![vec![0; history_bits as usize + 1]; entries],
            history_bits,
            threshold,
            index_mask: entries as u64 - 1,
        }
    }

    #[inline]
    fn index(&self, pc: Pc) -> usize {
        ((pc >> 2) & self.index_mask) as usize
    }

    fn output(&self, pc: Pc, ghr: u128) -> i32 {
        let w = &self.weights[self.index(pc)];
        let mut y = i32::from(w[0]); // bias
        for b in 0..self.history_bits as usize {
            let x = if (ghr >> b) & 1 == 1 { 1 } else { -1 };
            y += i32::from(w[b + 1]) * x;
        }
        y
    }
}

impl DirectionPredictor for Perceptron {
    fn predict(&self, pc: Pc, ghr: u128) -> bool {
        self.output(pc, ghr) >= 0
    }

    fn update(&mut self, pc: Pc, ghr: u128, taken: bool) {
        let y = self.output(pc, ghr);
        let predicted = y >= 0;
        if predicted != taken || y.abs() <= self.threshold {
            let t: i16 = if taken { 1 } else { -1 };
            let i = self.index(pc);
            let w = &mut self.weights[i];
            w[0] = w[0].saturating_add(t).clamp(-128, 127);
            for b in 0..self.history_bits as usize {
                let x: i16 = if (ghr >> b) & 1 == 1 { 1 } else { -1 };
                w[b + 1] = w[b + 1].saturating_add(t * x).clamp(-128, 127);
            }
        }
    }

    fn storage_bits(&self) -> usize {
        self.weights.len() * (self.history_bits as usize + 1) * 8
    }

    fn name(&self) -> &'static str {
        "perceptron"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_a_bias() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            p.update(0x400_0000, 0, true);
        }
        assert!(p.predict(0x400_0000, 0));
        for _ in 0..4 {
            p.update(0x400_0000, 0, false);
        }
        assert!(!p.predict(0x400_0000, 0));
    }

    #[test]
    fn gshare_separates_by_history() {
        let mut p = GShare::new(1024, 8);
        let pc = 0x40_0040;
        // Alternating pattern correlated with history: taken iff last
        // outcome bit set.
        for _ in 0..64 {
            p.update(pc, 0b1, true);
            p.update(pc, 0b0, false);
        }
        assert!(p.predict(pc, 0b1));
        assert!(!p.predict(pc, 0b0));
    }

    #[test]
    fn perceptron_learns_history_correlation() {
        let mut p = Perceptron::new(256, 16);
        let pc = 0x40_1000;
        // Outcome equals history bit 3.
        for i in 0..400u64 {
            let ghr = u128::from(i.wrapping_mul(2654435761));
            let taken = (ghr >> 3) & 1 == 1;
            p.update(pc, ghr, taken);
        }
        let mut correct = 0;
        for i in 400..600u64 {
            let ghr = u128::from(i.wrapping_mul(2654435761));
            let taken = (ghr >> 3) & 1 == 1;
            if p.predict(pc, ghr) == taken {
                correct += 1;
            }
        }
        assert!(correct > 180, "perceptron should learn a single-bit correlation, got {correct}/200");
    }

    #[test]
    fn static_taken_is_free() {
        let p = StaticTaken;
        assert!(p.predict(0, 0));
        assert_eq!(p.storage_bits(), 0);
    }

    #[test]
    fn storage_accounting() {
        assert_eq!(Bimodal::new(4096).storage_bits(), 8192);
        assert_eq!(GShare::new(4096, 12).storage_bits(), 8192);
        assert_eq!(Perceptron::new(256, 32).storage_bits(), 256 * 33 * 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bimodal_rejects_non_power_of_two() {
        let _ = Bimodal::new(100);
    }
}
