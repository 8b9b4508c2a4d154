//! Per-interval feature vectors for phase-aware sampling.
//!
//! Phase mode (see `docs/SAMPLING.md` §"v2: phase-aware clustering")
//! divides the horizon into equal intervals and summarizes each one with
//! a fixed-dimension [`FeatureVec`] collected *during the existing
//! capture pass* — the raw events (retired blocks, effective addresses,
//! the sliding store window) are already flowing through that pass, so
//! feature collection adds a handful of table updates per instruction and
//! no second pass.
//!
//! The vector concatenates four groups, each L1-normalized so intervals
//! of equal length are directly comparable:
//!
//! * **Basic-block vector** (16 dims): execution counts hashed by block
//!   id — the classic SimPoint phase signal.
//! * **Stride histogram** (8 dims): per-PC deltas of successive data
//!   addresses, bucketed by sign and magnitude — separates streaming,
//!   strided and pointer-chasing phases.
//! * **Dependence-distance histogram** (8 dims): for each load, the
//!   distance (in stores) to the youngest overlapping in-ROB-range store,
//!   log₂-bucketed, with a dedicated no-dependence bucket — the signal
//!   that matters most for memory dependence predictors.
//! * **Footprint estimate** (1 dim): the fraction of a 1024-bit hashed
//!   line-address bitmap touched — separates cache-resident from
//!   cache-thrashing phases.
//!
//! All accumulation is integer; floats appear only in the final
//! normalization, so vectors are bit-reproducible across runs and
//! platforms.

use crate::checkpoint::WarmContext;
use phast_isa::{ranges_overlap, ExecRecord, Op, Program};

/// Dimensions of the basic-block-vector group.
pub const BBV_DIMS: usize = 16;
/// Buckets of the stride histogram group.
pub const STRIDE_BUCKETS: usize = 8;
/// Buckets of the store→load dependence-distance histogram group.
pub const DEP_BUCKETS: usize = 8;
/// Bits in the footprint bitmap (reported as one fraction dimension).
pub const FOOTPRINT_BITS: usize = 1024;
/// Total feature dimensions: BBV + stride + dependence + footprint.
pub const FEATURE_DIM: usize = BBV_DIMS + STRIDE_BUCKETS + DEP_BUCKETS + 1;

/// Slots of the per-PC last-address table used for stride detection.
const STRIDE_SLOTS: usize = 64;

/// One interval's normalized feature vector (length [`FEATURE_DIM`]).
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureVec {
    /// The concatenated, group-normalized dimensions.
    pub dims: Vec<f64>,
}

impl FeatureVec {
    /// Squared Euclidean distance to another vector of the same length.
    pub fn sq_dist(&self, other: &FeatureVec) -> f64 {
        self.dims
            .iter()
            .zip(&other.dims)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Total lexicographic order over the dimensions (`f64::total_cmp`
    /// per element) — the value-based tie-breaker that keeps clustering
    /// independent of interval input order.
    pub fn lex_cmp(&self, other: &FeatureVec) -> std::cmp::Ordering {
        for (a, b) in self.dims.iter().zip(&other.dims) {
            let ord = a.total_cmp(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.dims.len().cmp(&other.dims.len())
    }

    /// A value-based 64-bit hash of the dimensions (mixed with `salt`),
    /// used for seeded but permutation-invariant draws in k-means++.
    pub fn value_hash(&self, salt: u64) -> u64 {
        let mut h = mix64(salt ^ 0x9e37_79b9_7f4a_7c15);
        for d in &self.dims {
            h = mix64(h ^ d.to_bits());
        }
        h
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Integer accumulators for one interval, reset by
/// [`finish_interval`](FeatureCollector::finish_interval).
pub struct FeatureCollector {
    bbv: [u64; BBV_DIMS],
    stride: [u64; STRIDE_BUCKETS],
    dep: [u64; DEP_BUCKETS],
    footprint: [u64; FOOTPRINT_BITS / 64],
    /// Direct-mapped per-PC last-address table: `(last_addr, valid)`.
    last_addr: [(u64, bool); STRIDE_SLOTS],
    insts: u64,
    mem_refs: u64,
    loads: u64,
}

impl Default for FeatureCollector {
    fn default() -> FeatureCollector {
        FeatureCollector::new()
    }
}

impl FeatureCollector {
    /// An empty collector.
    pub fn new() -> FeatureCollector {
        FeatureCollector {
            bbv: [0; BBV_DIMS],
            stride: [0; STRIDE_BUCKETS],
            dep: [0; DEP_BUCKETS],
            footprint: [0; FOOTPRINT_BITS / 64],
            last_addr: [(0, false); STRIDE_SLOTS],
            insts: 0,
            mem_refs: 0,
            loads: 0,
        }
    }

    /// Folds one architecturally retired instruction into the interval's
    /// accumulators. Must be called with the *pre-update* [`WarmContext`]
    /// (before `ctx.observe`), so the dependence scan sees exactly the
    /// store window the core's LSQ would — the same convention as MDP
    /// warming.
    pub fn observe(
        &mut self,
        ctx: &WarmContext,
        program: &Program,
        rec: &ExecRecord,
        rob_window: u64,
    ) {
        self.insts += 1;
        self.bbv[(mix64(u64::from(rec.block.0)) as usize) % BBV_DIMS] += 1;
        let inst = program.inst(rec.block, rec.index);
        let (addr, size, is_load) = match &inst.op {
            Op::Load(s) => (rec.eff_addr.expect("load records address"), s.bytes(), true),
            Op::Store(s) => (rec.eff_addr.expect("store records address"), s.bytes(), false),
            _ => return,
        };
        self.mem_refs += 1;
        let bit = (mix64(addr >> 6) as usize) % FOOTPRINT_BITS;
        self.footprint[bit / 64] |= 1u64 << (bit % 64);
        let slot = (mix64(rec.pc) as usize) % STRIDE_SLOTS;
        let (last, valid) = self.last_addr[slot];
        self.last_addr[slot] = (addr, true);
        let bucket = if valid { stride_bucket(addr.wrapping_sub(last) as i64) } else { 7 };
        self.stride[bucket] += 1;
        if is_load {
            self.loads += 1;
            self.dep[self.dep_bucket(ctx, rec, addr, size, rob_window)] += 1;
        }
    }

    /// Distance (in stores) to the youngest overlapping in-ROB-range
    /// store, log₂-bucketed; the last bucket counts loads with no
    /// dependence in range. Mirrors the scan MDP warming performs.
    fn dep_bucket(
        &self,
        ctx: &WarmContext,
        rec: &ExecRecord,
        addr: u64,
        size: u64,
        rob_window: u64,
    ) -> usize {
        let len = ctx.stores.len();
        for (i, s) in ctx.stores.iter().enumerate().rev() {
            if rec.seq - s.seq > rob_window {
                break;
            }
            if ranges_overlap(addr, size, s.addr, s.size) {
                let distance = (len - 1 - i) as u64;
                return ((distance + 1).ilog2() as usize).min(DEP_BUCKETS - 2);
            }
        }
        DEP_BUCKETS - 1
    }

    /// Normalizes the accumulators into a [`FeatureVec`] and resets them
    /// for the next interval.
    pub fn finish_interval(&mut self) -> FeatureVec {
        let mut dims = Vec::with_capacity(FEATURE_DIM);
        let norm = |count: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                count as f64 / total as f64
            }
        };
        for &c in &self.bbv {
            dims.push(norm(c, self.insts));
        }
        for &c in &self.stride {
            dims.push(norm(c, self.mem_refs));
        }
        for &c in &self.dep {
            dims.push(norm(c, self.loads));
        }
        let touched: u32 = self.footprint.iter().map(|w| w.count_ones()).sum();
        dims.push(f64::from(touched) / FOOTPRINT_BITS as f64);
        *self = FeatureCollector::new();
        FeatureVec { dims }
    }
}

/// Buckets a signed address delta by sign and magnitude: `0` repeat,
/// `1..=3` forward (≤64 B, ≤1 KiB, larger), `4..=6` backward likewise,
/// `7` first touch of the PC's table slot.
fn stride_bucket(delta: i64) -> usize {
    match delta {
        0 => 0,
        1..=64 => 1,
        65..=1024 => 2,
        d if d > 1024 => 3,
        -64..=-1 => 4,
        -1024..=-65 => 5,
        _ => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_buckets_cover_the_line() {
        assert_eq!(stride_bucket(0), 0);
        assert_eq!(stride_bucket(8), 1);
        assert_eq!(stride_bucket(64), 1);
        assert_eq!(stride_bucket(65), 2);
        assert_eq!(stride_bucket(4096), 3);
        assert_eq!(stride_bucket(-8), 4);
        assert_eq!(stride_bucket(-100), 5);
        assert_eq!(stride_bucket(-65536), 6);
    }

    #[test]
    fn empty_interval_normalizes_to_zeros() {
        let mut c = FeatureCollector::new();
        let v = c.finish_interval();
        assert_eq!(v.dims.len(), FEATURE_DIM);
        assert!(v.dims.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn lex_cmp_is_a_total_order() {
        let a = FeatureVec { dims: vec![0.0, 1.0] };
        let b = FeatureVec { dims: vec![0.0, 2.0] };
        assert_eq!(a.lex_cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(b.lex_cmp(&a), std::cmp::Ordering::Greater);
        assert_eq!(a.lex_cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn value_hash_depends_on_values_not_identity() {
        let a = FeatureVec { dims: vec![0.25, 0.5] };
        let b = FeatureVec { dims: vec![0.25, 0.5] };
        let c = FeatureVec { dims: vec![0.5, 0.25] };
        assert_eq!(a.value_hash(7), b.value_hash(7));
        assert_ne!(a.value_hash(7), c.value_hash(7));
        assert_ne!(a.value_hash(7), a.value_hash(8));
    }
}
