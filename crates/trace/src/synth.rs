//! Coverage-guided workload synthesis.
//!
//! The regalloc2 `ssagen`-fuzzer idiom (SNIPPETS.md): a seeded generator
//! emits random-but-valid programs from a structured recipe space, and a
//! coverage metric decides which candidates are worth keeping. Here the
//! recipe space is the motif library of `phast-workloads` and the coverage
//! metric is distance in dependence-signature space (`deps`): candidates
//! are scored by how far their signature sits from the 23 built-in
//! workloads *and* from every already-selected candidate (greedy maximin),
//! so the selected set fills the gaps in the existing motif corpus rather
//! than re-sampling its center.
//!
//! Everything is deterministic: one master seed derives every candidate
//! recipe, and the same seed always yields identical programs and
//! signatures (pinned by this module's tests and `tests/synth_pipeline.rs`).

use crate::deps::{signature, DepSignature};
use phast_workloads::gen::{
    call_save_restore, conditional_dep, cross_iteration, data_dependent, dispatch_farm,
    indirect_dispatch, long_path, path_dep, path_dep_deep, pointer_chase, serialized_writers,
    streaming, subword_merge, tight_forward, Scaffold,
};
use phast_workloads::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Registers the motif pool may consume (regs 1..=25; the scaffold owns
/// 26..=28 and the ABI owns 30/31). Recipes stay under this budget so
/// `Scaffold` never panics on register exhaustion.
const REG_BUDGET: u32 = 24;

/// One motif invocation with concrete parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MotifCall {
    /// Branch-selected store distance (`path_dep`).
    PathDep {
        /// Hash bit driving the selector branch.
        selector_bit: u32,
        /// Extra stores on the long path.
        extra_stores: usize,
    },
    /// Deep path-dependent dependence with noise branches.
    PathDepDeep {
        /// Iteration bit driving the decider branch.
        selector_bit: u32,
        /// Extra stores on the long path.
        extra_stores: usize,
        /// Divergent noise branches between store and load.
        noise_branches: u32,
        /// Period of the noise branch outcomes.
        period_bits: u32,
    },
    /// Indirect dispatch over `k` handlers (`indirect_dispatch`).
    IndirectDispatch {
        /// Handler count.
        k: usize,
        /// Selector period in iteration bits.
        period_bits: u32,
    },
    /// Narrow stores composing one wide load (`subword_merge`).
    SubwordMerge {
        /// Number of narrow stores (2, 4 or 8).
        parts: u64,
        /// The merge runs once every `2^period_bits` iterations.
        period_bits: u32,
    },
    /// Strided store/load streams with a lag (`streaming`).
    Streaming {
        /// Array slots (power of two).
        slots: u64,
        /// Load lag behind the store stream.
        lag: u64,
        /// FP filler ops per iteration.
        fp_ops: usize,
    },
    /// Hash-indexed occasional conflicts (`data_dependent`).
    DataDependent {
        /// Table slots (power of two).
        slots: u64,
    },
    /// Caller-dependent save/restore distance (`call_save_restore`).
    CallSaveRestore {
        /// Stack region size.
        stack_bytes: u64,
    },
    /// Store separated from its load by many divergent branches
    /// (`long_path`).
    LongPath {
        /// Divergent branches between store and load.
        branches: u32,
        /// Branch outcome period in iteration bits.
        period_bits: u32,
    },
    /// Conditional dependence: a store that exists on one path only
    /// (`conditional_dep`).
    ConditionalDep {
        /// Hash bit (or ≥32 for data-dependent) driving the branch.
        selector_bit: u32,
    },
    /// Two writers to one slot, one slow (`serialized_writers`).
    SerializedWriters {
        /// Divide-chain length of the slow writer.
        slow_divs: usize,
    },
    /// Indirect fan-out over private store→load pairs (`dispatch_farm`).
    DispatchFarm {
        /// Handler count (power of two).
        cases: usize,
        /// Hash shift for the selector.
        random_bits: u32,
    },
    /// Previous-iteration dependence on the loop critical path
    /// (`cross_iteration`).
    CrossIteration {
        /// Slot count (power of two, ≥2).
        slots: u64,
        /// Divide-chain length gating the store address.
        slow_divs: usize,
    },
    /// Store immediately reloaded with a late-resolving address
    /// (`tight_forward`).
    TightForward {
        /// Multiply-chain length delaying the store address.
        delay: usize,
    },
    /// Linked-ring walk with payload writes (`pointer_chase`).
    PointerChase {
        /// Ring nodes (power of two).
        nodes: u64,
    },
}

impl MotifCall {
    /// Registers the motif allocates from the shared pool.
    fn reg_cost(&self) -> u32 {
        match self {
            MotifCall::PathDep { .. } => 5,
            MotifCall::PathDepDeep { .. } => 5,
            MotifCall::IndirectDispatch { .. } => 5,
            MotifCall::SubwordMerge { .. } => 4,
            MotifCall::Streaming { .. } => 5,
            MotifCall::DataDependent { .. } => 5,
            MotifCall::CallSaveRestore { .. } => 3,
            MotifCall::LongPath { .. } => 5,
            MotifCall::ConditionalDep { .. } => 5,
            MotifCall::SerializedWriters { .. } => 6,
            MotifCall::DispatchFarm { .. } => 5,
            MotifCall::CrossIteration { .. } => 5,
            MotifCall::TightForward { .. } => 4,
            MotifCall::PointerChase { .. } => 4,
        }
    }

    /// Draws one motif call with random in-range parameters.
    fn random(rng: &mut SmallRng) -> MotifCall {
        match rng.gen_range(0..14u32) {
            0 => MotifCall::PathDep {
                selector_bit: rng.gen_range(0..4),
                extra_stores: rng.gen_range(1..8) as usize,
            },
            1 => MotifCall::PathDepDeep {
                selector_bit: rng.gen_range(0..3),
                extra_stores: rng.gen_range(1..6) as usize,
                noise_branches: rng.gen_range(1..10),
                period_bits: rng.gen_range(1..6),
            },
            2 => MotifCall::IndirectDispatch {
                k: rng.gen_range(2..9) as usize,
                period_bits: rng.gen_range(1..5),
            },
            3 => MotifCall::SubwordMerge {
                parts: 2u64 << rng.gen_range(0..3), // 2, 4 or 8
                period_bits: rng.gen_range(2..9),
            },
            4 => MotifCall::Streaming {
                slots: 1u64 << rng.gen_range(6..12),
                lag: rng.gen_range(1..8),
                fp_ops: rng.gen_range(0..6) as usize,
            },
            5 => MotifCall::DataDependent { slots: 1u64 << rng.gen_range(4..10) },
            6 => MotifCall::CallSaveRestore { stack_bytes: 0x400 << rng.gen_range(0..3) },
            7 => MotifCall::LongPath {
                branches: rng.gen_range(2..12),
                period_bits: rng.gen_range(1..6),
            },
            8 => MotifCall::ConditionalDep { selector_bit: rng.gen_range(0..40) },
            9 => MotifCall::SerializedWriters { slow_divs: rng.gen_range(1..5) as usize },
            10 => MotifCall::DispatchFarm {
                cases: 1usize << rng.gen_range(1..7),
                random_bits: rng.gen_range(5..14),
            },
            11 => MotifCall::CrossIteration {
                slots: 1u64 << rng.gen_range(1..7),
                slow_divs: rng.gen_range(0..4) as usize,
            },
            12 => MotifCall::TightForward { delay: rng.gen_range(1..6) as usize },
            _ => MotifCall::PointerChase { nodes: 1u64 << rng.gen_range(4..9) },
        }
    }

    /// Emits the motif into the scaffold.
    fn emit(&self, s: &mut Scaffold) {
        let m = s.next_motif();
        match *self {
            MotifCall::PathDep { selector_bit, extra_stores } => {
                path_dep(&mut s.g, m, selector_bit, extra_stores)
            }
            MotifCall::PathDepDeep { selector_bit, extra_stores, noise_branches, period_bits } => {
                path_dep_deep(&mut s.g, m, selector_bit, extra_stores, noise_branches, period_bits)
            }
            MotifCall::IndirectDispatch { k, period_bits } => {
                indirect_dispatch(&mut s.g, m, k, period_bits)
            }
            MotifCall::SubwordMerge { parts, period_bits } => {
                subword_merge(&mut s.g, m, parts, period_bits)
            }
            MotifCall::Streaming { slots, lag, fp_ops } => {
                streaming(&mut s.g, m, slots, lag, fp_ops)
            }
            MotifCall::DataDependent { slots } => data_dependent(&mut s.g, m, slots),
            MotifCall::CallSaveRestore { stack_bytes } => {
                call_save_restore(&mut s.g, m, stack_bytes)
            }
            MotifCall::LongPath { branches, period_bits } => {
                long_path(&mut s.g, m, branches, period_bits)
            }
            MotifCall::ConditionalDep { selector_bit } => {
                conditional_dep(&mut s.g, m, selector_bit)
            }
            MotifCall::SerializedWriters { slow_divs } => {
                serialized_writers(&mut s.g, m, slow_divs)
            }
            MotifCall::DispatchFarm { cases, random_bits } => {
                dispatch_farm(&mut s.g, m, cases, random_bits)
            }
            MotifCall::CrossIteration { slots, slow_divs } => {
                cross_iteration(&mut s.g, m, slots, slow_divs)
            }
            MotifCall::TightForward { delay } => tight_forward(&mut s.g, m, delay),
            MotifCall::PointerChase { nodes } => {
                let (init_entry, init_exit) = s.init_stage();
                pointer_chase(&mut s.g, init_entry, init_exit, m, nodes)
            }
        }
    }

    /// Short human-readable tag for workload descriptions.
    fn tag(&self) -> String {
        match self {
            MotifCall::PathDep { extra_stores, .. } => format!("path_dep({extra_stores})"),
            MotifCall::PathDepDeep { noise_branches, .. } => {
                format!("path_dep_deep({noise_branches})")
            }
            MotifCall::IndirectDispatch { k, .. } => format!("indirect_dispatch({k})"),
            MotifCall::SubwordMerge { parts, .. } => format!("subword_merge({parts})"),
            MotifCall::Streaming { slots, .. } => format!("streaming({slots})"),
            MotifCall::DataDependent { slots } => format!("data_dependent({slots})"),
            MotifCall::CallSaveRestore { .. } => "call_save_restore".to_string(),
            MotifCall::LongPath { branches, .. } => format!("long_path({branches})"),
            MotifCall::ConditionalDep { selector_bit } => {
                format!("conditional_dep({selector_bit})")
            }
            MotifCall::SerializedWriters { slow_divs } => {
                format!("serialized_writers({slow_divs})")
            }
            MotifCall::DispatchFarm { cases, .. } => format!("dispatch_farm({cases})"),
            MotifCall::CrossIteration { slots, .. } => format!("cross_iteration({slots})"),
            MotifCall::TightForward { delay } => format!("tight_forward({delay})"),
            MotifCall::PointerChase { nodes } => format!("pointer_chase({nodes})"),
        }
    }
}

/// A deterministic workload recipe: a seed plus an ordered motif list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recipe {
    /// Seed for the scaffold (register/region allocator and motif
    /// parameter noise inside the generator).
    pub seed: u64,
    /// Motifs strung through the outer loop body, in order.
    pub motifs: Vec<MotifCall>,
}

impl Recipe {
    /// Draws a random recipe under the register budget.
    pub fn random(seed: u64) -> Recipe {
        let mut rng = SmallRng::seed_from_u64(seed);
        let want = rng.gen_range(2..5) as usize;
        let mut motifs = Vec::new();
        let mut used = 0u32;
        // Rejection-sample motifs until the count is reached or the
        // register budget would overflow; bounded because the cheapest
        // motif costs 3 registers.
        let mut attempts = 0;
        while motifs.len() < want && attempts < 64 {
            attempts += 1;
            let m = MotifCall::random(&mut rng);
            // At most one pointer chase: each consumes an init stage and
            // the ring walks register-carried state.
            if matches!(m, MotifCall::PointerChase { .. })
                && motifs.iter().any(|x| matches!(x, MotifCall::PointerChase { .. }))
            {
                continue;
            }
            let cost = m.reg_cost();
            if used + cost <= REG_BUDGET {
                used += cost;
                motifs.push(m);
            }
        }
        Recipe { seed, motifs }
    }

    /// Builds the recipe's program with the given outer-loop iteration
    /// count. Same recipe and iters → byte-identical program.
    pub fn build(&self, iters: u64) -> phast_isa::Program {
        let mut s = Scaffold::new(self.seed, iters);
        for m in &self.motifs {
            m.emit(&mut s);
        }
        s.finish()
    }

    /// One-line recipe summary for workload descriptions.
    pub fn describe(&self) -> String {
        let tags: Vec<String> = self.motifs.iter().map(MotifCall::tag).collect();
        format!("synthesized (seed {:#x}): {}", self.seed, tags.join(" + "))
    }
}

/// A selected synthesized workload: its name, recipe and signature.
#[derive(Clone, Debug)]
pub struct SynthPick {
    /// Workload name (`synth_00`, `synth_01`, ...).
    pub name: String,
    /// The generating recipe.
    pub recipe: Recipe,
    /// Dependence signature of the recipe built at the probe iteration
    /// count.
    pub signature: DepSignature,
}

/// Iteration count candidates are probed at for signature computation.
/// The signature is structural, so any count that unrolls the full loop
/// body once works; this matches the analysis cost of a quick sweep.
const PROBE_ITERS: u64 = 100;

/// Candidates drawn per requested workload; the maximin selection keeps
/// the best `count`.
const CANDIDATES_PER_PICK: usize = 6;

/// Synthesizes `count` workload recipes whose dependence signatures fill
/// the gaps in the built-in motif corpus (greedy maximin in normalized
/// signature-feature space). Fully deterministic in `master_seed`.
pub fn synthesize(count: usize, master_seed: u64) -> Vec<SynthPick> {
    // Reference set: the 23 built-ins.
    let builtin_features: Vec<[f64; 14]> = phast_workloads::all_workloads()
        .iter()
        .map(|w| signature(&w.build(PROBE_ITERS)).feature_vector())
        .collect();

    // Candidate pool, seeds derived by golden-ratio stepping.
    let pool = count.max(1) * CANDIDATES_PER_PICK;
    let candidates: Vec<(Recipe, DepSignature)> = (0..pool)
        .map(|i| {
            let seed = master_seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let recipe = Recipe::random(seed);
            let sig = signature(&recipe.build(PROBE_ITERS));
            (recipe, sig)
        })
        .collect();

    // Per-dimension normalization over the union, so no one dimension
    // dominates the Euclidean distance.
    let mut lo = [f64::INFINITY; 14];
    let mut hi = [f64::NEG_INFINITY; 14];
    for f in builtin_features.iter().chain(candidates.iter().map(|(_, s)| s.feature_vector()).collect::<Vec<_>>().iter()) {
        for d in 0..14 {
            lo[d] = lo[d].min(f[d]);
            hi[d] = hi[d].max(f[d]);
        }
    }
    let normalize = |f: &[f64; 14]| -> [f64; 14] {
        let mut out = [0.0; 14];
        for d in 0..14 {
            let span = hi[d] - lo[d];
            out[d] = if span > 0.0 { (f[d] - lo[d]) / span } else { 0.0 };
        }
        out
    };
    let dist = |a: &[f64; 14], b: &[f64; 14]| -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
    };

    let mut reference: Vec<[f64; 14]> = builtin_features.iter().map(&normalize).collect();
    let cand_features: Vec<[f64; 14]> =
        candidates.iter().map(|(_, s)| normalize(&s.feature_vector())).collect();

    // Greedy maximin: repeatedly take the candidate farthest from its
    // nearest neighbor in (built-ins ∪ picked). Ties break on pool order,
    // which is seed order — deterministic.
    let mut picked: Vec<usize> = Vec::new();
    let mut taken = vec![false; candidates.len()];
    while picked.len() < count.min(candidates.len()) {
        let mut best: Option<(usize, f64)> = None;
        for (i, f) in cand_features.iter().enumerate() {
            if taken[i] {
                continue;
            }
            let nearest =
                reference.iter().map(|r| dist(f, r)).fold(f64::INFINITY, f64::min);
            if best.is_none_or(|(_, b)| nearest > b) {
                best = Some((i, nearest));
            }
        }
        let (i, _) = best.expect("pool is larger than count");
        taken[i] = true;
        reference.push(cand_features[i]);
        picked.push(i);
    }

    picked
        .into_iter()
        .enumerate()
        .map(|(rank, i)| SynthPick {
            name: format!("synth_{rank:02}"),
            recipe: candidates[i].0.clone(),
            signature: candidates[i].1.clone(),
        })
        .collect()
}

/// Default master seed for `--synth` (an arbitrary fixed constant so CLI
/// runs are reproducible without extra flags).
pub const SYNTH_SEED: u64 = 0x0007_A570_C0DE_5EED;

/// Synthesizes `count` workloads ready to append to a sweep's workload
/// set via `Budget::extra_workloads`.
pub fn synth_workloads(count: usize, master_seed: u64) -> Vec<Workload> {
    synthesize(count, master_seed)
        .into_iter()
        .map(|pick| {
            let recipe = pick.recipe.clone();
            Workload::dynamic(pick.name, pick.recipe.describe(), move |iters| {
                recipe.build(iters)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_build_valid_programs() {
        for i in 0..20 {
            let recipe = Recipe::random(0x1000 + i);
            assert!(!recipe.motifs.is_empty());
            let p = recipe.build(50);
            assert!(p.num_insts() > 0);
        }
    }

    #[test]
    fn same_seed_same_program() {
        let a = Recipe::random(42);
        let b = Recipe::random(42);
        assert_eq!(a, b);
        assert_eq!(a.build(100), b.build(100));
    }

    #[test]
    fn synthesis_is_deterministic_and_names_are_stable() {
        let a = synthesize(8, SYNTH_SEED);
        let b = synthesize(8, SYNTH_SEED);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.recipe, y.recipe);
            assert_eq!(x.signature.digest(), y.signature.digest());
        }
        assert_eq!(a[0].name, "synth_00");
        assert_eq!(a[7].name, "synth_07");
    }

    #[test]
    fn picks_are_mutually_distinct() {
        let picks = synthesize(8, SYNTH_SEED);
        let digests: std::collections::BTreeSet<String> =
            picks.iter().map(|p| p.signature.digest()).collect();
        assert!(digests.len() >= 6, "maximin selection should avoid near-duplicates");
    }
}
