//! Determinism contract of the in-tree k-means (`docs/SAMPLING.md` §v2).
//!
//! The cluster plan feeds the journal's cell keys and the BENCH artifact
//! digests, so it must be a pure function of the *set of feature-vector
//! values* and the seed: identical inputs give bit-identical plans, and
//! permuting the interval order permutes only the interval *indices* —
//! the induced partition of values, the per-cluster weights, and the
//! representative *values* are all invariant. Every data-dependent choice
//! inside `cluster` (k-means++ init, tie-breaking, centroid summation,
//! empty-cluster repair) is keyed on vector values, never slice
//! positions; these properties pin that down.

use phast_sample::{cluster, FeatureVec, FEATURE_DIM};
use proptest::prelude::*;

/// splitmix64 — the test's own generator, so feature synthesis does not
/// depend on the code under test.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `n` synthetic feature vectors, distinct with overwhelming probability
/// (each dimension is a fresh 53-bit draw), loosely grouped into a few
/// value blobs so k-means has real structure to find.
fn synth_features(seed: u64, n: usize) -> Vec<FeatureVec> {
    (0..n)
        .map(|i| {
            let blob = (i % 3) as f64;
            FeatureVec {
                dims: (0..FEATURE_DIM)
                    .map(|d| {
                        let raw = mix(seed ^ ((i as u64) << 32) ^ d as u64);
                        blob + (raw >> 11) as f64 / (1u64 << 53) as f64
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// The partition a plan induces, expressed in *values*: one sorted list
/// of member feature vectors per cluster (each vector as its raw bit
/// pattern, so NaN-free f64 comparison is exact), with the cluster's
/// weight and its representative's value attached; clusters sorted by
/// their member lists. Two plans over reordered inputs must map to the
/// same canonical form.
type ValueVec = Vec<u64>;
fn canonical_partition(
    features: &[FeatureVec],
    plan: &phast_sample::ClusterPlan,
) -> Vec<(Vec<ValueVec>, u64, ValueVec)> {
    let bits = |f: &FeatureVec| -> ValueVec { f.dims.iter().map(|d| d.to_bits()).collect() };
    let mut clusters: Vec<(Vec<ValueVec>, u64, ValueVec)> = (0..plan.k)
        .map(|c| {
            let mut members: Vec<ValueVec> = plan
                .assignment
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a as usize == c)
                .map(|(i, _)| bits(&features[i]))
                .collect();
            members.sort();
            (members, plan.weights[c], bits(&features[plan.representatives[c] as usize]))
        })
        .collect();
    clusters.sort();
    clusters
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Same features, same seed, two independent calls: bit-identical
    /// plans (assignment, weights, representatives — everything).
    #[test]
    fn identical_inputs_give_identical_plans(seed in 0u64..u64::MAX, n in 2usize..24, k in 1usize..8) {
        let features = synth_features(seed, n);
        let a = cluster(&features, k, 0x5eed);
        let b = cluster(&features, k, 0x5eed);
        prop_assert_eq!(a, b);
    }

    /// Permuting the interval order changes only the index labels: the
    /// induced partition of vector values, the cluster weights, and the
    /// representative values are invariant.
    #[test]
    fn interval_permutation_does_not_change_the_partition(
        seed in 0u64..u64::MAX, pseed in 0u64..u64::MAX, n in 2usize..24, k in 1usize..8
    ) {
        let features = synth_features(seed, n);
        let perm = permutation(pseed, n);
        let shuffled: Vec<FeatureVec> = perm.iter().map(|&i| features[i].clone()).collect();
        let plan_a = cluster(&features, k, 0x5eed);
        let plan_b = cluster(&shuffled, k, 0x5eed);
        prop_assert_eq!(plan_a.k, plan_b.k);
        prop_assert_eq!(
            canonical_partition(&features, &plan_a),
            canonical_partition(&shuffled, &plan_b)
        );
    }

    /// Structural sanity at any (n, k): weights count members exactly,
    /// every representative belongs to its own cluster, and every
    /// interval is assigned to a live cluster.
    #[test]
    fn plans_are_structurally_sound(seed in 0u64..u64::MAX, n in 1usize..24, k in 1usize..8) {
        let features = synth_features(seed, n);
        let plan = cluster(&features, k, 0x5eed);
        prop_assert!(plan.k >= 1 && plan.k <= n);
        prop_assert_eq!(plan.assignment.len(), n);
        prop_assert_eq!(plan.weights.len(), plan.k);
        prop_assert_eq!(plan.representatives.len(), plan.k);
        prop_assert_eq!(plan.weights.iter().sum::<u64>(), n as u64);
        for (c, &rep) in plan.representatives.iter().enumerate() {
            prop_assert_eq!(plan.assignment[rep as usize] as usize, c);
        }
        for c in 0..plan.k {
            let count = plan.assignment.iter().filter(|&&a| a as usize == c).count() as u64;
            prop_assert_eq!(count, plan.weights[c]);
        }
    }
}

/// K = 1 (`SampleConfig::phase(1)`) is the degenerate plan: one cluster
/// holding every interval, weight n, a single representative — the
/// contract the experiments-side golden test (single-window estimate,
/// byte-identical across the serial and parallel paths) builds on.
#[test]
fn k_one_is_one_cluster_with_full_weight() {
    let features = synth_features(7, 9);
    let plan = cluster(&features, 1, 0x5eed);
    assert_eq!(plan.k, 1);
    assert_eq!(plan.weights, vec![9]);
    assert_eq!(plan.representatives.len(), 1);
    assert!(plan.assignment.iter().all(|&a| a == 0));
}
