//! In-tree seeded k-means over interval feature vectors.
//!
//! No external dependencies, and two properties the sampling pipeline
//! depends on:
//!
//! * **Determinism**: the same inputs and seed always produce the same
//!   clustering — assignments land in journals and artifacts, and
//!   resumed sweeps must reproduce them exactly.
//! * **Permutation invariance**: clustering is a function of the
//!   *multiset* of vectors, not their order. Every data-dependent choice
//!   (k-means++ draws, tie-breaks, centroid summation order, empty-cluster
//!   repair) is made on vector *values*, never on slice positions, so
//!   re-ordering the intervals permutes the answer rather than changing
//!   it. Cluster ids are then canonicalized by each cluster's earliest
//!   member index.
//!
//! The initialization is the seeded k-means++ D²-weighting, realized as
//! an exponential race: each candidate draws `key = D²/(-ln u)` with `u`
//! a uniform derived by hashing the candidate's *value* with the seed and
//! round number, and the largest key wins. That is exactly weighted
//! sampling without replacement by D² — but because `u` depends only on
//! the value, the draw is order-independent. Lloyd iterations run to a
//! fixed cap with lowest-index tie-breaking on equidistant centroids.

use crate::features::FeatureVec;

/// Lloyd iteration cap: plenty for the ≤64-interval inputs the sampler
/// produces, and a hard determinism bound either way.
const MAX_ITERS: usize = 32;

/// The clustering attached to a phase-mode [`CheckpointSet`]
/// (`crate::CheckpointSet`): which cluster each interval belongs to, how
/// many members each cluster has, and which interval represents it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Number of clusters (after dropping any that could not be filled —
    /// at most the number of *distinct* feature vectors).
    pub k: usize,
    /// Seed the k-means++ draws were keyed with (recorded for replay).
    pub seed: u64,
    /// Cluster id per interval, parallel to the checkpoint list.
    pub assignment: Vec<u32>,
    /// Member count per cluster — the weight its representative window
    /// carries in the estimator. Sums to the interval count.
    pub weights: Vec<u64>,
    /// Representative interval index per cluster: the member closest to
    /// the centroid (ties: lexicographically smallest vector, then lowest
    /// index).
    pub representatives: Vec<u32>,
}

/// Clusters `features` into (at most) `k` groups.
///
/// `k` is clamped to `1..=features.len()`; duplicate vectors can reduce
/// the effective cluster count further (a cluster is never empty). The
/// returned plan's cluster ids are ordered by each cluster's earliest
/// member index.
///
/// # Panics
///
/// Panics if `features` is empty.
pub fn cluster(features: &[FeatureVec], k: usize, seed: u64) -> ClusterPlan {
    let n = features.len();
    assert!(n > 0, "cannot cluster zero intervals");
    let k = k.clamp(1, n);

    // --- Seeded k-means++ init (value-keyed exponential race). ---
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    // Min squared distance from each point to the chosen centers.
    let mut d2: Vec<f64> = vec![f64::INFINITY; n];
    for round in 0..k {
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in features.iter().enumerate() {
            let weight = if round == 0 { 1.0 } else { d2[i] };
            if weight <= 0.0 {
                // Duplicate of an already-chosen center: zero D² weight.
                continue;
            }
            let u = unit_draw(f, seed, round as u64);
            let key = weight / -u.ln();
            let wins = match best {
                None => true,
                Some((bk, bi)) => {
                    key > bk
                        || (key == bk
                            && features[i].lex_cmp(&features[bi]) == std::cmp::Ordering::Less)
                }
            };
            if wins {
                best = Some((key, i));
            }
        }
        // Fewer distinct vectors than k: stop with the centers we have.
        let Some((_, chosen)) = best else { break };
        centers.push(features[chosen].dims.clone());
        for (i, f) in features.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(&f.dims, &centers[centers.len() - 1]));
        }
    }
    let k = centers.len();

    // --- Lloyd iterations with empty-cluster repair. ---
    let mut assignment: Vec<u32> = vec![0; n];
    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for (i, f) in features.iter().enumerate() {
            let c = nearest_center(&f.dims, &centers);
            if assignment[i] != c {
                assignment[i] = c;
                changed = true;
            }
        }
        changed |= repair_empty_clusters(features, &centers, &mut assignment, k);
        if !changed {
            break;
        }
        recompute_centroids(features, &assignment, &mut centers);
    }

    finalize(features, &assignment, &centers, seed)
}

/// Uniform in (0, 1) derived from the vector's value, the seed and the
/// draw round — never from its position.
fn unit_draw(f: &FeatureVec, seed: u64, round: u64) -> f64 {
    let h = f.value_hash(seed ^ round.wrapping_mul(0xd134_2543_de82_ef95));
    // Top 53 bits, offset by half a ULP so the draw is never exactly 0.
    ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the nearest center; equidistant ties go to the lowest index.
fn nearest_center(point: &[f64], centers: &[Vec<f64>]) -> u32 {
    let mut best = 0u32;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d = sq_dist(point, center);
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

/// Reassigns one donor point into each empty cluster: the point farthest
/// from its current centroid among clusters with at least two members
/// (ties: lexicographically smallest vector, then lowest index). Returns
/// whether any assignment changed.
fn repair_empty_clusters(
    features: &[FeatureVec],
    centers: &[Vec<f64>],
    assignment: &mut [u32],
    k: usize,
) -> bool {
    let mut changed = false;
    loop {
        let mut counts = vec![0u64; k];
        for &a in assignment.iter() {
            counts[a as usize] += 1;
        }
        let Some(empty) = counts.iter().position(|&c| c == 0) else { break };
        let mut donor: Option<(f64, usize)> = None;
        for (i, f) in features.iter().enumerate() {
            if counts[assignment[i] as usize] < 2 {
                continue;
            }
            let d = sq_dist(&f.dims, &centers[assignment[i] as usize]);
            let wins = match donor {
                None => true,
                Some((bd, bi)) => {
                    d > bd
                        || (d == bd && f.lex_cmp(&features[bi]) == std::cmp::Ordering::Less)
                }
            };
            if wins {
                donor = Some((d, i));
            }
        }
        let Some((_, i)) = donor else { break };
        assignment[i] = empty as u32;
        changed = true;
    }
    changed
}

/// Recomputes each centroid as the mean of its members, summing in
/// value-sorted order so the float accumulation is permutation invariant.
fn recompute_centroids(
    features: &[FeatureVec],
    assignment: &[u32],
    centers: &mut [Vec<f64>],
) {
    for (c, center) in centers.iter_mut().enumerate() {
        let mut members: Vec<usize> = (0..features.len())
            .filter(|&i| assignment[i] == c as u32)
            .collect();
        if members.is_empty() {
            continue;
        }
        members.sort_by(|&a, &b| features[a].lex_cmp(&features[b]));
        let dim = center.len();
        let mut sum = vec![0.0f64; dim];
        for &m in &members {
            for (s, v) in sum.iter_mut().zip(&features[m].dims) {
                *s += v;
            }
        }
        for (out, s) in center.iter_mut().zip(&sum) {
            *out = s / members.len() as f64;
        }
    }
}

/// Drops empty clusters, renumbers the rest by earliest member index, and
/// picks each cluster's representative.
fn finalize(
    features: &[FeatureVec],
    assignment: &[u32],
    centers: &[Vec<f64>],
    seed: u64,
) -> ClusterPlan {
    // Old cluster id -> new id, ordered by first appearance.
    let mut order: Vec<u32> = Vec::new();
    for &a in assignment {
        if !order.contains(&a) {
            order.push(a);
        }
    }
    let remap = |old: u32| order.iter().position(|&o| o == old).expect("seen id") as u32;
    let k = order.len();
    let assignment: Vec<u32> = assignment.iter().map(|&a| remap(a)).collect();
    let mut weights = vec![0u64; k];
    for &a in &assignment {
        weights[a as usize] += 1;
    }
    let mut representatives = vec![0u32; k];
    for (new_c, &old_c) in order.iter().enumerate() {
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in features.iter().enumerate() {
            if assignment[i] != new_c as u32 {
                continue;
            }
            let d = sq_dist(&f.dims, &centers[old_c as usize]);
            let wins = match best {
                None => true,
                Some((bd, bi)) => {
                    d < bd || (d == bd && f.lex_cmp(&features[bi]) == std::cmp::Ordering::Less)
                }
            };
            if wins {
                best = Some((d, i));
            }
        }
        representatives[new_c] = best.expect("cluster is non-empty").1 as u32;
    }
    ClusterPlan { k, seed, assignment, weights, representatives }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(dims: &[f64]) -> FeatureVec {
        FeatureVec { dims: dims.to_vec() }
    }

    #[test]
    fn two_obvious_groups_separate() {
        let pts = vec![
            fv(&[0.0, 0.0]),
            fv(&[0.1, 0.0]),
            fv(&[0.0, 0.1]),
            fv(&[5.0, 5.0]),
            fv(&[5.1, 5.0]),
        ];
        let plan = cluster(&pts, 2, 42);
        assert_eq!(plan.k, 2);
        assert_eq!(plan.assignment[0], plan.assignment[1]);
        assert_eq!(plan.assignment[0], plan.assignment[2]);
        assert_eq!(plan.assignment[3], plan.assignment[4]);
        assert_ne!(plan.assignment[0], plan.assignment[3]);
        assert_eq!(plan.weights.iter().sum::<u64>(), 5);
        for (c, &rep) in plan.representatives.iter().enumerate() {
            assert_eq!(plan.assignment[rep as usize], c as u32, "rep belongs to its cluster");
        }
    }

    #[test]
    fn k_one_collapses_everything() {
        let pts = vec![fv(&[1.0]), fv(&[2.0]), fv(&[9.0])];
        let plan = cluster(&pts, 1, 0);
        assert_eq!(plan.k, 1);
        assert!(plan.assignment.iter().all(|&a| a == 0));
        assert_eq!(plan.weights, vec![3]);
        // Mean is 4.0; the closest member is 2.0 at index 1.
        assert_eq!(plan.representatives, vec![1]);
    }

    #[test]
    fn duplicate_points_cap_effective_k() {
        let pts = vec![fv(&[1.0]), fv(&[1.0]), fv(&[1.0])];
        let plan = cluster(&pts, 3, 7);
        assert_eq!(plan.k, 1, "identical points cannot fill 3 clusters");
        assert_eq!(plan.weights, vec![3]);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let pts = vec![fv(&[0.0]), fv(&[10.0])];
        let plan = cluster(&pts, 16, 3);
        assert_eq!(plan.k, 2);
        assert_eq!(plan.weights, vec![1, 1]);
    }

    #[test]
    fn same_input_same_seed_is_identical() {
        let pts: Vec<FeatureVec> =
            (0..12).map(|i| fv(&[f64::from(i % 4), f64::from(i / 4)])).collect();
        let a = cluster(&pts, 3, 99);
        let b = cluster(&pts, 3, 99);
        assert_eq!(a, b);
    }
}
