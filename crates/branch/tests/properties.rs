//! Property-based tests for the divergent-branch history machinery.

use phast_branch::{
    fold_bits, BranchHistory, DivergentEvent, DivergentHistory, PathFolder, ReturnAddressStack,
    HISTORY_CAPACITY, RAS_DEPTH,
};
use phast_isa::BlockId;
use proptest::prelude::*;

fn event_strategy() -> impl Strategy<Value = DivergentEvent> {
    (any::<bool>(), any::<bool>(), any::<u64>())
        .prop_map(|(indirect, taken, target)| DivergentEvent { indirect, taken, target })
}

proptest! {
    /// A [`PathFolder`] walking ascending lengths folds exactly what the
    /// collected paths fold, wherever the ring's head sits: before the
    /// first wrap, past it, and after a rewind to an older checkpoint.
    #[test]
    fn path_folder_matches_collected_paths_anywhere_in_the_ring(
        seed in any::<u64>(),
        pushes in 0usize..3 * HISTORY_CAPACITY,
        rewind in 0usize..600,
        lens in prop::collection::vec(0usize..HISTORY_CAPACITY + 8, 1..8),
        bits in 1u32..40,
    ) {
        let mut h = DivergentHistory::new();
        let mut checkpoints = Vec::with_capacity(pushes);
        let mut x = seed;
        for _ in 0..pushes {
            checkpoints.push(h.checkpoint());
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
            let r = x >> 32;
            h.push(DivergentEvent { indirect: r & 1 != 0, taken: r & 2 != 0, target: r >> 2 });
        }
        if let Some(&cp) = checkpoints.get(pushes.saturating_sub(rewind)) {
            h.restore(cp);
        }
        let mut lens = lens;
        lens.sort_unstable();
        let mut plain = PathFolder::new(&h);
        let mut n_plus_one = PathFolder::new(&h);
        for &len in &lens {
            let want = h.path_plain(len).fold(bits);
            prop_assert_eq!(plain.fold_plain(len, bits), want, "plain {}", len);
            let want = h.path(len).fold(bits);
            prop_assert_eq!(n_plus_one.fold_path(len, bits), want, "n+1 {}", len);
        }
    }

    /// A collected path never exceeds the requested length or the number
    /// of recorded events.
    #[test]
    fn path_length_is_bounded(events in prop::collection::vec(event_strategy(), 0..64), len in 0usize..80) {
        let mut h = DivergentHistory::new();
        for e in &events {
            h.push(*e);
        }
        let p = h.path(len);
        prop_assert!(p.len() <= len);
        prop_assert!(p.len() <= events.len());
        prop_assert_eq!(p.len(), len.min(events.len()));
    }

    /// Checkpoint/restore erases exactly the events pushed in between.
    #[test]
    fn checkpoint_restore_roundtrip(
        before in prop::collection::vec(event_strategy(), 0..32),
        after in prop::collection::vec(event_strategy(), 0..32),
        len in 1usize..40,
    ) {
        let mut h = DivergentHistory::new();
        for e in &before {
            h.push(*e);
        }
        let snapshot = h.path(len);
        let cp = h.checkpoint();
        for e in &after {
            h.push(*e);
        }
        h.restore(cp);
        prop_assert_eq!(h.count(), before.len() as u64);
        prop_assert_eq!(h.path(len), snapshot, "restored paths must match");
    }

    /// Identical event sequences produce identical paths; appending a
    /// different newest event changes every non-empty path.
    #[test]
    fn paths_are_deterministic_and_sensitive(
        events in prop::collection::vec(event_strategy(), 1..32),
        len in 1usize..33,
    ) {
        let build = |evs: &[DivergentEvent]| {
            let mut h = DivergentHistory::new();
            for e in evs {
                h.push(*e);
            }
            h
        };
        let h1 = build(&events);
        let h2 = build(&events);
        prop_assert_eq!(h1.path(len), h2.path(len));

        // Flip the newest event's taken bit: the path must change.
        let mut flipped = events.clone();
        let old = *flipped.last().unwrap();
        *flipped.last_mut().unwrap() =
            DivergentEvent { taken: !old.taken, indirect: false, target: old.target };
        let h3 = build(&flipped);
        prop_assert_ne!(h1.path(len), h3.path(len), "newest outcome must be visible");
    }

    /// `fold_bits` stays within its width and is deterministic.
    #[test]
    fn fold_is_bounded_and_stable(values in prop::collection::vec(0u8..128, 0..64), bits in 1u32..64) {
        let a = fold_bits(values.iter().copied(), bits);
        let b = fold_bits(values.iter().copied(), bits);
        prop_assert_eq!(a, b);
        prop_assert!(a < (1u64 << bits));
    }

    /// Folding distributes differences: two single-entry paths differing
    /// in one value collide with low probability at 16 bits.
    #[test]
    fn fold_separates_singletons(a in 0u8..128, b in 0u8..128) {
        prop_assume!(a != b);
        // Not a strict guarantee (hashes collide), but at 16 bits a
        // single-byte difference must not collide for these tiny inputs.
        prop_assert_ne!(
            fold_bits(std::iter::once(a), 16),
            fold_bits(std::iter::once(b), 16)
        );
    }

    /// The plain path (no oldest-entry rule) hides conditional targets but
    /// keeps indirect targets.
    #[test]
    fn plain_path_contribution_rules(target in 0u64..32) {
        let mut h = DivergentHistory::new();
        h.push(DivergentEvent { indirect: false, taken: true, target });
        let plain = h.path_plain(1);
        prop_assert_eq!(plain.entries[0] & 0x1f, 0, "conditional target must be masked");
        let mut h2 = DivergentHistory::new();
        h2.push(DivergentEvent { indirect: true, taken: true, target });
        let plain2 = h2.path_plain(1);
        prop_assert_eq!(u64::from(plain2.entries[0] & 0x1f), target & 0x1f, "indirect target kept");
    }
}

/// One front-end step of a random branch stream.
#[derive(Clone, Copy, Debug)]
enum Step {
    Cond { taken: bool, target: u64 },
    /// An indirect transfer; a return (`ret`) pops the RAS first.
    Indirect { target: u64, ret: bool },
    Call(u32),
    Checkpoint,
    /// Restores the checkpoint with this index (modulo those taken).
    Restore(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<bool>(), any::<u64>()).prop_map(|(taken, target)| Step::Cond { taken, target }),
        (any::<u64>(), any::<bool>()).prop_map(|(target, ret)| Step::Indirect { target, ret }),
        (0u32..1_000).prop_map(Step::Call),
        Just(Step::Checkpoint),
        any::<usize>().prop_map(Step::Restore),
    ]
}

/// What a consumer can read of a branch history: both GHRs, the
/// divergent count, the 64 newest packed events and `pops` RAS pops.
type Observed = (u128, u128, u64, Vec<u8>, Vec<Option<BlockId>>);

fn observed(
    (cond_ghr, path_ghr): (u128, u128),
    history: &DivergentHistory,
    mut pop: impl FnMut() -> Option<BlockId>,
    pops: usize,
) -> Observed {
    let events = (0..64).map(|i| history.packed_at(i)).collect();
    (cond_ghr, path_ghr, history.count(), events, (0..pops).map(|_| pop()).collect())
}

fn observed_history(h: &BranchHistory, pops: usize) -> Observed {
    let mut ras = h.clone();
    observed((h.cond_ghr(), h.path_ghr()), h.divergent(), || ras.pop_return(), pops)
}

/// Applies a branch step to `h`; returns a return's RAS pop.
fn apply(h: &mut BranchHistory, step: Step) -> Option<BlockId> {
    match step {
        Step::Cond { taken, target } => h.push(DivergentEvent { indirect: false, taken, target }),
        Step::Indirect { target, ret } => {
            let popped = if ret { h.pop_return() } else { None };
            h.push(DivergentEvent { indirect: true, taken: true, target });
            return popped;
        }
        Step::Call(b) => h.push_return(BlockId(b)),
        Step::Checkpoint | Step::Restore(_) => {}
    }
    None
}

proptest! {
    /// Over random conditional and indirect events, calls, returns,
    /// checkpoints and restores, `BranchHistory` reads exactly like the
    /// written-out per-register rules after every step, and pops the
    /// same return blocks.
    #[test]
    fn branch_history_matches_the_written_out_update_rules(
        steps in prop::collection::vec(step_strategy(), 0..200),
    ) {
        // The reference: the update rules written out register by
        // register, as the core's fetch stage and the sampled warm phase
        // each spelled them before both moved onto `BranchHistory`.
        let (mut ghrs, mut hist) = ((0u128, 0u128), DivergentHistory::new());
        let mut ras = ReturnAddressStack::new(RAS_DEPTH);
        let mut h = BranchHistory::default();
        let mut checkpoints = Vec::new();
        for (i, &step) in steps.iter().enumerate() {
            let popped = apply(&mut h, step);
            match step {
                Step::Cond { taken, target } => {
                    hist.push(DivergentEvent { indirect: false, taken, target });
                    ghrs.0 = (ghrs.0 << 1) | u128::from(taken);
                    ghrs.1 = (ghrs.1 << 1) | u128::from(taken);
                }
                Step::Indirect { target, ret } => {
                    let want = if ret { ras.pop() } else { None };
                    prop_assert_eq!(popped, want, "RAS pop at step {}", i);
                    hist.push(DivergentEvent { indirect: true, taken: true, target });
                    ghrs.1 = (ghrs.1 << 5) | u128::from(target & 0x1f);
                }
                Step::Call(b) => ras.push(BlockId(b)),
                Step::Checkpoint => {
                    checkpoints.push((h.checkpoint(), ghrs, hist.checkpoint(), ras.checkpoint()));
                }
                Step::Restore(k) if !checkpoints.is_empty() => {
                    let (cp, ghrs_cp, hist_cp, ras_cp) = checkpoints[k % checkpoints.len()];
                    h.restore(cp);
                    ghrs = ghrs_cp;
                    hist.restore(hist_cp);
                    ras.restore(ras_cp);
                }
                Step::Restore(_) => {}
            }
            let pops = if i + 1 == steps.len() { RAS_DEPTH } else { 0 };
            let mut reference_ras = ras.clone();
            let want = observed(ghrs, &hist, || reference_ras.pop(), pops);
            prop_assert_eq!(observed_history(&h, pops), want, "step {}", i);
        }
    }

    /// `restore(cp)` after further pushes (conditional and indirect
    /// events, calls) returns a state that reads exactly like the one
    /// `cp` was taken from.
    #[test]
    fn branch_history_restore_undoes_further_pushes(
        prefix in prop::collection::vec(step_strategy(), 0..120),
        further in prop::collection::vec(step_strategy(), 0..16),
    ) {
        let mut h = BranchHistory::default();
        for &step in &prefix {
            apply(&mut h, step);
        }
        let (before, cp) = (h.clone(), h.checkpoint());
        for &step in &further {
            if !matches!(step, Step::Indirect { ret: true, .. }) {
                apply(&mut h, step);
            }
        }
        h.restore(cp);
        // At most 15 calls follow `cp`, so the 16 newest RAS slots below
        // its top are intact (the RAS restores only its top pointer).
        prop_assert_eq!(observed_history(&h, 16), observed_history(&before, 16));
        prop_assert_eq!(h.checkpoint(), cp);
    }
}
