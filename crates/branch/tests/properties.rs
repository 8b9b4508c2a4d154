//! Property-based tests for the divergent-branch history machinery.

use phast_branch::{fold_bits, DivergentEvent, DivergentHistory, PathFolder, HISTORY_CAPACITY};
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
