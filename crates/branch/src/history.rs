//! Divergent-branch global history (§III-B, §IV-A2 of the paper), and
//! the front end's whole branch-history state built around it.

use crate::indirect::{RasCheckpoint, ReturnAddressStack};
use phast_isa::BlockId;

/// Capacity of the divergent-history ring buffer. Large enough to cover the
/// longest history any predictor uses (MDP-TAGE's longest component) plus
/// all in-flight branches.
pub const HISTORY_CAPACITY: usize = 4096;

/// One divergent-branch outcome: a conditional branch or an indirect
/// transfer (indirect jump / return).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DivergentEvent {
    /// True for indirect transfers, false for conditional branches.
    pub indirect: bool,
    /// Taken/not-taken outcome (always true for indirect transfers).
    pub taken: bool,
    /// The actual destination address of the branch (the branch target when
    /// taken, the fallthrough PC when not). Only the 5 LSBs are kept.
    pub target: u64,
}

impl DivergentEvent {
    /// Packs the event into 7 bits: `[indirect:1 | taken:1 | target:5]`.
    #[inline]
    pub fn packed(self) -> u8 {
        (u8::from(self.indirect) << 6) | (u8::from(self.taken) << 5) | (self.target as u8 & 0x1f)
    }

    /// The per-use history contribution of a packed event (§IV-A2):
    ///
    /// * the **oldest** entry of a collected path (the divergent branch
    ///   previous to the conflicting store) contributes all 7 bits — its
    ///   destination disambiguates paths even for conditional branches
    ///   (the paper's Fig. 5 N+1 rule);
    /// * younger conditional branches contribute only their outcome bit;
    /// * younger indirect branches contribute their destination bits.
    #[inline]
    pub const fn contribution(packed: u8, oldest: bool) -> u8 {
        if oldest {
            packed
        } else if packed & 0x40 != 0 {
            packed & 0x5f // indirect: type + 5-bit destination
        } else {
            packed & 0x20 // conditional: outcome bit only
        }
    }
}

/// `DivergentEvent::contribution(p, false)` for every 7-bit packed event
/// `p`: the younger-entry contribution, looked up per step of a walk.
const PLAIN_CONTRIBUTION: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut p = 0;
    while p < 128 {
        table[p] = DivergentEvent::contribution(p as u8, false);
        p += 1;
    }
    table
};

/// Checkpoint of a [`DivergentHistory`], restorable in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryCheckpoint {
    head: usize,
    count: u64,
}

/// Global history register of divergent branches.
///
/// Backed by a ring buffer of packed 7-bit events. The `count` of events
/// ever pushed doubles as the decode-time divergent-branch counter the
/// paper uses to compute store→load history lengths (§IV-A2): loads and
/// stores copy `count()` at decode, and a conflict's history length is the
/// difference of the two copies plus one.
#[derive(Clone, PartialEq, Eq)]
pub struct DivergentHistory {
    buf: Box<[u8]>,
    head: usize,
    count: u64,
}

impl Default for DivergentHistory {
    fn default() -> Self {
        DivergentHistory::new()
    }
}

impl DivergentHistory {
    /// Creates an empty history.
    pub fn new() -> DivergentHistory {
        DivergentHistory { buf: vec![0u8; HISTORY_CAPACITY].into_boxed_slice(), head: 0, count: 0 }
    }

    /// Records a divergent-branch outcome.
    pub fn push(&mut self, event: DivergentEvent) {
        self.buf[self.head] = event.packed();
        self.head = (self.head + 1) % HISTORY_CAPACITY;
        self.count += 1;
    }

    /// Total number of events ever pushed (the decode-time counter).
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Takes a checkpoint for later [`restore`](Self::restore).
    pub fn checkpoint(&self) -> HistoryCheckpoint {
        HistoryCheckpoint { head: self.head, count: self.count }
    }

    /// Restores a checkpoint taken on this history. Rewinding discards
    /// events pushed after the checkpoint; the core also restores
    /// *forward* to undo a temporary rewind (ring contents are preserved
    /// until overwritten, so both directions are exact within
    /// [`HISTORY_CAPACITY`]).
    pub fn restore(&mut self, cp: HistoryCheckpoint) {
        self.head = cp.head;
        self.count = cp.count;
    }

    /// The packed event `i` positions back from the newest (0 = newest).
    /// Returns 0 for positions older than anything recorded.
    #[inline]
    pub fn packed_at(&self, i: usize) -> u8 {
        if (i as u64) < self.count && i < HISTORY_CAPACITY {
            self.buf[(self.head + HISTORY_CAPACITY - 1 - i) % HISTORY_CAPACITY]
        } else {
            0
        }
    }

    /// Collects the `len` newest events into a [`Path`], applying the
    /// oldest-entry destination rule. A `len` of 0 yields the empty path.
    pub fn path(&self, len: usize) -> Path {
        let len = len.min(HISTORY_CAPACITY).min(self.count as usize);
        let mut entries = Vec::with_capacity(len);
        for i in 0..len {
            let packed = self.packed_at(i);
            entries.push(DivergentEvent::contribution(packed, i + 1 == len));
        }
        Path { entries }
    }

    /// Collects the `len` newest events *without* the oldest-entry
    /// destination rule: every entry uses the younger-entry contribution
    /// (outcome bit for conditionals, destination for indirects). This is
    /// the history form used by NoSQ and MDP-TAGE, which predate the
    /// paper's N+1 rule.
    pub fn path_plain(&self, len: usize) -> Path {
        let len = len.min(HISTORY_CAPACITY).min(self.count as usize);
        let mut entries = Vec::with_capacity(len);
        for i in 0..len {
            entries.push(DivergentEvent::contribution(self.packed_at(i), false));
        }
        Path { entries }
    }

    /// Allocation-free equivalent of `self.path(len).fold(bits)`.
    pub fn fold_path(&self, len: usize, bits: u32) -> u64 {
        PathFolder::new(self).fold_path(len, bits)
    }

    /// Allocation-free equivalent of `self.path_plain(len).fold(bits)`.
    pub fn fold_plain(&self, len: usize, bits: u32) -> u64 {
        PathFolder::new(self).fold_plain(len, bits)
    }
}

impl std::fmt::Debug for DivergentHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DivergentHistory")
            .field("count", &self.count)
            .field("head", &self.head)
            .finish()
    }
}

/// Entries of the return-address stack a [`BranchHistory`] holds.
pub const RAS_DEPTH: usize = 32;

/// Every history register a front end keeps about branches, updated by
/// one rule: the conditional GHR (one outcome bit per conditional, what
/// the direction predictor keys on), the path GHR (one outcome bit per
/// conditional, five destination bits per indirect transfer, what ITTAGE
/// keys on), the [`DivergentHistory`] the memory dependence predictors
/// hash (§III-B), and the return-address stack.
///
/// The out-of-order core keeps one speculatively (pushed at fetch,
/// restored on a squash, pushed with the actual outcome on branch
/// repair), and sampled simulation's warm phase keeps one
/// architecturally. Both go through [`push`](Self::push), so a core
/// booted from warmed state sees the history it would have built itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchHistory {
    cond_ghr: u128,
    path_ghr: u128,
    divergent: DivergentHistory,
    ras: ReturnAddressStack,
}

/// Checkpoint of a [`BranchHistory`], restorable in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchCheckpoint {
    cond_ghr: u128,
    path_ghr: u128,
    divergent: HistoryCheckpoint,
    ras: RasCheckpoint,
}

impl BranchCheckpoint {
    /// The divergent count at the checkpoint (an instruction's
    /// decode-time counter, §IV-A2, when taken at its fetch).
    #[inline]
    pub fn count(&self) -> u64 {
        self.divergent.count
    }

    /// The conditional GHR at the checkpoint.
    #[inline]
    pub fn cond_ghr(&self) -> u128 {
        self.cond_ghr
    }

    /// The path GHR at the checkpoint.
    #[inline]
    pub fn path_ghr(&self) -> u128 {
        self.path_ghr
    }
}

/// Empty histories and a [`RAS_DEPTH`]-entry return-address stack.
impl Default for BranchHistory {
    fn default() -> Self {
        BranchHistory {
            cond_ghr: 0,
            path_ghr: 0,
            divergent: DivergentHistory::new(),
            ras: ReturnAddressStack::new(RAS_DEPTH),
        }
    }
}

impl BranchHistory {
    /// Records a divergent-branch outcome in every register it feeds: a
    /// conditional branch shifts its outcome into both GHRs, an indirect
    /// transfer the five low bits of its destination into the path GHR.
    #[inline]
    pub fn push(&mut self, event: DivergentEvent) {
        if event.indirect {
            self.path_ghr = (self.path_ghr << 5) | u128::from(event.target & 0x1f);
        } else {
            self.cond_ghr = (self.cond_ghr << 1) | u128::from(event.taken);
            self.path_ghr = (self.path_ghr << 1) | u128::from(event.taken);
        }
        self.divergent.push(event);
    }

    /// Pushes a call's return block onto the return-address stack.
    #[inline]
    pub fn push_return(&mut self, ret_to: BlockId) {
        self.ras.push(ret_to);
    }

    /// Pops the predicted return block (`None` on an empty stack).
    #[inline]
    pub fn pop_return(&mut self) -> Option<BlockId> {
        self.ras.pop()
    }

    /// The conditional GHR.
    #[inline]
    pub fn cond_ghr(&self) -> u128 {
        self.cond_ghr
    }

    /// The path GHR.
    #[inline]
    pub fn path_ghr(&self) -> u128 {
        self.path_ghr
    }

    /// The divergent-branch history.
    #[inline]
    pub fn divergent(&self) -> &DivergentHistory {
        &self.divergent
    }

    /// Takes a checkpoint for later [`restore`](Self::restore).
    #[inline]
    pub fn checkpoint(&self) -> BranchCheckpoint {
        BranchCheckpoint {
            cond_ghr: self.cond_ghr,
            path_ghr: self.path_ghr,
            divergent: self.divergent.checkpoint(),
            ras: self.ras.checkpoint(),
        }
    }

    /// Restores every register to a checkpoint taken on this history,
    /// exact in both directions as [`DivergentHistory::restore`] is; the
    /// return-address stack restores only its top pointer, as hardware
    /// does.
    #[inline]
    pub fn restore(&mut self, cp: BranchCheckpoint) {
        self.cond_ghr = cp.cond_ghr;
        self.path_ghr = cp.path_ghr;
        self.divergent.restore(cp.divergent);
        self.ras.restore(cp.ras);
    }
}

/// A collected store→load path: the per-use history string, newest entry
/// first. Used directly as a key by unlimited predictors and folded to a
/// small index/tag by table-based predictors.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Path {
    /// 7-bit contributions, newest first; the last entry carries the full
    /// destination of the divergent branch previous to the store.
    pub entries: Vec<u8>,
}

impl Path {
    /// Number of history entries in the path.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for the empty (length-0) path.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds the path into `bits` bits by rotate-XOR, TAGE-style.
    pub fn fold(&self, bits: u32) -> u64 {
        fold_bits(self.entries.iter().copied(), bits)
    }
}

/// Folds a sequence of 7-bit values into `bits` bits (1..=63).
/// Deterministic and order-sensitive. Each entry is diffused across the
/// full accumulator with a multiplicative mix before the final fold-down,
/// so single-bit differences between paths land on many table-index bits
/// — weakly mixed history hashes cause systematic set conflicts between
/// hot loads (the paper's footnote 4 notes that good hashes matter for
/// every predictor it evaluates).
pub fn fold_bits(values: impl Iterator<Item = u8>, bits: u32) -> u64 {
    let mut acc = 0u64;
    for v in values {
        acc = mix(acc, v);
    }
    fold_down(acc, bits)
}

/// One mixing step of [`fold_bits`]: diffuses `v` into the accumulator.
#[inline]
fn mix(acc: u64, v: u8) -> u64 {
    acc.rotate_left(13).wrapping_add(u64::from(v) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Folds a 64-bit accumulator down to `bits` bits (the tail of
/// [`fold_bits`]).
#[inline]
fn fold_down(acc: u64, bits: u32) -> u64 {
    assert!((1..=63).contains(&bits), "fold width must be 1..=63");
    let mask = (1u64 << bits) - 1;
    let mut out = 0u64;
    let mut a = acc;
    while a != 0 {
        out ^= a & mask;
        a >>= bits;
    }
    out
}

/// Incremental, allocation-free path folder over one [`DivergentHistory`].
///
/// Table-based predictors probe many components whose paths are nested
/// prefixes of the same newest-first event sequence. Collecting a [`Path`]
/// per component allocates a `Vec` and re-walks the shared prefix every
/// time — on MDP-TAGE's 12-component geometric series that is ~4900 ring
/// reads per load where ~2000 suffice. A `PathFolder` walks the ring once,
/// carrying the raw fold accumulator forward, and folds it down at each
/// requested length.
///
/// Lengths must be non-decreasing across calls (probe components shortest
/// history first, as every TAGE-style loop already does). Each fold is
/// bit-identical to collecting the equivalent [`Path`] and calling
/// [`Path::fold`].
pub struct PathFolder<'a> {
    hist: &'a DivergentHistory,
    /// Events mixed into `acc` so far (= plain-contribution prefix length).
    pos: usize,
    /// Usable history length: `min(count, HISTORY_CAPACITY)`.
    limit: usize,
    acc: u64,
}

impl<'a> PathFolder<'a> {
    /// Starts a folder at prefix length 0.
    pub fn new(hist: &'a DivergentHistory) -> PathFolder<'a> {
        let limit = hist.count.min(HISTORY_CAPACITY as u64) as usize;
        PathFolder { hist, pos: 0, limit, acc: 0 }
    }

    /// Mixes events `pos..len` (newest first) into the accumulator.
    ///
    /// Newest first, the ring reads `buf[..head]` backwards, then
    /// `buf[head..]` backwards, so the walk is two reversed slices rather
    /// than a modulo per event. `len ≤ limit` keeps it to recorded events:
    /// the ring wraps into `buf[head..]` only once `count ≥ capacity`.
    #[inline]
    fn advance_to(&mut self, len: usize) {
        debug_assert!(len >= self.pos, "PathFolder lengths must be non-decreasing");
        debug_assert!(len <= self.limit, "PathFolder walks only recorded events");
        let (newer, older) = self.hist.buf.split_at(self.hist.head);
        let (head, tail) = (newer.len(), older.len());
        let mut acc = self.acc;
        for &p in newer[head - len.min(head)..head - self.pos.min(head)].iter().rev() {
            acc = mix(acc, PLAIN_CONTRIBUTION[usize::from(p & 0x7f)]);
        }
        let (from, to) = (self.pos.max(head) - head, len.max(head) - head);
        for &p in older[tail - to..tail - from].iter().rev() {
            acc = mix(acc, PLAIN_CONTRIBUTION[usize::from(p & 0x7f)]);
        }
        self.acc = acc;
        self.pos = len;
    }

    /// Folds the `len`-newest plain path (no oldest-entry rule) into
    /// `bits` bits. Equals `hist.path_plain(len).fold(bits)`.
    pub fn fold_plain(&mut self, len: usize, bits: u32) -> u64 {
        let len = len.min(self.limit);
        self.advance_to(len);
        fold_down(self.acc, bits)
    }

    /// Folds the `len`-newest path *with* the oldest-entry destination rule
    /// (§IV-A2's N+1 form) into `bits` bits. Equals
    /// `hist.path(len).fold(bits)`. The oldest entry's full contribution is
    /// mixed off to the side so the shared plain prefix stays reusable by
    /// later (longer) folds.
    pub fn fold_path(&mut self, len: usize, bits: u32) -> u64 {
        let len = len.min(self.limit);
        if len == 0 {
            return fold_down(0, bits);
        }
        self.advance_to(len - 1);
        let oldest = DivergentEvent::contribution(self.hist.packed_at(len - 1), true);
        fold_down(mix(self.acc, oldest), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(taken: bool, target: u64) -> DivergentEvent {
        DivergentEvent { indirect: false, taken, target }
    }

    fn indirect(target: u64) -> DivergentEvent {
        DivergentEvent { indirect: true, taken: true, target }
    }

    #[test]
    fn packing_layout() {
        assert_eq!(cond(true, 0).packed(), 0b010_0000);
        assert_eq!(cond(false, 0x1f).packed(), 0b001_1111);
        assert_eq!(indirect(0b10110).packed(), 0b111_0110);
    }

    #[test]
    fn contribution_rules() {
        let c = cond(true, 0b11111).packed();
        // Younger conditional: outcome only, destination masked away.
        assert_eq!(DivergentEvent::contribution(c, false), 0b010_0000);
        // Oldest entry keeps its destination even when conditional.
        assert_eq!(DivergentEvent::contribution(c, true), 0b011_1111);
        let i = indirect(0b10101).packed();
        assert_eq!(DivergentEvent::contribution(i, false), 0b101_0101);
        assert_eq!(DivergentEvent::contribution(i, true), 0b111_0101);
    }

    #[test]
    fn path_collects_newest_first_with_oldest_rule() {
        let mut h = DivergentHistory::new();
        h.push(cond(true, 1)); // oldest
        h.push(indirect(2));
        h.push(cond(false, 3)); // newest
        let p = h.path(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.entries[0], DivergentEvent::contribution(cond(false, 3).packed(), false));
        assert_eq!(p.entries[1], DivergentEvent::contribution(indirect(2).packed(), false));
        assert_eq!(p.entries[2], cond(true, 1).packed(), "oldest keeps full info");
    }

    #[test]
    fn path_truncates_to_available() {
        let mut h = DivergentHistory::new();
        h.push(cond(true, 0));
        assert_eq!(h.path(8).len(), 1);
        assert!(h.path(0).is_empty());
    }

    #[test]
    fn same_suffix_different_oldest_destination_differs() {
        // The Fig. 5 scenario: identical branch outcomes between store and
        // load, but the branch previous to the store lands elsewhere.
        let mut left = DivergentHistory::new();
        left.push(cond(true, 0b00001));
        left.push(cond(true, 9999)); // suffix branch, same outcome both sides
        let mut right = DivergentHistory::new();
        right.push(cond(true, 0b00010));
        right.push(cond(true, 1234));
        assert_ne!(left.path(2), right.path(2), "N+1 destination disambiguates");
        // Without the oldest-entry rule (length 1) they are identical.
        assert_eq!(left.path(1).entries[0] & 0x20, right.path(1).entries[0] & 0x20);
    }

    #[test]
    fn checkpoint_restore_discards_wrong_path() {
        let mut h = DivergentHistory::new();
        h.push(cond(true, 1));
        let cp = h.checkpoint();
        h.push(cond(false, 2));
        h.push(indirect(3));
        assert_eq!(h.count(), 3);
        h.restore(cp);
        assert_eq!(h.count(), 1);
        assert_eq!(h.path(1).entries[0], cond(true, 1).packed());
    }

    #[test]
    fn ring_wraps_without_losing_recent_entries() {
        let mut h = DivergentHistory::new();
        for i in 0..(HISTORY_CAPACITY as u64 + 10) {
            h.push(cond(i % 2 == 0, i));
        }
        assert_eq!(h.count(), HISTORY_CAPACITY as u64 + 10);
        let newest = h.packed_at(0);
        assert_eq!(newest, cond((HISTORY_CAPACITY as u64 + 9).is_multiple_of(2), HISTORY_CAPACITY as u64 + 9).packed());
    }

    #[test]
    fn fold_respects_width_and_order() {
        let a = fold_bits([1u8, 2, 3].into_iter(), 10);
        let b = fold_bits([3u8, 2, 1].into_iter(), 10);
        assert!(a < 1024 && b < 1024);
        assert_ne!(a, b, "folding is order-sensitive");
        assert_eq!(fold_bits(std::iter::empty(), 16), 0);
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn fold_rejects_zero_width() {
        let _ = fold_bits(std::iter::empty(), 0);
    }

    #[test]
    fn path_folder_matches_collected_paths() {
        let mut h = DivergentHistory::new();
        // Include a ring wrap so packed_at clamping is exercised.
        for i in 0..(HISTORY_CAPACITY as u64 + 37) {
            if i % 5 == 0 {
                h.push(indirect(i));
            } else {
                h.push(cond(i % 3 == 0, i));
            }
        }
        let lens = [0usize, 1, 2, 6, 10, 17, 500, 2000, HISTORY_CAPACITY, HISTORY_CAPACITY + 99];
        for bits in [7u32, 13, 27] {
            let mut folder = PathFolder::new(&h);
            for &len in &lens {
                assert_eq!(
                    folder.fold_plain(len, bits),
                    h.path_plain(len).fold(bits),
                    "plain len {len} bits {bits}"
                );
            }
            let mut folder = PathFolder::new(&h);
            for &len in &lens {
                assert_eq!(
                    folder.fold_path(len, bits),
                    h.path(len).fold(bits),
                    "n+1 len {len} bits {bits}"
                );
            }
        }
    }

    #[test]
    fn path_folder_interleaves_plain_and_oldest_rule() {
        // Phast-style usage: fold_path at ascending lengths must not let
        // the oldest-entry contribution leak into the shared prefix.
        let mut h = DivergentHistory::new();
        for i in 0..64u64 {
            h.push(cond(i % 2 == 0, i * 7 + 3));
        }
        let mut folder = PathFolder::new(&h);
        for len in [1usize, 3, 5, 9, 13, 17, 33] {
            assert_eq!(folder.fold_path(len, 23), h.path(len).fold(23), "len {len}");
        }
    }

    #[test]
    fn fold_shortcuts_on_short_histories() {
        let mut h = DivergentHistory::new();
        h.push(cond(true, 5));
        h.push(indirect(9));
        assert_eq!(h.fold_plain(100, 11), h.path_plain(100).fold(11));
        assert_eq!(h.fold_path(100, 11), h.path(100).fold(11));
        assert_eq!(DivergentHistory::new().fold_path(4, 9), 0);
    }
}
