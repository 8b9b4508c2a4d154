//! Indirect-target prediction: a last-target table for indirect jumps and
//! a return-address stack for `ret`.

use phast_isa::{BlockId, Pc};

/// PC-indexed last-target predictor for indirect jumps.
///
/// Stores the last observed target block per branch PC, with a partial tag
/// to limit destructive aliasing. This stands in for the BTB+ITTAGE pair of
/// a real front end; direct targets need no prediction in our model because
/// the static program is visible at fetch.
#[derive(Clone, Debug)]
pub struct LastTargetPredictor {
    entries: Vec<Option<(u16, BlockId)>>,
    index_mask: u64,
}

impl LastTargetPredictor {
    /// Creates a predictor with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> LastTargetPredictor {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        LastTargetPredictor { entries: vec![None; entries], index_mask: entries as u64 - 1 }
    }

    #[inline]
    fn index(&self, pc: Pc) -> usize {
        (((pc >> 2) ^ (pc >> 13)) & self.index_mask) as usize
    }

    #[inline]
    fn tag(pc: Pc) -> u16 {
        ((pc >> 2) & 0xffff) as u16
    }

    /// Predicted target for the indirect branch at `pc`, if one is cached.
    pub fn predict(&self, pc: Pc) -> Option<BlockId> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == Self::tag(pc) => Some(target),
            _ => None,
        }
    }

    /// Records the resolved target of the indirect branch at `pc`.
    pub fn update(&mut self, pc: Pc, target: BlockId) {
        let i = self.index(pc);
        self.entries[i] = Some((Self::tag(pc), target));
    }

    /// Storage in bits (16-bit tag + 32-bit target + valid per entry).
    pub fn storage_bits(&self) -> usize {
        self.entries.len() * (16 + 32 + 1)
    }
}

/// Return-address stack predicting `ret` targets at fetch.
///
/// The stack is speculative: `push` happens when a call is fetched, `pop`
/// when a return is fetched. Squash recovery restores the top-of-stack
/// pointer from a checkpoint; entries below the restored top survive, which
/// matches hardware RAS behaviour (and its occasional corruption).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReturnAddressStack {
    stack: Vec<BlockId>,
    top: usize,
}

/// Checkpoint of the RAS top-of-stack pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RasCheckpoint(usize);

impl ReturnAddressStack {
    /// Creates a RAS with `depth` entries.
    pub fn new(depth: usize) -> ReturnAddressStack {
        ReturnAddressStack { stack: vec![BlockId(0); depth.max(1)], top: 0 }
    }

    /// Pushes a return target (on fetching a call).
    pub fn push(&mut self, target: BlockId) {
        let d = self.stack.len();
        self.stack[self.top % d] = target;
        self.top += 1;
    }

    /// Pops the predicted return target (on fetching a ret). Returns `None`
    /// when the speculative stack is empty.
    pub fn pop(&mut self) -> Option<BlockId> {
        if self.top == 0 {
            return None;
        }
        self.top -= 1;
        Some(self.stack[self.top % self.stack.len()])
    }

    /// Current speculative depth (saturating at capacity for wrap purposes).
    pub fn depth(&self) -> usize {
        self.top
    }

    /// Takes a checkpoint of the top-of-stack pointer.
    pub fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint(self.top)
    }

    /// Restores the pointer from a checkpoint.
    pub fn restore(&mut self, cp: RasCheckpoint) {
        self.top = cp.0;
    }
}



#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_target_roundtrip() {
        let mut p = LastTargetPredictor::new(256);
        assert_eq!(p.predict(0x40_0100), None);
        p.update(0x40_0100, BlockId(7));
        assert_eq!(p.predict(0x40_0100), Some(BlockId(7)));
        p.update(0x40_0100, BlockId(9));
        assert_eq!(p.predict(0x40_0100), Some(BlockId(9)), "last target wins");
    }

    #[test]
    fn last_target_tag_rejects_aliases() {
        let mut p = LastTargetPredictor::new(4);
        p.update(0x40_0000, BlockId(1));
        // Same index (mod 4 after shifts) but different tag must miss.
        let alias = 0x40_0000 + (4 << 2) * 1024 * 16;
        if p.predict(alias).is_some() {
            // Only acceptable if tags happen to match.
            assert_eq!(
                (alias >> 2) & 0xffff,
                (0x40_0000u64 >> 2) & 0xffff,
                "prediction for aliasing pc must be tag-checked"
            );
        }
    }

    #[test]
    fn ras_lifo_order() {
        let mut r = ReturnAddressStack::new(16);
        r.push(BlockId(1));
        r.push(BlockId(2));
        assert_eq!(r.pop(), Some(BlockId(2)));
        assert_eq!(r.pop(), Some(BlockId(1)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_checkpoint_restore() {
        let mut r = ReturnAddressStack::new(8);
        r.push(BlockId(1));
        let cp = r.checkpoint();
        r.push(BlockId(2));
        r.pop();
        r.pop();
        r.restore(cp);
        assert_eq!(r.pop(), Some(BlockId(1)), "restore rewinds to checkpointed top");
    }

    #[test]
    fn ras_wraps_when_overflowed() {
        let mut r = ReturnAddressStack::new(2);
        r.push(BlockId(1));
        r.push(BlockId(2));
        r.push(BlockId(3)); // overwrites BlockId(1)'s slot
        assert_eq!(r.pop(), Some(BlockId(3)));
        assert_eq!(r.pop(), Some(BlockId(2)));
        assert_eq!(r.pop(), Some(BlockId(3)), "wrapped slot now holds newer value");
    }
}
