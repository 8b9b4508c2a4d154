//! Programs as basic-block control-flow graphs, with a synthetic address
//! layout so PC-indexed predictor structures behave realistically.

use crate::inst::{Inst, Op};
use std::fmt;

/// Identifier of a basic block within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A synthetic program counter (byte address of an instruction).
pub type Pc = u64;

/// Base address at which programs are laid out.
pub const TEXT_BASE: Pc = 0x0040_0000;

/// A straight-line sequence of instructions.
///
/// Only the final instruction may be a control transfer. If the final
/// instruction is not a control transfer (or is a conditional branch that
/// falls through, or a call that returns), execution continues at
/// `fallthrough`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// The instructions of the block, in program order.
    pub insts: Vec<Inst>,
    /// Successor for fallthrough / not-taken / call-return continuation.
    pub fallthrough: Option<BlockId>,
}

impl BasicBlock {
    /// Returns true if the block's last instruction is a control transfer.
    pub fn ends_in_control(&self) -> bool {
        self.insts.last().is_some_and(|i| i.op.is_control())
    }
}

/// A validated program: a CFG of basic blocks plus a deterministic address
/// layout.
///
/// Construct programs with [`ProgramBuilder`](crate::ProgramBuilder); the
/// builder guarantees the structural invariants that [`Program`] relies on
/// (valid targets, control ops only in terminal position, fallthroughs
/// present where required).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    pub(crate) blocks: Vec<BasicBlock>,
    pub(crate) entry: BlockId,
    /// Start address of each block; parallel to `blocks`.
    pub(crate) block_base: Vec<Pc>,
}

impl Program {
    pub(crate) fn layout(blocks: Vec<BasicBlock>, entry: BlockId) -> Program {
        // Lay blocks out sequentially, 4 bytes per instruction, with a
        // 4-byte gap between blocks so block starts differ in their low
        // bits — PHAST keys on the 5 LSBs of branch targets, so block
        // start addresses must not be uniformly aligned.
        let mut block_base = Vec::with_capacity(blocks.len());
        let mut addr = TEXT_BASE;
        for b in &blocks {
            block_base.push(addr);
            addr += 4 * (b.insts.len() as Pc + 1);
        }
        Program { blocks, entry, block_base }
    }

    /// The entry block.
    #[inline]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of static instructions.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Returns the block with the given id, or `None` if out of range.
    /// Wrong-path execution uses this to tolerate garbage indirect targets.
    #[inline]
    pub fn try_block(&self, id: BlockId) -> Option<&BasicBlock> {
        self.blocks.get(id.index())
    }

    /// The instruction at `(block, index)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn inst(&self, block: BlockId, index: usize) -> &Inst {
        &self.blocks[block.index()].insts[index]
    }

    /// The synthetic PC of the instruction at `(block, index)`.
    #[inline]
    pub fn pc(&self, block: BlockId, index: usize) -> Pc {
        self.block_base[block.index()] + 4 * index as Pc
    }

    /// The PC of the first instruction of `block`.
    #[inline]
    pub fn block_pc(&self, block: BlockId) -> Pc {
        self.block_base[block.index()]
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Counts static instructions satisfying a predicate.
    pub fn count_insts(&self, mut pred: impl FnMut(&Inst) -> bool) -> usize {
        self.blocks.iter().flat_map(|b| &b.insts).filter(|i| pred(i)).count()
    }

    /// Counts static divergent branches (conditional, indirect, ret).
    pub fn num_divergent_branches(&self) -> usize {
        self.count_insts(|i| i.op.is_divergent())
    }

    /// Counts static loads and stores as `(loads, stores)`.
    pub fn num_mem_ops(&self) -> (usize, usize) {
        let loads = self.count_insts(|i| matches!(i.op, Op::Load(_)));
        let stores = self.count_insts(|i| matches!(i.op, Op::Store(_)));
        (loads, stores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{MemSize, Reg};

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let x = b.block();
        b.at(e).addi(Reg(1), Reg::ZERO, 5).jump(x);
        b.at(x).load(Reg(2), Reg(1), 0, MemSize::B8).halt();
        b.set_entry(e);
        b.build().expect("valid program")
    }

    #[test]
    fn layout_is_sequential_and_gapped() {
        let p = tiny();
        assert_eq!(p.block_pc(BlockId(0)), TEXT_BASE);
        // Block 0 has 2 insts -> 2*4 bytes + 4-byte gap.
        assert_eq!(p.block_pc(BlockId(1)), TEXT_BASE + 12);
        assert_eq!(p.pc(BlockId(1), 1), TEXT_BASE + 16);
    }

    #[test]
    fn block_starts_have_distinct_low_bits() {
        let mut b = ProgramBuilder::new();
        let blocks: Vec<_> = (0..8).map(|_| b.block()).collect();
        for (i, &bb) in blocks.iter().enumerate() {
            let mut c = b.at(bb);
            for _ in 0..=i {
                c.addi(Reg(1), Reg::ZERO, 1);
            }
            if i + 1 < blocks.len() {
                c.jump(blocks[i + 1]);
            } else {
                c.halt();
            }
        }
        b.set_entry(blocks[0]);
        let p = b.build().unwrap();
        let low: std::collections::HashSet<u64> =
            (0..8).map(|i| p.block_pc(BlockId(i)) & 0x1f).collect();
        assert!(low.len() > 1, "low 5 bits of block starts must vary");
    }

    #[test]
    fn counting_helpers() {
        let p = tiny();
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.num_insts(), 4);
        let (loads, stores) = p.num_mem_ops();
        assert_eq!((loads, stores), (1, 0));
        assert_eq!(p.num_divergent_branches(), 0);
    }
}
