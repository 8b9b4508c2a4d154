//! A small validating DSL for constructing [`Program`]s.

use crate::inst::{AluKind, CondKind, Inst, MemSize, Op, Reg};
use crate::program::{BasicBlock, BlockId, Program};

/// Handle to a block under construction. Identical to [`BlockId`]; blocks
/// can be referenced (e.g. as branch targets) before they are filled in.
pub type BlockHandle = BlockId;

/// Errors detected when validating a program under construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// No entry block was set with [`ProgramBuilder::set_entry`].
    NoEntry,
    /// A block contains no instructions.
    EmptyBlock(BlockId),
    /// A control-transfer instruction appears before the end of a block.
    ControlNotLast(BlockId, usize),
    /// A block requires a fallthrough successor (its last instruction is
    /// not a control transfer, or is a conditional branch or call) but none
    /// was set.
    MissingFallthrough(BlockId),
    /// A block whose last instruction is an unconditional transfer has a
    /// fallthrough successor, which would be unreachable.
    UselessFallthrough(BlockId),
    /// A branch/jump/call references a block id that does not exist.
    BadTarget(BlockId, usize),
    /// An instruction writes the hardwired zero register.
    WritesZeroReg(BlockId, usize),
    /// An indirect jump has an empty target table.
    EmptyIndirectTable(BlockId, usize),
    /// A register index is out of range.
    BadReg(BlockId, usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoEntry => write!(f, "no entry block set"),
            BuildError::EmptyBlock(b) => write!(f, "{b:?} is empty"),
            BuildError::ControlNotLast(b, i) => {
                write!(f, "control instruction not last in {b:?} at index {i}")
            }
            BuildError::MissingFallthrough(b) => write!(f, "{b:?} needs a fallthrough successor"),
            BuildError::UselessFallthrough(b) => {
                write!(f, "{b:?} has an unreachable fallthrough successor")
            }
            BuildError::BadTarget(b, i) => write!(f, "bad target in {b:?} at index {i}"),
            BuildError::WritesZeroReg(b, i) => {
                write!(f, "instruction writes r0 in {b:?} at index {i}")
            }
            BuildError::EmptyIndirectTable(b, i) => {
                write!(f, "indirect jump with empty table in {b:?} at index {i}")
            }
            BuildError::BadReg(b, i) => write!(f, "register out of range in {b:?} at index {i}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Program`]s.
///
/// # Examples
///
/// ```
/// use phast_isa::{MemSize, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let entry = b.block();
/// let body = b.block();
/// b.at(entry).addi(Reg(1), Reg::ZERO, 0x1000).jump(body);
/// b.at(body)
///     .store(Reg(1), 0, Reg(1), MemSize::B8)
///     .load(Reg(2), Reg(1), 0, MemSize::B8)
///     .halt();
/// b.set_entry(entry);
/// let program = b.build().unwrap();
/// assert_eq!(program.num_blocks(), 2);
/// ```
#[derive(Default)]
pub struct ProgramBuilder {
    blocks: Vec<(Vec<Inst>, Option<BlockId>)>,
    entry: Option<BlockId>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Allocates a new, empty block and returns its handle.
    pub fn block(&mut self) -> BlockHandle {
        self.blocks.push((Vec::new(), None));
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Returns a cursor for appending instructions to `block`.
    pub fn at(&mut self, block: BlockHandle) -> BlockCursor<'_> {
        BlockCursor { builder: self, block }
    }

    /// Sets the entry block.
    pub fn set_entry(&mut self, block: BlockHandle) {
        self.entry = Some(block);
    }

    /// Validates and finalizes the program.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] describing the first structural violation
    /// found (unterminated blocks, dangling targets, writes to r0, ...).
    pub fn build(self) -> Result<Program, BuildError> {
        let entry = self.entry.ok_or(BuildError::NoEntry)?;
        let n = self.blocks.len();
        let check_target = |b: BlockId, i: usize, t: BlockId| {
            if t.index() < n {
                Ok(())
            } else {
                Err(BuildError::BadTarget(b, i))
            }
        };
        check_target(entry, 0, entry)?;

        for (bi, (insts, fallthrough)) in self.blocks.iter().enumerate() {
            let bid = BlockId(bi as u32);
            if insts.is_empty() {
                return Err(BuildError::EmptyBlock(bid));
            }
            for (ii, inst) in insts.iter().enumerate() {
                let last = ii + 1 == insts.len();
                if inst.op.is_control() && !last {
                    return Err(BuildError::ControlNotLast(bid, ii));
                }
                if inst.dst.is_some_and(|r| r.is_zero()) {
                    return Err(BuildError::WritesZeroReg(bid, ii));
                }
                for r in inst.dst.into_iter().chain(inst.sources()) {
                    if r.index() >= crate::NUM_REGS {
                        return Err(BuildError::BadReg(bid, ii));
                    }
                }
                match &inst.op {
                    Op::CondBranch { taken, .. } => check_target(bid, ii, *taken)?,
                    Op::Jump(t) | Op::Call(t) => check_target(bid, ii, *t)?,
                    Op::IndirectJump(ts) => {
                        if ts.is_empty() {
                            return Err(BuildError::EmptyIndirectTable(bid, ii));
                        }
                        for &t in ts.iter() {
                            check_target(bid, ii, t)?;
                        }
                    }
                    _ => {}
                }
            }
            if let Some(ft) = fallthrough {
                check_target(bid, insts.len() - 1, *ft)?;
            }
            let last_op = &insts.last().expect("non-empty").op;
            let needs_ft = match last_op {
                Op::CondBranch { .. } | Op::Call(_) => true,
                op if !op.is_control() => true,
                _ => false,
            };
            if needs_ft && fallthrough.is_none() {
                return Err(BuildError::MissingFallthrough(bid));
            }
            if !needs_ft && fallthrough.is_some() {
                return Err(BuildError::UselessFallthrough(bid));
            }
        }

        let blocks = self
            .blocks
            .into_iter()
            .map(|(insts, fallthrough)| BasicBlock { insts, fallthrough })
            .collect();
        Ok(Program::layout(blocks, entry))
    }
}

/// Cursor appending instructions to a specific block. All instruction
/// methods return `&mut Self` so they chain.
pub struct BlockCursor<'a> {
    builder: &'a mut ProgramBuilder,
    block: BlockHandle,
}

impl BlockCursor<'_> {
    fn push(&mut self, inst: Inst) -> &mut Self {
        self.builder.blocks[self.block.index()].0.push(inst);
        self
    }

    /// `dst = src1 <kind> src2`.
    pub fn alu(&mut self, kind: AluKind, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst { op: Op::Alu(kind), dst: Some(dst), src1: Some(src1), src2: Some(src2), imm: 0 })
    }

    /// `dst = src1 <kind> imm`.
    pub fn alui(&mut self, kind: AluKind, dst: Reg, src1: Reg, imm: i64) -> &mut Self {
        self.push(Inst { op: Op::Alu(kind), dst: Some(dst), src1: Some(src1), src2: None, imm })
    }

    /// `dst = src1 + src2`.
    pub fn add(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(AluKind::Add, dst, src1, src2)
    }

    /// `dst = src1 + imm`.
    pub fn addi(&mut self, dst: Reg, src1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Add, dst, src1, imm)
    }

    /// `dst = src1 - src2`.
    pub fn sub(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(AluKind::Sub, dst, src1, src2)
    }

    /// `dst = src1 & imm`.
    pub fn andi(&mut self, dst: Reg, src1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::And, dst, src1, imm)
    }

    /// `dst = src1 ^ src2`.
    pub fn xor(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(AluKind::Xor, dst, src1, src2)
    }

    /// `dst = src1 << imm`.
    pub fn shli(&mut self, dst: Reg, src1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Shl, dst, src1, imm)
    }

    /// `dst = src1 >> imm`.
    pub fn shri(&mut self, dst: Reg, src1: Reg, imm: i64) -> &mut Self {
        self.alui(AluKind::Shr, dst, src1, imm)
    }

    /// `dst = imm`.
    pub fn li(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Inst { op: Op::LoadImm, dst: Some(dst), src1: None, src2: None, imm })
    }

    /// `dst = src` (encoded as `src + 0`).
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.addi(dst, src, 0)
    }

    /// `dst = src1 * src2`.
    pub fn mul(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst { op: Op::Mul, dst: Some(dst), src1: Some(src1), src2: Some(src2), imm: 0 })
    }

    /// `dst = src1 / max(src2, 1)`.
    pub fn div(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst { op: Op::Div, dst: Some(dst), src1: Some(src1), src2: Some(src2), imm: 0 })
    }

    /// Floating-point-latency filler op.
    pub fn fp(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.push(Inst { op: Op::Fp, dst: Some(dst), src1: Some(src1), src2: Some(src2), imm: 0 })
    }

    /// `dst = mem[base + offset]` (`size` bytes, zero-extended).
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64, size: MemSize) -> &mut Self {
        self.push(Inst { op: Op::Load(size), dst: Some(dst), src1: Some(base), src2: None, imm: offset })
    }

    /// `mem[base + offset] = data` (`size` bytes).
    pub fn store(&mut self, base: Reg, offset: i64, data: Reg, size: MemSize) -> &mut Self {
        self.push(Inst { op: Op::Store(size), dst: None, src1: Some(base), src2: Some(data), imm: offset })
    }

    /// Conditional branch on `kind(src1, src2)` to `taken`; requires a
    /// fallthrough successor on the block.
    pub fn branch(&mut self, kind: CondKind, src1: Reg, src2: Reg, taken: BlockHandle) -> &mut Self {
        self.push(Inst {
            op: Op::CondBranch { kind, taken },
            dst: None,
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
        })
    }

    /// Conditional branch comparing `src1` against an immediate.
    pub fn branchi(&mut self, kind: CondKind, src1: Reg, imm: i64, taken: BlockHandle) -> &mut Self {
        self.push(Inst {
            op: Op::CondBranch { kind, taken },
            dst: None,
            src1: Some(src1),
            src2: None,
            imm,
        })
    }

    /// `beq src1, src2 -> taken`.
    pub fn beq(&mut self, src1: Reg, src2: Reg, taken: BlockHandle) -> &mut Self {
        self.branch(CondKind::Eq, src1, src2, taken)
    }

    /// `bne src1, src2 -> taken`.
    pub fn bne(&mut self, src1: Reg, src2: Reg, taken: BlockHandle) -> &mut Self {
        self.branch(CondKind::Ne, src1, src2, taken)
    }

    /// `bltu src1, imm -> taken`.
    pub fn bltui(&mut self, src1: Reg, imm: i64, taken: BlockHandle) -> &mut Self {
        self.branchi(CondKind::LtU, src1, imm, taken)
    }

    /// Unconditional direct jump.
    pub fn jump(&mut self, target: BlockHandle) -> &mut Self {
        self.push(Inst { op: Op::Jump(target), dst: None, src1: None, src2: None, imm: 0 })
    }

    /// Indirect jump to `targets[selector % targets.len()]`.
    pub fn indirect_jump(&mut self, selector: Reg, targets: &[BlockHandle]) -> &mut Self {
        self.push(Inst {
            op: Op::IndirectJump(targets.to_vec().into_boxed_slice()),
            dst: None,
            src1: Some(selector),
            src2: None,
            imm: 0,
        })
    }

    /// Direct call to `target`; writes the return block id into the link
    /// register. Requires a fallthrough successor (the return point).
    pub fn call(&mut self, target: BlockHandle) -> &mut Self {
        self.push(Inst {
            op: Op::Call(target),
            dst: Some(crate::LINK_REG),
            src1: None,
            src2: None,
            imm: 0,
        })
    }

    /// Indirect return to the block id held in the link register.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst { op: Op::Ret, dst: None, src1: Some(crate::LINK_REG), src2: None, imm: 0 })
    }

    /// Indirect return to the block id held in `src`.
    pub fn ret_via(&mut self, src: Reg) -> &mut Self {
        self.push(Inst { op: Op::Ret, dst: None, src1: Some(src), src2: None, imm: 0 })
    }

    /// Halts the program.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst { op: Op::Halt, dst: None, src1: None, src2: None, imm: 0 })
    }

    /// Sets the fallthrough successor of this block.
    pub fn fallthrough(&mut self, next: BlockHandle) -> &mut Self {
        self.builder.blocks[self.block.index()].1 = Some(next);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_missing_entry() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).halt();
        assert_eq!(b.build().unwrap_err(), BuildError::NoEntry);
    }

    #[test]
    fn rejects_empty_block() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::EmptyBlock(BlockId(0)));
    }

    #[test]
    fn rejects_control_not_last() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).halt().addi(Reg(1), Reg::ZERO, 1);
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::ControlNotLast(BlockId(0), 0));
    }

    #[test]
    fn rejects_missing_fallthrough_for_cond_branch() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).branchi(CondKind::Eq, Reg(1), 0, e);
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::MissingFallthrough(BlockId(0)));
    }

    #[test]
    fn rejects_useless_fallthrough() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).halt().fallthrough(e);
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::UselessFallthrough(BlockId(0)));
    }

    #[test]
    fn rejects_bad_target() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).jump(BlockId(7));
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::BadTarget(BlockId(0), 0));
    }

    #[test]
    fn rejects_write_to_zero_reg() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).addi(Reg::ZERO, Reg(1), 1).halt();
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::WritesZeroReg(BlockId(0), 0));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).addi(Reg(40), Reg::ZERO, 1).halt();
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::BadReg(BlockId(0), 0));
    }

    #[test]
    fn rejects_empty_indirect_table() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).indirect_jump(Reg(1), &[]);
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::EmptyIndirectTable(BlockId(0), 0));
    }

    #[test]
    fn accepts_fallthrough_block() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let x = b.block();
        b.at(e).addi(Reg(1), Reg::ZERO, 1).fallthrough(x);
        b.at(x).halt();
        b.set_entry(e);
        let p = b.build().unwrap();
        assert_eq!(p.block(BlockId(0)).fallthrough, Some(BlockId(1)));
    }

    #[test]
    fn call_requires_fallthrough() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let f = b.block();
        b.at(e).call(f);
        b.at(f).ret();
        b.set_entry(e);
        assert_eq!(b.build().unwrap_err(), BuildError::MissingFallthrough(BlockId(0)));
    }
}
