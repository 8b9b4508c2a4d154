//! Functional reference emulator.
//!
//! The emulator executes a [`Program`] architecturally (no timing) and
//! yields one [`ExecRecord`] per retired instruction. The cycle-level core
//! in `phast-ooo` must commit exactly this stream; integration tests
//! compare the two. Analyses (e.g. the paper's Fig. 4 multi-store study)
//! also run directly on the emulator.

use crate::inst::{MemSize, Op, Reg};
use crate::program::{BlockId, Pc, Program};
use crate::NUM_REGS;
use std::collections::HashMap;

/// Value computed by a non-memory, value-producing operation.
///
/// `lhs` is the resolved value of `src1` (0 when absent); `rhs` is the
/// resolved value of `src2` when present, otherwise the immediate. Both the
/// emulator and the out-of-order core use this single definition so their
/// results agree bit-for-bit.
pub fn compute_value(op: &Op, lhs: u64, rhs: u64) -> Option<u64> {
    match op {
        Op::Alu(kind) => Some(kind.apply(lhs, rhs)),
        Op::LoadImm => Some(rhs),
        Op::Mul => Some(lhs.wrapping_mul(rhs)),
        Op::Div => Some(lhs / rhs.max(1)),
        Op::Fp => Some((lhs ^ rhs).rotate_left(17).wrapping_add(0x9E37_79B9_7F4A_7C15)),
        _ => None,
    }
}

/// Returns true if the byte ranges `[a, a+asz)` and `[b, b+bsz)` overlap.
pub fn ranges_overlap(a: u64, asz: u64, b: u64, bsz: u64) -> bool {
    a < b.wrapping_add(bsz) && b < a.wrapping_add(asz)
}

/// Byte-addressable sparse memory, stored as 64-byte lines.
///
/// Reads of unwritten bytes return zero. Multi-byte accesses are
/// little-endian and may cross line boundaries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseMemory {
    lines: HashMap<u64, [u8; 64]>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_byte(&self, addr: u64) -> u8 {
        match self.lines.get(&(addr / 64)) {
            Some(line) => line[(addr % 64) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_byte(&mut self, addr: u64, value: u8) {
        self.lines.entry(addr / 64).or_insert([0; 64])[(addr % 64) as usize] = value;
    }

    /// Reads `n ≤ 8` bytes at `addr`, little-endian, zero-extended.
    ///
    /// When the access stays inside one 64-byte line (the overwhelmingly
    /// common case), the line is hashed once instead of once per byte —
    /// this sits on the simulator's load path, where per-byte probing
    /// showed up in profiles.
    #[inline]
    pub fn read_bytes(&self, addr: u64, n: u64) -> u64 {
        debug_assert!(n <= 8, "memory accesses are at most 8 bytes");
        let off = (addr % 64) as usize;
        if off + n as usize <= 64 {
            match self.lines.get(&(addr / 64)) {
                Some(line) => {
                    let mut v = 0u64;
                    for i in (0..n as usize).rev() {
                        v = (v << 8) | u64::from(line[off + i]);
                    }
                    v
                }
                None => 0,
            }
        } else {
            // Line-crossing access: per-byte fallback.
            let mut v = 0u64;
            for i in (0..n).rev() {
                v = (v << 8) | u64::from(self.read_byte(addr.wrapping_add(i)));
            }
            v
        }
    }

    /// Reads `size` bytes at `addr`, little-endian, zero-extended.
    pub fn read(&self, addr: u64, size: MemSize) -> u64 {
        self.read_bytes(addr, size.bytes())
    }

    /// Writes the low `size` bytes of `value` at `addr`, little-endian,
    /// hashing the line once when the access does not cross a boundary.
    pub fn write(&mut self, addr: u64, size: MemSize, value: u64) {
        let n = size.bytes();
        let off = (addr % 64) as usize;
        if off + n as usize <= 64 {
            let line = self.lines.entry(addr / 64).or_insert([0; 64]);
            for i in 0..n as usize {
                line[off + i] = (value >> (8 * i)) as u8;
            }
        } else {
            for i in 0..n {
                self.write_byte(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
    }

    /// Number of 64-byte lines ever written.
    pub fn touched_lines(&self) -> usize {
        self.lines.len()
    }
}

/// Errors the emulator can encounter at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmuError {
    /// A `Ret` instruction's link value does not name a valid block.
    BadRetTarget {
        /// The invalid value found in the source register.
        value: u64,
    },
}

impl std::fmt::Display for EmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmuError::BadRetTarget { value } => write!(f, "ret to invalid block id {value}"),
        }
    }
}

impl std::error::Error for EmuError {}

/// One architecturally retired instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecRecord {
    /// Dynamic instruction number (0-based).
    pub seq: u64,
    /// Program counter of the instruction.
    pub pc: Pc,
    /// Static location of the instruction.
    pub block: BlockId,
    /// Index within the block.
    pub index: usize,
    /// Value written to the destination register, if any.
    pub dst_value: Option<u64>,
    /// Effective address for loads and stores.
    pub eff_addr: Option<u64>,
    /// Data written by stores (after truncation).
    pub store_data: Option<u64>,
    /// Outcome of a conditional branch.
    pub taken: Option<bool>,
    /// Destination PC of a taken control transfer.
    pub target_pc: Option<Pc>,
}

/// Complete architectural state of an [`Emulator`] at one point in time.
///
/// A snapshot captures registers, memory, the fetch cursor and the retired
/// instruction count — everything needed to resume execution with
/// [`Emulator::from_snapshot`] and observe the exact same record stream the
/// original emulator would have produced. Snapshots are the architectural
/// half of a sampling checkpoint (`phast-sample`).
#[derive(Clone, Debug, PartialEq)]
pub struct EmuSnapshot {
    /// Architectural register file.
    pub regs: [u64; NUM_REGS],
    /// Architectural memory.
    pub memory: SparseMemory,
    /// Next fetch point; `None` once halted.
    pub cursor: Option<(BlockId, usize)>,
    /// Instructions retired so far (the `seq` of the next record).
    pub icount: u64,
}

/// Functional emulator over a borrowed [`Program`].
///
/// # Examples
///
/// ```
/// use phast_isa::{Emulator, MemSize, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let e = b.block();
/// b.at(e)
///     .li(Reg(1), 0x2000)
///     .li(Reg(2), 42)
///     .store(Reg(1), 0, Reg(2), MemSize::B8)
///     .load(Reg(3), Reg(1), 0, MemSize::B8)
///     .halt();
/// b.set_entry(e);
/// let p = b.build().unwrap();
/// let mut emu = Emulator::new(&p);
/// emu.run(100).unwrap();
/// assert_eq!(emu.reg(Reg(3)), 42);
/// ```
#[derive(Clone)]
pub struct Emulator<'p> {
    program: &'p Program,
    regs: [u64; NUM_REGS],
    mem: SparseMemory,
    cursor: Option<(BlockId, usize)>,
    icount: u64,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator positioned at the program entry, with zeroed
    /// registers and memory.
    pub fn new(program: &'p Program) -> Emulator<'p> {
        Emulator {
            program,
            regs: [0; NUM_REGS],
            mem: SparseMemory::new(),
            cursor: Some((program.entry(), 0)),
            icount: 0,
        }
    }

    /// Creates an emulator resuming from a previously captured snapshot.
    ///
    /// `program` must be the same program the snapshot was taken from; the
    /// resumed emulator then retires exactly the records the original would
    /// have retired next.
    pub fn from_snapshot(program: &'p Program, snap: &EmuSnapshot) -> Emulator<'p> {
        Emulator {
            program,
            regs: snap.regs,
            mem: snap.memory.clone(),
            cursor: snap.cursor,
            icount: snap.icount,
        }
    }

    /// Captures the complete architectural state.
    pub fn snapshot(&self) -> EmuSnapshot {
        EmuSnapshot {
            regs: self.regs,
            memory: self.mem.clone(),
            cursor: self.cursor,
            icount: self.icount,
        }
    }

    /// The value of a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The architectural memory.
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.icount
    }

    /// True once a `Halt` has retired.
    pub fn halted(&self) -> bool {
        self.cursor.is_none()
    }

    /// The next fetch point, if not halted.
    pub fn cursor(&self) -> Option<(BlockId, usize)> {
        self.cursor
    }

    fn resolve(&self, r: Option<Reg>) -> u64 {
        r.map_or(0, |r| self.regs[r.index()])
    }

    /// Executes one instruction; returns `Ok(None)` once halted.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::BadRetTarget`] if a `Ret` consumes a value that
    /// is not a valid block id.
    pub fn step(&mut self) -> Result<Option<ExecRecord>, EmuError> {
        let Some((block, index)) = self.cursor else {
            return Ok(None);
        };
        let inst = self.program.inst(block, index);
        let pc = self.program.pc(block, index);
        let lhs = self.resolve(inst.src1);
        let rhs = inst.src2.map_or(inst.imm as u64, |r| self.regs[r.index()]);

        let mut rec = ExecRecord {
            seq: self.icount,
            pc,
            block,
            index,
            dst_value: None,
            eff_addr: None,
            store_data: None,
            taken: None,
            target_pc: None,
        };

        let bb = self.program.block(block);
        let seq_next = if index + 1 < bb.insts.len() {
            Some((block, index + 1))
        } else {
            bb.fallthrough.map(|f| (f, 0))
        };

        let mut write_dst = |regs: &mut [u64; NUM_REGS], v: u64| {
            if let Some(d) = inst.dst {
                if !d.is_zero() {
                    regs[d.index()] = v;
                }
                rec.dst_value = Some(v);
            }
        };

        let next = match &inst.op {
            Op::Load(size) => {
                let addr = lhs.wrapping_add(inst.imm as u64);
                let v = self.mem.read(addr, *size);
                rec.eff_addr = Some(addr);
                write_dst(&mut self.regs, v);
                seq_next
            }
            Op::Store(size) => {
                let addr = lhs.wrapping_add(inst.imm as u64);
                let data = size.truncate(rhs);
                self.mem.write(addr, *size, data);
                rec.eff_addr = Some(addr);
                rec.store_data = Some(data);
                seq_next
            }
            Op::CondBranch { kind, taken } => {
                let t = kind.eval(lhs, rhs);
                rec.taken = Some(t);
                let dest = if t { (*taken, 0) } else { seq_next.expect("validated fallthrough") };
                rec.target_pc = Some(self.program.pc(dest.0, dest.1));
                Some(dest)
            }
            Op::Jump(target) => {
                rec.target_pc = Some(self.program.block_pc(*target));
                Some((*target, 0))
            }
            Op::IndirectJump(targets) => {
                let t = targets[(lhs as usize) % targets.len()];
                rec.target_pc = Some(self.program.block_pc(t));
                Some((t, 0))
            }
            Op::Call(target) => {
                let ret_to = seq_next.expect("validated fallthrough").0;
                write_dst(&mut self.regs, u64::from(ret_to.0));
                rec.target_pc = Some(self.program.block_pc(*target));
                Some((*target, 0))
            }
            Op::Ret => {
                if lhs >= self.program.num_blocks() as u64 {
                    return Err(EmuError::BadRetTarget { value: lhs });
                }
                let t = BlockId(lhs as u32);
                rec.target_pc = Some(self.program.block_pc(t));
                Some((t, 0))
            }
            Op::Halt => None,
            op => {
                let v = compute_value(op, lhs, rhs).expect("value-producing op");
                write_dst(&mut self.regs, v);
                seq_next
            }
        };

        self.cursor = next;
        self.icount += 1;
        Ok(Some(rec))
    }

    /// Runs up to `max_insts` instructions; returns the number retired.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EmuError`] encountered.
    pub fn run(&mut self, max_insts: u64) -> Result<u64, EmuError> {
        let mut n = 0;
        while n < max_insts {
            if self.step()?.is_none() {
                break;
            }
            n += 1;
        }
        Ok(n)
    }

    /// Runs up to `max_insts` instructions, collecting their records.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EmuError`] encountered.
    pub fn run_collect(&mut self, max_insts: u64) -> Result<Vec<ExecRecord>, EmuError> {
        let mut out = Vec::new();
        while (out.len() as u64) < max_insts {
            match self.step()? {
                Some(rec) => out.push(rec),
                None => break,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::CondKind;
    use crate::{LINK_REG, STACK_REG};

    #[test]
    fn sparse_memory_roundtrip() {
        let mut m = SparseMemory::new();
        m.write(100, MemSize::B8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(100, MemSize::B8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(100, MemSize::B1), 0x88, "little-endian low byte");
        assert_eq!(m.read(104, MemSize::B4), 0x1122_3344);
        assert_eq!(m.read(200, MemSize::B8), 0, "unwritten reads as zero");
    }

    #[test]
    fn sparse_memory_crosses_lines() {
        let mut m = SparseMemory::new();
        m.write(62, MemSize::B4, 0xdead_beef);
        assert_eq!(m.read(62, MemSize::B4), 0xdead_beef);
        assert_eq!(m.touched_lines(), 2);
    }

    #[test]
    fn sub_word_store_merges() {
        let mut m = SparseMemory::new();
        m.write(0, MemSize::B8, 0);
        m.write(0, MemSize::B1, 0xaa);
        m.write(1, MemSize::B1, 0xbb);
        assert_eq!(m.read(0, MemSize::B2), 0xbbaa);
    }

    #[test]
    fn ranges_overlap_cases() {
        assert!(ranges_overlap(0, 8, 4, 8));
        assert!(ranges_overlap(4, 8, 0, 8));
        assert!(!ranges_overlap(0, 4, 4, 4));
        assert!(ranges_overlap(0, 1, 0, 8));
        assert!(!ranges_overlap(0, 1, 1, 1));
    }

    #[test]
    fn loop_executes_expected_count() {
        // r1 = 10; loop { r1 -= 1 } while r1 != 0
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let exit = b.block();
        b.at(entry).li(Reg(1), 10).fallthrough(body);
        b.at(body).addi(Reg(1), Reg(1), -1).branchi(CondKind::Ne, Reg(1), 0, body).fallthrough(exit);
        b.at(exit).halt();
        b.set_entry(entry);
        let p = b.build().unwrap();
        let mut emu = Emulator::new(&p);
        let n = emu.run(10_000).unwrap();
        assert!(emu.halted());
        // 1 li + 10*(addi+branch) + 1 halt
        assert_eq!(n, 22);
        assert_eq!(emu.reg(Reg(1)), 0);
    }

    #[test]
    fn call_ret_roundtrip_with_stack_save() {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let callee = b.block();
        let after = b.block();
        b.at(entry).li(STACK_REG, 0x8000).li(Reg(1), 7).call(callee).fallthrough(after);
        b.at(callee)
            .store(STACK_REG, 0, LINK_REG, MemSize::B8)
            .addi(Reg(1), Reg(1), 1)
            .load(LINK_REG, STACK_REG, 0, MemSize::B8)
            .ret();
        b.at(after).addi(Reg(2), Reg(1), 100).halt();
        b.set_entry(entry);
        let p = b.build().unwrap();
        let mut emu = Emulator::new(&p);
        emu.run(1000).unwrap();
        assert!(emu.halted());
        assert_eq!(emu.reg(Reg(2)), 108);
    }

    #[test]
    fn indirect_jump_selects_by_value() {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let t0 = b.block();
        let t1 = b.block();
        b.at(entry).li(Reg(1), 5).indirect_jump(Reg(1), &[t0, t1]);
        b.at(t0).li(Reg(2), 100).halt();
        b.at(t1).li(Reg(2), 200).halt();
        b.set_entry(entry);
        let p = b.build().unwrap();
        let mut emu = Emulator::new(&p);
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg(2)), 200, "5 % 2 == 1 selects t1");
    }

    #[test]
    fn bad_ret_target_is_an_error() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).li(Reg(5), 999).ret_via(Reg(5));
        b.set_entry(e);
        let p = b.build().unwrap();
        let mut emu = Emulator::new(&p);
        assert!(emu.step().unwrap().is_some());
        assert_eq!(emu.step().unwrap_err(), EmuError::BadRetTarget { value: 999 });
    }

    #[test]
    fn records_carry_memory_details() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 0x3000)
            .li(Reg(2), 0xffff)
            .store(Reg(1), 4, Reg(2), MemSize::B1)
            .load(Reg(3), Reg(1), 4, MemSize::B1)
            .halt();
        b.set_entry(e);
        let p = b.build().unwrap();
        let mut emu = Emulator::new(&p);
        let recs = emu.run_collect(100).unwrap();
        let st = &recs[2];
        assert_eq!(st.eff_addr, Some(0x3004));
        assert_eq!(st.store_data, Some(0xff), "truncated to one byte");
        let ld = &recs[3];
        assert_eq!(ld.eff_addr, Some(0x3004));
        assert_eq!(ld.dst_value, Some(0xff));
    }

    #[test]
    fn snapshot_resumes_identically() {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let exit = b.block();
        b.at(entry).li(Reg(1), 50).li(Reg(2), 0x4000).fallthrough(body);
        b.at(body)
            .store(Reg(2), 0, Reg(1), MemSize::B8)
            .load(Reg(3), Reg(2), 0, MemSize::B8)
            .addi(Reg(1), Reg(1), -1)
            .branchi(CondKind::Ne, Reg(1), 0, body)
            .fallthrough(exit);
        b.at(exit).halt();
        b.set_entry(entry);
        let p = b.build().unwrap();

        let mut emu = Emulator::new(&p);
        emu.run(37).unwrap();
        let snap = emu.snapshot();
        assert_eq!(snap.icount, 37);

        let mut resumed = Emulator::from_snapshot(&p, &snap);
        assert_eq!(resumed.snapshot(), snap, "round-trip through snapshot");
        loop {
            let a = emu.step().unwrap();
            let b = resumed.step().unwrap();
            assert_eq!(a, b, "resumed stream must match original");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(emu.reg(Reg(3)), resumed.reg(Reg(3)));
    }

    #[test]
    fn branch_records_target_pc() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let t = b.block();
        b.at(e).li(Reg(1), 1).branchi(CondKind::Eq, Reg(1), 1, t).fallthrough(e);
        b.at(t).halt();
        b.set_entry(e);
        let p = b.build().unwrap();
        let mut emu = Emulator::new(&p);
        let recs = emu.run_collect(10).unwrap();
        assert_eq!(recs[1].taken, Some(true));
        assert_eq!(recs[1].target_pc, Some(p.block_pc(t)));
    }
}
