//! Static memory-dependence analysis over `phast-isa` CFGs.
//!
//! In the spirit of Staticdeps/CesASMe (PAPERS.md), this pass computes the
//! memory-carried dependence graph *visible to a compiler*: a forward
//! constant-propagation dataflow resolves every address that is a pure
//! function of program structure (the motif library's late-resolving
//! multiply chains all fold to constants), and store→load edges are drawn
//! where resolved byte ranges overlap and the load is CFG-reachable from
//! the store. Data-dependent addresses (hash-indexed tables, pointer
//! chases) stay unresolved — exactly the dependences only a dynamic
//! predictor can see, which is what the `static_baseline` experiment
//! measures.
//!
//! The pass emits a per-workload [`DepSignature`]: store→load distance
//! histogram, aliasing-class counts, and the loop-carried vs straight-line
//! split. Signatures digest into the `workload_signature` field of BENCH
//! artifacts and span the coverage space the synthesizer (`synth`) fills.

use phast_isa::{compute_value, ranges_overlap, BlockId, Op, Pc, Program, NUM_REGS};
use phast_mdp::MAX_STORE_DISTANCE;
use phast_sample::crc32;
use std::collections::BTreeSet;

/// Abstract register value for the constant-propagation dataflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AbsVal {
    /// Unreached (dataflow bottom).
    Bot,
    /// Statically known constant.
    Const(u64),
    /// Statically unknown (dataflow top).
    Top,
}

impl AbsVal {
    fn merge(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Bot, x) | (x, AbsVal::Bot) => x,
            (AbsVal::Const(a), AbsVal::Const(b)) if a == b => AbsVal::Const(a),
            _ => AbsVal::Top,
        }
    }
}

type RegState = [AbsVal; NUM_REGS];

/// One static memory reference with its resolution result.
#[derive(Clone, Copy, Debug)]
struct MemRef {
    block: usize,
    index: usize,
    pc: Pc,
    is_store: bool,
    size: u64,
    /// Resolved effective address, when the base register held a constant.
    addr: Option<u64>,
    /// Base register index (aliasing fallback for unresolved refs).
    base: u8,
}

/// One statically visible store→load dependence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// PC of the conflicting store.
    pub store_pc: Pc,
    /// PC of the dependent load.
    pub load_pc: Pc,
    /// Instructions retired strictly between store and load on the
    /// shortest CFG path.
    pub inst_distance: u64,
    /// Stores retired strictly between them on that path — the paper's
    /// store-distance, capped at [`MAX_STORE_DISTANCE`].
    pub store_distance: u32,
    /// True when the load is only reachable from the store through a loop
    /// back edge (a cross-iteration dependence).
    pub loop_carried: bool,
}

/// The per-workload dependence signature: the statically visible shape of
/// a program's memory-carried dependences.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DepSignature {
    /// Static load instructions.
    pub loads: u32,
    /// Static store instructions.
    pub stores: u32,
    /// Loads whose effective address folds to a constant.
    pub resolved_loads: u32,
    /// Stores whose effective address folds to a constant.
    pub resolved_stores: u32,
    /// Distinct aliasing classes (4 KiB regions of resolved addresses,
    /// plus one class per base register of unresolved references).
    pub alias_classes: u32,
    /// Statically visible store→load dependence edges.
    pub dep_edges: u32,
    /// Loads with at least one incoming dependence edge.
    pub dep_loads: u32,
    /// Edges whose load is forward-reachable from the store.
    pub straight_line: u32,
    /// Edges reachable only through a loop back edge.
    pub loop_carried: u32,
    /// Histogram of edge instruction distances, log2-bucketed: bucket `i`
    /// holds distances in `[2^i - 1, 2^(i+1) - 1)`, the last bucket is
    /// open-ended.
    pub dist_hist: [u32; 8],
}

impl DepSignature {
    /// Canonical little-endian byte encoding (digest input).
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 * 17);
        for v in [
            self.loads,
            self.stores,
            self.resolved_loads,
            self.resolved_stores,
            self.alias_classes,
            self.dep_edges,
            self.dep_loads,
            self.straight_line,
            self.loop_carried,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in self.dist_hist {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Stable digest of the signature, recorded as `workload_signature` in
    /// BENCH artifacts. Deterministic across runs, platforms and worker
    /// counts (the byte-identity carve-out never needs to cover it). The
    /// `phtr:` prefix names a trace format that no longer exists; it stays
    /// so that every recorded artifact's signature keeps its value.
    pub fn digest(&self) -> String {
        format!("phtr:{:08x}", crc32(&self.canonical_bytes()))
    }

    /// The signature as a feature vector for coverage-distance
    /// computations. Counts are log-compressed so one huge workload does
    /// not flatten every other dimension after normalization.
    pub fn feature_vector(&self) -> [f64; 14] {
        fn logc(v: u32) -> f64 {
            f64::from(v).ln_1p()
        }
        let loads = f64::from(self.loads.max(1));
        let edges = f64::from(self.dep_edges.max(1));
        [
            logc(self.loads),
            logc(self.stores),
            f64::from(self.resolved_loads) / loads,
            logc(self.alias_classes),
            logc(self.dep_edges),
            f64::from(self.dep_loads) / loads,
            f64::from(self.straight_line) / edges,
            f64::from(self.loop_carried) / edges,
            logc(self.dist_hist[0]),
            logc(self.dist_hist[1]),
            logc(self.dist_hist[2]),
            logc(self.dist_hist[3]),
            logc(self.dist_hist[4]),
            logc(self.dist_hist[5] + self.dist_hist[6] + self.dist_hist[7]),
        ]
    }
}

impl std::fmt::Display for DepSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loads={} stores={} resolved={}/{} classes={} edges={} (SL {} / LC {}) hist={:?}",
            self.loads,
            self.stores,
            self.resolved_loads,
            self.resolved_stores,
            self.alias_classes,
            self.dep_edges,
            self.straight_line,
            self.loop_carried,
            self.dist_hist
        )
    }
}

/// Full result of the static pass: the signature plus the edge list the
/// [`StaticDeps`](crate::StaticDeps) baseline predictor is built from.
#[derive(Clone, Debug)]
pub struct DepAnalysis {
    /// The per-workload dependence signature.
    pub signature: DepSignature,
    /// All statically visible dependence edges, in deterministic
    /// (store position, load position) order.
    pub edges: Vec<DepEdge>,
}

/// Runs the static dependence analysis over a program.
pub fn analyze(program: &Program) -> DepAnalysis {
    let states = dataflow(program);
    let refs = collect_refs(program, &states);
    let succs = successors(program);
    let back = back_edges(program, &succs);
    let edges = dep_edges(program, &refs, &succs, &back);
    let signature = summarize(&refs, &edges);
    DepAnalysis { signature, edges }
}

/// Convenience wrapper: just the signature.
pub fn signature(program: &Program) -> DepSignature {
    analyze(program).signature
}

/// CFG successors of every block. Calls conservatively flow to both the
/// callee and the return point; returns have no static successors (their
/// targets are data). This makes the pass a may-analysis for addresses:
/// callee-clobbered registers can stay "constant" across a call, which is
/// acceptable for a zero-cost baseline and documented in docs/TRACES.md.
fn successors(program: &Program) -> Vec<Vec<usize>> {
    program
        .iter_blocks()
        .map(|(_, block)| {
            let mut out: Vec<usize> = Vec::new();
            let mut push = |b: BlockId| {
                let i = b.index();
                if !out.contains(&i) {
                    out.push(i);
                }
            };
            match &block.insts.last().expect("blocks are non-empty").op {
                Op::CondBranch { taken, .. } => {
                    push(*taken);
                    if let Some(ft) = block.fallthrough {
                        push(ft);
                    }
                }
                Op::Jump(t) => push(*t),
                Op::IndirectJump(targets) => {
                    for &t in targets.iter() {
                        push(t);
                    }
                }
                Op::Call(t) => {
                    push(*t);
                    if let Some(ft) = block.fallthrough {
                        push(ft);
                    }
                }
                Op::Ret | Op::Halt => {}
                _ => {
                    if let Some(ft) = block.fallthrough {
                        push(ft);
                    }
                }
            }
            out
        })
        .collect()
}

/// Classifies CFG edges as back edges via an iterative DFS from the entry:
/// an edge `u -> v` is a back edge when `v` is on the DFS stack at the
/// time `u` explores it.
fn back_edges(program: &Program, succs: &[Vec<usize>]) -> BTreeSet<(usize, usize)> {
    let n = program.num_blocks();
    let mut back = BTreeSet::new();
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    let entry = program.entry().index();
    // Iterative DFS: (block, next successor index to visit).
    let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
    color[entry] = 1;
    while let Some(&(u, next)) = stack.last() {
        if next < succs[u].len() {
            stack.last_mut().expect("non-empty").1 += 1;
            let v = succs[u][next];
            match color[v] {
                0 => {
                    color[v] = 1;
                    stack.push((v, 0));
                }
                1 => {
                    back.insert((u, v));
                }
                _ => {}
            }
        } else {
            color[u] = 2;
            stack.pop();
        }
    }
    back
}

/// Forward constant propagation to a fixpoint: per-block entry register
/// states, merged over all predecessors. The entry block starts with all
/// registers zero (the emulator's initial state).
fn dataflow(program: &Program) -> Vec<RegState> {
    let n = program.num_blocks();
    let succs = successors(program);
    let mut states = vec![[AbsVal::Bot; NUM_REGS]; n];
    let entry = program.entry().index();
    states[entry] = [AbsVal::Const(0); NUM_REGS];
    let mut worklist: Vec<usize> = vec![entry];
    let mut queued = vec![false; n];
    queued[entry] = true;
    while let Some(b) = worklist.pop() {
        queued[b] = false;
        let mut state = states[b];
        transfer_block(program, BlockId(b as u32), &mut state);
        for &s in &succs[b] {
            let mut merged = states[s];
            let mut changed = false;
            for r in 0..NUM_REGS {
                let m = merged[r].merge(state[r]);
                if m != merged[r] {
                    merged[r] = m;
                    changed = true;
                }
            }
            if changed {
                states[s] = merged;
                if !queued[s] {
                    queued[s] = true;
                    worklist.push(s);
                }
            }
        }
    }
    states
}

/// Applies one block's instructions to a register state.
fn transfer_block(program: &Program, block: BlockId, state: &mut RegState) {
    for inst in &program.block(block).insts {
        transfer_inst(&inst.op, inst, state);
    }
}

fn transfer_inst(op: &Op, inst: &phast_isa::Inst, state: &mut RegState) {
    let Some(dst) = inst.dst else { return };
    let lhs = inst.src1.map_or(AbsVal::Const(0), |r| state[r.index()]);
    let rhs = match inst.src2 {
        Some(r) => state[r.index()],
        None => AbsVal::Const(inst.imm as u64),
    };
    let value = match op {
        Op::Alu(_) | Op::LoadImm | Op::Mul | Op::Div | Op::Fp => match (lhs, rhs) {
            (AbsVal::Const(a), AbsVal::Const(b)) => {
                compute_value(op, a, b).map_or(AbsVal::Top, AbsVal::Const)
            }
            _ => AbsVal::Top,
        },
        // Loads and calls produce data-dependent values.
        _ => AbsVal::Top,
    };
    if !dst.is_zero() {
        state[dst.index()] = value;
    }
}

/// Walks every block from its fixpoint entry state and records each memory
/// reference with its resolved address (when the base folded to a
/// constant).
fn collect_refs(program: &Program, states: &[RegState]) -> Vec<MemRef> {
    let mut refs = Vec::new();
    for (id, block) in program.iter_blocks() {
        let mut state = states[id.index()];
        for (index, inst) in block.insts.iter().enumerate() {
            if let Op::Load(size) | Op::Store(size) = &inst.op {
                let base = inst.src1.expect("memory ops have a base register");
                let addr = match state[base.index()] {
                    AbsVal::Const(b) => Some(b.wrapping_add(inst.imm as u64)),
                    _ => None,
                };
                refs.push(MemRef {
                    block: id.index(),
                    index,
                    pc: program.pc(id, index),
                    is_store: inst.op.is_store(),
                    size: size.bytes(),
                    addr,
                    base: base.0,
                });
            }
            transfer_inst(&inst.op, inst, &mut state);
        }
    }
    refs
}

/// Shortest-path instruction and store counts from the start of every
/// block to the start of `to_block`, over the given edge set. Dijkstra
/// with block-length weights; programs are a few hundred blocks at most.
fn block_distances(
    program: &Program,
    succs: &[Vec<usize>],
    skip_back: Option<&BTreeSet<(usize, usize)>>,
) -> Vec<Vec<Option<(u64, u32)>>> {
    let n = program.num_blocks();
    let len: Vec<u64> = program.iter_blocks().map(|(_, b)| b.insts.len() as u64).collect();
    let stores: Vec<u32> = program
        .iter_blocks()
        .map(|(_, b)| b.insts.iter().filter(|i| i.op.is_store()).count() as u32)
        .collect();
    // dist[from][to] = (insts, stores) traversed over full intermediate
    // blocks on the cheapest path from the *end* of `from` to the *start*
    // of `to` (both exclusive).
    let mut all = vec![vec![None; n]; n];
    for from in 0..n {
        let dist = &mut all[from];
        // Relax from the successors of `from` with zero accumulated cost.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32, usize)>> =
            std::collections::BinaryHeap::new();
        for &s in &succs[from] {
            if skip_back.is_some_and(|back| back.contains(&(from, s))) {
                continue;
            }
            heap.push(std::cmp::Reverse((0, 0, s)));
        }
        while let Some(std::cmp::Reverse((d, st, b))) = heap.pop() {
            if dist[b].is_some_and(|(best, _)| best <= d) {
                continue;
            }
            dist[b] = Some((d, st));
            for &s in &succs[b] {
                if skip_back.is_some_and(|back| back.contains(&(b, s))) {
                    continue;
                }
                heap.push(std::cmp::Reverse((d + len[b], st + stores[b], s)));
            }
        }
    }
    all
}

/// Builds the dependence edge list: resolved store/load pairs with
/// overlapping byte ranges where the load is CFG-reachable from the store.
fn dep_edges(
    program: &Program,
    refs: &[MemRef],
    succs: &[Vec<usize>],
    back: &BTreeSet<(usize, usize)>,
) -> Vec<DepEdge> {
    let forward = block_distances(program, succs, Some(back));
    let full = block_distances(program, succs, None);
    let block_insts: Vec<&[phast_isa::Inst]> =
        program.iter_blocks().map(|(_, b)| b.insts.as_slice()).collect();

    let mut edges = Vec::new();
    for store in refs.iter().filter(|r| r.is_store) {
        let Some(st_addr) = store.addr else { continue };
        for load in refs.iter().filter(|r| !r.is_store) {
            let Some(ld_addr) = load.addr else { continue };
            if !ranges_overlap(st_addr, store.size, ld_addr, load.size) {
                continue;
            }
            // Same block, store first: trivially straight-line.
            if store.block == load.block && store.index < load.index {
                let between = &block_insts[store.block][store.index + 1..load.index];
                edges.push(DepEdge {
                    store_pc: store.pc,
                    load_pc: load.pc,
                    inst_distance: between.len() as u64,
                    store_distance: (between.iter().filter(|i| i.op.is_store()).count()
                        as u32)
                        .min(MAX_STORE_DISTANCE),
                    loop_carried: false,
                });
                continue;
            }
            // Cross-block: tail of the store's block + intermediate blocks
            // + head of the load's block, on the cheapest forward path;
            // fall back to the full graph (loop-carried) when no forward
            // path exists.
            let tail = &block_insts[store.block][store.index + 1..];
            let head = &block_insts[load.block][..load.index];
            let endpoint_cost = |path: (u64, u32)| {
                let insts = path.0 + tail.len() as u64 + head.len() as u64;
                let sts = path.1
                    + tail.iter().filter(|i| i.op.is_store()).count() as u32
                    + head.iter().filter(|i| i.op.is_store()).count() as u32;
                (insts, sts)
            };
            let (path, loop_carried) = match forward[store.block][load.block] {
                Some(p) => (p, false),
                None => match full[store.block][load.block] {
                    Some(p) => (p, true),
                    None => continue, // load unreachable from store
                },
            };
            let (inst_distance, store_distance) = endpoint_cost(path);
            edges.push(DepEdge {
                store_pc: store.pc,
                load_pc: load.pc,
                inst_distance,
                store_distance: store_distance.min(MAX_STORE_DISTANCE),
                loop_carried,
            });
        }
    }
    edges
}

fn summarize(refs: &[MemRef], edges: &[DepEdge]) -> DepSignature {
    let mut sig = DepSignature::default();
    let mut classes: BTreeSet<(u8, u64)> = BTreeSet::new();
    for r in refs {
        if r.is_store {
            sig.stores += 1;
            sig.resolved_stores += u32::from(r.addr.is_some());
        } else {
            sig.loads += 1;
            sig.resolved_loads += u32::from(r.addr.is_some());
        }
        match r.addr {
            // Resolved references alias by 4 KiB region (the granularity
            // the motif library allocates disjoint regions at).
            Some(addr) => classes.insert((0, addr >> 12)),
            // Unresolved references fall back to one class per base reg.
            None => classes.insert((1, u64::from(r.base))),
        };
    }
    sig.alias_classes = classes.len() as u32;
    sig.dep_edges = edges.len() as u32;
    let dep_loads: BTreeSet<Pc> = edges.iter().map(|e| e.load_pc).collect();
    sig.dep_loads = dep_loads.len() as u32;
    for e in edges {
        if e.loop_carried {
            sig.loop_carried += 1;
        } else {
            sig.straight_line += 1;
        }
        let bucket = (e.inst_distance + 1).ilog2().min(7) as usize;
        sig.dist_hist[bucket] += 1;
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_isa::{CondKind, MemSize, ProgramBuilder, Reg};

    /// store -> 2 filler stores -> load of the first slot, all constant.
    fn straight_line_program() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 0x2000)
            .li(Reg(2), 7)
            .store(Reg(1), 0, Reg(2), MemSize::B8)
            .store(Reg(1), 64, Reg(2), MemSize::B8)
            .store(Reg(1), 128, Reg(2), MemSize::B8)
            .load(Reg(3), Reg(1), 0, MemSize::B8)
            .halt();
        b.set_entry(e);
        b.build().unwrap()
    }

    #[test]
    fn resolves_constant_chains_and_counts_store_distance() {
        let a = analyze(&straight_line_program());
        assert_eq!(a.signature.loads, 1);
        assert_eq!(a.signature.stores, 3);
        assert_eq!(a.signature.resolved_loads, 1);
        assert_eq!(a.signature.resolved_stores, 3);
        assert_eq!(a.signature.dep_edges, 1, "only slot 0 aliases the load");
        let e = a.edges[0];
        assert!(!e.loop_carried);
        assert_eq!(e.store_distance, 2, "two younger stores in between");
        assert_eq!(e.inst_distance, 2);
    }

    #[test]
    fn multiply_chains_fold_to_constants() {
        // The motif library's late-resolving address idiom: 1*1*1 + base-1.
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 1)
            .mul(Reg(1), Reg(1), Reg(1))
            .mul(Reg(1), Reg(1), Reg(1))
            .addi(Reg(1), Reg(1), 0x2FFF)
            .li(Reg(2), 0x3000)
            .store(Reg(1), 0, Reg(2), MemSize::B8)
            .load(Reg(3), Reg(2), 0, MemSize::B8)
            .halt();
        b.set_entry(e);
        let a = analyze(&b.build().unwrap());
        assert_eq!(a.signature.resolved_stores, 1, "mul chain folds");
        assert_eq!(
            a.signature.dep_edges, 1,
            "store via r1 and load via r2 alias at the same constant address"
        );
        assert_eq!(a.edges[0].store_distance, 0);
    }

    #[test]
    fn loop_carried_edges_are_classified() {
        // load at the top of the loop body reads what the store at the
        // bottom wrote on the *previous* iteration.
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let exit = b.block();
        b.at(entry).li(Reg(1), 0x5000).li(Reg(2), 100).jump(body);
        b.at(body)
            .load(Reg(3), Reg(1), 0, MemSize::B8)
            .store(Reg(1), 0, Reg(3), MemSize::B8)
            .addi(Reg(2), Reg(2), -1)
            .branchi(CondKind::Ne, Reg(2), 0, body)
            .fallthrough(exit);
        b.at(exit).halt();
        b.set_entry(entry);
        let a = analyze(&b.build().unwrap());
        assert_eq!(a.signature.loop_carried, 1, "store reaches the load only via the back edge");
        assert_eq!(a.signature.straight_line, 0);
    }

    #[test]
    fn data_dependent_addresses_stay_unresolved() {
        // Address loaded from memory: no static resolution, no edge.
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 0x6000)
            .load(Reg(2), Reg(1), 0, MemSize::B8)
            .store(Reg(2), 0, Reg(1), MemSize::B8)
            .load(Reg(3), Reg(2), 8, MemSize::B8)
            .halt();
        b.set_entry(e);
        let a = analyze(&b.build().unwrap());
        assert_eq!(a.signature.resolved_stores, 0);
        assert_eq!(a.signature.loads, 2);
        assert_eq!(a.signature.resolved_loads, 1);
        assert_eq!(a.signature.dep_edges, 0, "unresolved refs draw no edges");
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let sig = signature(&straight_line_program());
        assert_eq!(sig.digest(), signature(&straight_line_program()).digest());
        let mut other = sig.clone();
        other.dep_edges += 1;
        assert_ne!(sig.digest(), other.digest());
        assert!(sig.digest().starts_with("phtr:"));
    }

    #[test]
    fn builtin_workloads_have_distinct_signatures() {
        let sigs: BTreeSet<String> = phast_workloads::all_workloads()
            .iter()
            .map(|w| signature(&w.build(100)).digest())
            .collect();
        assert!(
            sigs.len() >= 20,
            "the 23 builtins should be nearly all distinct, got {}",
            sigs.len()
        );
    }
}
