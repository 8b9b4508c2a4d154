//! The ideal (oracle) memory dependence predictor.
//!
//! Built by pre-running the functional emulator over the same instruction
//! budget the timing simulation will execute. For every dynamic load the
//! oracle knows the *youngest* truly conflicting older store (§III-A: that
//! single store is all a predictor needs) and its store distance. The
//! timing core tags in-flight instructions with their architectural
//! sequence number, so the oracle answers exactly on the correct path; on
//! the wrong path its answers are meaningless, as they would be for any
//! predictor, and get squashed with the path.
//!
//! The build pass also measures the paper's Fig. 4 statistics: how many
//! loads take bytes from more than one older store, and how many of those
//! multi-store groups share a base register (the paper's proxy for
//! "execute in order").

use crate::types::{AccessStats, DepPrediction, LoadQuery, PredictionOutcome, Violation};
use crate::MemDepPredictor;
use phast_isa::{ranges_overlap, EmuError, Emulator, Op, Program, Reg};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of [`DepOracle::build`] calls. Each build emulates
/// the whole horizon, so sweeps must share one oracle per program instead
/// of rebuilding it per window; tests pin that contract on this counter.
static ORACLE_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total [`DepOracle::build`] calls made by this process so far.
/// Monotonic; callers measure deltas around the region under test.
pub fn oracle_builds() -> u64 {
    ORACLE_BUILDS.load(Ordering::Relaxed)
}

/// Fig. 4 statistics gathered while building the oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MultiStoreStats {
    /// Total dynamic loads examined.
    pub loads: u64,
    /// Loads whose bytes are provided by one older in-window store.
    pub single_store_loads: u64,
    /// Loads whose bytes are provided by two or more older stores.
    pub multi_store_loads: u64,
    /// Multi-store loads whose providing stores all use the same base
    /// register (the paper's in-order proxy, ~70% on SPEC).
    pub multi_store_same_base: u64,
}

impl MultiStoreStats {
    /// Percentage of loads depending on multiple stores.
    pub fn multi_pct(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            100.0 * self.multi_store_loads as f64 / self.loads as f64
        }
    }

    /// Percentage of multi-store loads whose stores share a base register.
    pub fn same_base_pct(&self) -> f64 {
        if self.multi_store_loads == 0 {
            0.0
        } else {
            100.0 * self.multi_store_same_base as f64 / self.multi_store_loads as f64
        }
    }
}

#[derive(Clone, Copy)]
struct StoreRec {
    seq: u64,
    addr: u64,
    size: u64,
    base: Option<Reg>,
}

/// Precomputed perfect dependence information for one program execution.
#[derive(Clone, Debug, PartialEq)]
pub struct DepOracle {
    /// `(load arch-seq, (store distance, store arch-seq))` of the youngest
    /// conflicting older store within the tracking window, sorted by load
    /// sequence. Loads retire in ascending order during the build pass, so
    /// the vector is sorted by construction and [`lookup`](Self::lookup)
    /// is a dense binary search instead of a hash probe — the oracle is
    /// queried once per in-flight load on the simulator's fetch path.
    deps: Vec<(u64, (u32, u64))>,
    stats: MultiStoreStats,
}

impl DepOracle {
    /// Builds the oracle by running the emulator for up to `max_insts`
    /// instructions, tracking the youngest `window` stores (set this at
    /// least as large as the store buffer; `0` tracks none, so no load
    /// has a dependence or a provider).
    ///
    /// # Errors
    ///
    /// Propagates emulator errors (e.g. a corrupt return target).
    pub fn build(program: &Program, max_insts: u64, window: usize) -> Result<DepOracle, EmuError> {
        ORACLE_BUILDS.fetch_add(1, Ordering::Relaxed);
        let mut emu = Emulator::new(program);
        let mut recent: VecDeque<StoreRec> = VecDeque::with_capacity(window);
        let mut deps = Vec::new();
        let mut stats = MultiStoreStats::default();
        // Scratch for the per-load byte-provider analysis, reused across
        // the whole pass instead of allocated per load.
        let mut providers: Vec<(u64, Option<Reg>)> = Vec::new();

        while emu.retired() < max_insts {
            let Some((block, index)) = emu.cursor() else { break };
            // Only the memory-op kind and the base register are needed, so
            // borrow the instruction instead of cloning it (indirect jumps
            // carry a heap-allocated target list).
            let inst = program.inst(block, index);
            let (mem_size, src1) = match inst.op {
                Op::Store(size) => (Some((size.bytes(), true)), inst.src1),
                Op::Load(size) => (Some((size.bytes(), false)), inst.src1),
                _ => (None, None),
            };
            let Some(rec) = emu.step()? else { break };
            match mem_size {
                Some((size, true)) => {
                    if window == 0 {
                        continue;
                    }
                    if recent.len() == window {
                        recent.pop_front();
                    }
                    recent.push_back(StoreRec {
                        seq: rec.seq,
                        addr: rec.eff_addr.expect("store has address"),
                        size,
                        base: src1,
                    });
                }
                Some((bytes, false)) => {
                    stats.loads += 1;
                    let addr = rec.eff_addr.expect("load has address");
                    // Youngest conflicting store: first overlap scanning
                    // from the youngest end.
                    let youngest = recent
                        .iter()
                        .rev()
                        .enumerate()
                        .find(|(_, st)| ranges_overlap(addr, bytes, st.addr, st.size));
                    if let Some((dist, st)) = youngest {
                        debug_assert!(
                            deps.last().is_none_or(|&(s, _)| s < rec.seq),
                            "loads retire in ascending sequence order"
                        );
                        deps.push((rec.seq, (dist as u32, st.seq)));
                    }
                    // Byte-provider analysis for Fig. 4: each byte's
                    // provider is the youngest store covering it. Unless
                    // the load wraps the address space, only stores that
                    // overlap the whole load cover any of its bytes, so
                    // with none there is no provider, and a youngest one
                    // covering the whole load is the only provider.
                    match (youngest, addr.checked_add(bytes)) {
                        (None, Some(_)) => continue,
                        (Some((_, st)), Some(end))
                            if st.addr <= addr && end <= st.addr.wrapping_add(st.size) =>
                        {
                            stats.single_store_loads += 1;
                            continue;
                        }
                        _ => {}
                    }
                    providers.clear();
                    for b in 0..bytes {
                        let byte_addr = addr.wrapping_add(b);
                        if let Some(st) = recent
                            .iter()
                            .rev()
                            .find(|st| ranges_overlap(byte_addr, 1, st.addr, st.size))
                        {
                            if !providers.iter().any(|&(seq, _)| seq == st.seq) {
                                providers.push((st.seq, st.base));
                            }
                        }
                    }
                    match providers.len() {
                        0 => {}
                        1 => stats.single_store_loads += 1,
                        _ => {
                            stats.multi_store_loads += 1;
                            let base0 = providers[0].1;
                            if providers.iter().all(|&(_, b)| b == base0 && base0.is_some()) {
                                stats.multi_store_same_base += 1;
                            }
                        }
                    }
                }
                None => {}
            }
        }
        deps.shrink_to_fit();
        Ok(DepOracle { deps, stats })
    }

    /// The dependence of the dynamic load with architectural sequence
    /// number `load_seq`: `(store distance, store seq)`.
    pub fn lookup(&self, load_seq: u64) -> Option<(u32, u64)> {
        self.deps
            .binary_search_by_key(&load_seq, |&(seq, _)| seq)
            .ok()
            .map(|i| self.deps[i].1)
    }

    /// Number of loads with at least one in-window dependence.
    pub fn dependent_loads(&self) -> usize {
        self.deps.len()
    }

    /// Fig. 4 statistics.
    pub fn multi_store_stats(&self) -> MultiStoreStats {
        self.stats
    }
}

/// The ideal predictor: answers every load query from a [`DepOracle`].
///
/// A dependence is reported only when the conflicting store is still among
/// the load's older in-flight stores; otherwise the data is already in the
/// cache (or forwardable) and no stall is needed.
///
/// The oracle is shared via [`Arc`] (not `Rc`) so predictors can be built
/// and run on worker threads — the sweep engine in `phast-experiments`
/// fans (workload, predictor) runs across a thread pool.
#[derive(Clone)]
pub struct OraclePredictor {
    oracle: Arc<DepOracle>,
}

impl OraclePredictor {
    /// Creates an ideal predictor over a prebuilt oracle.
    pub fn new(oracle: Arc<DepOracle>) -> OraclePredictor {
        OraclePredictor { oracle }
    }
}

impl MemDepPredictor for OraclePredictor {
    fn name(&self) -> &str {
        "ideal"
    }

    fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome {
        match self.oracle.lookup(q.arch_seq) {
            Some((dist, _)) if dist < q.older_stores => {
                PredictionOutcome { dep: DepPrediction::Distance(dist), hint: 0 }
            }
            _ => PredictionOutcome::none(),
        }
    }

    fn train_violation(&mut self, _v: &Violation<'_>) {}

    fn storage_bits(&self) -> usize {
        0
    }

    fn access_stats(&self) -> AccessStats {
        AccessStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_isa::{MemSize, ProgramBuilder};

    /// store [r1], r2 ; load r3, [r1]  — distance 0 dependence.
    fn dep_program() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 0x1000)
            .li(Reg(2), 42)
            .store(Reg(1), 0, Reg(2), MemSize::B8)
            .load(Reg(3), Reg(1), 0, MemSize::B8)
            .halt();
        b.set_entry(e);
        b.build().unwrap()
    }

    #[test]
    fn finds_distance_zero_dependence() {
        let p = dep_program();
        let o = DepOracle::build(&p, 100, 128).unwrap();
        assert_eq!(o.dependent_loads(), 1);
        // The load is dynamic instruction 3.
        assert_eq!(o.lookup(3), Some((0, 2)));
    }

    #[test]
    fn distance_counts_intervening_stores() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 0x1000)
            .li(Reg(2), 1)
            .store(Reg(1), 0, Reg(2), MemSize::B8) // conflicting (seq 2)
            .store(Reg(1), 64, Reg(2), MemSize::B8) // unrelated
            .store(Reg(1), 128, Reg(2), MemSize::B8) // unrelated
            .load(Reg(3), Reg(1), 0, MemSize::B8) // seq 5
            .halt();
        b.set_entry(e);
        let p = b.build().unwrap();
        let o = DepOracle::build(&p, 100, 128).unwrap();
        assert_eq!(o.lookup(5), Some((2, 2)), "two younger stores in between");
    }

    #[test]
    fn youngest_store_wins() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 0x1000)
            .li(Reg(2), 1)
            .store(Reg(1), 0, Reg(2), MemSize::B8) // older store, same addr
            .store(Reg(1), 0, Reg(2), MemSize::B8) // youngest conflicting
            .load(Reg(3), Reg(1), 0, MemSize::B8)
            .halt();
        b.set_entry(e);
        let p = b.build().unwrap();
        let o = DepOracle::build(&p, 100, 128).unwrap();
        assert_eq!(o.lookup(4), Some((0, 3)), "§III-A: only the youngest matters");
    }

    #[test]
    fn multi_store_detection() {
        // Two 4-byte stores composing an 8-byte load (the 525.x264 pattern).
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e)
            .li(Reg(1), 0x1000)
            .li(Reg(2), 7)
            .store(Reg(1), 0, Reg(2), MemSize::B4)
            .store(Reg(1), 4, Reg(2), MemSize::B4)
            .load(Reg(3), Reg(1), 0, MemSize::B8)
            .halt();
        b.set_entry(e);
        let p = b.build().unwrap();
        let o = DepOracle::build(&p, 100, 128).unwrap();
        let s = o.multi_store_stats();
        assert_eq!(s.multi_store_loads, 1);
        assert_eq!(s.multi_store_same_base, 1, "both stores use r1 as base");
        assert!(s.multi_pct() > 0.0);
    }

    #[test]
    fn oracle_predictor_respects_flight_window() {
        let p = dep_program();
        let o = Arc::new(DepOracle::build(&p, 100, 128).unwrap());
        let mut pred = OraclePredictor::new(o);
        let h = phast_branch::DivergentHistory::new();
        let q = LoadQuery { pc: 0, token: 0, history: &h, arch_seq: 3, older_stores: 1 };
        assert_eq!(pred.predict_load(&q).dep, DepPrediction::Distance(0));
        // If the store already left the SQ, no dependence is reported.
        let q2 = LoadQuery { pc: 0, token: 0, history: &h, arch_seq: 3, older_stores: 0 };
        assert_eq!(pred.predict_load(&q2).dep, DepPrediction::None);
    }

    #[test]
    fn window_limits_visibility() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let mut c = b.at(e);
        c.li(Reg(1), 0x1000).li(Reg(2), 1);
        c.store(Reg(1), 0, Reg(2), MemSize::B8); // seq 2, conflicting
        for i in 0..4 {
            c.store(Reg(1), 64 * (i + 1), Reg(2), MemSize::B8);
        }
        c.load(Reg(3), Reg(1), 0, MemSize::B8); // seq 7
        c.halt();
        b.set_entry(e);
        let p = b.build().unwrap();
        let o = DepOracle::build(&p, 100, 2).unwrap();
        assert_eq!(o.lookup(7), None, "conflicting store fell out of the window");
    }

    #[test]
    fn zero_window_tracks_no_stores() {
        let p = dep_program();
        let o = DepOracle::build(&p, 100, 0).unwrap();
        assert_eq!(o.dependent_loads(), 0);
        assert_eq!(o.lookup(3), None);
        let s = o.multi_store_stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.single_store_loads + s.multi_store_loads, 0, "no load has a provider");
    }

    /// The straightforward build the production one must equal: one scan
    /// of the store window for the youngest overlapping store, then one
    /// full scan per load byte for that byte's provider, with no early-out.
    fn reference_build(program: &Program, max_insts: u64, window: usize) -> DepOracle {
        let mut emu = Emulator::new(program);
        let mut recent: VecDeque<StoreRec> = VecDeque::new();
        let mut deps = Vec::new();
        let mut stats = MultiStoreStats::default();
        while emu.retired() < max_insts {
            let Some((block, index)) = emu.cursor() else { break };
            let inst = program.inst(block, index);
            let (mem, base) = match inst.op {
                Op::Store(size) => (Some((size.bytes(), true)), inst.src1),
                Op::Load(size) => (Some((size.bytes(), false)), inst.src1),
                _ => (None, None),
            };
            let Some(rec) = emu.step().expect("emulates cleanly") else { break };
            let Some((bytes, is_store)) = mem else { continue };
            let addr = rec.eff_addr.expect("memory op has an address");
            if is_store {
                if window > 0 {
                    if recent.len() == window {
                        recent.pop_front();
                    }
                    recent.push_back(StoreRec { seq: rec.seq, addr, size: bytes, base });
                }
                continue;
            }
            stats.loads += 1;
            if let Some((dist, st)) = recent
                .iter()
                .rev()
                .enumerate()
                .find(|(_, st)| ranges_overlap(addr, bytes, st.addr, st.size))
            {
                deps.push((rec.seq, (dist as u32, st.seq)));
            }
            let mut providers: Vec<(u64, Option<Reg>)> = Vec::new();
            for b in 0..bytes {
                let byte_addr = addr.wrapping_add(b);
                if let Some(st) =
                    recent.iter().rev().find(|st| ranges_overlap(byte_addr, 1, st.addr, st.size))
                {
                    if !providers.iter().any(|&(seq, _)| seq == st.seq) {
                        providers.push((st.seq, st.base));
                    }
                }
            }
            match providers.len() {
                0 => {}
                1 => stats.single_store_loads += 1,
                _ => {
                    stats.multi_store_loads += 1;
                    let base0 = providers[0].1;
                    if providers.iter().all(|&(_, b)| b == base0 && base0.is_some()) {
                        stats.multi_store_same_base += 1;
                    }
                }
            }
        }
        DepOracle { deps, stats }
    }

    /// A straight-line program of `(store?, size index, offset, base)`
    /// memory ops over a 48-byte region. Bases r1 and r2 hold the same
    /// address (so a multi-store group may or may not share its base
    /// register), r3 is unaligned, and r4 sits 24 bytes below 2^64 so
    /// its accesses wrap the address space.
    fn mem_program(ops: &[(u8, u8, i64, u8)]) -> Program {
        let sizes = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let mut c = b.at(e);
        c.li(Reg(1), 0x1000).li(Reg(2), 0x1000).li(Reg(3), 0x1003).li(Reg(4), -24);
        c.li(Reg(5), 0x5a);
        for &(store, size, offset, base) in ops {
            let (size, base) = (sizes[usize::from(size)], Reg(1 + base));
            if store == 1 {
                c.store(base, offset, Reg(5), size);
            } else {
                c.load(Reg(6), base, offset, size);
            }
        }
        c.halt();
        b.set_entry(e);
        b.build().unwrap()
    }

    proptest::proptest! {
        #[test]
        fn build_matches_the_reference_on_random_programs(
            ops in proptest::collection::vec((0u8..2, 0u8..4, 0i64..48, 0u8..4), 1..160),
            w in 0usize..5,
        ) {
            let window = [1, 2, 3, 64, 512][w];
            let p = mem_program(&ops);
            let built = DepOracle::build(&p, 1_000, window).unwrap();
            proptest::prop_assert_eq!(built, reference_build(&p, 1_000, window));
        }
    }

    #[test]
    fn builds_match_the_reference_on_every_workload() {
        // The quick budget's horizon and program size, with the ideal
        // predictor's margin, then synthesized programs at the full
        // budget's horizon.
        let builtin = phast_workloads::all_workloads().into_iter().map(|w| (w, 200_000, 90_000));
        let synth = phast_trace::synth_workloads(12, 7).into_iter();
        for (w, iters, insts) in builtin.chain(synth.map(|w| (w, 1_000_000, 300_000))) {
            let p = w.build(iters);
            for window in [2, 64, 512] {
                let built = DepOracle::build(&p, insts, window).unwrap();
                let want = reference_build(&p, insts, window);
                // Not `assert_eq!`: it would print two oracles of
                // thousands of entries each.
                assert!(built == want, "{} at window {window}", w.name);
            }
        }
    }
}
