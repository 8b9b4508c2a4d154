//! The value-accurate, cycle-level out-of-order core.
//!
//! The core executes a `phast-isa` program *in the pipeline*: instructions
//! are fetched down the predicted path, renamed onto producer tokens,
//! issued when operands and ports allow, and compute real values at issue.
//! Wrong-path execution, store-to-load forwarding, memory-order violations
//! and their squashes therefore arise from first principles rather than
//! being replayed from a trace. The committed instruction stream is
//! bit-identical to the reference emulator (asserted by integration
//! tests).
//!
//! Squash policy follows the paper's §V: **eager** recovery for branch
//! mispredictions (at branch resolution), **lazy** commit-time squash for
//! memory-order violations. The §IV-A1 forwarding filter (don't squash a
//! load when the "conflicting" store is older than the store that
//! forwarded the load's data, Fig. 3c) is a config toggle evaluated by
//! Fig. 12.

use crate::check::{CommitChecker, FaultInjector};
use crate::config::{CoreConfig, MemSquashPolicy, TrainPoint};
use crate::deadline::Deadline;
use crate::error::{HeadUop, PipelineSnapshot, SimError};
use crate::stats::SimStats;
use phast_branch::{
    DirectionPredictor, DivergentEvent, DivergentHistory, HistoryCheckpoint, Ittage, IttageConfig,
    ReturnAddressStack,
};
use phast_isa::{
    compute_value, ranges_overlap, BlockId, EmuSnapshot, Emulator, ExecClass, Inst, MemSize, Op,
    Pc, Program, Reg, SparseMemory, NUM_REGS,
};
use phast_mdp::{
    DepPrediction, LoadCommit, LoadQuery, MemDepPredictor, PredictionOutcome, StoreQuery,
    Violation,
};
use phast_mem::{line_of, AccessKind, Hierarchy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Entries of the core's return-address stack.
pub const RAS_DEPTH: usize = 32;

/// What a load has been told to wait for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WaitSpec {
    /// No dependence predicted.
    None,
    /// Wait until one specific store token has executed.
    One(u64),
    /// Wait until each store token in the load's slot of
    /// `Core::wait_lists` has executed (Store Vectors).
    Many,
    /// Wait until every older in-flight store has executed.
    AllOlder,
}

/// A memory-order violation recorded on a load, pending its lazy squash.
#[derive(Clone, Copy, Debug)]
struct PendingViolation {
    store_pc: Pc,
    store_token: u64,
    store_distance: u32,
    history_len: u32,
}

/// One in-flight micro-operation. Plain data: the ROB pops and truncates
/// entries without running drop glue.
#[derive(Clone, Copy)]
struct Uop {
    token: u64,
    arch_seq: u64,
    block: BlockId,
    index: usize,
    pc: Pc,
    class: ExecClass,
    dst: Option<Reg>,
    srcs: [Option<Reg>; 2],
    src_producers: [Option<u64>; 2],
    imm: i64,
    is_halt: bool,

    // Lifecycle.
    issue_ready_at: u64,
    issued: bool,
    complete_at: u64,
    completed: bool,
    result: Option<u64>,

    // Rename undo (previous RAT mapping of `dst`).
    prev_rat: Option<u64>,

    // Front-end speculation state captured just before this uop's fetch.
    hist_cp: HistoryCheckpoint,
    ras_cp: phast_branch::RasCheckpoint,
    ghr_at_fetch: u128,
    /// Target-path history (1 outcome bit per conditional, 5 destination
    /// bits per indirect) at fetch — what ITTAGE keys on.
    path_ghr_at_fetch: u128,
    div_count: u64,

    // Control flow.
    predicted_next: Option<(BlockId, usize)>,
    actual_next: Option<(BlockId, usize)>,
    actual_event: Option<DivergentEvent>,
    actual_taken: bool,
    was_mispredicted: bool,

    // Memory.
    mem_size: u64,
    addr: Option<u64>,
    store_data: Option<u64>,
    forward_source: Option<u64>,
    forward_distance: Option<u32>,
    fully_forwarded: bool,
    violation: Option<PendingViolation>,

    // Memory dependence prediction.
    prediction: PredictionOutcome,
    wait: WaitSpec,
    mdp_delayed: bool,
}

/// Where fetch resumes after a squash.
enum Redirect {
    /// Re-fetch from this exact static location (violation squash).
    At((BlockId, usize)),
    /// Fetch is stalled until an older squash redirects it (corrupt
    /// indirect target on what is so far the speculative path).
    Stalled,
}

/// The out-of-order core, generic over the memory dependence predictor it
/// is evaluated with.
pub struct Core<'a> {
    program: &'a Program,
    cfg: CoreConfig,
    predictor: &'a mut dyn MemDepPredictor,
    direction: Box<dyn DirectionPredictor>,

    // Front end.
    cursor: Option<(BlockId, usize)>,
    fetch_stalled_until: u64,
    cur_fetch_line: Option<u64>,
    next_token: u64,
    next_arch_seq: u64,
    halt_fetched: bool,

    // Speculation state.
    cond_ghr: u128,
    path_ghr: u128,
    spec_hist: DivergentHistory,
    commit_hist: DivergentHistory,
    indirect: Box<Ittage>,
    ras: ReturnAddressStack,

    // Rename and architectural state.
    rat: [Option<u64>; NUM_REGS],
    arch_regs: [u64; NUM_REGS],
    memory_state: SparseMemory,

    // Back end. The ROB is the single source of truth; the queues below
    // are incrementally maintained scoreboards over it (all token-sorted
    // ascending, cross-checked against a from-scratch recount by
    // `audit_invariants`) so no stage has to scan the whole ROB.
    rob: VecDeque<Uop>,
    rob_head_token: u64,
    /// Unissued uops in age order — the issue queue. Replaces the
    /// per-cycle full-ROB issue scan.
    iq_tokens: VecDeque<u64>,
    /// In-flight loads in age order — the load queue. Stores search only
    /// the suffix younger than themselves.
    lq_tokens: VecDeque<u64>,
    /// In-flight stores in age order — the store queue. Sorted, so
    /// distance counts are two binary searches.
    sq_tokens: VecDeque<u64>,
    /// Pending writebacks as `Reverse((complete_at, token))`: uops are
    /// completed by popping this min-heap instead of scanning the ROB.
    /// Entries of squashed uops go stale and are recognized (and skipped)
    /// at pop time, so squash never has to rebuild the heap.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// In-flight writers per architectural register (the producer index
    /// backing the RAT audit).
    reg_writers: [u32; NUM_REGS],
    /// Reused buffer for the violation search in `store_search_lq`.
    scratch_violations: Vec<u64>,
    /// The store tokens of each load told to wait on several stores
    /// ([`WaitSpec::Many`]; Store Vectors is the only predictor that asks),
    /// one list per ROB slot: a uop's slot is `token & (len - 1)`. The
    /// length is a power of two no smaller than the ROB, and in-flight
    /// tokens are dense, so no two in-flight uops share a slot. Lists keep
    /// their capacity, so steady state allocates nothing.
    wait_lists: Vec<Vec<u64>>,
    sb_drains: VecDeque<u64>,
    mem: Hierarchy,

    cycle: u64,
    last_commit_cycle: u64,
    stats: SimStats,
    halted: bool,
    commit_log: Option<Vec<CommitRecord>>,

    // Integrity machinery (see `cfg.check`).
    checker: Option<CommitChecker<'a>>,
    injector: Option<FaultInjector>,
}

/// Warmed state a core boots from mid-program (sampled simulation).
///
/// Built by `phast-sample` after functional fast-forward + warming: the
/// architectural snapshot positions the core at an arbitrary point of the
/// program, and the remaining fields seed the front-end speculation
/// structures so the detailed window starts from realistic (not cold)
/// state. See [`Core::with_state`].
pub struct BootState {
    /// Architectural registers/memory/cursor/instruction count.
    pub arch: EmuSnapshot,
    /// Conditional-branch global history register at the boot point.
    pub cond_ghr: u128,
    /// Path (target) global history register at the boot point.
    pub path_ghr: u128,
    /// Divergent-branch history at the boot point (seeds both the
    /// speculative and the commit copy).
    pub history: DivergentHistory,
    /// Return-address stack at the boot point.
    pub ras: ReturnAddressStack,
    /// Warmed cache hierarchy (use a freshly created one for cold boots).
    pub hierarchy: Hierarchy,
    /// Warmed indirect-target predictor (the front end's ITTAGE).
    pub indirect: Box<Ittage>,
}

/// One committed instruction, for equivalence checks against the
/// functional emulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Architectural sequence number (matches the emulator's `seq`).
    pub arch_seq: u64,
    /// Program counter.
    pub pc: Pc,
    /// Destination value written, if any.
    pub dst_value: Option<u64>,
    /// Effective address of loads/stores.
    pub eff_addr: Option<u64>,
}

impl<'a> Core<'a> {
    /// Creates a core at the program entry with cold predictors and caches:
    /// [`Core::with_state`] booted from the entry snapshot of a fresh
    /// emulator, zero branch histories, an empty return-address stack, and
    /// new hierarchy and indirect predictor.
    pub fn new(
        program: &'a Program,
        cfg: CoreConfig,
        predictor: &'a mut dyn MemDepPredictor,
        direction: Box<dyn DirectionPredictor>,
    ) -> Core<'a> {
        let boot = BootState {
            arch: Emulator::new(program).snapshot(),
            cond_ghr: 0,
            path_ghr: 0,
            history: DivergentHistory::new(),
            ras: ReturnAddressStack::new(RAS_DEPTH),
            hierarchy: Hierarchy::new(cfg.memory),
            indirect: Box::new(Ittage::new(IttageConfig::default())),
        };
        Core::with_state(program, cfg, predictor, direction, boot)
    }

    /// Creates a core resuming mid-program from warmed [`BootState`].
    ///
    /// The pipeline itself starts empty (ROB/queues/RAT are per-window
    /// state that refills within tens of cycles); architectural state,
    /// branch histories, the RAS, the indirect predictor and the cache
    /// hierarchy come from the boot state. `program` must be the program
    /// the boot state was captured from.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is already halted — there is nothing left to
    /// simulate past a retired `Halt`.
    pub fn with_state(
        program: &'a Program,
        cfg: CoreConfig,
        predictor: &'a mut dyn MemDepPredictor,
        direction: Box<dyn DirectionPredictor>,
        boot: BootState,
    ) -> Core<'a> {
        let cursor = boot.arch.cursor;
        assert!(cursor.is_some(), "cannot boot a core from a halted snapshot");
        let checker = cfg.check.lockstep.then(|| CommitChecker::from_snapshot(program, &boot.arch));
        let injector = cfg.check.faults.map(FaultInjector::new);
        Core {
            mem: boot.hierarchy,
            cursor,
            fetch_stalled_until: 0,
            cur_fetch_line: None,
            next_token: 0,
            next_arch_seq: boot.arch.icount,
            halt_fetched: false,
            cond_ghr: boot.cond_ghr,
            path_ghr: boot.path_ghr,
            spec_hist: boot.history.clone(),
            commit_hist: boot.history,
            indirect: boot.indirect,
            ras: boot.ras,
            rat: [None; NUM_REGS],
            arch_regs: boot.arch.regs,
            memory_state: boot.arch.memory,
            rob: VecDeque::with_capacity(cfg.rob_size),
            rob_head_token: 0,
            iq_tokens: VecDeque::with_capacity(cfg.iq_size),
            lq_tokens: VecDeque::with_capacity(cfg.lq_size),
            sq_tokens: VecDeque::with_capacity(cfg.sq_size),
            completions: BinaryHeap::with_capacity(2 * cfg.rob_size),
            reg_writers: [0; NUM_REGS],
            scratch_violations: Vec::with_capacity(16),
            wait_lists: vec![Vec::new(); cfg.rob_size.next_power_of_two()],
            sb_drains: VecDeque::with_capacity(cfg.sq_size),
            cycle: 0,
            last_commit_cycle: 0,
            stats: SimStats::default(),
            halted: false,
            commit_log: None,
            checker,
            injector,
            program,
            cfg,
            predictor,
            direction,
        }
    }

    /// Runs until `max_insts` have committed, the program halts, or
    /// `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the watchdog trips (no commit for
    /// `deadlock_cycles`, or the cycle ceiling elapses before the run
    /// finishes), if the committed path executes a corrupt `Ret`, or —
    /// when enabled by [`CoreConfig::check`] — on the first lockstep
    /// divergence from the reference emulator or failed invariant audit.
    pub fn try_run(&mut self, max_insts: u64, max_cycles: u64) -> Result<SimStats, SimError> {
        self.try_run_within(max_insts, max_cycles, &Deadline::none())
    }

    /// Like [`Core::try_run`], but also polls a cooperative [`Deadline`]
    /// token on the cycle-ceiling path — once every
    /// [`DEADLINE_CHECK_INTERVAL`](crate::DEADLINE_CHECK_INTERVAL) cycles,
    /// so the steady-state loop stays allocation-free — and converts an
    /// expired deadline into [`SimError::Deadline`]. This is the per-run
    /// watchdog the sweep engine uses to turn hung runs into reportable
    /// failures.
    ///
    /// The run is resumable: calling this again on the same core continues
    /// toward a larger `max_insts` with statistics that stay cumulative
    /// (the sampler's detailed windows run a ramp, then the measured
    /// window, as two calls).
    ///
    /// # Errors
    ///
    /// As for [`Core::try_run`], plus [`SimError::Deadline`].
    pub fn try_run_within(
        &mut self,
        max_insts: u64,
        max_cycles: u64,
        deadline: &Deadline,
    ) -> Result<SimStats, SimError> {
        const MASK: u64 = crate::deadline::DEADLINE_CHECK_INTERVAL - 1;
        while !self.halted && self.stats.committed < max_insts && self.cycle < max_cycles {
            if self.cycle & MASK == 0 && deadline.expired() {
                return Err(SimError::Deadline {
                    wall: deadline.elapsed(),
                    snapshot: self.snapshot(),
                });
            }
            self.try_step()?;
        }
        if !self.halted && self.stats.committed < max_insts {
            return Err(SimError::CycleCeiling { max_cycles, snapshot: self.snapshot() });
        }
        Ok(self.collect_stats())
    }

    /// Legacy entry point: like [`Core::try_run`] but infallible.
    ///
    /// A hit cycle ceiling is logged and returns the partial statistics
    /// with [`SimStats::ceiling_hit`] set (callers that must distinguish
    /// truncation should use `try_run`).
    ///
    /// # Panics
    ///
    /// Panics on every other [`SimError`] (deadlock, lockstep divergence,
    /// invariant violation, corrupt committed `Ret`).
    pub fn run(&mut self, max_insts: u64, max_cycles: u64) -> SimStats {
        match self.try_run(max_insts, max_cycles) {
            Ok(stats) => stats,
            Err(SimError::CycleCeiling { max_cycles, snapshot }) => {
                eprintln!(
                    "warning: cycle ceiling {max_cycles} hit; statistics are truncated ({})",
                    snapshot
                );
                let mut stats = snapshot.stats;
                stats.ceiling_hit = true;
                stats
            }
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Statistics as of now (used for both clean finishes and snapshots).
    fn collect_stats(&self) -> SimStats {
        let mut stats = self.stats.clone();
        stats.cycles = self.cycle;
        stats.halted = self.halted;
        stats.predictor_accesses = self.predictor.access_stats();
        stats.memory = self.mem.stats();
        if let Some(c) = &self.checker {
            stats.checked_commits = c.checked();
        }
        if let Some(i) = &self.injector {
            stats.injected_faults = i.injected();
        }
        stats
    }

    /// Captures the observable pipeline state for a [`SimError`].
    fn snapshot(&self) -> Box<PipelineSnapshot> {
        Box::new(PipelineSnapshot {
            cycle: self.cycle,
            last_commit_cycle: self.last_commit_cycle,
            stats: self.collect_stats(),
            rob_len: self.rob.len(),
            rob_head_token: self.rob_head_token,
            head: self.rob.front().map(|u| HeadUop {
                token: u.token,
                arch_seq: u.arch_seq,
                pc: u.pc,
                class: u.class,
                issued: u.issued,
                completed: u.completed,
            }),
            unissued: self.iq_tokens.len(),
            lq_count: self.lq_tokens.len(),
            sq_tokens: self.sq_tokens.iter().copied().collect(),
            sb_pending: self.sb_drains.len(),
            cursor: self.cursor,
        })
    }

    /// Starts recording every committed instruction, for equivalence
    /// checks against the reference emulator.
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// The recorded commit log (empty unless enabled).
    pub fn commit_log(&self) -> &[CommitRecord] {
        self.commit_log.as_deref().unwrap_or(&[])
    }

    /// Architectural register value (for oracle-style verification).
    pub fn arch_reg(&self, r: Reg) -> u64 {
        self.arch_regs[r.index()]
    }

    /// Advances one cycle: commit → writeback → issue → fetch.
    fn try_step(&mut self) -> Result<(), SimError> {
        self.drain_store_buffer();
        self.commit()?;
        self.writeback();
        self.issue();
        self.fetch();
        self.cycle += 1;
        let stalled_cycles = self.cycle - self.last_commit_cycle;
        if stalled_cycles > self.cfg.deadlock_cycles {
            return Err(SimError::Deadlock { stalled_cycles, snapshot: self.snapshot() });
        }
        if self.cfg.check.invariants
            && self.cycle.is_multiple_of(self.cfg.check.invariant_interval.max(1))
        {
            self.stats.invariant_audits += 1;
            if let Err(description) = self.audit_invariants() {
                return Err(SimError::Invariant { description, snapshot: self.snapshot() });
            }
        }
        Ok(())
    }

    #[inline]
    fn rob_index(&self, token: u64) -> usize {
        debug_assert!(token >= self.rob_head_token);
        (token - self.rob_head_token) as usize
    }

    #[inline]
    fn uop(&self, token: u64) -> &Uop {
        &self.rob[self.rob_index(token)]
    }

    /// The [`WaitSpec::Many`] store tokens of the in-flight load `token`.
    #[inline]
    fn wait_list(&self, token: u64) -> &[u64] {
        &self.wait_lists[token as usize & (self.wait_lists.len() - 1)]
    }

    /// Number of in-flight stores with `lo < token < hi`. The SQ is
    /// token-sorted, so two binary searches answer the distance counts
    /// that used to be linear filters.
    #[inline]
    fn sq_between(&self, lo: u64, hi: u64) -> u32 {
        let younger = self.sq_tokens.partition_point(|&t| t < hi);
        let older = self.sq_tokens.partition_point(|&t| t <= lo);
        (younger - older) as u32
    }

    fn store_done(&self, token: u64) -> bool {
        if token < self.rob_head_token {
            return true; // already committed
        }
        let idx = (token - self.rob_head_token) as usize;
        match self.rob.get(idx) {
            Some(u) => u.completed,
            None => true, // squashed or never existed: nothing to wait for
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn drain_store_buffer(&mut self) {
        let mut drained = 0;
        while drained < self.cfg.ports.store {
            match self.sb_drains.front() {
                Some(&done) if done <= self.cycle => {
                    self.sb_drains.pop_front();
                    drained += 1;
                }
                _ => break,
            }
        }
    }

    fn commit(&mut self) -> Result<(), SimError> {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed {
                break;
            }
            if head.class == ExecClass::Load {
                if let Some(v) = head.violation {
                    self.commit_violation(v);
                    break;
                }
                // Fault injection: pretend a clean head load mis-speculated,
                // forcing the lazy squash-and-refetch path with (possibly)
                // garbage training. Recovery must be architecturally exact.
                let (pc, arch_seq) = (head.pc, head.arch_seq);
                if self.injector.as_mut().is_some_and(|i| i.spurious_violation(arch_seq)) {
                    let v = PendingViolation {
                        store_pc: pc,
                        store_token: self.rob_head_token.saturating_sub(1),
                        store_distance: 0,
                        history_len: 0,
                    };
                    self.commit_violation(v);
                    break;
                }
            }
            self.commit_one()?;
            if self.halted {
                break;
            }
        }
        Ok(())
    }

    /// Lazy squash: the head load was mispeculated; train, squash from the
    /// load (inclusive) and re-fetch it.
    fn commit_violation(&mut self, v: PendingViolation) {
        self.stats.violations += 1;
        let head = self.rob.front().expect("head exists");
        let (block, index) = (head.block, head.index);
        let load_pc = head.pc;
        let load_token = head.token;
        let prior = head.prediction;
        let hist_cp = head.hist_cp;
        let ras_cp = head.ras_cp;
        let ghr = head.ghr_at_fetch;
        let path_ghr = head.path_ghr_at_fetch;
        let arch_seq = head.arch_seq;

        if self.cfg.train_point == TrainPoint::Commit {
            self.predictor.train_violation(&Violation {
                load_pc,
                store_pc: v.store_pc,
                store_distance: v.store_distance,
                history_len: v.history_len,
                history: &self.commit_hist,
                load_token,
                store_token: v.store_token,
                prior,
            });
        }

        // Squash everything, including the load itself, and restore the
        // speculative front-end state to just before the load's fetch.
        self.squash_from(load_token, Redirect::At((block, index)));
        self.spec_hist.restore(hist_cp);
        self.ras.restore(ras_cp);
        self.cond_ghr = ghr;
        self.path_ghr = path_ghr;
        self.next_arch_seq = arch_seq;
        self.last_commit_cycle = self.cycle; // forward progress: re-execution
    }

    fn commit_one(&mut self) -> Result<(), SimError> {
        // The head is read in place and popped once retired: a `Uop` is
        // ~500 bytes, far more than commit reads of it.
        let u = self.rob.front().expect("head exists");
        self.stats.committed += 1;
        self.last_commit_cycle = self.cycle;
        if let Some(log) = &mut self.commit_log {
            log.push(CommitRecord {
                arch_seq: u.arch_seq,
                pc: u.pc,
                dst_value: u.dst.and(u.result),
                eff_addr: u.addr,
            });
        }

        // Architectural register update + RAT release.
        if let Some(dst) = u.dst {
            if let Some(r) = u.result {
                self.arch_regs[dst.index()] = r;
            }
            if self.rat[dst.index()] == Some(u.token) {
                self.rat[dst.index()] = None;
            }
            self.reg_writers[dst.index()] -= 1;
        }

        match u.class {
            ExecClass::Store => {
                self.stats.committed_stores += 1;
                let addr = u.addr.expect("store executed");
                let data = u.store_data.expect("store executed");
                let size = match u.mem_size {
                    1 => MemSize::B1,
                    2 => MemSize::B2,
                    4 => MemSize::B4,
                    _ => MemSize::B8,
                };
                self.memory_state.write(addr, size, data);
                debug_assert_eq!(self.sq_tokens.front(), Some(&u.token));
                self.sq_tokens.pop_front();
                // The store occupies its SQ/SB slot until written to L1D.
                let done = self.mem.access(AccessKind::Store, u.pc, addr, self.cycle);
                self.sb_drains.push_back(done);
            }
            ExecClass::Load => {
                self.stats.committed_loads += 1;
                debug_assert_eq!(self.lq_tokens.front(), Some(&u.token));
                self.lq_tokens.pop_front();
                debug_assert_eq!(
                    self.commit_hist.count(),
                    u.div_count,
                    "commit-time history must align with the load's decode counter"
                );
                if u.forward_source.is_some() {
                    self.stats.forwarded_loads += 1;
                }
                let waited_correct = match u.wait {
                    WaitSpec::None => false,
                    WaitSpec::One(t) => u.forward_source == Some(t),
                    WaitSpec::Many => {
                        u.forward_source.is_some_and(|f| self.wait_list(u.token).contains(&f))
                    }
                    WaitSpec::AllOlder => u.forward_source.is_some(),
                };
                if u.wait != WaitSpec::None && u.mdp_delayed && !waited_correct {
                    self.stats.false_dependences += 1;
                }
                if u.mdp_delayed {
                    self.stats.mdp_stalled_loads += 1;
                }
                // Fault injection: poison the predictor with a fabricated
                // violation. Later predictions go wrong, but wrong
                // predictions may only cost cycles, never correctness.
                if self.injector.as_mut().is_some_and(|i| i.corrupt_training()) {
                    let d = self.injector.as_mut().expect("injected").small_distance();
                    self.predictor.train_violation(&Violation {
                        load_pc: u.pc,
                        store_pc: u.pc ^ 0x40,
                        store_distance: d,
                        history_len: 0,
                        history: &self.commit_hist,
                        load_token: u.token,
                        store_token: u.token.wrapping_sub(1),
                        prior: u.prediction,
                    });
                }
                self.predictor.load_committed(&LoadCommit {
                    pc: u.pc,
                    prediction: u.prediction,
                    actual_distance: u.forward_distance,
                    waited_correct,
                    history: &self.commit_hist,
                });
            }
            ExecClass::Branch => {
                let inst = self.program.inst(u.block, u.index);
                if matches!(inst.op, Op::CondBranch { .. }) {
                    self.stats.committed_cond_branches += 1;
                    if u.was_mispredicted {
                        self.stats.branch_mispredicts += 1;
                    }
                } else if u.was_mispredicted {
                    self.stats.indirect_mispredicts += 1;
                }
                if let Some(ev) = u.actual_event {
                    self.commit_hist.push(ev);
                }
                if matches!(inst.op, Op::Ret) && u.actual_next.is_none() {
                    let (pc, target) = (u.pc, u.actual_event.map_or(0, |e| e.target));
                    self.pop_head();
                    return Err(SimError::CorruptRet { pc, target, snapshot: self.snapshot() });
                }
            }
            _ => {}
        }

        // Lockstep: this commit must match the reference emulator's next
        // retired instruction exactly.
        let lockstep = match &mut self.checker {
            Some(checker) => {
                checker.check_commit(u.arch_seq, u.pc, u.dst.and(u.result), u.addr, u.store_data)
            }
            None => Ok(()),
        };
        let is_halt = u.is_halt;
        self.pop_head();
        if let Err(report) = lockstep {
            return Err(SimError::Divergence { report, snapshot: self.snapshot() });
        }
        if is_halt {
            self.halted = true;
        }
        Ok(())
    }

    /// Retires the ROB head (after `commit_one` has read it).
    fn pop_head(&mut self) {
        self.rob.pop_front();
        self.rob_head_token += 1;
    }

    // ------------------------------------------------------------------
    // Writeback / resolution
    // ------------------------------------------------------------------

    fn writeback(&mut self) {
        // Pop due completions from the min-heap instead of scanning the
        // ROB. Every op latency is ≥ 1, so a uop issued at cycle `c` is
        // due strictly after `c` and each live entry surfaces exactly at
        // its `complete_at` cycle; ties complete in token order — the
        // same order the old full scan processed them.
        while let Some(&Reverse((done, token))) = self.completions.peek() {
            if done > self.cycle {
                break;
            }
            self.completions.pop();
            // Squashes leave entries behind, and squashed tokens are
            // reused by refetch: the entry is stale unless it names a
            // live, issued, not-yet-completed uop due exactly now.
            if token < self.rob_head_token {
                continue;
            }
            let i = (token - self.rob_head_token) as usize;
            let Some(u) = self.rob.get(i) else { continue };
            if !u.issued || u.completed || u.complete_at != done {
                continue;
            }
            self.rob[i].completed = true;
            match self.rob[i].class {
                ExecClass::Branch => {
                    // On a squash everything younger is gone; their heap
                    // entries go stale and are skipped above.
                    let _ = self.resolve_branch(i);
                }
                ExecClass::Store => self.store_search_lq(i),
                _ => {}
            }
        }
    }

    /// Resolves a completed branch; returns true if it squashed.
    fn resolve_branch(&mut self, i: usize) -> bool {
        let u = &self.rob[i];
        let token = u.token;
        let pc = u.pc;
        let inst = self.program.inst(u.block, u.index);
        let (predicted_next, actual_next) = (u.predicted_next, u.actual_next);
        let (ghr, actual_taken) = (u.ghr_at_fetch, u.actual_taken);
        let path_ghr = u.path_ghr_at_fetch;
        let (hist_cp, ras_cp) = (u.hist_cp, u.ras_cp);
        let actual_event = u.actual_event;
        let arch_seq = u.arch_seq;

        // Train the direction / target predictors at resolution.
        match &inst.op {
            Op::CondBranch { .. } => self.direction.update(pc, ghr, actual_taken),
            Op::IndirectJump(_) | Op::Ret => {
                if let Some((b, _)) = actual_next {
                    self.indirect.update(pc, path_ghr, b);
                }
            }
            _ => {}
        }

        if predicted_next == actual_next {
            return false;
        }
        self.rob[i].was_mispredicted = true;

        // Eager squash of everything younger; restore speculative state to
        // just after this branch with its *actual* outcome applied.
        let redirect = match actual_next {
            Some(next) => Redirect::At(next),
            None => Redirect::Stalled, // corrupt wrong-path Ret
        };
        self.squash_from(token + 1, redirect);
        self.spec_hist.restore(hist_cp);
        self.ras.restore(ras_cp);
        self.cond_ghr = ghr;
        self.path_ghr = path_ghr;
        match &inst.op {
            Op::CondBranch { .. } => {
                self.cond_ghr = (ghr << 1) | u128::from(actual_taken);
                self.path_ghr = (path_ghr << 1) | u128::from(actual_taken);
                if let Some(ev) = actual_event {
                    self.spec_hist.push(ev);
                }
            }
            Op::IndirectJump(_) | Op::Ret => {
                if matches!(inst.op, Op::Ret) {
                    let _ = self.ras.pop();
                }
                if let Some(ev) = actual_event {
                    self.path_ghr = (path_ghr << 5) | u128::from(ev.target & 0x1f);
                    self.spec_hist.push(ev);
                }
            }
            Op::Call(_) => {
                // Direct calls cannot mispredict.
                unreachable!("direct call mispredicted");
            }
            _ => {}
        }
        self.next_arch_seq = arch_seq + 1;
        true
    }

    /// A store has resolved its address: search the LQ for younger,
    /// already-executed loads that overlap (the memory-order check).
    fn store_search_lq(&mut self, store_i: usize) {
        let s = &self.rob[store_i];
        let store_token = s.token;
        let store_pc = s.pc;
        let store_addr = s.addr.expect("store executed");
        let store_size = s.mem_size;
        let store_div_count = s.div_count;

        self.predictor.store_executed(store_pc, store_token);

        // Only loads younger than the store can violate: search the LQ
        // suffix past the store's token instead of the whole ROB tail.
        let mut violations = std::mem::take(&mut self.scratch_violations);
        violations.clear();
        let start = self.lq_tokens.partition_point(|&t| t < store_token);
        for qi in start..self.lq_tokens.len() {
            let ltok = self.lq_tokens[qi];
            let l = &self.rob[self.rob_index(ltok)];
            debug_assert_eq!(l.class, ExecClass::Load);
            if !l.issued {
                continue;
            }
            let Some(laddr) = l.addr else { continue };
            if !ranges_overlap(laddr, l.mem_size, store_addr, store_size) {
                continue;
            }
            // §IV-A1 forwarding filter (Fig. 3c): if the load's data came
            // from a store *younger* than this one, the load is correct.
            if self.cfg.forwarding_filter {
                if let Some(f) = l.forward_source {
                    if f > store_token {
                        self.stats.filtered_violations += 1;
                        continue;
                    }
                }
            }
            if l.forward_source == Some(store_token) {
                continue; // already got this store's data
            }
            violations.push(ltok);
        }

        let eager = self.cfg.mem_squash == MemSquashPolicy::Eager;
        for &load_token in &violations {
            let j = (load_token - self.rob_head_token) as usize;
            if eager && j >= self.rob.len() {
                break; // an earlier eager squash removed the rest
            }
            let (load_pc, load_div, prior) = {
                let l = &self.rob[j];
                (l.pc, l.div_count, l.prediction)
            };
            let store_distance = self.sq_between(store_token, load_token);
            // N: divergent branches between the store and the load. The
            // paper's predictors collect N+1 history entries (the extra
            // one is the divergent branch previous to the store).
            let history_len = (load_div - store_div_count) as u32;
            let keep = match self.rob[j].violation {
                Some(existing) => store_token > existing.store_token,
                None => true,
            };
            if keep {
                self.rob[j].violation =
                    Some(PendingViolation { store_pc, store_token, store_distance, history_len });
                if self.cfg.train_point == TrainPoint::Detect || eager {
                    // Train with the load's decode-time history by
                    // temporarily rewinding the speculative register.
                    let saved = self.spec_hist.checkpoint();
                    self.spec_hist.restore(self.rob[j].hist_cp);
                    self.predictor.train_violation(&Violation {
                        load_pc,
                        store_pc,
                        store_distance,
                        history_len,
                        history: &self.spec_hist,
                        load_token,
                        store_token,
                        prior,
                    });
                    self.spec_hist.restore(saved);
                }
                if eager {
                    // Immediate recovery: squash from the load (inclusive)
                    // and re-fetch it. Younger flagged loads vanish with it.
                    self.stats.violations += 1;
                    let l = &self.rob[j];
                    let (block, index) = (l.block, l.index);
                    let (hist_cp, ras_cp, ghr, pghr, arch_seq) =
                        (l.hist_cp, l.ras_cp, l.ghr_at_fetch, l.path_ghr_at_fetch, l.arch_seq);
                    self.squash_from(load_token, Redirect::At((block, index)));
                    self.spec_hist.restore(hist_cp);
                    self.ras.restore(ras_cp);
                    self.cond_ghr = ghr;
                    self.path_ghr = pghr;
                    self.next_arch_seq = arch_seq;
                    break;
                }
            }
        }
        violations.clear();
        self.scratch_violations = violations;
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn wait_satisfied(&self, i: usize) -> bool {
        let u = &self.rob[i];
        match u.wait {
            WaitSpec::None => true,
            WaitSpec::One(t) => self.store_done(t),
            WaitSpec::Many => self.wait_list(u.token).iter().all(|&t| self.store_done(t)),
            WaitSpec::AllOlder => {
                let token = u.token;
                self.sq_tokens.iter().take_while(|&&t| t < token).all(|&t| self.store_done(t))
            }
        }
    }

    fn operand_ready(&self, producer: Option<u64>) -> bool {
        match producer {
            None => true,
            Some(t) => t < self.rob_head_token || self.uop(t).completed,
        }
    }

    fn operand_value(&self, producer: Option<u64>, reg: Option<Reg>) -> u64 {
        let Some(r) = reg else { return 0 };
        if r.is_zero() {
            return 0;
        }
        match producer {
            Some(t) if t >= self.rob_head_token => {
                self.uop(t).result.expect("completed producer has a result")
            }
            _ => self.arch_regs[r.index()],
        }
    }

    fn issue(&mut self) {
        let mut int_ports = self.cfg.ports.int;
        let mut fp_ports = self.cfg.ports.fp;
        let mut load_ports = self.cfg.ports.load;
        let mut store_ports = self.cfg.ports.store;
        let mut branch_ports = self.cfg.ports.branch;

        // Walk only the unissued uops, oldest first — the same order the
        // old full-ROB scan visited them in.
        let mut qi = 0;
        while qi < self.iq_tokens.len() {
            if int_ports == 0
                && fp_ports == 0
                && load_ports == 0
                && store_ports == 0
                && branch_ports == 0
            {
                break; // every port consumed; nothing else can issue
            }
            let token = self.iq_tokens[qi];
            let i = self.rob_index(token);
            let u = &self.rob[i];
            debug_assert!(!u.issued);
            if self.cycle < u.issue_ready_at {
                // Front-end readiness is monotone along the age-ordered
                // queue (fetch order), so nothing younger is ready either.
                break;
            }
            let class = u.class;
            let (p0, p1) = (u.src_producers[0], u.src_producers[1]);
            let port = match class {
                ExecClass::IntAlu | ExecClass::IntMul | ExecClass::IntDiv => &mut int_ports,
                ExecClass::Fp => &mut fp_ports,
                ExecClass::Load => &mut load_ports,
                ExecClass::Store => &mut store_ports,
                ExecClass::Branch => &mut branch_ports,
            };
            if *port == 0 {
                qi += 1;
                continue;
            }
            if !(self.operand_ready(p0) && self.operand_ready(p1)) {
                qi += 1;
                continue;
            }
            if !self.wait_satisfied(i) {
                // Operands are ready but the dependence prediction holds
                // the access back: an MDP-induced delay.
                self.rob[i].mdp_delayed = true;
                qi += 1;
                continue;
            }
            *port -= 1;
            self.execute_at_issue(i);
            self.rob[i].issued = true;
            self.iq_tokens.remove(qi); // `qi` now names the next candidate
        }
    }

    /// Computes the uop's result (value-accurate) and completion time.
    fn execute_at_issue(&mut self, i: usize) {
        let u = &self.rob[i];
        let inst: &Inst = self.program.inst(u.block, u.index);
        let lhs = self.operand_value(u.src_producers[0], u.srcs[0]);
        let rhs = match u.srcs[1] {
            Some(_) => self.operand_value(u.src_producers[1], u.srcs[1]),
            None => u.imm as u64,
        };
        let latency = u64::from(u.class.latency());
        let token = u.token;
        let pc = u.pc;
        let imm = u.imm;

        let mut result = None;
        let mut complete_at = self.cycle + latency;
        let mut addr = None;
        let mut store_data = None;
        let mut actual_next = None;
        let mut actual_event = None;
        let mut actual_taken = false;
        let mut forward_source = None;
        let mut forward_distance = None;
        let mut fully_forwarded = false;

        let seq_next = self.sequential_next(u.block, u.index);

        match &inst.op {
            Op::Load(size) => {
                let a = lhs.wrapping_add(imm as u64);
                let (value, fsrc, full) = self.speculative_load(token, a, size.bytes());
                result = Some(value);
                addr = Some(a);
                forward_source = fsrc;
                fully_forwarded = full;
                forward_distance = fsrc.map(|f| self.sq_between(f, token));
                let done = self.mem.access(AccessKind::Load, pc, a, self.cycle);
                let l1d_hit = self.cycle + self.cfg.memory.l1d.hit_latency;
                complete_at = if full { l1d_hit } else { done };
            }
            Op::Store(size) => {
                addr = Some(lhs.wrapping_add(imm as u64));
                store_data = Some(size.truncate(rhs));
                complete_at = self.cycle + 1;
            }
            Op::CondBranch { kind, taken } => {
                actual_taken = kind.eval(lhs, rhs);
                let dest = if actual_taken {
                    Some((*taken, 0))
                } else {
                    seq_next
                };
                actual_next = dest;
                let target = dest.map_or(0, |(b, idx)| self.program.pc(b, idx));
                actual_event =
                    Some(DivergentEvent { indirect: false, taken: actual_taken, target });
            }
            Op::Jump(t) => actual_next = Some((*t, 0)),
            Op::IndirectJump(ts) => {
                let t = ts[(lhs as usize) % ts.len()];
                actual_next = Some((t, 0));
                actual_event = Some(DivergentEvent {
                    indirect: true,
                    taken: true,
                    target: self.program.block_pc(t),
                });
                actual_taken = true;
            }
            Op::Call(_t) => {
                let ret_to = seq_next.map(|(b, _)| b).expect("call has fallthrough");
                result = Some(u64::from(ret_to.0));
                actual_next = Some((self.call_target(inst), 0));
            }
            Op::Ret => {
                if lhs < self.program.num_blocks() as u64 {
                    let t = BlockId(lhs as u32);
                    actual_next = Some((t, 0));
                    actual_event = Some(DivergentEvent {
                        indirect: true,
                        taken: true,
                        target: self.program.block_pc(t),
                    });
                } else {
                    // Corrupt (wrong-path) return target.
                    actual_next = None;
                    actual_event =
                        Some(DivergentEvent { indirect: true, taken: true, target: lhs });
                }
                actual_taken = true;
            }
            Op::Halt => {}
            op => result = compute_value(op, lhs, rhs),
        }

        // The heap-driven writeback depends on completions landing
        // strictly in the future (see `writeback`).
        debug_assert!(complete_at > self.cycle, "zero-latency completion");
        self.completions.push(Reverse((complete_at, token)));

        let u = &mut self.rob[i];
        u.result = result;
        u.complete_at = complete_at;
        u.addr = addr;
        u.store_data = store_data;
        u.actual_next = actual_next;
        u.actual_event = actual_event;
        u.actual_taken = actual_taken;
        u.forward_source = forward_source;
        u.forward_distance = forward_distance;
        u.fully_forwarded = fully_forwarded;
    }

    fn call_target(&self, inst: &Inst) -> BlockId {
        match inst.op {
            Op::Call(t) => t,
            _ => unreachable!("call_target on non-call"),
        }
    }

    /// Byte-accurate speculative load: each byte comes from the youngest
    /// older *executed* store in the SQ that wrote it, falling back to
    /// committed memory. Returns `(value, youngest forwarding store,
    /// fully_forwarded)`.
    ///
    /// Walks the SQ prefix older than the load from youngest to oldest,
    /// claiming not-yet-filled bytes as it goes — cost scales with the SQ
    /// occupancy (not ROB × bytes) and the walk stops as soon as every
    /// byte is forwarded. Youngest-first claiming picks the same per-byte
    /// provider the old youngest-token maximum did.
    fn speculative_load(&self, load_token: u64, addr: u64, bytes: u64) -> (u64, Option<u64>, bool) {
        debug_assert!(bytes <= 8, "loads are at most 8 bytes");
        let full_mask: u8 = if bytes >= 8 { 0xff } else { (1u8 << bytes) - 1 };
        let mut value = 0u64;
        let mut forward: Option<u64> = None;
        let mut filled: u8 = 0;
        let older = self.sq_tokens.partition_point(|&t| t < load_token);
        for qi in (0..older).rev() {
            let stok = self.sq_tokens[qi];
            let s = &self.rob[self.rob_index(stok)];
            debug_assert_eq!(s.class, ExecClass::Store);
            if !s.issued {
                continue;
            }
            let Some(saddr) = s.addr else { continue };
            if !ranges_overlap(addr, bytes, saddr, s.mem_size) {
                continue;
            }
            let data = s.store_data.expect("issued store");
            for b in 0..bytes {
                if filled & (1 << b) != 0 {
                    continue;
                }
                let byte_addr = addr.wrapping_add(b);
                if ranges_overlap(byte_addr, 1, saddr, s.mem_size) {
                    let offset = byte_addr.wrapping_sub(saddr);
                    value |= u64::from((data >> (8 * offset)) as u8) << (8 * b);
                    filled |= 1 << b;
                    forward = Some(forward.map_or(stok, |f: u64| f.max(stok)));
                }
            }
            if filled == full_mask {
                break;
            }
        }
        let all_forwarded = filled == full_mask;
        if filled == 0 {
            // No store forwarded anything (the common case): one
            // line-level read instead of a hash probe per byte.
            value = self.memory_state.read_bytes(addr, bytes);
        } else {
            for b in 0..bytes {
                if filled & (1 << b) == 0 {
                    let byte_addr = addr.wrapping_add(b);
                    value |= u64::from(self.memory_state.read_byte(byte_addr)) << (8 * b);
                }
            }
        }
        (value, forward, all_forwarded && bytes > 0)
    }

    // ------------------------------------------------------------------
    // Fetch / rename / dispatch
    // ------------------------------------------------------------------

    fn sequential_next(&self, block: BlockId, index: usize) -> Option<(BlockId, usize)> {
        let bb = self.program.block(block);
        if index + 1 < bb.insts.len() {
            Some((block, index + 1))
        } else {
            bb.fallthrough.map(|f| (f, 0))
        }
    }

    fn fetch(&mut self) {
        if self.halt_fetched || self.cycle < self.fetch_stalled_until {
            return;
        }
        // Copy the program reference out of `self` so the instruction
        // borrow is independent of the `&mut self` calls below — this is
        // what lets `fetch_one` take `&Inst` instead of a clone (an
        // `IndirectJump`'s boxed target list made that clone allocate).
        let program = self.program;
        for _ in 0..self.cfg.fetch_width {
            let Some((block, index)) = self.cursor else { return };
            let inst = program.inst(block, index);

            // Structural resources.
            if self.rob.len() >= self.cfg.rob_size || self.iq_tokens.len() >= self.cfg.iq_size {
                return;
            }
            if inst.op.is_load() && self.lq_tokens.len() >= self.cfg.lq_size {
                return;
            }
            if inst.op.is_store()
                && self.sq_tokens.len() + self.sb_drains.len() >= self.cfg.sq_size
            {
                return;
            }

            // Instruction cache.
            let pc = self.program.pc(block, index);
            let line = line_of(pc);
            if self.cur_fetch_line != Some(line) {
                let done = self.mem.access(AccessKind::Fetch, pc, pc, self.cycle);
                self.cur_fetch_line = Some(line);
                let hit = self.cycle + self.cfg.memory.l1i.hit_latency;
                if done > hit {
                    self.fetch_stalled_until = done;
                    return;
                }
            }

            let redirected = self.fetch_one(block, index, inst);
            if redirected || self.halt_fetched {
                return; // taken control flow ends the fetch group
            }
        }
    }

    /// Fetches, renames and dispatches one instruction. Returns true if
    /// the fetch group must end (taken control transfer).
    fn fetch_one(&mut self, block: BlockId, index: usize, inst: &Inst) -> bool {
        let pc = self.program.pc(block, index);
        let token = self.next_token;
        self.next_token += 1;
        let arch_seq = self.next_arch_seq;
        self.next_arch_seq += 1;

        let hist_cp = self.spec_hist.checkpoint();
        let ras_cp = self.ras.checkpoint();
        let ghr_at_fetch = self.cond_ghr;
        let path_ghr_at_fetch = self.path_ghr;
        let div_count = self.spec_hist.count();

        let seq_next = self.sequential_next(block, index);
        let mut predicted_next = seq_next;

        match &inst.op {
            Op::CondBranch { taken, .. } => {
                let t = self.direction.predict(pc, self.cond_ghr);
                let dest = if t { Some((*taken, 0)) } else { seq_next };
                let target = dest.map_or(0, |(b, i)| self.program.pc(b, i));
                self.spec_hist.push(DivergentEvent { indirect: false, taken: t, target });
                self.cond_ghr = (self.cond_ghr << 1) | u128::from(t);
                self.path_ghr = (self.path_ghr << 1) | u128::from(t);
                predicted_next = dest;
            }
            Op::Jump(t) => predicted_next = Some((*t, 0)),
            Op::Call(t) => {
                let ret_to = seq_next.map(|(b, _)| b).expect("call has fallthrough");
                self.ras.push(ret_to);
                predicted_next = Some((*t, 0));
            }
            Op::Ret => {
                let pred = self.ras.pop().unwrap_or(BlockId(0));
                let target = self.program.block_pc(pred);
                self.spec_hist.push(DivergentEvent { indirect: true, taken: true, target });
                self.path_ghr = (self.path_ghr << 5) | u128::from(target & 0x1f);
                predicted_next = Some((pred, 0));
            }
            Op::IndirectJump(ts) => {
                let pred = self.indirect.predict(pc, self.path_ghr).unwrap_or(ts[0]);
                let target = self.program.block_pc(pred);
                self.spec_hist.push(DivergentEvent { indirect: true, taken: true, target });
                self.path_ghr = (self.path_ghr << 5) | u128::from(target & 0x1f);
                predicted_next = Some((pred, 0));
            }
            Op::Halt => {
                self.halt_fetched = true;
                predicted_next = None;
            }
            _ => {}
        }

        // Rename.
        let mut src_producers = [None, None];
        for (k, sr) in [inst.src1, inst.src2].into_iter().enumerate() {
            if let Some(r) = sr {
                if !r.is_zero() {
                    src_producers[k] = self.rat[r.index()];
                }
            }
        }
        let prev_rat = inst.dst.and_then(|d| {
            let prev = self.rat[d.index()];
            self.rat[d.index()] = Some(token);
            prev
        });

        // Memory dependence prediction hooks, in program order.
        let mut prediction = PredictionOutcome::none();
        let mut wait = WaitSpec::None;
        if inst.op.is_load() {
            let q = LoadQuery {
                pc,
                token,
                history: &self.spec_hist,
                arch_seq,
                older_stores: self.sq_tokens.len() as u32,
            };
            prediction = self.predictor.predict_load(&q);
            // Fault injection: corrupt the fresh prediction (drop it or
            // mis-aim its distance) before the wait is resolved.
            if let Some(injector) = &mut self.injector {
                if let Some(dep) = injector.mangle_prediction(prediction.dep) {
                    prediction.dep = dep;
                }
            }
            wait = self.resolve_wait(token, prediction.dep);
            self.lq_tokens.push_back(token);
        } else if inst.op.is_store() {
            let dep = self
                .predictor
                .store_dispatched(&StoreQuery { pc, token, history: &self.spec_hist });
            if let Some(t) = dep {
                // Guard against stale predictor tokens (reused after a
                // squash): only wait on a live, older, in-flight store.
                if t < token && self.sq_tokens.binary_search(&t).is_ok() && !self.store_done(t) {
                    wait = WaitSpec::One(t);
                }
            }
            self.sq_tokens.push_back(token);
        }

        let mem_size = match inst.op {
            Op::Load(s) | Op::Store(s) => s.bytes(),
            _ => 0,
        };

        let uop = Uop {
            token,
            arch_seq,
            block,
            index,
            pc,
            class: inst.class(),
            dst: inst.dst,
            srcs: [inst.src1, inst.src2],
            src_producers,
            imm: inst.imm,
            is_halt: matches!(inst.op, Op::Halt),
            issue_ready_at: self.cycle + u64::from(self.cfg.frontend_latency),
            issued: false,
            complete_at: u64::MAX,
            completed: false,
            result: None,
            prev_rat,
            hist_cp,
            ras_cp,
            ghr_at_fetch,
            path_ghr_at_fetch,
            div_count,
            predicted_next,
            actual_next: None,
            actual_event: None,
            actual_taken: false,
            was_mispredicted: false,
            mem_size,
            addr: None,
            store_data: None,
            forward_source: None,
            forward_distance: None,
            fully_forwarded: false,
            violation: None,
            prediction,
            wait,
            mdp_delayed: false,
        };
        if let Some(d) = inst.dst {
            self.reg_writers[d.index()] += 1;
        }
        self.rob.push_back(uop);
        self.iq_tokens.push_back(token);
        self.cursor = predicted_next;

        predicted_next != seq_next
    }

    /// Maps a [`DepPrediction`] to the concrete store tokens load `token`
    /// waits for, given the current speculative SQ contents.
    fn resolve_wait(&mut self, token: u64, dep: DepPrediction) -> WaitSpec {
        let n = self.sq_tokens.len();
        let by_distance = |d: u32| -> Option<u64> {
            let d = d as usize;
            (d < n).then(|| self.sq_tokens[n - 1 - d])
        };
        match dep {
            DepPrediction::None => WaitSpec::None,
            DepPrediction::Distance(d) => match by_distance(d) {
                Some(t) if !self.store_done(t) => WaitSpec::One(t),
                _ => WaitSpec::None,
            },
            DepPrediction::StoreToken(t) => {
                if t >= self.rob_head_token
                    && self.sq_tokens.binary_search(&t).is_ok()
                    && !self.store_done(t)
                {
                    WaitSpec::One(t)
                } else {
                    WaitSpec::None
                }
            }
            DepPrediction::DistanceMask(mask) => {
                let slot = token as usize & (self.wait_lists.len() - 1);
                let mut ts = std::mem::take(&mut self.wait_lists[slot]);
                ts.clear();
                let mut rest = mask;
                while rest != 0 {
                    let d = rest.trailing_zeros();
                    rest &= rest - 1;
                    if let Some(t) = by_distance(d) {
                        if !self.store_done(t) {
                            ts.push(t);
                        }
                    }
                }
                let wait = if ts.is_empty() { WaitSpec::None } else { WaitSpec::Many };
                self.wait_lists[slot] = ts;
                wait
            }
            DepPrediction::AllOlder => {
                if n == 0 {
                    WaitSpec::None
                } else {
                    WaitSpec::AllOlder
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant audit
    // ------------------------------------------------------------------

    /// Checks the structural invariants the rest of the core relies on.
    /// Returns a description of the first violated one.
    ///
    /// Runs every [`CheckConfig::invariant_interval`] cycles when enabled;
    /// a failure means the pipeline state is already corrupt even if no
    /// committed value has diverged yet.
    fn audit_invariants(&self) -> Result<(), String> {
        // One pass over the ROB recounts, from scratch, everything the
        // incremental scoreboards claim — the O(1) structures the hot
        // path trusts inherit the integrity layer by being recomputed
        // and compared here.
        let mut unissued: Vec<u64> = Vec::new();
        let mut loads: Vec<u64> = Vec::new();
        let mut stores: Vec<u64> = Vec::new();
        let mut writers = [0u32; NUM_REGS];
        let mut youngest_writer: [Option<u64>; NUM_REGS] = [None; NUM_REGS];
        let mut last_ready = 0u64;
        for (i, u) in self.rob.iter().enumerate() {
            // ROB tokens are dense and ascending from the head (token -
            // head indexes the ROB; `rob_index` and `store_done` depend
            // on this).
            let expect = self.rob_head_token + i as u64;
            if u.token != expect {
                return Err(format!(
                    "ROB not token-dense: position {i} holds token {} (expected {expect})",
                    u.token
                ));
            }
            // Front-end readiness is monotone in age — the issue loop's
            // early exit is sound only if this holds.
            if u.issue_ready_at < last_ready {
                return Err(format!(
                    "issue_ready_at not monotone: token {} ready at {} after {}",
                    u.token, u.issue_ready_at, last_ready
                ));
            }
            last_ready = u.issue_ready_at;
            if !u.issued {
                unissued.push(u.token);
            }
            match u.class {
                ExecClass::Load => loads.push(u.token),
                ExecClass::Store => stores.push(u.token),
                _ => {}
            }
            if let Some(d) = u.dst {
                writers[d.index()] += 1;
                youngest_writer[d.index()] = Some(u.token);
            }
            // Every in-flight completion is represented in the heap
            // (otherwise the uop would never write back).
            if u.issued
                && !u.completed
                && !self.completions.iter().any(|&Reverse(e)| e == (u.complete_at, u.token))
            {
                return Err(format!(
                    "issued token {} (complete_at {}) missing from the completion heap",
                    u.token, u.complete_at
                ));
            }
        }
        // The scoreboards are exactly the recounted ROB subsequences.
        if !self.iq_tokens.iter().eq(unissued.iter()) {
            return Err(format!(
                "IQ {:?} != unissued uops {:?} in ROB order",
                self.iq_tokens, unissued
            ));
        }
        if !self.lq_tokens.iter().eq(loads.iter()) {
            return Err(format!(
                "LQ {:?} != in-flight loads {:?} in ROB order",
                self.lq_tokens, loads
            ));
        }
        if !self.sq_tokens.iter().eq(stores.iter()) {
            return Err(format!(
                "SQ {:?} != in-flight stores {:?} in ROB order",
                self.sq_tokens, stores
            ));
        }
        if self.reg_writers != writers {
            let r = (0..NUM_REGS)
                .find(|&r| self.reg_writers[r] != writers[r])
                .expect("some register differs");
            return Err(format!(
                "reg_writers[r{r}] = {} but {} uops in the ROB write r{r}",
                self.reg_writers[r], writers[r]
            ));
        }
        // Structural capacities hold.
        if self.rob.len() > self.cfg.rob_size {
            return Err(format!("ROB over capacity: {} > {}", self.rob.len(), self.cfg.rob_size));
        }
        if self.iq_tokens.len() > self.cfg.iq_size {
            return Err(format!("IQ over capacity: {} > {}", self.iq_tokens.len(), self.cfg.iq_size));
        }
        if self.lq_tokens.len() > self.cfg.lq_size {
            return Err(format!("LQ over capacity: {} > {}", self.lq_tokens.len(), self.cfg.lq_size));
        }
        if self.sq_tokens.len() + self.sb_drains.len() > self.cfg.sq_size {
            return Err(format!(
                "SQ+SB over capacity: {} + {} > {}",
                self.sq_tokens.len(),
                self.sb_drains.len(),
                self.cfg.sq_size
            ));
        }
        // Every RAT entry names the youngest surviving writer of its
        // register. A squash can rewind an entry to a producer that has
        // since committed — rename reads that as architectural state, so
        // it is legal, but then no in-flight writer may exist (a younger
        // surviving rename would own the entry).
        for (r, &rat_entry) in self.rat.iter().enumerate() {
            let Some(t) = rat_entry else { continue };
            if t < self.rob_head_token {
                if let Some(w) = youngest_writer[r] {
                    return Err(format!(
                        "RAT[r{r}] names committed token {t} but token {w} writes r{r} in flight"
                    ));
                }
                continue;
            }
            let idx = (t - self.rob_head_token) as usize;
            let Some(u) = self.rob.get(idx) else {
                return Err(format!("RAT[r{r}] names token {t} beyond the ROB tail"));
            };
            if u.dst.map(|d| d.index()) != Some(r) {
                return Err(format!(
                    "RAT[r{r}] names token {t}, whose destination is {:?}",
                    u.dst
                ));
            }
            if youngest_writer[r] != Some(t) {
                return Err(format!(
                    "RAT[r{r}] names token {t} but token {:?} is the youngest writer of r{r}",
                    youngest_writer[r]
                ));
            }
        }
        // The fetch cursor points inside the program.
        if let Some((b, i)) = self.cursor {
            if i >= self.program.block(b).insts.len() {
                return Err(format!("fetch cursor ({b:?}, {i}) is past the end of its block"));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Removes every uop with `token >= boundary` from the pipeline,
    /// unwinding the RAT, and redirects fetch.
    fn squash_from(&mut self, boundary: u64, redirect: Redirect) {
        // Unwind the RAT youngest first, reading the squashed uops in
        // place, then drop them all at once.
        let keep = boundary.saturating_sub(self.rob_head_token).min(self.rob.len() as u64) as usize;
        for u in self.rob.range(keep..).rev() {
            if let Some(d) = u.dst {
                self.rat[d.index()] = u.prev_rat;
                self.reg_writers[d.index()] -= 1;
            }
        }
        self.stats.squashed_uops += (self.rob.len() - keep) as u64;
        self.rob.truncate(keep);
        // Tokens index the ROB (token - head == position), so the next
        // token restarts at the squash boundary to keep the range dense.
        self.next_token = boundary.max(self.rob_head_token);
        // The scoreboards are token-sorted, so the squashed tokens are
        // exactly their suffixes. (Stale completion-heap entries are
        // detected at pop time instead — see `writeback`.)
        truncate_from(&mut self.iq_tokens, boundary);
        truncate_from(&mut self.lq_tokens, boundary);
        truncate_from(&mut self.sq_tokens, boundary);
        self.halt_fetched = false;

        match redirect {
            Redirect::At(target) => {
                self.cursor = Some(target);
                self.fetch_stalled_until = self.cycle + u64::from(self.cfg.redirect_penalty) + 1;
                self.cur_fetch_line = None;
            }
            Redirect::Stalled => {
                self.cursor = None;
            }
        }
    }
}

/// Drops every token `>= boundary` from a token-sorted queue.
fn truncate_from(q: &mut VecDeque<u64>, boundary: u64) {
    let keep = q.partition_point(|&t| t < boundary);
    q.truncate(keep);
}
