//! Microarchitectural warming during functional fast-forward.
//!
//! Two tiers, split by who can share them:
//!
//! * [`WarmContext`] (`checkpoint.rs`) and [`WarmState`] are
//!   **predictor-independent**, so the capture pass maintains them
//!   continuously across the whole horizon and snapshots them at every
//!   checkpoint: branch history registers, the divergent-history ring,
//!   the RAS and the sliding store window (`WarmContext`, cheap), plus
//!   the long-lived structures whose state at a window boundary reflects
//!   the *entire* preceding execution — the cache hierarchy with its
//!   prefetcher, the direction predictor and the indirect-target
//!   predictor (`WarmState`, a deep clone). One capture serves every
//!   predictor in the sweep.
//! * The active MDP's training state is **predictor-specific**, so it is
//!   built cold per window and warmed through `phast_mdp::Warmable` over
//!   the window's bounded warm phase only ([`Warmer::warm_step`]).
//!
//! Every update rule here mirrors the front end / commit stage of
//! `phast-ooo` exactly (same GHR shift amounts, same push ordering, same
//! pre-update history values for training) so that a core booted from the
//! warmed state continues as if it had executed the prefix itself. The
//! one structural difference: warming trains on the *architectural* path,
//! so wrong-path pollution and in-flight timing races are absent — see
//! `docs/SAMPLING.md` for why this converges to the same steady state.

use crate::checkpoint::{StoreRec, WarmContext};
use phast_branch::{DirectionPredictor, DivergentEvent, Ittage, IttageConfig, Tage, TageConfig};
use phast_isa::{ranges_overlap, BlockId, ExecRecord, Op, Program};
use phast_mdp::{
    DepPrediction, LoadCommit, LoadQuery, MemDepPredictor, StoreQuery, Violation, Warmable,
};
use phast_mem::{AccessKind, Hierarchy};
use phast_ooo::CoreConfig;

impl WarmContext {
    /// Folds one architecturally retired instruction into the context.
    ///
    /// This is the cheap tier: GHR shifts, history pushes, RAS motion and
    /// the store window — exactly what `phast-ooo` does at fetch for the
    /// correct path, in the same order.
    pub fn observe(&mut self, program: &Program, rec: &ExecRecord) {
        let inst = program.inst(rec.block, rec.index);
        match &inst.op {
            Op::CondBranch { .. } => {
                let taken = rec.taken.expect("cond branch records taken");
                let target = rec.target_pc.expect("cond branch records target");
                self.history.push(DivergentEvent { indirect: false, taken, target });
                self.cond_ghr = (self.cond_ghr << 1) | u128::from(taken);
                self.path_ghr = (self.path_ghr << 1) | u128::from(taken);
            }
            Op::Call(_) => {
                let ret_to = rec.dst_value.expect("call writes its return block id");
                self.ras.push(BlockId(ret_to as u32));
            }
            Op::Ret => {
                let _ = self.ras.pop();
                let target = rec.target_pc.expect("ret records target");
                self.history.push(DivergentEvent { indirect: true, taken: true, target });
                self.path_ghr = (self.path_ghr << 5) | u128::from(target & 0x1f);
            }
            Op::IndirectJump(_) => {
                let target = rec.target_pc.expect("indirect jump records target");
                self.history.push(DivergentEvent { indirect: true, taken: true, target });
                self.path_ghr = (self.path_ghr << 5) | u128::from(target & 0x1f);
            }
            Op::Store(size) => {
                self.stores.push_back(StoreRec {
                    seq: rec.seq,
                    pc: rec.pc,
                    addr: rec.eff_addr.expect("store records address"),
                    size: size.bytes(),
                    div_count: self.history.count(),
                });
                if self.stores.len() > self.store_window {
                    self.stores.pop_front();
                }
            }
            _ => {}
        }
    }
}

/// Process-wide count of [`WarmState`] clones — the expensive deep copy
/// (cache tags, TAGE tables, indirect-target tables) that phase mode
/// exists to avoid paying for windows that never replay. Tests pin the
/// laziness contract against this counter: replay-side clones must scale
/// with the number of windows actually run (K representatives), never
/// with the interval count N.
static WARM_STATE_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total [`WarmState`] deep clones performed by this process so far.
/// Monotonic; callers measure deltas around the region under test.
pub fn warm_state_clones() -> u64 {
    WARM_STATE_CLONES.load(std::sync::atomic::Ordering::Relaxed)
}

/// The predictor-independent long-lived structures, warmed continuously
/// by the capture pass and snapshotted (cloned) at every checkpoint;
/// snapshots of windows that will never replay are then pruned
/// ([`CheckpointSet::prune_warm`](crate::CheckpointSet::prune_warm)).
pub struct WarmState {
    /// Cache hierarchy + prefetcher, warmed stat-free.
    pub hierarchy: Hierarchy,
    /// Conditional-direction predictor (the default TAGE, as used by the
    /// `phast-ooo` runner entry points).
    pub direction: Tage,
    /// Indirect-target predictor (the core's ITTAGE).
    pub indirect: Box<Ittage>,
}

/// Every clone is a deep copy of the warmed tables, so each one bumps
/// the process-wide counter ([`warm_state_clones`]).
impl Clone for WarmState {
    fn clone(&self) -> WarmState {
        WARM_STATE_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        WarmState {
            hierarchy: self.hierarchy.clone(),
            direction: self.direction.clone(),
            indirect: self.indirect.clone(),
        }
    }
}

impl WarmState {
    /// Cold structures sized exactly like `Core::new` builds them.
    pub fn new(cfg: &CoreConfig) -> WarmState {
        WarmState {
            hierarchy: Hierarchy::new(cfg.memory),
            direction: Tage::new(TageConfig::default()),
            indirect: Box::new(Ittage::new(IttageConfig::default())),
        }
    }
}

/// Drives warming: the shared [`WarmState`] on every instruction of the
/// capture pass ([`warm_structures`](Warmer::warm_structures)), plus the
/// per-window MDP warm phase ([`warm_step`](Warmer::warm_step)).
pub struct Warmer {
    /// The structures being warmed; after a window's warm phase these
    /// move into a `phast_ooo::BootState`.
    pub state: WarmState,
    /// In-flight span approximation: stores further than this many
    /// instructions from a load could not coexist with it in the ROB.
    rob_window: u64,
    /// Cache line of the previous instruction fetch. Immediately
    /// consecutive fetches to the same line are L1I hits whose only
    /// effect is an LRU touch that the *next* access to that set would
    /// re-establish anyway, so they are skipped — exactly
    /// behavior-preserving, and fetch is the hottest warm path.
    last_fetch_line: Option<u64>,
}

impl Warmer {
    /// Creates cold structures sized exactly like `Core::new` builds them.
    pub fn new(cfg: &CoreConfig) -> Warmer {
        Warmer::from_state(WarmState::new(cfg), cfg)
    }

    /// Resumes warming from a checkpointed snapshot.
    pub fn from_state(state: WarmState, cfg: &CoreConfig) -> Warmer {
        Warmer { state, rob_window: cfg.rob_size as u64, last_fetch_line: None }
    }

    /// Warms the predictor-independent structures on one architecturally
    /// retired instruction. Does **not** touch `ctx` — the caller folds
    /// the instruction in afterwards (`ctx.observe`), because updates here
    /// must see the *pre-update* history values, exactly like branch
    /// resolution in the core.
    ///
    /// `next_block` is the block the emulator moved to after this
    /// instruction (its post-step cursor) — the resolved target that
    /// trains the indirect predictor.
    pub fn warm_structures(
        &mut self,
        ctx: &WarmContext,
        program: &Program,
        rec: &ExecRecord,
        next_block: Option<BlockId>,
    ) {
        let fetch_line = rec.pc >> 6;
        if self.last_fetch_line != Some(fetch_line) {
            self.state.hierarchy.warm(AccessKind::Fetch, rec.pc, rec.pc);
            self.last_fetch_line = Some(fetch_line);
        }
        let inst = program.inst(rec.block, rec.index);
        match &inst.op {
            Op::CondBranch { .. } => {
                let taken = rec.taken.expect("cond branch records taken");
                self.state.direction.update(rec.pc, ctx.cond_ghr, taken);
            }
            Op::IndirectJump(_) | Op::Ret => {
                if let Some(b) = next_block {
                    self.state.indirect.update(rec.pc, ctx.path_ghr, b);
                }
            }
            Op::Load(_) => {
                let addr = rec.eff_addr.expect("load records address");
                self.state.hierarchy.warm(AccessKind::Load, rec.pc, addr);
            }
            Op::Store(_) => {
                let addr = rec.eff_addr.expect("store records address");
                self.state.hierarchy.warm(AccessKind::Store, rec.pc, addr);
            }
            _ => {}
        }
    }

    /// Warms everything — shared structures *and* the window's MDP — on
    /// one retired instruction, then folds it into `ctx`. This is the
    /// per-window warm phase.
    pub fn warm_step(
        &mut self,
        ctx: &mut WarmContext,
        program: &Program,
        rec: &ExecRecord,
        next_block: Option<BlockId>,
        predictor: &mut dyn MemDepPredictor,
    ) {
        self.warm_structures(ctx, program, rec, next_block);
        let inst = program.inst(rec.block, rec.index);
        match &inst.op {
            Op::Load(size) => {
                let addr = rec.eff_addr.expect("load records address");
                self.warm_load(ctx, rec, addr, size.bytes(), predictor);
            }
            Op::Store(_) => {
                predictor.warm_store(&StoreQuery {
                    pc: rec.pc,
                    token: rec.seq,
                    history: &ctx.history,
                });
            }
            _ => {}
        }
        ctx.observe(program, rec);
    }

    /// MDP warming for one load: predict, detect the youngest overlapping
    /// in-ROB-range store, train an uncovered dependence as a violation,
    /// and close the loop with the commit notification.
    fn warm_load(
        &mut self,
        ctx: &WarmContext,
        rec: &ExecRecord,
        addr: u64,
        size: u64,
        predictor: &mut dyn MemDepPredictor,
    ) {
        let in_flight = ctx
            .stores
            .iter()
            .rev()
            .take_while(|s| rec.seq - s.seq <= self.rob_window)
            .count() as u32;
        let outcome = predictor.predict_load(&LoadQuery {
            pc: rec.pc,
            token: rec.seq,
            history: &ctx.history,
            arch_seq: rec.seq,
            older_stores: in_flight,
        });

        // Youngest overlapping store that could still be in flight — the
        // store the core would have forwarded from (or squashed on).
        let mut dep: Option<(StoreRec, u32)> = None;
        let len = ctx.stores.len();
        for (i, s) in ctx.stores.iter().enumerate().rev() {
            if rec.seq - s.seq > self.rob_window {
                break;
            }
            if ranges_overlap(addr, size, s.addr, s.size) {
                dep = Some((*s, (len - 1 - i) as u32));
                break;
            }
        }

        match dep {
            Some((store, distance)) => {
                let covered = match outcome.dep {
                    DepPrediction::None => false,
                    DepPrediction::Distance(d) => d == distance,
                    DepPrediction::StoreToken(t) => t == store.seq,
                    DepPrediction::DistanceMask(m) => {
                        distance < 128 && (m >> distance) & 1 == 1
                    }
                    DepPrediction::AllOlder => true,
                };
                if !covered {
                    predictor.warm_violation(&Violation {
                        load_pc: rec.pc,
                        store_pc: store.pc,
                        store_distance: distance,
                        history_len: (ctx.history.count() - store.div_count) as u32,
                        history: &ctx.history,
                        load_token: rec.seq,
                        store_token: store.seq,
                        prior: outcome,
                    });
                }
                predictor.warm_load(&LoadCommit {
                    pc: rec.pc,
                    prediction: outcome,
                    actual_distance: Some(distance),
                    waited_correct: covered && outcome.dep.is_dependence(),
                    history: &ctx.history,
                });
            }
            None => {
                predictor.warm_load(&LoadCommit {
                    pc: rec.pc,
                    prediction: outcome,
                    actual_distance: None,
                    waited_correct: false,
                    history: &ctx.history,
                });
            }
        }
    }
}
