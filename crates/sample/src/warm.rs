//! Microarchitectural warming during functional fast-forward, with one
//! owner per kind of state:
//!
//! * The **capture pass** ([`capture`](crate::capture)) owns everything
//!   predictor-independent and keeps it warm over the whole horizon in
//!   one pass, so one capture serves every predictor in the sweep. It
//!   snapshots the cheap [`WarmContext`] (`checkpoint.rs`: branch history
//!   registers, the divergent-history ring, the RAS and the sliding store
//!   window) at each window's warm start, and the long-lived
//!   [`WarmState`] structures (the cache hierarchy with its prefetcher,
//!   the direction predictor and the indirect-target predictor, a deep
//!   clone) at each window's detailed start.
//! * **Window replay** ([`run_window`](crate::run_window)) owns the
//!   active MDP's training state, which is predictor-specific. It steps
//!   the emulator and the context over the window's warm phase and trains
//!   only the MDP ([`warm_mdp`]), then boots the core from the captured
//!   structures.
//!
//! Every update rule here mirrors the front end / commit stage of
//! `phast-ooo` exactly (same GHR shift amounts, same push ordering, same
//! pre-update history values for training) so that a core booted from the
//! warmed state continues as if it had executed the prefix itself. The
//! one structural difference: warming trains on the *architectural* path,
//! so wrong-path pollution and in-flight timing races are absent — see
//! `docs/SAMPLING.md` for why this converges to the same steady state.

use crate::checkpoint::{StoreRec, WarmContext};
use phast_branch::{DivergentEvent, Ittage, IttageConfig, Tage, TageConfig};
use phast_isa::{ranges_overlap, BlockId, ExecRecord, Op, Program};
use phast_mdp::{DepPrediction, LoadCommit, LoadQuery, MemDepPredictor, StoreQuery, Violation};
use phast_mem::Hierarchy;
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
/// by the capture pass and snapshotted (cloned) at every window's
/// detailed start; snapshots of windows that will never replay are then
/// pruned ([`CheckpointSet::prune_warm`](crate::CheckpointSet::prune_warm)).
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

/// Trains a window's MDP on one architecturally retired instruction of
/// its warm phase, reading `ctx` before the caller folds the instruction
/// in (`ctx.observe`). The calls are the ones the core would make: a load
/// is predicted, trained as a violation if the prediction did not cover
/// its youngest overlapping store that could still be in flight, and
/// committed; a store dispatches and executes back to back, as it does
/// architecturally.
pub(crate) fn warm_mdp(
    predictor: &mut dyn MemDepPredictor,
    ctx: &WarmContext,
    program: &Program,
    rec: &ExecRecord,
    rob_window: u64,
) {
    match &program.inst(rec.block, rec.index).op {
        Op::Load(size) => warm_load(predictor, ctx, rec, size.bytes(), rob_window),
        Op::Store(_) => {
            let _ = predictor.store_dispatched(&StoreQuery {
                pc: rec.pc,
                token: rec.seq,
                history: &ctx.history,
            });
            predictor.store_executed(rec.pc, rec.seq);
        }
        _ => {}
    }
}

/// MDP warming for one load of `size` bytes. Stores further than
/// `rob_window` instructions back could not coexist with the load in the
/// ROB, so they neither count as in flight nor as its dependence.
fn warm_load(
    predictor: &mut dyn MemDepPredictor,
    ctx: &WarmContext,
    rec: &ExecRecord,
    size: u64,
    rob_window: u64,
) {
    let addr = rec.eff_addr.expect("load records address");
    let in_flight =
        ctx.stores.iter().rev().take_while(|s| rec.seq - s.seq <= rob_window).count() as u32;
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
        if rec.seq - s.seq > rob_window {
            break;
        }
        if ranges_overlap(addr, size, s.addr, s.size) {
            dep = Some((*s, (len - 1 - i) as u32));
            break;
        }
    }

    let (actual_distance, waited_correct) = match dep {
        Some((store, distance)) => {
            let covered = match outcome.dep {
                DepPrediction::None => false,
                DepPrediction::Distance(d) => d == distance,
                DepPrediction::StoreToken(t) => t == store.seq,
                DepPrediction::DistanceMask(m) => distance < 128 && (m >> distance) & 1 == 1,
                DepPrediction::AllOlder => true,
            };
            if !covered {
                predictor.train_violation(&Violation {
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
            (Some(distance), covered && outcome.dep.is_dependence())
        }
        None => (None, false),
    };
    predictor.load_committed(&LoadCommit {
        pc: rec.pc,
        prediction: outcome,
        actual_distance,
        waited_correct,
        history: &ctx.history,
    });
}
