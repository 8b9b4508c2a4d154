//! Microarchitectural warming during functional fast-forward, with one
//! owner per kind of state:
//!
//! * The **capture pass** ([`capture`](crate::capture)) owns everything
//!   independent of the memory dependence predictor and keeps it warm
//!   over the whole horizon in one pass, so one capture serves every MDP
//!   in the sweep. It snapshots the cheap [`WarmContext`]
//!   (`checkpoint.rs`: the branch history and the sliding store window)
//!   at each window's warm start, and the core's long-lived
//!   [`Structures`] (the cache hierarchy with its prefetcher, the
//!   configured direction predictor and the indirect-target predictor, a
//!   deep clone) at each window's detailed start.
//! * **Window replay** ([`run_window_within`](crate::run_window_within))
//!   owns the active MDP's training state, which is predictor-specific.
//!   It steps the emulator and the context over the window's warm phase
//!   and trains only the MDP ([`warm_mdp`]), then boots the core from the
//!   captured structures.
//!
//! The branch history is the core's own `BranchHistory`, updated through
//! the calls its fetch stage makes, and training reads it before the
//! instruction is folded in, as the core does; only [`warm_mdp`]'s MDP
//! call sequence is spelled out a second time. The one structural
//! difference: warming trains on the *architectural* path, so wrong-path
//! pollution and in-flight timing races are absent — see
//! `docs/SAMPLING.md` for why this converges to the same steady state.

use crate::checkpoint::{StoreRec, WarmContext};
use phast_branch::DivergentEvent;
use phast_isa::{ranges_overlap, BlockId, ExecRecord, Op, Program};
use phast_mdp::{DepPrediction, LoadCommit, LoadQuery, MemDepPredictor, StoreQuery, Violation};
use phast_ooo::Structures;

impl WarmContext {
    /// Folds one architecturally retired instruction into the context.
    ///
    /// This is the cheap tier: the branch history, through the same
    /// [`BranchHistory`](phast_branch::BranchHistory) calls `phast-ooo`
    /// makes at fetch for the correct path, and the store window.
    pub fn observe(&mut self, program: &Program, rec: &ExecRecord) {
        let inst = program.inst(rec.block, rec.index);
        match &inst.op {
            Op::CondBranch { .. } => {
                let taken = rec.taken.expect("cond branch records taken");
                let target = rec.target_pc.expect("cond branch records target");
                self.history.push(DivergentEvent { indirect: false, taken, target });
            }
            Op::Call(_) => {
                let ret_to = rec.dst_value.expect("call writes its return block id");
                self.history.push_return(BlockId(ret_to as u32));
            }
            Op::Ret => {
                let _ = self.history.pop_return();
                let target = rec.target_pc.expect("ret records target");
                self.history.push(DivergentEvent { indirect: true, taken: true, target });
            }
            Op::IndirectJump(_) => {
                let target = rec.target_pc.expect("indirect jump records target");
                self.history.push(DivergentEvent { indirect: true, taken: true, target });
            }
            Op::Store(size) => {
                self.stores.push_back(StoreRec {
                    seq: rec.seq,
                    pc: rec.pc,
                    addr: rec.eff_addr.expect("store records address"),
                    size: size.bytes(),
                    div_count: self.history.divergent().count(),
                });
                if self.stores.len() > self.store_window {
                    self.stores.pop_front();
                }
            }
            _ => {}
        }
    }

    /// The youngest store of the window that overlaps the `size` bytes at
    /// `addr` within `rob_window` instructions of instruction `seq`, with
    /// its distance in stores (0 = youngest): the store the core would
    /// have forwarded from, or squashed on. MDP warming trains on it and
    /// phase mode's `dep` feature buckets it. A plain loop: the
    /// `take_while`/`enumerate`/`find` chain ran the sampled benchmark
    /// about 10% slower.
    pub(crate) fn youngest_overlapping_store(
        &self,
        seq: u64,
        addr: u64,
        size: u64,
        rob_window: u64,
    ) -> Option<(StoreRec, u32)> {
        for (distance, s) in self.stores.iter().rev().enumerate() {
            if seq - s.seq > rob_window {
                break;
            }
            if ranges_overlap(addr, size, s.addr, s.size) {
                return Some((*s, distance as u32));
            }
        }
        None
    }
}

/// Process-wide count of [`Structures`] snapshots — the expensive deep
/// copy (cache tags, direction and indirect-target tables) that phase
/// mode exists to avoid paying for windows that never replay. Tests pin
/// the laziness contract against this counter: replay-side snapshots
/// must scale with the number of windows actually run (K
/// representatives), never with the interval count N.
static WARM_STATE_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total [`Structures`] snapshots that capture and replay have taken in
/// this process so far. Monotonic; callers measure deltas around the
/// region under test.
pub fn warm_state_clones() -> u64 {
    WARM_STATE_CLONES.load(std::sync::atomic::Ordering::Relaxed)
}

/// A deep copy of warmed structures, counted by [`warm_state_clones`]:
/// how the capture snapshots them and how replay boots a core from a
/// snapshot.
pub(crate) fn snapshot(structures: &Structures) -> Structures {
    WARM_STATE_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    structures.clone()
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
                history: ctx.history.divergent(),
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
    let history = ctx.history.divergent();
    let in_flight =
        ctx.stores.iter().rev().take_while(|s| rec.seq - s.seq <= rob_window).count() as u32;
    let outcome = predictor.predict_load(&LoadQuery {
        pc: rec.pc,
        token: rec.seq,
        history,
        arch_seq: rec.seq,
        older_stores: in_flight,
    });

    let dep = ctx.youngest_overlapping_store(rec.seq, addr, size, rob_window);
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
                    history_len: (history.count() - store.div_count) as u32,
                    history,
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
        history,
    });
}
