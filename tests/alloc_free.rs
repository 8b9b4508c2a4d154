//! Proves the steady-state cycle loop is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms a core up (first touches of memory pages, cache MSHR maps,
//! predictor tables and scoreboard buffers all reach steady capacity),
//! then resumes the same core for a measured window and requires **zero**
//! heap allocations during it. Any future change that reintroduces a
//! per-cycle or per-instruction allocation — a `Vec` collected per probe,
//! a cloned instruction on fetch, a per-event boxed wait list — fails
//! here with an exact count instead of only showing up as a slow sweep.
//!
//! It measures a `BlindSpeculation` core on `lbm` (the core alone), then
//! MDP-TAGE, MDP-TAGE-S, NoSQ, Store Sets and PHAST cores on `gcc_1`,
//! whose violations and mispredicted branches drive the predictors'
//! history folds, their training paths and the squash path.
//!
//! This file must hold exactly one `#[test]`, and it measures its cores
//! one after another: the counter and the trap are process-wide, and the
//! libtest runner executes tests of one binary concurrently, so a
//! neighbour's allocations would leak into the measured window.

use phast_experiments::PredictorKind;
use phast_isa::Program;
use phast_mdp::{BlindSpeculation, MemDepPredictor};
use phast_ooo::{CheckConfig, Core, CoreConfig, Deadline, TrainPoint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
#[cfg(debug_assertions)]
static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        #[cfg(debug_assertions)]
        if TRAP.load(Ordering::Relaxed) {
            TRAP.store(false, Ordering::Relaxed);
            panic!("alloc of {} bytes in measured window", layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` reallocates rather than allocating; count it the
        // same — capacity growth inside the measured window is still a
        // heap round-trip on the hot path.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// lbm streams one 8-byte slot per outer iteration over a 4096-slot
// buffer, so the sparse-memory map keeps growing until a full pass has
// touched all 512 lines — roughly 4096 iterations × ~20 instructions.
// The warmup must cover at least one full pass; after that the footprint
// (memory map, cache MSHRs, scoreboards, predictor state) is closed.
const WARMUP_INSTS: u64 = 120_000;
const MEASURED_INSTS: u64 = 20_000;
const MAX_CYCLES: u64 = 10_000_000;

/// Warms a core on `program` past its data footprint, then resumes it for
/// [`MEASURED_INSTS`] more and returns the heap allocations made meanwhile.
fn measured_allocations(
    label: &str,
    program: &Program,
    train_point: TrainPoint,
    predictor: &mut dyn MemDepPredictor,
) -> u64 {
    let mut cfg = CoreConfig::alder_lake();
    cfg.train_point = train_point;
    // The integrity layer is off on the perf path (golden_stats pins that
    // timing); the lockstep emulator would allocate for its own state.
    cfg.check = CheckConfig::off();
    let mut core = Core::new(program, cfg, predictor);

    let warm = core
        .try_run_within(WARMUP_INSTS, MAX_CYCLES, &Deadline::none())
        .unwrap_or_else(|e| panic!("{label}: warmup failed: {e}"));
    assert!(warm.committed >= WARMUP_INSTS, "{label}: warmup must commit its budget");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    #[cfg(debug_assertions)]
    TRAP.store(true, Ordering::SeqCst);
    let stats = core.try_run_within(WARMUP_INSTS + MEASURED_INSTS, MAX_CYCLES, &Deadline::none());
    // Disarm before returning control to libtest: the harness itself
    // allocates to report the finished test, and a trap firing there
    // kills the test thread mid-send and hangs the runner.
    #[cfg(debug_assertions)]
    TRAP.store(false, Ordering::SeqCst);
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;

    let stats = stats.unwrap_or_else(|e| panic!("{label}: measured window failed: {e}"));
    assert!(
        stats.committed >= WARMUP_INSTS + MEASURED_INSTS,
        "{label}: measured window must commit its budget (committed {})",
        stats.committed
    );
    during
}

#[test]
fn steady_state_cycle_loop_does_not_allocate() {
    let lbm = phast_workloads::by_name("lbm").expect("workload exists").build(100_000);
    let mut counts = vec![(
        "lbm × blind".to_string(),
        measured_allocations("lbm × blind", &lbm, TrainPoint::Detect, &mut BlindSpeculation),
    )];

    let gcc = phast_workloads::by_name("gcc_1").expect("workload exists").build(100_000);
    for kind in [
        PredictorKind::MdpTage,
        PredictorKind::MdpTageS,
        PredictorKind::NoSq,
        PredictorKind::StoreSets,
        PredictorKind::Phast,
    ] {
        let label = format!("gcc_1 × {}", kind.label());
        let mut predictor = kind.build(&gcc, WARMUP_INSTS + MEASURED_INSTS);
        let n = measured_allocations(&label, &gcc, kind.train_point(), predictor.as_mut());
        counts.push((label, n));
    }

    let allocating: Vec<_> = counts.iter().filter(|(_, n)| *n > 0).collect();
    assert!(
        allocating.is_empty(),
        "steady-state commit loop allocated over {MEASURED_INSTS} instructions: {allocating:?}"
    );
}
