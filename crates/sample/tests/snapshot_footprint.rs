//! Footprint guard for the capture's `Structures` snapshots: a cache
//! level holds storage only for the blocks of 64 sets that a run has
//! filled, so a snapshot copies what the run touched, not the 2.4 MB tag
//! array of the whole L3.
//!
//! Counted in sets rather than measured as RSS, so the bound does not
//! move with the host's allocator. CI runs it in release mode.

use phast_ooo::{CheckConfig, CoreConfig};
use phast_sample::{capture, SampleConfig};

/// Filled blocks of 64 sets an L3 snapshot may hold (the snapshots of
/// lbm, xz and mcf hold 3–10 of the 256 at this horizon).
const MAX_L3_BLOCKS: usize = 16;

#[test]
fn snapshots_hold_only_the_l3_blocks_a_run_filled() {
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::off();
    let l3_sets = cfg.memory.l3.sets();
    assert_eq!(l3_sets, 256 * 64, "the bound is written for a 256-block L3");
    for name in ["lbm", "xz", "mcf"] {
        let program = phast_workloads::by_name(name).expect("workload exists").build(1_000_000);
        let set = capture(&program, &cfg, &SampleConfig::new(16, 4_000, 2_000), 200_000)
            .expect("clean capture");
        assert_eq!(set.warm.len(), 16, "{name} places every window");
        for (w, snapshot) in set.warm.iter().enumerate() {
            let l3 = snapshot.as_ref().expect("stride sets keep every snapshot").hierarchy.l3();
            let blocks = l3.allocated_sets() / 64;
            assert!(
                (1..=MAX_L3_BLOCKS).contains(&blocks),
                "{name} window {w}: its L3 snapshot holds {blocks} blocks of 64 sets"
            );
        }
    }
}
