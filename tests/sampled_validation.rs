//! Sampled-versus-full accuracy validation (cross-crate).
//!
//! The acceptance contract of the sampling subsystem: on a grid of at
//! least 4 workloads × 2 predictors, the sampled IPC estimate must land
//! within the documented error bound (`docs/SAMPLING.md`,
//! `phast_sample::ipc_error_bound`) of the full-detail IPC over the same
//! horizon. Both legs run through `phast_experiments::Sweep`, the one path
//! every sampled and full-detail cell takes, so each predictor trains
//! where a sweep trains it (PHAST at commit). Checking is off and the
//! horizon is moderate so the debug profile stays fast — but not shorter:
//! mid-stride window placement deliberately leaves the cold-boot
//! transient unsampled, so the horizon must be long enough for that
//! transient to be a small fraction of the full-detail reference too. The
//! CI quick-grid step re-runs the same contract at release scale through
//! `phast-experiments --quick sampled`.

use phast_experiments::{
    default_clusters_for, Budget, PredictorKind, RunResult, SampleConfig, SamplingMeta, Sweep,
};
use phast_ooo::{CheckConfig, CoreConfig};
use phast_sample::ipc_error_bound;

const HORIZON: u64 = 80_000;
const WORKLOADS: [&str; 4] = ["mcf", "exchange2", "omnetpp", "gcc_1"];
const KINDS: [PredictorKind; 2] = [PredictorKind::StoreSets, PredictorKind::Phast];

/// The `kinds` × `workloads` grid over `HORIZON`, kind-major, in full
/// detail or sampled with `scfg`. Every cell must run cleanly.
fn grid(kinds: &[PredictorKind], workloads: &[&str], scfg: Option<SampleConfig>) -> Vec<RunResult> {
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::off();
    let extra_workloads =
        workloads.iter().map(|w| phast_workloads::by_name(w).expect("workload exists")).collect();
    let budget = Budget { insts: HORIZON, workload_iters: 200_000, max_workloads: Some(0), extra_workloads };
    let sweep = Sweep::with_workers(2);
    let sweep = match scfg {
        Some(scfg) => sweep.with_sampling(scfg),
        None => sweep,
    };
    let cells: Vec<RunResult> = sweep.run_grid(kinds, &cfg, &budget).into_iter().flatten().collect();
    let degraded = sweep.take_degraded();
    assert!(degraded.is_empty(), "degraded cells: {degraded:#?}");
    cells
}

fn meta(run: &RunResult) -> &SamplingMeta {
    run.sampling.as_ref().expect("sampled cells carry their estimate")
}

#[test]
fn sampled_ipc_is_within_the_documented_bound() {
    let full = grid(&KINDS, &WORKLOADS, None);
    let sampled = grid(&KINDS, &WORKLOADS, Some(SampleConfig::new(6, 1_500, 800)));
    for (f, s) in full.iter().zip(&sampled) {
        let (name, label) = (&s.workload, &s.predictor);
        assert!(meta(s).windows >= 2, "{name} × {label}: too few windows measured");
        let (full_ipc, sampled_ipc) = (f.stats.ipc(), s.stats.ipc());
        let err = (sampled_ipc - full_ipc).abs();
        let bound = ipc_error_bound(full_ipc, meta(s).ipc_ci_half);
        assert!(
            err <= bound,
            "{name} × {label}: sampled IPC {sampled_ipc:.4} vs full {full_ipc:.4} — error \
             {err:.4} exceeds bound {bound:.4} (ci half {:.4})",
            meta(s).ipc_ci_half,
        );
    }
}

/// Phase-aware sampling holds the same documented error bound while
/// replaying strictly fewer detailed windows than a stride run over the
/// identical interval geometry (the release-scale gate is the phase leg
/// of `--quick sampled` in CI).
#[test]
fn phase_mode_holds_the_bound_with_fewer_detailed_windows() {
    let workloads = ["mcf", "omnetpp"];
    let intervals = 8;
    let stride_cfg = SampleConfig::new(intervals, 1_500, 800);
    let phase_cfg = stride_cfg.phase(default_clusters_for(intervals));
    let full = grid(&KINDS, &workloads, None);
    let stride = grid(&KINDS, &workloads, Some(stride_cfg));
    let phase = grid(&KINDS, &workloads, Some(phase_cfg));
    for ((f, s), p) in full.iter().zip(&stride).zip(&phase) {
        let (name, label) = (&p.workload, &p.predictor);
        let (stride_meta, phase_meta) = (meta(s), meta(p));
        assert!(
            phase_meta.windows < stride_meta.windows,
            "{name} × {label}: phase must replay fewer windows ({} vs {})",
            phase_meta.windows,
            stride_meta.windows
        );
        assert!(
            phase_meta.measured_insts < stride_meta.measured_insts,
            "{name} × {label}: phase must measure fewer instructions"
        );
        let (full_ipc, phase_ipc) = (f.stats.ipc(), p.stats.ipc());
        let err = (phase_ipc - full_ipc).abs();
        let bound = ipc_error_bound(full_ipc, phase_meta.ipc_ci_half)
            .min(ipc_error_bound(full_ipc, stride_meta.ipc_ci_half));
        assert!(
            err <= bound,
            "{name} × {label}: phase IPC {phase_ipc:.4} vs full {full_ipc:.4} — error {err:.4} \
             exceeds the tighter bound {bound:.4}",
        );
    }
}

#[test]
fn sampling_measures_far_fewer_instructions_than_full_detail() {
    let scfg = SampleConfig::new(6, 1_500, 800);
    let run = &grid(&[PredictorKind::StoreSets], &["mcf"], Some(scfg))[0];
    let est = meta(run);
    // The point of sampling: the cycle-accurate core sees a small
    // fraction of the horizon.
    assert!(
        est.measured_insts * 4 <= HORIZON,
        "measured {} of {HORIZON} — sampling is not sampling",
        est.measured_insts
    );
    assert!(est.fast_forwarded_insts > 0, "some of the horizon must be fast-forwarded");
}
