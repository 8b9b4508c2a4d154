//! Crash-resilience contract of the journaled sweep: kill a sweep halfway
//! (simulated by truncating `journal.jsonl` to a prefix plus a torn final
//! line), resume it, and the merged `BENCH_*.json` must be byte-identical
//! to the uninterrupted artifact modulo wall-clock and attempt metadata.
//! The same holds for the sampled validation experiment, whose rows are
//! annotated after their cells run, and a resume of every other
//! experiment reproduces its report too. Corruption anywhere *inside* the
//! journal, or a fingerprint from a different sweep shape, must refuse
//! the resume fail-closed.

use phast_experiments::harness::cell_key;
use phast_experiments::{
    figures, ArtifactError, Budget, Journal, JournalError, PredictorKind, SampleConfig, Sweep,
    SweepArtifact,
};
use phast_ooo::CoreConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn budget() -> Budget {
    Budget { insts: 5_000, workload_iters: 30_000, max_workloads: Some(3), extra_workloads: Vec::new() }
}

const FINGERPRINT: &str = "kill-and-resume test sweep";

/// A fresh scratch directory under the target-adjacent temp root; unique
/// per call so parallel test binaries cannot collide.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("phast-kill-and-resume-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the reference grid through `sweep` and writes `BENCH_grid.json`
/// into `dir`, returning the artifact text.
fn run_grid_to(sweep: &Sweep, dir: &Path) -> String {
    let budget = budget();
    let kinds = [PredictorKind::Blind, PredictorKind::StoreSets];
    sweep.run_grid(&kinds, &CoreConfig::alder_lake(), &budget);
    let artifact = sweep.artifact("grid", &budget, Duration::ZERO);
    let path = artifact.write_to(dir).expect("artifact written");
    SweepArtifact::verify_file(&path).expect("fresh artifact passes its own digest");
    std::fs::read_to_string(&path).expect("artifact readable")
}

/// Strips the fields where an interrupted-and-resumed sweep may legally
/// differ from an uninterrupted one: wall-clock, derived throughput, and
/// attempt metadata (and the digest, which covers them).
fn normalized(artifact: &str) -> String {
    artifact
        .lines()
        .filter(|l| {
            !["\"wall_s\"", "\"mips\"", "\"simulated_mips\"", "\"attempts\"", "\"digest\""]
                .iter()
                .any(|f| l.contains(f))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn killed_and_resumed_sweep_reproduces_the_artifact() {
    // Uninterrupted reference sweep, journaled.
    let ref_dir = scratch("ref");
    let journal_path = ref_dir.join("journal.jsonl");
    let journal = Journal::create(&journal_path, FINGERPRINT).expect("journal created");
    let sweep = Sweep::serial().with_journal(journal.scope("grid"));
    let reference = run_grid_to(&sweep, &ref_dir);

    // Simulate a mid-sweep kill: keep the header, every start line, and
    // the first half of the done lines — then tear the final line in two,
    // as a crash mid-write would.
    let text = std::fs::read_to_string(&journal_path).expect("journal readable");
    let done_total = text.lines().filter(|l| l.contains("\"kind\":\"done\"")).count();
    assert_eq!(done_total, 2 * 3, "one done line per grid cell");
    let mut kept = String::new();
    let mut done_kept = 0;
    for line in text.lines() {
        if line.contains("\"kind\":\"done\"") {
            done_kept += 1;
            if done_kept > done_total / 2 {
                // The torn final line: half a record, no newline, and
                // nothing after it — the process died here.
                kept.push_str(&line[..line.len() / 2]);
                break;
            }
        }
        kept.push_str(line);
        kept.push('\n');
    }
    let cut_dir = scratch("cut");
    let cut_path = cut_dir.join("journal.jsonl");
    std::fs::write(&cut_path, &kept).expect("truncated journal written");

    // Resume: half the cells replay from the journal, half re-execute.
    let resumed = Journal::resume(&cut_path, FINGERPRINT).expect("torn final line is tolerated");
    assert_eq!(resumed.completed_runs(), done_total / 2, "exactly the kept cells replay");
    let sweep = Sweep::serial().with_journal(resumed.scope("grid"));
    let merged = run_grid_to(&sweep, &cut_dir);

    assert_eq!(
        normalized(&reference),
        normalized(&merged),
        "resumed artifact must match the uninterrupted sweep byte for byte \
         modulo wall-clock/attempt metadata"
    );
}

/// The `sampled` validation on a tiny budget: it simulates 25× the
/// budget's instructions per full-detail cell and needs 4 workloads.
fn sampled_budget() -> Budget {
    Budget { insts: 1_000, workload_iters: 30_000, max_workloads: Some(4), extra_workloads: Vec::new() }
}

/// Runs `figures::sampled` on a serial sweep journaled to `journal` and
/// writes `BENCH_sampled.json` into `dir`, returning the artifact text.
fn run_sampled_to(journal: &Journal, dir: &Path) -> String {
    let budget = sampled_budget();
    let sweep = Sweep::serial()
        .with_sampling(SampleConfig::new(3, 600, 400))
        .with_journal(journal.scope("sampled"));
    figures::sampled::run(&sweep, &budget);
    let artifact = sweep.artifact("sampled", &budget, Duration::ZERO);
    let path = artifact.write_to(dir).expect("artifact written");
    std::fs::read_to_string(&path).expect("artifact readable")
}

#[test]
fn resumed_sampled_validation_reproduces_the_artifact() {
    let ref_dir = scratch("sampled-ref");
    let journal_path = ref_dir.join("journal.jsonl");
    let journal = Journal::create(&journal_path, FINGERPRINT).expect("journal created");
    let reference = run_sampled_to(&journal, &ref_dir);
    assert!(!reference.contains("\"full_ipc\": null"), "every sampled row is annotated");

    // Resume against the complete journal: every cell replays, and the
    // replayed sampled rows are annotated like the live ones.
    let resumed = Journal::resume(&journal_path, FINGERPRINT).expect("complete journal resumes");
    let merged = run_sampled_to(&resumed, &scratch("sampled-resumed"));
    assert_eq!(
        normalized(&reference),
        normalized(&merged),
        "resumed validation artifact must match the uninterrupted run \
         modulo wall-clock/attempt metadata"
    );
}

/// Every experiment but the sampled validation (which has its own resume
/// test above), journaled and then resumed against the complete journal: the resume must print the same report and write the
/// same artifact, so a replayed cell carries every value a report reads,
/// not just its artifact row.
#[test]
fn every_experiment_reports_the_same_after_a_resume() {
    let budget = Budget {
        insts: 3_000,
        workload_iters: 20_000,
        max_workloads: Some(2),
        extra_workloads: Vec::new(),
    };
    let ids: Vec<&str> = figures::EXPERIMENTS
        .iter()
        .map(|(id, ..)| *id)
        .filter(|id| *id != "sampled")
        .collect();
    let run_all = |journal: &Journal| -> Vec<(String, String)> {
        ids.iter()
            .map(|id| {
                let sweep = Sweep::with_workers(2).with_journal(journal.scope(id));
                let report = figures::run_experiment(id, &sweep, &budget).expect("known id");
                (report, normalized(&sweep.artifact(id, &budget, Duration::ZERO).to_json()))
            })
            .collect()
    };
    let journal_path = scratch("every").join("journal.jsonl");
    let first = run_all(&Journal::create(&journal_path, FINGERPRINT).expect("journal created"));
    let resumed = run_all(&Journal::resume(&journal_path, FINGERPRINT).expect("journal resumes"));
    for (id, (live, replayed)) in ids.iter().zip(first.iter().zip(&resumed)) {
        assert_eq!(live.0, replayed.0, "{id}: the resumed report differs");
        assert_eq!(live.1, replayed.1, "{id}: the resumed artifact differs");
    }
}

#[test]
fn sampled_validation_journals_its_full_detail_cells() {
    let dir = scratch("sampled-keys");
    let journal_path = dir.join("journal.jsonl");
    let journal = Journal::create(&journal_path, FINGERPRINT).expect("journal created");
    run_sampled_to(&journal, &dir);

    // The full-detail reference cells run through the cell lifecycle, so
    // the journal holds each one under its full-detail key.
    let resumed = Journal::resume(&journal_path, FINGERPRINT).expect("complete journal resumes");
    let scope = resumed.scope("sampled");
    let budget = sampled_budget();
    let vbudget = Budget { insts: budget.insts * 25, ..budget };
    let cfg = CoreConfig::alder_lake();
    for kind in [PredictorKind::StoreSets, PredictorKind::Phast] {
        for w in vbudget.workloads() {
            let key = cell_key(w.name, &kind.label(), &cfg, &vbudget, None);
            assert!(scope.lookup(&key).is_some(), "no done line for full-detail cell {key}");
        }
    }
}

#[test]
fn interior_journal_corruption_refuses_the_resume() {
    let dir = scratch("corrupt");
    let journal_path = dir.join("journal.jsonl");
    let journal = Journal::create(&journal_path, FINGERPRINT).expect("journal created");
    let sweep = Sweep::serial().with_journal(journal.scope("grid"));
    run_grid_to(&sweep, &dir);

    // Flip one digit inside a *non-final* record: the recomputed record
    // digest no longer matches and the journal is rejected as corrupt —
    // only a torn FINAL line is recoverable.
    let text = std::fs::read_to_string(&journal_path).expect("journal readable");
    let corrupted = text.replacen("\"cycles\":", "\"cycles\":9", 1);
    assert_ne!(text, corrupted, "a done record was altered");
    std::fs::write(&journal_path, corrupted).expect("corrupted journal written");

    match Journal::resume(&journal_path, FINGERPRINT) {
        Err(JournalError::Corrupt { line, reason }) => {
            assert!(line >= 2, "corruption is past the header, got line {line}");
            assert!(reason.contains("digest"), "names the digest mismatch: {reason}");
        }
        other => panic!("corrupted journal must be refused, got {other:?}"),
    }
}

#[test]
fn foreign_fingerprint_refuses_the_resume() {
    let dir = scratch("fingerprint");
    let journal_path = dir.join("journal.jsonl");
    Journal::create(&journal_path, FINGERPRINT).expect("journal created");

    match Journal::resume(&journal_path, "a different sweep shape") {
        Err(JournalError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, "a different sweep shape");
            assert_eq!(found, FINGERPRINT);
        }
        other => panic!("foreign journal must be refused, got {other:?}"),
    }
}

#[test]
fn artifact_digest_catches_on_disk_corruption() {
    let dir = scratch("digest");
    let sweep = Sweep::serial();
    let text = run_grid_to(&sweep, &dir);
    let path = dir.join("BENCH_grid.json");

    // A single injected digit anywhere in the payload — still perfectly
    // well-formed JSON — fails verification.
    let corrupted = text.replacen("\"cycles\": ", "\"cycles\": 9", 1);
    assert_ne!(text, corrupted);
    std::fs::write(&path, corrupted).expect("corrupted artifact written");
    match SweepArtifact::verify_file(&path) {
        Err(ArtifactError::DigestMismatch { computed, stored }) => {
            assert_ne!(computed, stored);
        }
        other => panic!("corrupted artifact must fail verification, got {other:?}"),
    }

    // Stripping the digest entirely is just as fatal — absence of
    // evidence is treated as corruption, fail-closed.
    let digestless: String =
        text.lines().filter(|l| !l.contains("\"digest\"")).collect::<Vec<_>>().join("\n");
    std::fs::write(&path, fix_trailing_comma(&digestless)).expect("digestless artifact written");
    assert!(
        SweepArtifact::verify_file(&path).is_err(),
        "artifact without a digest must not verify"
    );
}

/// Removing the last `"digest"` line leaves a trailing comma on the
/// previous line; patch it so the *only* defect is the missing digest.
fn fix_trailing_comma(text: &str) -> String {
    match text.rfind("],\n}") {
        Some(i) => format!("{}]\n{}", &text[..i], &text[i + 3..]),
        None => text.to_string(),
    }
}
