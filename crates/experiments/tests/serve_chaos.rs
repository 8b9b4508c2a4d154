//! End-to-end chaos tests for the `phast-serve` daemon: scripted worker
//! kills and heartbeat loss on a live TCP server, torn client
//! connections, length-bombed request lines, graceful drain, and the
//! journal's write-ahead record of reclaimed-then-retried attempts.
//!
//! The acceptance bar (mirrored in the CI `service` job): a chaotic
//! daemon sweep's artifact is byte-identical — modulo wall-clock and
//! attempt metadata — to an unperturbed serial run's, and a graceful
//! drain loses no journaled work.

use phast_experiments::serve::proto::MAX_REQUEST_LINE;
use phast_experiments::serve::{
    ChaosPlan, Client, Event, LeaseConfig, Request, SchedConfig, Scheduler, ServeConfig, Server,
    SweepSpec,
};
use phast_experiments::{exit_code, Budget, Journal, PredictorKind, Sweep, SweepArtifact};
use phast_ooo::{CheckConfig, CoreConfig, FaultPlan};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A scheduler tuned for tests: fast housekeeping, a heartbeat window
/// short enough that scripted stalls reclaim within milliseconds but
/// long enough that a genuinely-progressing debug-mode simulation (which
/// ticks every 2048 cycles) never trips it spuriously.
fn fast_sched(workers: usize, chaos: ChaosPlan) -> SchedConfig {
    SchedConfig {
        workers,
        lanes: 1,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(250),
            max_age: Duration::from_secs(120),
        },
        max_attempts: 3,
        housekeep_every: Duration::from_millis(5),
        chaos,
    }
}

/// Strips the per-execution metadata the resilience docs carve out of
/// byte-identity: wall-clock, throughput, attempts, worker count, git
/// state, and the digest (which covers them).
fn normalize(body: &str) -> String {
    body.lines()
        .filter(|l| {
            ![
                "\"wall_s\"",
                "\"mips\"",
                "\"simulated_mips\"",
                "\"attempts\"",
                "\"digest\"",
                "\"git\"",
                "\"workers\"",
            ]
            .iter()
            .any(|k| l.trim_start().starts_with(k))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A scratch directory unique to this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phast-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn chaotic_daemon_sweep_matches_an_unperturbed_serial_reference() {
    // Scripted fault: kill whichever worker picks up job 1's first
    // attempt — the job is reclaimed from the dead worker's lease and
    // retried, and the worker is respawned. (Heartbeat-loss chaos needs
    // a cell that outlasts the heartbeat window; that path is covered by
    // `reclaimed_job_journals_both_attempts_with_distinct_reseeds`.)
    let chaos = ChaosPlan { kill_at: Some((1, 1)), ..ChaosPlan::none() };
    let server = Server::start(ServeConfig {
        sched: fast_sched(3, chaos),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    match client.submit_watch("chaotic", &["blind", "store-sets"], "bench").expect("submits") {
        Event::Accepted { cells, replayed, .. } => {
            assert_eq!(cells, 4);
            assert_eq!(replayed, 0);
        }
        other => panic!("expected acceptance, got {other:?}"),
    }
    let events = client.stream_to_done().expect("streams to done");
    let Some(Event::Done { digest, runs, degraded, exit, .. }) = events.last() else {
        panic!("missing done event: {events:?}");
    };
    assert_eq!(*runs, 4);
    assert_eq!(*degraded, 0, "every chaos-hit cell recovered via retry");
    assert_eq!(*exit, exit_code::OK as u64);
    let body = client.fetch(digest).expect("artifact served by digest");
    SweepArtifact::verify_json(&body).expect("served artifact verifies");

    // The lease machinery actually fired: the scripted kill was
    // reclaimed (spurious reclaims on a loaded machine only add to it).
    match client.request(&Request::Status).expect("status") {
        Event::Status(s) => {
            assert!(s.reclaimed >= 1, "the scripted kill was reclaimed (got {})", s.reclaimed);
            assert_eq!(s.lost, 0, "no job exhausted its attempt budget");
        }
        other => panic!("expected status, got {other:?}"),
    }

    // The unperturbed serial reference: same grid through the batch
    // harness, one worker, no service layer at all.
    let kinds = vec![PredictorKind::Blind, PredictorKind::StoreSets];
    let budget = Budget::bench();
    let serial = Sweep::serial();
    let t = Instant::now();
    serial.run_grid(&kinds, &CoreConfig::alder_lake(), &budget);
    let reference = serial.artifact("chaotic", &budget, t.elapsed()).to_json();
    assert_eq!(
        normalize(&body),
        normalize(&reference),
        "chaotic daemon artifact diverges from the unperturbed serial reference"
    );

    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
}

#[test]
fn torn_watch_client_downgrades_to_fire_and_forget() {
    let server = Server::start(ServeConfig {
        sched: fast_sched(2, ChaosPlan::none()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr().to_string();

    let mut watcher =
        Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    match watcher.submit_watch("torn", &["blind"], "bench").expect("submits") {
        Event::Accepted { cells, .. } => assert_eq!(cells, 2),
        other => panic!("expected acceptance, got {other:?}"),
    }
    // Tear the connection mid-stream (a client dying while watching).
    drop(watcher.into_stream());

    // The sweep must finish anyway; a second client finds the artifact
    // in the index and fetches it by digest.
    let mut poller =
        Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    let deadline = Instant::now() + Duration::from_secs(120);
    let digest = loop {
        match poller.request(&Request::Status).expect("status") {
            Event::Status(s) => {
                if let Some((_, digest)) = s.artifacts.iter().find(|(id, _)| id == "torn") {
                    break digest.clone();
                }
            }
            other => panic!("expected status, got {other:?}"),
        }
        assert!(Instant::now() < deadline, "torn sweep never produced its artifact");
        std::thread::sleep(Duration::from_millis(20));
    };
    let body = poller.fetch(&digest).expect("artifact served after the client died");
    SweepArtifact::verify_json(&body).expect("served artifact verifies");
    assert!(body.contains("\"id\": \"torn\""), "fetched the right artifact");

    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
}

#[test]
fn graceful_drain_loses_no_journaled_work() {
    let dir = scratch("drain");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal_path = dir.join("journal.jsonl");
    let journal = Journal::create(&journal_path, "phast-serve-v1").expect("journal");
    let server = Server::start(ServeConfig {
        sched: fast_sched(2, ChaosPlan::none()),
        json_dir: Some(dir.clone()),
        journal: Some(journal),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr().to_string();

    // Fire-and-forget submission, then an immediate drain request — the
    // SIGTERM path. The admitted sweep must finish, journal every cell,
    // and flush its artifact before the process would exit.
    let mut client = Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    match client
        .request(&Request::Submit {
            id: "drain".to_string(),
            kinds: vec!["blind".to_string()],
            budget: "bench".to_string(),
            watch: false,
        })
        .expect("submits")
    {
        Event::Accepted { cells, .. } => assert_eq!(cells, 2),
        other => panic!("expected acceptance, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(server.join(), exit_code::OK, "drain finished the in-flight sweep cleanly");

    // Nothing was lost: the artifact is on disk, sealed and intact, and
    // the journal resumes with every cell complete.
    let artifact_path = dir.join("BENCH_drain.json");
    SweepArtifact::verify_file(&artifact_path).expect("flushed artifact verifies");
    let resumed = Journal::resume(&journal_path, "phast-serve-v1").expect("journal resumes");
    assert_eq!(resumed.completed_runs(), 2, "every admitted cell was journaled as done");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reclaimed_job_journals_both_attempts_with_distinct_reseeds() {
    let dir = scratch("reseed");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal_path = dir.join("journal.jsonl");
    let journal = Journal::create(&journal_path, "phast-serve-v1").expect("journal");

    // Drop job 1's heartbeat on its first attempt: the attempt *runs*
    // (journaling its write-ahead `start`), but the lease table watches
    // a decoy progress cell, reclaims after the heartbeat window, and
    // requeues — the retry journals a second `start`. The cell's budget
    // is sized to comfortably outlast the window in a debug build, and
    // the reclaimed attempt stops at its next cancellation poll. A
    // zero-rate fault plan is armed so the per-attempt reseed policy has
    // a seed to perturb without injecting any actual faults (the
    // simulation stays deterministic).
    let plan = FaultPlan {
        seed: 77,
        drop_prediction: 0,
        flip_distance: 0,
        spurious_violation: 0,
        corrupt_training: 0,
    };
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig { faults: Some(plan), ..CheckConfig::default() };
    let chaos = ChaosPlan { stall_at: Some((1, 1)), ..ChaosPlan::none() };
    let sched = Scheduler::start(SchedConfig {
        workers: 2,
        lanes: 1,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(300),
            max_age: Duration::from_secs(120),
        },
        max_attempts: 5,
        housekeep_every: Duration::from_millis(5),
        chaos,
    });
    let spec = SweepSpec {
        id: "retry".to_string(),
        kinds: vec![PredictorKind::Blind],
        budget: Budget { insts: 500_000, workload_iters: 30_000, max_workloads: Some(1), extra_workloads: Vec::new() },
        cfg,
        run_timeout: None,
    };
    let run = phast_experiments::serve::submit_sweep(spec, &sched, Some(journal.scope("retry")))
        .expect("admitted");
    let outcome = run.finish(sched.workers(), None);
    assert_eq!(outcome.exit, exit_code::OK, "degraded: {:?}", outcome.degraded);
    assert!(
        outcome.artifact.runs[0].attempts >= 2,
        "the stalled cell was retried (attempts = {})",
        outcome.artifact.runs[0].attempts
    );
    sched.drain();
    drop(journal);

    // The journal holds the write-ahead truth: two `start` lines for the
    // killed cell — attempts 1 and 2, with *different* fault seeds (the
    // retry explores a different fault schedule) — and exactly one
    // `done`.
    let text = std::fs::read_to_string(&journal_path).expect("journal readable");
    let field = |line: &str, key: &str| -> Option<String> {
        let tail = line.split(&format!("\"{key}\":")).nth(1)?;
        Some(tail.trim_start().trim_start_matches('"').chars().take_while(|c| c.is_ascii_digit()).collect())
    };
    let starts: Vec<(String, u64, u64)> = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"start\""))
        .map(|l| {
            let key = l.split("\"key\":\"").nth(1).and_then(|t| t.split('"').next()).unwrap();
            let attempt: u64 = field(l, "attempt").unwrap().parse().unwrap();
            let seed: u64 = field(l, "seed").unwrap().parse().unwrap();
            (key.to_string(), attempt, seed)
        })
        .collect();
    let retried_key = starts
        .iter()
        .find(|(_, attempt, _)| *attempt == 2)
        .map(|(k, _, _)| k.clone())
        .expect("one cell recorded a second attempt");
    let attempts: Vec<&(String, u64, u64)> =
        starts.iter().filter(|(k, _, _)| *k == retried_key).collect();
    // A loaded machine can add spurious reclaims (and thus attempts)
    // beyond the scripted one; the write-ahead contract is that *every*
    // attempt appears, in order, each with its own reseed.
    assert!(attempts.len() >= 2, "both attempts journaled write-ahead");
    for (i, (_, attempt, _)) in attempts.iter().enumerate() {
        assert_eq!(*attempt, i as u64 + 1, "attempts journal in order");
    }
    assert_eq!(attempts[0].2, 77, "attempt 1 runs the configured fault seed");
    assert_ne!(attempts[0].2, attempts[1].2, "the retry reseeds the fault plan");
    let mut seeds: Vec<u64> = attempts.iter().map(|(_, _, s)| *s).collect();
    seeds.dedup();
    assert_eq!(seeds.len(), attempts.len(), "every attempt draws a distinct fault seed");
    let done_lines = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"done\"") && l.contains(&retried_key))
        .count();
    assert_eq!(done_lines, 1, "only the delivered attempt journals done");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_request_lines_are_refused_fail_closed() {
    let server = Server::start(ServeConfig {
        sched: fast_sched(2, ChaosPlan::none()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr().to_string();

    let mut sock = TcpStream::connect(&addr).expect("connects");
    sock.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // A length-bomb: one "line" just over the request cap, no newline
    // needed — the daemon must refuse it without buffering it whole.
    let bomb = vec![b'x'; MAX_REQUEST_LINE + 1];
    sock.write_all(&bomb).expect("bomb sent");
    sock.flush().expect("flush");
    let mut reply = String::new();
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    reader.read_line(&mut reply).expect("typed refusal");
    assert!(
        reply.contains("wire cap"),
        "expected a typed wire-cap error, got: {reply:?}"
    );
    // The connection is dropped after the refusal (fail closed).
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "no further traffic after a length bomb");

    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
}
