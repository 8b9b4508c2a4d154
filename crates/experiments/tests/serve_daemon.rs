//! End-to-end tests for the `phast-serve` daemon on a live TCP server:
//! parallel and back-to-back sweeps against their serial references,
//! journal replay, torn client connections, length-bombed request lines,
//! and graceful drain.
//!
//! The acceptance bar (mirrored in the CI `service` job): a daemon
//! sweep's artifact is byte-identical — modulo wall-clock and attempt
//! metadata — to a serial batch run's, and a graceful drain loses no
//! journaled work.

use phast_experiments::serve::proto::MAX_REQUEST_LINE;
use phast_experiments::serve::{Client, Event, Request, SchedConfig, ServeConfig, Server};
use phast_experiments::{exit_code, Budget, Journal, PredictorKind, Sweep, SweepArtifact};
use phast_ooo::CoreConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A daemon on an OS-picked port with `workers` workers.
fn daemon(workers: usize) -> ServeConfig {
    let sched = SchedConfig { workers, ..SchedConfig::default() };
    ServeConfig { sched, ..ServeConfig::default() }
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

/// The serial batch artifact of the `kinds` grid at the bench tier.
fn serial_reference(id: &str, kinds: &[&str]) -> String {
    let kinds: Vec<PredictorKind> =
        kinds.iter().map(|k| PredictorKind::from_label(k).expect("known label")).collect();
    let budget = Budget::bench();
    let serial = Sweep::serial();
    serial.run_grid(&kinds, &CoreConfig::alder_lake(), &budget);
    serial.artifact(id, &budget, Duration::ZERO).to_json()
}

/// Streams an accepted watch to its `done` event and fetches the
/// artifact it names; returns the cell events and the verified body.
fn stream_and_fetch(client: &mut Client) -> (Vec<Event>, String) {
    let mut events = client.stream_to_done().expect("streams to done");
    let Some(Event::Done { digest, degraded, exit, .. }) = events.pop() else {
        panic!("missing done event: {events:?}");
    };
    assert_eq!(degraded, 0);
    assert_eq!(exit, exit_code::OK as u64);
    let body = client.fetch(&digest).expect("artifact served by digest");
    SweepArtifact::verify_json(&body).expect("served artifact verifies");
    (events, body)
}

/// Connects to `server`, waiting for it to bind.
fn connect(server: &Server) -> Client {
    Client::connect_with_patience(&server.local_addr().to_string(), Duration::from_secs(5))
        .expect("connects")
}

/// A scratch directory unique to this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phast-serve-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_daemon_sweep_matches_the_serial_reference() {
    let server = Server::start(daemon(3)).expect("daemon starts");
    let mut client = connect(&server);
    let kinds = ["blind", "store-sets"];
    match client.submit_watch("parallel", &kinds, "bench").expect("submits") {
        Event::Accepted { cells: 4, replayed: 0, .. } => {}
        other => panic!("expected acceptance of 4 live cells, got {other:?}"),
    }
    let (cells, body) = stream_and_fetch(&mut client);
    assert_eq!(cells.len(), 4, "one cell event per live cell: {cells:?}");
    assert_eq!(normalize(&body), normalize(&serial_reference("parallel", &kinds)));

    // Every admitted cell was started and delivered.
    match client.request(&Request::Status).expect("status") {
        Event::Status(s) => {
            assert_eq!((s.queue_depth, s.outstanding, s.active_sweeps), (0, 0, 0), "{s:?}");
        }
        other => panic!("expected status, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
}

#[test]
fn back_to_back_sweeps_on_two_connections_match_their_references() {
    let server =
        Server::start(ServeConfig { max_active_sweeps: 2, ..daemon(2) }).expect("daemon starts");
    let (mut first, mut second) = (connect(&server), connect(&server));
    let (kinds_a, kinds_b) = (["blind", "store-sets"], ["phast", "nosq"]);
    for (client, id, kinds) in [(&mut first, "first", kinds_a), (&mut second, "second", kinds_b)] {
        match client.submit_watch(id, &kinds, "bench").expect("submits") {
            Event::Accepted { cells: 4, .. } => {}
            other => panic!("{id}: expected acceptance, got {other:?}"),
        }
    }
    // Both are admitted before either finishes; they take turns.
    let (_, body_a) = stream_and_fetch(&mut first);
    let (_, body_b) = stream_and_fetch(&mut second);
    assert_eq!(normalize(&body_a), normalize(&serial_reference("first", &kinds_a)));
    assert_eq!(normalize(&body_b), normalize(&serial_reference("second", &kinds_b)));
    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
}

#[test]
fn journal_replay_skips_completed_cells() {
    let dir = scratch("replay");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("journal.jsonl");
    let kinds = ["blind", "store-sets"];
    let run = |journal: Journal, replayed_cells: u64| -> (Vec<Event>, String) {
        let server =
            Server::start(ServeConfig { journal: Some(journal), ..daemon(2) }).expect("starts");
        let mut client = connect(&server);
        match client.submit_watch("replay", &kinds, "bench").expect("submits") {
            Event::Accepted { cells: 4, replayed, .. } => assert_eq!(replayed, replayed_cells),
            other => panic!("expected acceptance, got {other:?}"),
        }
        let streamed = stream_and_fetch(&mut client);
        server.shutdown();
        assert_eq!(server.join(), exit_code::OK);
        streamed
    };
    let (first_cells, first) =
        run(Journal::create(&path, "phast-serve-v1").expect("journal"), 0);
    assert_eq!(first_cells.len(), 4);
    // A resumed daemon replays every cell from the journal: nothing runs,
    // so no cell events stream, and the artifact is unchanged.
    let (second_cells, second) =
        run(Journal::resume(&path, "phast-serve-v1").expect("resumes"), 4);
    assert!(second_cells.is_empty(), "replayed cells stream no events: {second_cells:?}");
    assert_eq!(normalize(&first), normalize(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_watch_client_downgrades_to_fire_and_forget() {
    let server = Server::start(daemon(2)).expect("daemon starts");
    let mut watcher = connect(&server);
    match watcher.submit_watch("torn", &["blind"], "bench").expect("submits") {
        Event::Accepted { cells, .. } => assert_eq!(cells, 2),
        other => panic!("expected acceptance, got {other:?}"),
    }
    // Tear the connection mid-stream (a client dying while watching).
    drop(watcher.into_stream());

    // The sweep must finish anyway; a second client finds the artifact
    // in the index and fetches it by digest.
    let mut poller = connect(&server);
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
        json_dir: Some(dir.clone()),
        journal: Some(journal),
        ..daemon(2)
    })
    .expect("daemon starts");

    // Fire-and-forget submission, then an immediate drain request — the
    // SIGTERM path. The admitted sweep must finish, journal every cell,
    // and flush its artifact before the process would exit.
    let mut client = connect(&server);
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
fn oversized_request_lines_are_refused_fail_closed() {
    let server = Server::start(daemon(2)).expect("daemon starts");
    let mut sock = TcpStream::connect(server.local_addr()).expect("connects");
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
