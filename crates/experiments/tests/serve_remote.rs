//! End-to-end chaos tests for **distributed** `phast-serve`: remote
//! worker processes leasing cells over the JSON-lines TCP protocol,
//! scripted connection cuts, partitions during result delivery, and the
//! fencing that keeps a reclaimed-then-resurrected worker's stale
//! result out of the artifact.
//!
//! The acceptance bar (mirrored in the CI `distributed` job): the
//! merged `BENCH` artifact is byte-identical to a 1-worker serial
//! reference no matter which mix of local/remote workers, kills,
//! partitions, and duplicate deliveries occurred — modulo the
//! wall-clock/attempt/worker metadata the resilience docs carve out.

use phast_experiments::serve::proto::{self, MAX_REQUEST_LINE};
use phast_experiments::serve::{
    run_worker, BackoffPolicy, ChaosPlan, Client, Event, LeaseConfig, NetPlan, Request,
    SchedConfig, ServeConfig, Server, WorkerConfig, WorkerError,
};
use phast_experiments::{exit_code, Budget, PredictorKind, Sweep, SweepArtifact};
use phast_ooo::CoreConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A scheduler tuned for these tests: one local worker (so remote
/// capacity is actually exercised), fast housekeeping, and a heartbeat
/// window that scripted silences trip quickly but a progressing,
/// regularly-beating worker never does.
fn test_sched(heartbeat_ms: u64) -> SchedConfig {
    SchedConfig {
        workers: 1,
        lanes: 1,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(heartbeat_ms),
            max_age: Duration::from_secs(120),
        },
        max_attempts: 5,
        housekeep_every: Duration::from_millis(5),
        chaos: ChaosPlan::none(),
    }
}

/// A worker tuned for these tests: quick polls, beats well inside the
/// daemon's heartbeat window, seeded backoff.
fn test_worker(addr: &str, name: &str) -> WorkerConfig {
    WorkerConfig {
        addr: addr.to_string(),
        name: name.to_string(),
        beat_every: Duration::from_millis(100),
        idle_poll: Duration::from_millis(10),
        read_timeout: Duration::from_secs(5),
        patience: Duration::from_secs(10),
        backoff: BackoffPolicy { seed: 0x5eed, ..BackoffPolicy::default() },
        net: None,
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

/// The 1-worker serial reference for a bench-tier sweep over `kinds` —
/// the same grid through the batch harness, no service layer at all.
fn serial_reference(id: &str, kinds: &[PredictorKind]) -> String {
    let budget = Budget::bench();
    let serial = Sweep::serial();
    let t = Instant::now();
    serial.run_grid(kinds, &CoreConfig::alder_lake(), &budget);
    serial.artifact(id, &budget, t.elapsed()).to_json()
}

/// Polls `status` until the artifact for `id` appears, then fetches it.
fn fetch_when_done(client: &mut Client, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(180);
    let digest = loop {
        match client.request(&Request::Status).expect("status") {
            Event::Status(s) => {
                if let Some((_, digest)) = s.artifacts.iter().find(|(i, _)| i == id) {
                    break digest.clone();
                }
            }
            other => panic!("expected status, got {other:?}"),
        }
        assert!(Instant::now() < deadline, "sweep '{id}' never produced its artifact");
        std::thread::sleep(Duration::from_millis(20));
    };
    client.fetch(&digest).expect("artifact served by digest")
}

/// A hand-rolled worker connection for deterministic protocol-level
/// tests: speaks raw request/event lines, misbehaves on command.
struct RawWorker {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawWorker {
    fn connect(addr: &str) -> RawWorker {
        let stream = TcpStream::connect(addr).expect("worker connects");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        RawWorker {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, req: &Request) -> Event {
        let mut line = proto::render_request(req);
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        proto::parse_event(reply.trim()).expect("parseable event")
    }

    fn register(&mut self, name: &str) {
        match self.request(&Request::Register { name: name.to_string() }) {
            Event::Registered { .. } => {}
            other => panic!("expected registration, got {other:?}"),
        }
    }

    /// Leases until the daemon grants at least one cell.
    fn lease_one(&mut self) -> proto::GrantCell {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.request(&Request::Lease { max: 1 }) {
                Event::Grant { mut cells } if !cells.is_empty() => return cells.remove(0),
                Event::Grant { .. } => {
                    assert!(Instant::now() < deadline, "no cell was ever granted");
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => panic!("expected a grant, got {other:?}"),
            }
        }
    }
}

#[test]
fn remote_worker_sweep_matches_the_serial_reference() {
    let server = Server::start(ServeConfig { sched: test_sched(2_000), ..ServeConfig::default() })
        .expect("daemon starts");
    let addr = server.local_addr().to_string();

    let mut client =
        Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    match client
        .request(&Request::Submit {
            id: "dist".to_string(),
            kinds: vec!["blind".to_string(), "store-sets".to_string()],
            budget: "bench".to_string(),
            watch: false,
        })
        .expect("submits")
    {
        Event::Accepted { cells, .. } => assert_eq!(cells, 4),
        other => panic!("expected acceptance, got {other:?}"),
    }

    // A real remote worker process-loop joins mid-sweep and splits the
    // grid with the single local worker.
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let cfg = test_worker(&addr, "box-a");
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_worker(cfg, &stop))
    };

    let body = fetch_when_done(&mut client, "dist");
    SweepArtifact::verify_json(&body).expect("served artifact verifies");

    // The remote actually carried cells (the local worker alone cannot
    // finish 4 bench cells before the remote's first lease lands).
    let remote_delivered = match client.request(&Request::Status).expect("status") {
        Event::Status(s) => s.remote_delivered,
        other => panic!("expected status, got {other:?}"),
    };
    assert!(remote_delivered >= 1, "remote worker delivered nothing");

    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
    let summary = worker.join().expect("worker thread").expect("worker ran");
    assert!(summary.drained, "worker exited via the drain path");
    assert_eq!(summary.delivered, remote_delivered);

    let reference = serial_reference("dist", &[PredictorKind::Blind, PredictorKind::StoreSets]);
    assert_eq!(
        normalize(&body),
        normalize(&reference),
        "distributed artifact diverges from the 1-worker serial reference"
    );
}

#[test]
fn partitioned_worker_is_fenced_and_the_retried_result_lands() {
    let server = Server::start(ServeConfig { sched: test_sched(250), ..ServeConfig::default() })
        .expect("daemon starts");
    let addr = server.local_addr().to_string();

    // The partition victim registers first so it can lease immediately
    // after admission.
    let mut victim = RawWorker::connect(&addr);
    victim.register("victim");

    let mut client =
        Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    match client
        .request(&Request::Submit {
            id: "fenced".to_string(),
            kinds: vec!["blind".to_string()],
            budget: "bench".to_string(),
            watch: false,
        })
        .expect("submits")
    {
        Event::Accepted { cells, .. } => assert_eq!(cells, 2),
        other => panic!("expected acceptance, got {other:?}"),
    }
    let stolen = victim.lease_one();
    assert!(stolen.fence > 0);

    // Partition: the victim goes silent (no beats). The daemon reclaims
    // the lease after the heartbeat window and the local worker retries
    // the cell — the sweep completes without the victim.
    let body = fetch_when_done(&mut client, "fenced");
    SweepArtifact::verify_json(&body).expect("served artifact verifies");

    // The victim resurfaces and delivers its result for the reclaimed
    // fence. The fence table rejects it as stale — at most once, so the
    // retried result that already landed is never double-counted. (The
    // payload is not even inspected: a dead fence fails first.)
    match victim.request(&Request::Deliver {
        fence: stolen.fence,
        status: "ok".to_string(),
        detail: None,
        record: "{}".to_string(),
        digest: "crc32:00000000".to_string(),
    }) {
        Event::Delivered { fresh, fence } => {
            assert_eq!(fence, stolen.fence);
            assert!(!fresh, "stale fenced delivery must not be accepted as fresh");
        }
        other => panic!("expected a delivery verdict, got {other:?}"),
    }
    match client.request(&Request::Status).expect("status") {
        Event::Status(s) => {
            assert!(s.reclaimed >= 1, "the silent lease was reclaimed");
            assert!(s.remote_stale >= 1, "the stale delivery was counted");
            assert_eq!(s.remote_delivered, 0, "nothing from the victim was accepted");
        }
        other => panic!("expected status, got {other:?}"),
    }

    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
    let reference = serial_reference("fenced", &[PredictorKind::Blind]);
    assert_eq!(
        normalize(&body),
        normalize(&reference),
        "fenced artifact diverges from the serial reference"
    );
}

#[test]
fn all_remotes_dead_degrades_to_a_local_drain() {
    let server = Server::start(ServeConfig { sched: test_sched(250), ..ServeConfig::default() })
        .expect("daemon starts");
    let addr = server.local_addr().to_string();

    let mut doomed = RawWorker::connect(&addr);
    doomed.register("doomed");

    let mut client =
        Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    match client
        .request(&Request::Submit {
            id: "local-drain".to_string(),
            kinds: vec!["blind".to_string()],
            budget: "bench".to_string(),
            watch: false,
        })
        .expect("submits")
    {
        Event::Accepted { .. } => {}
        other => panic!("expected acceptance, got {other:?}"),
    }
    let _stolen = doomed.lease_one();
    // The last remote dies holding a lease: connection torn, no
    // good-bye. The daemon reclaims and the local worker drains the
    // whole sweep.
    drop(doomed);

    let body = fetch_when_done(&mut client, "local-drain");
    SweepArtifact::verify_json(&body).expect("served artifact verifies");
    match client.request(&Request::Status).expect("status") {
        Event::Status(s) => {
            assert_eq!(s.remote_workers, 0, "the dead remote was forgotten");
            assert!(s.reclaimed >= 1, "the dead remote's lease was reclaimed");
        }
        other => panic!("expected status, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);

    let reference = serial_reference("local-drain", &[PredictorKind::Blind]);
    assert_eq!(normalize(&body), normalize(&reference), "local drain diverges from serial");
}

#[test]
fn scripted_connection_cut_reconnects_and_completes_byte_identically() {
    let server = Server::start(ServeConfig { sched: test_sched(2_000), ..ServeConfig::default() })
        .expect("daemon starts");
    let addr = server.local_addr().to_string();

    let mut client =
        Client::connect_with_patience(&addr, Duration::from_secs(5)).expect("connects");
    match client
        .request(&Request::Submit {
            id: "cut".to_string(),
            kinds: vec!["blind".to_string(), "store-sets".to_string()],
            budget: "bench".to_string(),
            watch: false,
        })
        .expect("submits")
    {
        Event::Accepted { cells, .. } => assert_eq!(cells, 4),
        other => panic!("expected acceptance, got {other:?}"),
    }

    // The worker's traffic flows through the seeded fault proxy, which
    // cuts its first connection mid-line at the 3rd worker→daemon line:
    // register, lease, then the first `deliver` (or a `beat`) of the
    // leased cell — which always comes while the sweep still waits for
    // that cell, so the cut lands mid-run. The worker reconnects with
    // backoff and finishes.
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let mut cfg = test_worker(&addr, "box-cut");
        cfg.net = Some(NetPlan { cut_at: Some((0, 2)), ..NetPlan::none() });
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_worker(cfg, &stop))
    };

    let body = fetch_when_done(&mut client, "cut");
    SweepArtifact::verify_json(&body).expect("served artifact verifies");
    server.shutdown();
    assert_eq!(server.join(), exit_code::OK);
    let summary = worker.join().expect("worker thread").expect("worker ran");
    assert!(summary.drained, "worker exited via the drain path");
    assert!(
        summary.connects >= 2,
        "the scripted cut forced a reconnect (connects = {})",
        summary.connects
    );

    let reference = serial_reference("cut", &[PredictorKind::Blind, PredictorKind::StoreSets]);
    assert_eq!(
        normalize(&body),
        normalize(&reference),
        "post-cut artifact diverges from the serial reference"
    );
}

/// A daemon address that accepts connections and closes them at once —
/// a proxy in front of a daemon that has exited — fails every
/// registration. Those failures belong to one outage with failed
/// connects: the worker backs off between redials and gives up with
/// `WorkerError::Connect` (exit 5) once the outage outlasts its
/// patience, instead of redialling in a hot loop forever.
#[test]
fn failed_registrations_exhaust_patience_instead_of_spinning() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let accepted = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let (accepted, done) = (Arc::clone(&accepted), Arc::clone(&done));
        std::thread::spawn(move || {
            for sock in listener.incoming() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                accepted.fetch_add(1, Ordering::SeqCst);
                drop(sock);
            }
        })
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = {
        let mut cfg = test_worker(&addr, "box-spin");
        cfg.patience = Duration::from_millis(300);
        std::thread::spawn(move || {
            let _ = tx.send(run_worker(cfg, &AtomicBool::new(false)));
        })
    };
    let outcome = rx.recv_timeout(Duration::from_secs(5)).expect("worker gave up within 5 s");
    assert!(matches!(outcome, Err(WorkerError::Connect(_))), "got {outcome:?}");
    let connections = accepted.load(Ordering::SeqCst);
    assert!(connections <= 20, "worker redialled {connections} times in one outage");
    worker.join().expect("worker thread");
    // Wake the acceptor so it sees `done` and exits.
    done.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&addr);
    acceptor.join().expect("acceptor thread");
}

#[test]
fn oversized_request_lines_are_refused_fail_closed() {
    let server = Server::start(ServeConfig { sched: test_sched(2_000), ..ServeConfig::default() })
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
