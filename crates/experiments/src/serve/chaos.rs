//! Seeded fault injection for the service layer itself.
//!
//! The simulator already has a fault-injection plane
//! (`phast_ooo::check::FaultPlan`) that perturbs *predictions*; this
//! module perturbs the **daemon** — workers die mid-lease, heartbeats go
//! silent — so the lease/reclaim machinery in [`crate::serve::sched`] is
//! exercised by tests the same way the simulator's resilience is: from a
//! seed, deterministically, with no wall-clock or OS randomness in the
//! decision path.
//!
//! Decisions are pure functions of `(seed, job id, attempt)`, so a chaos
//! schedule replays identically across runs and across machines, and a
//! retried attempt of the same job draws a *fresh* decision — a job
//! killed on attempt 1 is not doomed to be killed on attempt 2.

/// Denominator for the per-pickup chaos rates (matches the simulator's
/// fault-plan convention of rates per 4096).
pub const CHAOS_DENOM: u64 = 4096;

/// A seeded schedule of service-layer faults, consulted by each worker
/// when it picks a job up.
///
/// The default plan injects nothing; tests arm individual knobs. The
/// `kill_job`/`stall_job` knobs target one exact `(job, attempt)` pickup
/// for tests that need a scripted fault rather than a statistical one.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Seed for the per-pickup decisions.
    pub seed: u64,
    /// Rate (per [`CHAOS_DENOM`] pickups) at which the worker thread dies
    /// on the spot — holding its lease, running nothing, unwinding
    /// nothing — as a stand-in for `SIGKILL` / OOM-kill.
    pub kill_worker: u64,
    /// Rate (per [`CHAOS_DENOM`] pickups) at which the job runs with its
    /// progress heartbeat disconnected, so the housekeeper sees a
    /// wedged lease even though the simulation is advancing.
    pub drop_heartbeat: u64,
    /// Kill the worker deterministically on exactly this `(job, attempt)`
    /// pickup (in addition to the statistical rate).
    pub kill_at: Option<(u64, u64)>,
    /// Disconnect the heartbeat deterministically on exactly this
    /// `(job, attempt)` pickup.
    pub stall_at: Option<(u64, u64)>,
}

impl ChaosPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Should the worker picking up `(job, attempt)` die holding the
    /// lease?
    pub fn kills_worker(&self, job: u64, attempt: u64) -> bool {
        if self.kill_at == Some((job, attempt)) {
            return true;
        }
        self.kill_worker > 0 && draw(self.seed, job, attempt, 0x6b69) < self.kill_worker
    }

    /// Should `(job, attempt)` run with its heartbeat disconnected?
    pub fn drops_heartbeat(&self, job: u64, attempt: u64) -> bool {
        if self.stall_at == Some((job, attempt)) {
            return true;
        }
        self.drop_heartbeat > 0 && draw(self.seed, job, attempt, 0x6862) < self.drop_heartbeat
    }

    /// True if this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.kill_worker == 0
            && self.drop_heartbeat == 0
            && self.kill_at.is_none()
            && self.stall_at.is_none()
    }
}

/// A seeded schedule of **network** faults, applied by [`NetProxy`] to
/// every connection that flows through it.
///
/// Decisions are pure functions of `(seed, connection index, line
/// index)`, counted on the client→server direction, so a network chaos
/// schedule replays identically — mirroring [`ChaosPlan`]'s contract
/// for worker faults. The scripted `cut_at`/`hold_at` knobs target one
/// exact `(connection, line)` for tests that need a deterministic fault
/// rather than a statistical one; both are 0-based.
#[derive(Clone, Debug, Default)]
pub struct NetPlan {
    /// Seed for the per-line decisions.
    pub seed: u64,
    /// Rate (per [`CHAOS_DENOM`] forwarded lines) at which the
    /// connection is cut **mid-line**: half the line is delivered, then
    /// both sockets drop — a stand-in for a peer dying mid-write.
    pub cut_rate: u64,
    /// Fixed forwarding delay per line, in milliseconds (both
    /// directions), modelling a slow link.
    pub delay_ms: u64,
    /// Cut the connection mid-line deterministically on exactly this
    /// `(connection, line)` (in addition to the statistical rate).
    pub cut_at: Option<(u64, u64)>,
    /// Partition the connection from this `(connection, line)` on: both
    /// sockets stay open but nothing is forwarded in either direction —
    /// a stand-in for a network partition the peer can only detect by
    /// timeout.
    pub hold_at: Option<(u64, u64)>,
}

impl NetPlan {
    /// A plan that injects nothing.
    pub fn none() -> NetPlan {
        NetPlan::default()
    }

    /// Should forwarded line `line` of connection `conn` cut the link
    /// mid-line?
    pub fn cuts(&self, conn: u64, line: u64) -> bool {
        if self.cut_at == Some((conn, line)) {
            return true;
        }
        self.cut_rate > 0 && draw(self.seed, conn, line, 0x6375) < self.cut_rate
    }

    /// Should the link partition (silently black-hole both directions)
    /// starting at line `line` of connection `conn`?
    pub fn holds(&self, conn: u64, line: u64) -> bool {
        self.hold_at == Some((conn, line))
    }
}

/// A seeded in-process TCP proxy that forwards JSON-lines traffic to an
/// upstream daemon while injecting the faults a [`NetPlan`] scripts:
/// mid-line cuts, fixed delays, and silent partitions.
///
/// The chaos tests put this between a remote worker and the daemon so
/// connection loss, truncated frames, and partitions exercise the
/// fencing/reclaim path deterministically, with no OS randomness in the
/// decision path.
pub struct NetProxy {
    addr: std::net::SocketAddr,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl NetProxy {
    /// Binds a loopback listener and starts forwarding each inbound
    /// connection to `upstream` under `plan`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn start(upstream: &str, plan: NetPlan) -> std::io::Result<NetProxy> {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let upstream = upstream.to_string();
        let accept = std::thread::spawn(move || {
            let mut conn: u64 = 0;
            while !stop_accept.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((down, _)) => {
                        if let Ok(up) = std::net::TcpStream::connect(&upstream) {
                            pump_pair(down, up, plan.clone(), conn);
                        }
                        conn += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(NetProxy { addr, stop, accept: Some(accept) })
    }

    /// The proxy's listen address, for the worker to connect to.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Stops accepting new connections (established pumps drain on their
    /// own when either endpoint closes).
    pub fn stop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns the two per-direction pump threads for one proxied
/// connection. Fault decisions draw on the client→server line count;
/// a `held` partition silences both directions at once.
fn pump_pair(down: std::net::TcpStream, up: std::net::TcpStream, plan: NetPlan, conn: u64) {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let held = Arc::new(AtomicBool::new(false));
    let (Ok(down_r), Ok(up_r)) = (down.try_clone(), up.try_clone()) else {
        return;
    };
    let plan_back = plan.clone();
    let held_fwd = Arc::clone(&held);
    std::thread::spawn(move || pump(down_r, up, plan, conn, held_fwd, true));
    std::thread::spawn(move || pump(up_r, down, plan_back, conn, held, false));
}

/// Forwards lines from `from` to `to` until EOF, a cut, or an error.
/// Only the counted (client→server) direction consults the cut/hold
/// script; both directions honour the delay and an established
/// partition.
fn pump(
    from: std::net::TcpStream,
    mut to: std::net::TcpStream,
    plan: NetPlan,
    conn: u64,
    held: std::sync::Arc<std::sync::atomic::AtomicBool>,
    counted: bool,
) {
    use std::io::Write;
    use std::sync::atomic::Ordering;
    let mut reader = std::io::BufReader::new(from);
    let mut line = String::new();
    let mut n: u64 = 0;
    loop {
        match super::proto::read_line_capped(&mut reader, &mut line, super::proto::MAX_EVENT_LINE)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let idx = n;
        n += 1;
        if counted && plan.holds(conn, idx) {
            held.store(true, Ordering::SeqCst);
        }
        if held.load(Ordering::SeqCst) {
            // Partitioned: keep both sockets open, forward nothing.
            continue;
        }
        if plan.delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(plan.delay_ms));
        }
        if counted && plan.cuts(conn, idx) {
            // Deliver half the line, then tear the link down mid-frame.
            let keep = line.len() / 2;
            let _ = to.write_all(&line.as_bytes()[..keep]);
            let _ = to.flush();
            let _ = to.shutdown(std::net::Shutdown::Both);
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
            break;
        }
        // One write per line: the sockets run without TCP_NODELAY, so a
        // separate write for the newline would sit in Nagle's buffer until
        // the peer's delayed ACK, adding ~40 ms to every forwarded line.
        line.push('\n');
        if to.write_all(line.as_bytes()).is_err() || to.flush().is_err() {
            break;
        }
    }
}

/// One deterministic draw in `[0, CHAOS_DENOM)` from the decision tuple —
/// a splitmix64 finalizer over the mixed inputs, the same generator
/// family the simulator's fault plan uses.
fn draw(seed: u64, job: u64, attempt: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(job.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(attempt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z % CHAOS_DENOM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = ChaosPlan::none();
        assert!(p.is_inert());
        for job in 0..64 {
            for attempt in 1..4 {
                assert!(!p.kills_worker(job, attempt));
                assert!(!p.drops_heartbeat(job, attempt));
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = ChaosPlan { seed: 7, kill_worker: 512, drop_heartbeat: 512, ..ChaosPlan::none() };
        let b = a.clone();
        let draws: Vec<(bool, bool)> =
            (0..256).map(|j| (a.kills_worker(j, 1), a.drops_heartbeat(j, 1))).collect();
        let again: Vec<(bool, bool)> =
            (0..256).map(|j| (b.kills_worker(j, 1), b.drops_heartbeat(j, 1))).collect();
        assert_eq!(draws, again);
        // At rate 512/4096 (1 in 8), 256 pickups should see both outcomes.
        assert!(draws.iter().any(|d| d.0), "some pickups draw a kill");
        assert!(draws.iter().any(|d| !d.0), "most pickups do not");
    }

    #[test]
    fn retried_attempts_draw_fresh_decisions() {
        let p = ChaosPlan { seed: 3, kill_worker: 2048, ..ChaosPlan::none() };
        let flips = (0..512).filter(|&j| p.kills_worker(j, 1) != p.kills_worker(j, 2)).count();
        assert!(flips > 0, "attempt number participates in the draw");
    }

    #[test]
    fn scripted_faults_target_one_exact_pickup() {
        let p = ChaosPlan { kill_at: Some((5, 1)), stall_at: Some((9, 2)), ..ChaosPlan::none() };
        assert!(p.kills_worker(5, 1));
        assert!(!p.kills_worker(5, 2), "retry of the killed job survives");
        assert!(!p.kills_worker(4, 1));
        assert!(p.drops_heartbeat(9, 2));
        assert!(!p.drops_heartbeat(9, 1));
    }

    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// A line-echo upstream for proxy tests; the accept thread is
    /// detached and dies with the process.
    fn echo_upstream() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            while let Ok((sock, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut r = BufReader::new(sock.try_clone().expect("clone"));
                    let mut w = sock;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match r.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                        if w.write_all(line.as_bytes()).is_err() || w.flush().is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn inert_proxy_forwards_lines_untouched() {
        let upstream = echo_upstream();
        let mut proxy = NetProxy::start(&upstream, NetPlan::none()).expect("proxy");
        let mut sock = TcpStream::connect(proxy.addr()).expect("connect");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        // Twenty round trips, each line echoed back intact. The time bound
        // catches a per-line stall (e.g. a newline held back by Nagle
        // until a delayed ACK), which costs ~40 ms per line.
        let start = std::time::Instant::now();
        for i in 0..20 {
            let msg = format!("line-{i}");
            sock.write_all(format!("{msg}\n").as_bytes()).expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("echo");
            assert_eq!(reply, format!("{msg}\n"));
        }
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_millis(500), "20 round trips took {took:?}");
        proxy.stop();
    }

    #[test]
    fn scripted_cut_truncates_mid_line_and_drops_the_link() {
        let upstream = echo_upstream();
        let plan = NetPlan { cut_at: Some((0, 1)), ..NetPlan::none() };
        let proxy = NetProxy::start(&upstream, plan).expect("proxy");
        let mut sock = TcpStream::connect(proxy.addr()).expect("connect");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        sock.write_all(b"first\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("echo");
        assert_eq!(reply, "first\n", "line 0 passes untouched");
        // Line 1 is cut mid-frame: the client sees EOF, never an echo.
        sock.write_all(b"second-line-to-cut\n").expect("send");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("eof");
        assert!(
            !rest.contains(&b'\n'),
            "no complete line crosses a cut link: {:?}",
            String::from_utf8_lossy(&rest)
        );
    }

    #[test]
    fn partition_black_holes_both_directions_without_closing() {
        let upstream = echo_upstream();
        let plan = NetPlan { hold_at: Some((0, 1)), ..NetPlan::none() };
        let proxy = NetProxy::start(&upstream, plan).expect("proxy");
        let mut sock = TcpStream::connect(proxy.addr()).expect("connect");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        sock.write_all(b"first\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("echo");
        assert_eq!(reply, "first\n");
        // From line 1 on the link is partitioned: writes succeed, nothing
        // comes back, and the socket does NOT report EOF — only a timeout
        // can detect it, exactly like a real partition.
        sock.write_all(b"second\n").expect("send");
        sock.set_read_timeout(Some(std::time::Duration::from_millis(200))).expect("timeout");
        let mut buf = [0u8; 16];
        let got = sock.read(&mut buf);
        match got {
            Err(e) => assert!(
                matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                "partition should time out, not fail: {e}"
            ),
            Ok(n) => panic!("partitioned link delivered {n} bytes"),
        }
    }
}
