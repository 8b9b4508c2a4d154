//! The `serve_loopback` workload: an in-process daemon with one
//! scheduler worker, driven by one client in a closed loop. Each round
//! submits the `detail_fig15` grid (`quick`, ideal + the five headline
//! predictors) with `watch`, reads events until `done`, then fetches the
//! artifact.

use crate::grid;
use phast_experiments::artifact::{JsonValue, SweepArtifact};
use phast_experiments::serve::{Client, Event, Request, SchedConfig, ServeConfig, Server};
use phast_experiments::{jsonio, Budget, Sweep};
use std::path::Path;
use std::time::Instant;

/// A running daemon plus the client connected to it.
pub struct Loopback {
    server: Server,
    client: Client,
    labels: Vec<String>,
}

/// What one round measured, in seconds of the clock the round ran under.
pub struct Round {
    /// Submit → `done`.
    pub sweep_s: f64,
    /// Submit → first `cell` event.
    pub first_cell_s: f64,
    /// Gaps between consecutive `cell` events.
    pub gaps: Vec<f64>,
    /// The `fetch` round trip.
    pub fetch_s: f64,
    /// `cell` events received.
    pub cells: u64,
    /// Attempts beyond the first, over all cells.
    pub extra_attempts: u64,
    /// Σ cell `wall_s` in the fetched artifact.
    pub wall_sum_s: f64,
    /// Σ committed instructions in the fetched artifact.
    pub committed: u64,
    /// Deterministic fields per cell, in artifact order.
    pub keys: Vec<String>,
    /// Cells that did not finish `ok`.
    pub failed: u64,
    /// Whether the fetched body and the written file verify.
    pub artifact_ok: bool,
}

/// The fields the daemon's artifact must share with `detail_fig15`.
fn key_of(run: &JsonValue) -> String {
    let f = |k: &str| run.get(k).map(|v| v.render_compact()).unwrap_or_default();
    format!(
        "{}|{}|cycles={}|committed={}|ipc={}|vmpki={}|fmpki={}|sig={}",
        f("workload"),
        f("predictor"),
        f("cycles"),
        f("committed"),
        f("ipc"),
        f("violation_mpki"),
        f("false_dep_mpki"),
        f("workload_signature")
    )
}

impl Loopback {
    /// Starts the daemon on 127.0.0.1:0 with one worker and connects.
    /// The connection is not yet accepted: the daemon's accept loop
    /// polls, so the first request pays that latency (see [`Loopback::ping`]).
    pub fn start(out: &Path) -> Loopback {
        std::fs::create_dir_all(out).expect("output directory is writable");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            sched: SchedConfig {
                workers: 1,
                lanes: 1,
                ..SchedConfig::default()
            },
            json_dir: Some(out.to_path_buf()),
            ..ServeConfig::default()
        })
        .expect("loopback bind");
        let client = Client::connect(server.local_addr()).expect("loopback connect");
        let labels = grid::kinds().iter().map(|k| k.label()).collect();
        Loopback {
            server,
            client,
            labels,
        }
    }

    /// Checks that the daemon answers on the client's connection.
    pub fn ping(&mut self) {
        match self.client.request(&Request::Ping).expect("ping") {
            Event::Pong { .. } => {}
            other => panic!("unexpected reply to ping: {other:?}"),
        }
    }

    /// Host seconds to open one more connection and get a `pong`.
    pub fn accept_s(&self) -> f64 {
        let t = Instant::now();
        let mut c = Client::connect(self.server.local_addr()).expect("loopback connect");
        c.request(&Request::Ping).expect("ping");
        t.elapsed().as_secs_f64()
    }

    /// One closed-loop round under sweep id `id`, timed by `now` (seconds
    /// from any origin).
    pub fn round(&mut self, id: &str, out: &Path, now: &dyn Fn() -> f64) -> Round {
        let labels: Vec<&str> = self.labels.iter().map(String::as_str).collect();
        let t0 = now();
        match self
            .client
            .submit_watch(id, &labels, "quick")
            .expect("submit")
        {
            Event::Accepted { .. } => {}
            other => panic!("submission refused: {other:?}"),
        }
        let (mut first, mut last) = (None, t0);
        let (mut gaps, mut cells, mut extra_attempts, mut failed) = (Vec::new(), 0, 0, 0);
        let digest = loop {
            match self.client.recv().expect("event stream") {
                Event::Cell {
                    status, attempts, ..
                } => {
                    let t = now();
                    match first {
                        None => first = Some(t - t0),
                        Some(_) => gaps.push(t - last),
                    }
                    last = t;
                    cells += 1;
                    extra_attempts += attempts.saturating_sub(1);
                    failed += u64::from(status != "ok");
                }
                Event::Done { digest, .. } => break digest,
                other => panic!("unexpected event: {other:?}"),
            }
        };
        let sweep_s = now() - t0;
        let t1 = now();
        let body = self.client.fetch(&digest).expect("fetch");
        let fetch_s = now() - t1;
        let written = out.join(format!("BENCH_{id}.json"));
        let artifact_ok = SweepArtifact::verify_json(&body).is_ok()
            && SweepArtifact::verify_file(&written).is_ok();
        let doc = jsonio::parse(&body).expect("artifact parses");
        let runs = doc.get("runs").and_then(JsonValue::as_array).unwrap_or(&[]);
        Round {
            sweep_s,
            first_cell_s: first.unwrap_or(sweep_s),
            gaps,
            fetch_s,
            cells,
            extra_attempts,
            wall_sum_s: runs.iter().filter_map(|r| r.get("wall_s")?.as_f64()).sum(),
            committed: runs
                .iter()
                .filter_map(|r| r.get("committed")?.as_u64())
                .sum(),
            keys: runs.iter().map(key_of).collect(),
            failed,
            artifact_ok,
        }
    }

    /// Drains the daemon and returns its exit code.
    pub fn shutdown(mut self) -> i32 {
        match self.client.request(&Request::Shutdown).expect("shutdown") {
            Event::Draining => {}
            other => panic!("unexpected reply to shutdown: {other:?}"),
        }
        drop(self.client);
        self.server.join()
    }
}

/// The `detail_fig15` cells' deterministic fields, from a serial batch
/// sweep of the same grid: the reference every round must reproduce.
pub fn reference_keys() -> Vec<String> {
    let budget = Budget::quick();
    let sweep = Sweep::serial();
    let t = Instant::now();
    phast_experiments::figures::fig15::run(&sweep, &budget);
    let doc = jsonio::parse(&sweep.artifact("fig15", &budget, t.elapsed()).to_json())
        .expect("artifact parses");
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(key_of)
        .collect()
}
