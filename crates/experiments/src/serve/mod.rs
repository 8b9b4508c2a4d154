//! `phast-serve`: a persistent, fault-tolerant simulation daemon.
//!
//! The batch binary (`phast-experiments`) runs one sweep and exits; this
//! module turns the same engine into a **service**: a daemon that
//! accepts sweep submissions over a TCP JSON-lines protocol, executes
//! them on a persistent [work-stealing scheduler](sched) whose every job
//! runs under a [lease](lease) with a progress heartbeat, survives
//! worker death and wedged runs by reclaiming leases and retrying with
//! the established reseed policy, journals everything write-ahead so the
//! merged artifacts stay byte-identical to a batch run's, and drains
//! gracefully on `SIGTERM` with the established exit-code taxonomy.
//!
//! Module map (data flows top to bottom):
//!
//! * [`proto`] — wire protocol: requests/events, checked rendering,
//!   fail-closed parsing;
//! * [`server`] — TCP accept loop, admission control/backpressure,
//!   artifact index, graceful drain;
//! * [`runner`] — sweep ↔ scheduler adapter: cells out, journal lines
//!   and sealed artifacts in;
//! * [`sched`] — persistent workers, per-worker deques with stealing,
//!   park/unpark, the housekeeping thread;
//! * [`lease`] — the lease table: progress heartbeats, stall detection,
//!   at-most-once delivery;
//! * [`chaos`] — seeded service-layer fault injection (worker kills,
//!   heartbeat loss) driving the chaos tests;
//! * [`client`] — the blocking client the CLI, CI, and tests share.
//!
//! Protocol and semantics are specified in `docs/SERVICE.md`.

pub mod chaos;
pub mod client;
pub mod lease;
pub mod proto;
pub mod runner;
pub mod sched;
pub mod server;

pub use chaos::ChaosPlan;
pub use client::Client;
pub use lease::{LeaseConfig, LeaseTable};
pub use proto::{Event, Request, StatusBody};
pub use runner::{submit_sweep, SweepOutcome, SweepRun, SweepSpec};
pub use sched::{BatchHandle, JobCtx, JobSpec, SchedConfig, SchedStats, Scheduler, SubmitError};
pub use server::{ServeConfig, Server};
