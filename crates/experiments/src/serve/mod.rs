//! `phast-serve`: a persistent simulation daemon.
//!
//! The batch binary (`phast-experiments`) runs one sweep and exits; this
//! module puts the same engine behind a listener: a daemon that accepts
//! sweep submissions over a TCP JSON-lines protocol and runs each one as
//! a batch [`Sweep`](crate::harness::Sweep) — the same cell grid,
//! journal lifecycle and artifact as `phast-experiments` — streams
//! per-cell progress to watching clients, and drains gracefully on
//! `SIGTERM` with the established exit-code taxonomy.
//!
//! Module map (data flows top to bottom):
//!
//! * [`proto`] — wire protocol: requests/events, compact rendering,
//!   fail-closed parsing;
//! * [`server`] — TCP accept loop, admission control/backpressure, the
//!   sweep threads, artifact index, graceful drain;
//! * [`client`] — the blocking client the CLI, CI, and tests share.
//!
//! Protocol and semantics are specified in `docs/SERVICE.md`.

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{Event, Request, StatusBody};
pub use server::{SchedConfig, ServeConfig, Server};
