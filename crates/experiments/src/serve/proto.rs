//! The `phast-serve` wire protocol: JSON-lines over TCP.
//!
//! One request object per line from the client, one event object per
//! line from the daemon. Requests carry an `"op"` discriminant, events
//! an `"event"` discriminant; unknown fields are ignored (forward
//! compatibility) but unknown discriminants, malformed JSON, and
//! duplicate object keys are rejected fail-closed by the hardened
//! [`crate::jsonio`] parser. Requests and events hold only integers,
//! bools and strings, so they render with [`JsonValue::render_compact`],
//! the journal's writer.
//!
//! The full protocol specification (state machines, backpressure, drain
//! semantics, exit codes) lives in `docs/SERVICE.md`.

use crate::artifact::JsonValue;
use crate::harness::Budget;
use crate::jsonio::{self, req_str, req_u64};
use std::io::BufRead;

/// Cap on one request line read by the daemon. Requests are small —
/// the largest (a [`Request::Submit`] naming a sweep's predictor labels)
/// is well under a kilobyte — so anything near this cap is an attack or
/// a corrupted peer, and the connection is dropped fail-closed rather
/// than growing an unbounded `String`.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Cap on one event line read by a client. Events include
/// [`Event::Artifact`] bodies (a full-tier artifact is a few hundred
/// KiB), so the ceiling is generous — but still a ceiling.
pub const MAX_EVENT_LINE: usize = 16 * 1024 * 1024;

/// A client request, one per line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Daemon health and artifact index snapshot.
    Status,
    /// Submit a sweep.
    Submit {
        /// Artifact id (`BENCH_<id>.json`). Not part of any journal key:
        /// a cell journaled under one id replays under every other.
        id: String,
        /// Predictor labels ([`crate::predictors::PredictorKind::from_label`]).
        kinds: Vec<String>,
        /// Budget tier name (`full`, `quick`, `bench`).
        budget: String,
        /// Stream per-cell [`Event::Cell`] progress events before the
        /// final [`Event::Done`]. Without it the daemon replies
        /// [`Event::Accepted`] and runs the sweep fire-and-forget.
        watch: bool,
    },
    /// Retrieve a finished artifact body by its integrity digest.
    Fetch {
        /// The `crc32:xxxxxxxx` digest [`Event::Done`] reported.
        digest: String,
    },
    /// Begin a graceful drain: stop admitting, finish in-flight sweeps,
    /// exit.
    Shutdown,
}

/// A daemon event, one per line.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Reply to [`Request::Ping`].
    Pong {
        /// Worker threads a sweep fans its cells across.
        workers: u64,
    },
    /// Reply to [`Request::Status`].
    Status(StatusBody),
    /// The sweep was admitted.
    Accepted {
        /// Sweep id.
        id: String,
        /// Cells scheduled live.
        cells: u64,
        /// Cells replayed verbatim from the daemon journal.
        replayed: u64,
    },
    /// The sweep was refused; resubmit after `retry_after_ms` if given.
    Rejected {
        /// `"queue-full"` (backpressure) or `"draining"` (shutdown).
        reason: String,
        /// Suggested client backoff; absent when retrying is pointless
        /// (the daemon is exiting).
        retry_after_ms: Option<u64>,
    },
    /// One cell of a watched sweep delivered.
    Cell {
        /// Workload label.
        workload: String,
        /// Predictor label.
        predictor: String,
        /// `"ok"` or the failure kind.
        status: String,
        /// Always 1, since a cell runs once; the field stays in the wire
        /// format, which the benchmark package's daemon loop reads.
        attempts: u64,
    },
    /// A watched sweep finished.
    Done {
        /// Sweep id.
        id: String,
        /// Artifact integrity digest — the key for [`Request::Fetch`].
        digest: String,
        /// Total runs in the artifact.
        runs: u64,
        /// Degraded runs.
        degraded: u64,
        /// Runs cut off by the per-run watchdog.
        deadline_runs: u64,
        /// Exit-taxonomy verdict for this sweep.
        exit: u64,
    },
    /// Reply to [`Request::Fetch`]: the sealed artifact body.
    Artifact {
        /// Integrity digest of `body`.
        digest: String,
        /// The full `BENCH_<id>.json` text (digest field included).
        body: String,
    },
    /// The request could not be served.
    Error {
        /// What went wrong.
        reason: String,
    },
    /// Reply to [`Request::Shutdown`]: the drain has begun.
    Draining,
}

/// The [`Event::Status`] payload. Lines from older daemons that also
/// carry lease counters (`reclaimed`, `lost`, `respawns`) still parse:
/// unknown fields are ignored.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatusBody {
    /// Worker threads a sweep fans its cells across.
    pub workers: u64,
    /// Live cells admitted but not started.
    pub queue_depth: u64,
    /// Live cells admitted but not delivered.
    pub outstanding: u64,
    /// Sweeps admitted and not yet finished.
    pub active_sweeps: u64,
    /// True once a graceful drain has begun.
    pub draining: bool,
    /// Finished artifacts: `(id, digest)`, oldest first.
    pub artifacts: Vec<(String, String)>,
}

/// Resolves a budget tier name from [`Request::Submit`].
pub fn parse_budget(name: &str) -> Option<Budget> {
    match name {
        "full" => Some(Budget::full()),
        "quick" => Some(Budget::quick()),
        "bench" => Some(Budget::bench()),
        _ => None,
    }
}

/// Renders a request as one compact JSON line (no trailing newline).
pub fn render_request(req: &Request) -> String {
    let v = match req {
        Request::Ping => JsonValue::obj(vec![("op", s("ping"))]),
        Request::Status => JsonValue::obj(vec![("op", s("status"))]),
        Request::Submit { id, kinds, budget, watch } => JsonValue::obj(vec![
            ("op", s("submit")),
            ("id", s(id)),
            ("kinds", JsonValue::Array(kinds.iter().map(|k| s(k)).collect())),
            ("budget", s(budget)),
            ("watch", JsonValue::Bool(*watch)),
        ]),
        Request::Fetch { digest } => {
            JsonValue::obj(vec![("op", s("fetch")), ("digest", s(digest))])
        }
        Request::Shutdown => JsonValue::obj(vec![("op", s("shutdown"))]),
    };
    v.render_compact()
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable reason: malformed JSON (including duplicate keys),
/// missing/mistyped fields, or an unknown `op`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = jsonio::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let op = v.get("op").and_then(JsonValue::as_str).ok_or("request has no 'op'")?;
    match op {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "submit" => {
            let id = req_str(&v, "id")?;
            let kinds = v
                .get("kinds")
                .and_then(JsonValue::as_array)
                .ok_or("submit has no 'kinds' array")?
                .iter()
                .map(|k| k.as_str().map(str::to_string).ok_or("non-string kind"))
                .collect::<Result<Vec<String>, _>>()?;
            let budget = req_str(&v, "budget")?;
            let watch = v.get("watch").and_then(JsonValue::as_bool).unwrap_or(false);
            Ok(Request::Submit { id, kinds, budget, watch })
        }
        "fetch" => Ok(Request::Fetch { digest: req_str(&v, "digest")? }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Renders an event as one compact JSON line (no trailing newline).
pub fn render_event(ev: &Event) -> String {
    let v = match ev {
        Event::Pong { workers } => {
            JsonValue::obj(vec![("event", s("pong")), ("workers", JsonValue::UInt(*workers))])
        }
        Event::Status(b) => JsonValue::obj(vec![
            ("event", s("status")),
            ("workers", JsonValue::UInt(b.workers)),
            ("queue_depth", JsonValue::UInt(b.queue_depth)),
            ("outstanding", JsonValue::UInt(b.outstanding)),
            ("active_sweeps", JsonValue::UInt(b.active_sweeps)),
            ("draining", JsonValue::Bool(b.draining)),
            (
                "artifacts",
                JsonValue::Array(
                    b.artifacts
                        .iter()
                        .map(|(id, digest)| {
                            JsonValue::obj(vec![("id", s(id)), ("digest", s(digest))])
                        })
                        .collect(),
                ),
            ),
        ]),
        Event::Accepted { id, cells, replayed } => JsonValue::obj(vec![
            ("event", s("accepted")),
            ("id", s(id)),
            ("cells", JsonValue::UInt(*cells)),
            ("replayed", JsonValue::UInt(*replayed)),
        ]),
        Event::Rejected { reason, retry_after_ms } => {
            let mut fields = vec![("event", s("rejected")), ("reason", s(reason))];
            if let Some(ms) = retry_after_ms {
                fields.push(("retry_after_ms", JsonValue::UInt(*ms)));
            }
            JsonValue::obj(fields)
        }
        Event::Cell { workload, predictor, status, attempts } => JsonValue::obj(vec![
            ("event", s("cell")),
            ("workload", s(workload)),
            ("predictor", s(predictor)),
            ("status", s(status)),
            ("attempts", JsonValue::UInt(*attempts)),
        ]),
        Event::Done { id, digest, runs, degraded, deadline_runs, exit } => JsonValue::obj(vec![
            ("event", s("done")),
            ("id", s(id)),
            ("digest", s(digest)),
            ("runs", JsonValue::UInt(*runs)),
            ("degraded", JsonValue::UInt(*degraded)),
            ("deadline_runs", JsonValue::UInt(*deadline_runs)),
            ("exit", JsonValue::UInt(*exit)),
        ]),
        Event::Artifact { digest, body } => JsonValue::obj(vec![
            ("event", s("artifact")),
            ("digest", s(digest)),
            ("body", s(body)),
        ]),
        Event::Error { reason } => {
            JsonValue::obj(vec![("event", s("error")), ("reason", s(reason))])
        }
        Event::Draining => JsonValue::obj(vec![("event", s("draining"))]),
    };
    v.render_compact()
}

/// Parses one event line (the client side of the wire).
///
/// # Errors
///
/// A human-readable reason, as for [`parse_request`].
pub fn parse_event(line: &str) -> Result<Event, String> {
    let v = jsonio::parse(line).map_err(|e| format!("malformed event: {e}"))?;
    let event = v.get("event").and_then(JsonValue::as_str).ok_or("event has no 'event'")?;
    match event {
        "pong" => Ok(Event::Pong { workers: req_u64(&v, "workers")? }),
        "status" => {
            let artifacts = v
                .get("artifacts")
                .and_then(JsonValue::as_array)
                .ok_or("status has no 'artifacts'")?
                .iter()
                .map(|a| {
                    let id = a.get("id").and_then(JsonValue::as_str).ok_or("artifact sans id")?;
                    let digest =
                        a.get("digest").and_then(JsonValue::as_str).ok_or("artifact sans digest")?;
                    Ok((id.to_string(), digest.to_string()))
                })
                .collect::<Result<Vec<_>, &str>>()?;
            Ok(Event::Status(StatusBody {
                workers: req_u64(&v, "workers")?,
                queue_depth: req_u64(&v, "queue_depth")?,
                outstanding: req_u64(&v, "outstanding")?,
                active_sweeps: req_u64(&v, "active_sweeps")?,
                draining: v.get("draining").and_then(JsonValue::as_bool).unwrap_or(false),
                artifacts,
            }))
        }
        "accepted" => Ok(Event::Accepted {
            id: req_str(&v, "id")?,
            cells: req_u64(&v, "cells")?,
            replayed: req_u64(&v, "replayed")?,
        }),
        "rejected" => Ok(Event::Rejected {
            reason: req_str(&v, "reason")?,
            retry_after_ms: v.get("retry_after_ms").and_then(JsonValue::as_u64),
        }),
        "cell" => Ok(Event::Cell {
            workload: req_str(&v, "workload")?,
            predictor: req_str(&v, "predictor")?,
            status: req_str(&v, "status")?,
            attempts: req_u64(&v, "attempts")?,
        }),
        "done" => Ok(Event::Done {
            id: req_str(&v, "id")?,
            digest: req_str(&v, "digest")?,
            runs: req_u64(&v, "runs")?,
            degraded: req_u64(&v, "degraded")?,
            deadline_runs: req_u64(&v, "deadline_runs")?,
            exit: req_u64(&v, "exit")?,
        }),
        "artifact" => Ok(Event::Artifact {
            digest: req_str(&v, "digest")?,
            body: req_str(&v, "body")?,
        }),
        "error" => Ok(Event::Error { reason: req_str(&v, "reason")? }),
        "draining" => Ok(Event::Draining),
        other => Err(format!("unknown event '{other}'")),
    }
}

/// A defect while reading one line off the wire.
#[derive(Debug)]
pub enum WireError {
    /// The peer sent a line longer than `cap` bytes. Fail closed: the
    /// caller must drop the connection — the rest of the stream cannot
    /// be trusted once framing is abandoned mid-line.
    TooLong {
        /// The cap that was exceeded.
        cap: usize,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooLong { cap } => write!(f, "line exceeds the {cap}-byte wire cap"),
            WireError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> std::io::Error {
        match e {
            WireError::Io(io) => io,
            too_long => std::io::Error::new(std::io::ErrorKind::InvalidData, too_long.to_string()),
        }
    }
}

/// Reads one `\n`-terminated line into `buf` (newline excluded),
/// refusing to buffer more than `cap` bytes, so a peer that never
/// sends a newline cannot make the daemon allocate without bound.
/// Returns the bytes consumed; 0 means EOF.
///
/// # Errors
///
/// [`WireError::TooLong`] once more than `cap` bytes arrive without a
/// newline (the line is abandoned — callers drop the connection), or
/// [`WireError::Io`] for transport and UTF-8 failures.
pub fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut String,
    cap: usize,
) -> Result<usize, WireError> {
    buf.clear();
    let mut taken = Vec::new();
    let mut consumed_total = 0usize;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A partial unterminated line is surfaced as data so
            // short test transcripts (no trailing newline) still parse;
            // parse errors catch genuine truncation.
            break;
        }
        let upto = chunk.iter().position(|&b| b == b'\n');
        let end = upto.unwrap_or(chunk.len());
        if taken.len() + end > cap {
            // Consume nothing further; the caller abandons the stream.
            return Err(WireError::TooLong { cap });
        }
        taken.extend_from_slice(&chunk[..end]);
        let consumed = end + usize::from(upto.is_some());
        reader.consume(consumed);
        consumed_total += consumed;
        if upto.is_some() {
            break;
        }
    }
    if consumed_total == 0 {
        return Ok(0);
    }
    let text = String::from_utf8(taken).map_err(|_| {
        WireError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 wire line"))
    })?;
    buf.push_str(&text);
    Ok(consumed_total)
}

fn s(text: &str) -> JsonValue {
    JsonValue::Str(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_the_wire() {
        let reqs = vec![
            Request::Ping,
            Request::Status,
            Request::Submit {
                id: "quick".into(),
                kinds: vec!["blind".into(), "phast-8s".into()],
                budget: "bench".into(),
                watch: true,
            },
            Request::Fetch { digest: "crc32:deadbeef".into() },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = render_request(&req);
            assert!(!line.contains('\n'), "one line per request: {line}");
            assert_eq!(parse_request(&line).expect("parses"), req);
        }
    }

    #[test]
    fn events_roundtrip_the_wire() {
        let events = vec![
            Event::Pong { workers: 8 },
            Event::Status(StatusBody {
                workers: 8,
                queue_depth: 3,
                outstanding: 5,
                active_sweeps: 1,
                draining: false,
                artifacts: vec![("quick".into(), "crc32:00000001".into())],
            }),
            Event::Accepted { id: "quick".into(), cells: 12, replayed: 4 },
            Event::Rejected { reason: "queue-full".into(), retry_after_ms: Some(250) },
            Event::Rejected { reason: "draining".into(), retry_after_ms: None },
            Event::Cell {
                workload: "mcf".into(),
                predictor: "phast".into(),
                status: "ok".into(),
                attempts: 2,
            },
            Event::Done {
                id: "quick".into(),
                digest: "crc32:deadbeef".into(),
                runs: 12,
                degraded: 1,
                deadline_runs: 0,
                exit: 1,
            },
            Event::Artifact {
                digest: "crc32:deadbeef".into(),
                body: "{\n  \"id\": \"quick\"\n}\n".into(),
            },
            Event::Error { reason: "unknown op 'frob'".into() },
            Event::Draining,
        ];
        for ev in events {
            let line = render_event(&ev);
            assert!(!line.contains('\n'), "one line per event: {line}");
            assert_eq!(parse_event(&line).expect("parses"), ev);
        }
    }

    #[test]
    fn malformed_and_unknown_inputs_are_rejected() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"frobnicate\"}").unwrap_err().contains("unknown op"));
        assert!(parse_request("{}").is_err());
        // Duplicate keys are refused by the hardened parser, not
        // last-writer-wins resolved.
        let dup = "{\"op\":\"ping\",\"op\":\"shutdown\"}";
        assert!(parse_request(dup).unwrap_err().contains("duplicate"));
        assert!(parse_event("{\"event\":\"warp\"}").unwrap_err().contains("unknown event"));
        assert!(parse_event("{\"event\":\"pong\"}").unwrap_err().contains("workers"));
    }

    #[test]
    fn retired_worker_ops_are_unknown() {
        for op in ["register", "lease", "beat", "deliver"] {
            let line = format!("{{\"op\":\"{op}\",\"name\":\"w\",\"proto\":1,\"max\":1}}");
            let err = parse_request(&line).unwrap_err();
            assert!(err.contains("unknown op"), "{op}: {err}");
        }
    }

    #[test]
    fn older_daemon_status_with_lease_and_remote_fields_still_parses() {
        let line = "{\"event\":\"status\",\"workers\":2,\"queue_depth\":0,\"outstanding\":0,\
                    \"active_sweeps\":0,\"draining\":false,\"reclaimed\":1,\"lost\":0,\
                    \"respawns\":1,\"remote_workers\":1,\"remote_delivered\":7,\
                    \"remote_stale\":1,\"artifacts\":[]}";
        let expected = StatusBody { workers: 2, ..StatusBody::default() };
        assert_eq!(parse_event(line), Ok(Event::Status(expected)));
    }

    #[test]
    fn capped_reader_defuses_length_bombs() {
        use std::io::BufReader;
        let mut buf = String::new();

        // An oversized line errors without consuming the stream into an
        // unbounded allocation.
        let bomb = format!("{}\n", "x".repeat(1000));
        let mut r = BufReader::new(bomb.as_bytes());
        match read_line_capped(&mut r, &mut buf, 64) {
            Err(WireError::TooLong { cap: 64 }) => {}
            other => panic!("expected TooLong, got {other:?}"),
        }

        // A line exactly at the cap passes.
        let fits = format!("{}\n", "y".repeat(64));
        let mut r = BufReader::new(fits.as_bytes());
        assert_eq!(read_line_capped(&mut r, &mut buf, 64).expect("fits"), 65);
        assert_eq!(buf.len(), 64);

        // Empty lines are consumed (not mistaken for EOF), then EOF is 0.
        let mut r = BufReader::new("\nping\n".as_bytes());
        assert_eq!(read_line_capped(&mut r, &mut buf, 64).expect("blank"), 1);
        assert!(buf.is_empty());
        assert_eq!(read_line_capped(&mut r, &mut buf, 64).expect("line"), 5);
        assert_eq!(buf, "ping");
        assert_eq!(read_line_capped(&mut r, &mut buf, 64).expect("eof"), 0);

        // Invalid UTF-8 is a typed error, not a panic.
        let mut r = BufReader::new(&[0xffu8, 0xfe, b'\n'][..]);
        assert!(read_line_capped(&mut r, &mut buf, 64).is_err());
    }

    #[test]
    fn budget_tiers_resolve_by_name() {
        assert_eq!(parse_budget("quick").map(|b| b.insts), Some(Budget::quick().insts));
        assert_eq!(parse_budget("bench").map(|b| b.insts), Some(Budget::bench().insts));
        assert_eq!(parse_budget("full").map(|b| b.insts), Some(Budget::full().insts));
        // The daemon runs every grid in full detail, so the sampled
        // horizon is no tier of it.
        assert!(parse_budget("sampled").is_none());
        assert!(parse_budget("lavish").is_none());
    }
}
