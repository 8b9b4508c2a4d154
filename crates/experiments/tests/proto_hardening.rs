//! Property tests for the `phast-serve` wire protocol's worker
//! messages, mirroring the sampling codec's `codec_hardening` suite:
//! encode→decode identity over generated message shapes, duplicate-key
//! rejection (fail-closed — a smuggled second value must never win),
//! unknown-field tolerance (new fields must not strand old daemons),
//! and reserved-value rejection (`proto` versions other than 1, fence
//! 0) at the parse boundary.

use phast_experiments::serve::proto::{
    parse_event, parse_request, render_event, render_request, BeatEntry, Event, GrantCell,
    Request, WORKER_PROTO_VERSION,
};
use proptest::prelude::*;

/// A deliver request with every field populated from the seeds —
/// including a record body holding quotes and braces, so rendering has
/// to escape and parsing has to unescape.
fn deliver(fence: u64, n: u64, with_detail: bool) -> Request {
    Request::Deliver {
        fence,
        status: if n.is_multiple_of(2) { "ok".to_string() } else { "deadline".to_string() },
        detail: with_detail.then(|| format!("wall clock exceeded {n}s \"hard\" cap")),
        record: format!("{{\"workload\":\"w{n}\",\"cycles\":{n}}}"),
        digest: format!("crc32:{:08x}", n as u32),
    }
}

/// A grant cell with the optional watchdog present on odd seeds.
fn cell(fence: u64, n: u64) -> GrantCell {
    GrantCell {
        fence,
        workload: format!("mcf-{n}"),
        predictor: format!("phast-{n}"),
        attempt: n % 5 + 1,
        insts: n.wrapping_mul(1_000) + 1,
        iters: n + 7,
        timeout_ms: (n % 2 == 1).then_some(n * 100),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every worker-side request round-trips the wire bit-exactly.
    #[test]
    fn worker_requests_roundtrip(seed in 0u64..10_000, fence in 1u64..1_000_000) {
        let requests = vec![
            Request::Register { name: format!("box-{seed}") },
            Request::Lease { max: seed % 4096 + 1 },
            Request::Beat {
                beats: (0..seed % 8)
                    .map(|i| BeatEntry { fence: fence + i, progress: seed.wrapping_mul(i + 1) })
                    .collect(),
            },
            deliver(fence, seed, seed % 3 == 0),
        ];
        for req in requests {
            let parsed = parse_request(&render_request(&req));
            prop_assert_eq!(parsed.as_ref(), Ok(&req), "round-trip of {:?}", req);
        }
    }

    /// Every worker-side event round-trips the wire bit-exactly.
    #[test]
    fn worker_events_roundtrip(seed in 0u64..10_000, fence in 1u64..1_000_000) {
        let events = vec![
            Event::Registered { worker: seed },
            Event::Grant { cells: (0..seed % 5).map(|i| cell(fence + i, seed + i)).collect() },
            Event::BeatAck { revoked: (0..seed % 4).map(|i| fence + i).collect() },
            Event::Delivered { fence, fresh: seed % 2 == 0 },
        ];
        for ev in events {
            let parsed = parse_event(&render_event(&ev));
            prop_assert_eq!(parsed.as_ref(), Ok(&ev), "round-trip of {:?}", ev);
        }
    }

    /// A smuggled duplicate key is rejected fail-closed, wherever it
    /// lands: last-writer-wins parsing would let a forged second
    /// `fence` or `digest` override the verified one.
    #[test]
    fn duplicate_keys_are_rejected(fence in 1u64..1_000_000) {
        let line = render_request(&deliver(fence, 3, true));
        for key in ["\"fence\"", "\"status\"", "\"record\"", "\"digest\""] {
            let start = line.find(key).expect("field present");
            // Splice the whole `"key":value` pair in again, just after
            // the opening brace — a syntactically valid duplicate.
            let rest = &line[start..];
            let end = rest
                .char_indices()
                .scan(false, |in_str, (i, c)| {
                    match c {
                        '"' if !*in_str => *in_str = true,
                        '"' if *in_str => *in_str = false,
                        ',' | '}' if !*in_str && i > key.len() => return Some(Some(i)),
                        _ => {}
                    }
                    Some(None)
                })
                .flatten()
                .next()
                .expect("field ends");
            let forged = format!("{{{},{}", &rest[..end], &line[1..]);
            prop_assert!(
                parse_request(&forged).is_err(),
                "duplicate {key} must be rejected: {forged}"
            );
        }
    }

    /// Unknown fields are tolerated on every worker message — a newer
    /// peer adding fields must not strand this parser.
    #[test]
    fn unknown_fields_are_tolerated(fence in 1u64..1_000_000) {
        for line in [
            render_request(&Request::Lease { max: 4 }),
            render_request(&deliver(fence, 1, false)),
            render_event(&Event::Delivered { fence, fresh: true }),
        ] {
            let widened = format!("{{\"future_field\":123,{}", &line[1..]);
            if line.starts_with("{\"op\"") {
                prop_assert!(parse_request(&widened).is_ok(), "request: {widened}");
            } else {
                prop_assert!(parse_event(&widened).is_ok(), "event: {widened}");
            }
        }
    }

    /// `proto` versions other than the supported one are refused at
    /// registration, so an incompatible worker is turned away before it
    /// can lease anything.
    #[test]
    fn unsupported_proto_versions_are_refused(version in 0u64..100) {
        let line = format!(
            "{{\"op\":\"register\",\"name\":\"w\",\"lanes\":2,\"proto\":{version}}}"
        );
        let parsed = parse_request(&line);
        if version == WORKER_PROTO_VERSION {
            prop_assert!(parsed.is_ok());
        } else {
            prop_assert!(parsed.is_err(), "version {version} must be refused");
        }
    }

    /// Fence 0 is reserved (the "no fence" sentinel) and rejected
    /// everywhere a fence crosses the wire.
    #[test]
    fn fence_zero_is_rejected_everywhere(progress in 0u64..1_000_000) {
        let beat = format!(
            "{{\"op\":\"beat\",\"beats\":[{{\"fence\":0,\"progress\":{progress}}}]}}"
        );
        prop_assert!(parse_request(&beat).is_err());
        let deliver = "{\"op\":\"deliver\",\"fence\":0,\"status\":\"ok\",\
             \"record\":\"{}\",\"digest\":\"crc32:00000000\"}";
        prop_assert!(parse_request(deliver).is_err());
        let delivered = "{\"event\":\"delivered\",\"fence\":0,\"fresh\":true}";
        prop_assert!(parse_event(delivered).is_err());
    }
}
