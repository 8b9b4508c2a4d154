//! Property tests for the `phast-serve` wire protocol's sweep messages
//! (`submit`/`fetch` requests, `cell`/`done`/`rejected` events):
//! encode→decode identity over generated message shapes, duplicate-key
//! rejection (fail-closed — a smuggled second value must never win), and
//! unknown-field tolerance (new fields must not strand old daemons).

use phast_experiments::serve::proto::{
    parse_event, parse_request, render_event, render_request, Event, Request,
};
use proptest::prelude::*;

/// A watched submit whose labels hold quotes and backslashes, so
/// rendering has to escape and parsing has to unescape.
fn submit(n: u64) -> Request {
    Request::Submit {
        id: format!("sweep-{n}"),
        kinds: (0..n % 5).map(|i| format!("k{i}\"{n}\\")).collect(),
        budget: if n.is_multiple_of(2) { "quick" } else { "bench" }.to_string(),
        watch: !n.is_multiple_of(3),
    }
}

/// A sweep's final event with every counter populated from the seed.
fn done(n: u64) -> Event {
    Event::Done {
        id: format!("sweep-{n}"),
        digest: format!("crc32:{:08x}", n as u32),
        runs: n % 97,
        degraded: n % 7,
        deadline_runs: n % 3,
        exit: n % 5,
    }
}

/// The `"key":value` pair for `key` in a compact one-line JSON object,
/// with nested arrays and escaped string contents skipped over.
fn pair<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(&format!("\"{key}\":")).expect("field present");
    let value = start + key.len() + 3;
    let (mut in_str, mut escaped, mut depth) = (false, false, 0u32);
    for (i, c) in line[value..].char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str && depth > 0 => depth -= 1,
            ',' | '}' if !in_str => return &line[start..value + i],
            _ => {}
        }
    }
    panic!("field {key} never ends in {line}");
}

/// `line` with the `"key":value` pair spliced in again just after the
/// opening brace — a syntactically valid duplicate.
fn duplicated(line: &str, key: &str) -> String {
    format!("{{{},{}", pair(line, key), &line[1..])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every client request round-trips the wire bit-exactly.
    #[test]
    fn requests_roundtrip(seed in 0u64..10_000) {
        let requests = vec![
            submit(seed),
            Request::Fetch { digest: format!("crc32:{:08x}", seed as u32) },
        ];
        for req in requests {
            let parsed = parse_request(&render_request(&req));
            prop_assert_eq!(parsed.as_ref(), Ok(&req), "round-trip of {:?}", req);
        }
    }

    /// Every sweep event round-trips the wire bit-exactly.
    #[test]
    fn events_roundtrip(seed in 0u64..10_000) {
        let events = vec![
            Event::Cell {
                workload: format!("mcf-{seed}"),
                predictor: format!("phast-{seed}"),
                status: if seed.is_multiple_of(2) { "ok" } else { "deadline" }.to_string(),
                attempts: seed % 5 + 1,
            },
            done(seed),
            Event::Rejected {
                reason: "queue-full".to_string(),
                retry_after_ms: (seed % 2 == 1).then_some(seed * 250),
            },
        ];
        for ev in events {
            let parsed = parse_event(&render_event(&ev));
            prop_assert_eq!(parsed.as_ref(), Ok(&ev), "round-trip of {:?}", ev);
        }
    }

    /// A smuggled duplicate key is rejected fail-closed, wherever it
    /// lands: last-writer-wins parsing would let a forged second `id`,
    /// `digest` or `exit` override the real one.
    #[test]
    fn duplicate_keys_are_rejected(seed in 1u64..10_000) {
        let request = render_request(&submit(seed));
        for key in ["id", "kinds", "budget", "watch"] {
            let forged = duplicated(&request, key);
            prop_assert!(parse_request(&forged).is_err(), "duplicate {key} must be rejected: {forged}");
        }
        let fetch = render_request(&Request::Fetch { digest: format!("crc32:{seed:08x}") });
        let forged = duplicated(&fetch, "digest");
        prop_assert!(parse_request(&forged).is_err(), "duplicate digest must be rejected: {forged}");
        let event = render_event(&done(seed));
        for key in ["id", "digest", "runs", "exit"] {
            let forged = duplicated(&event, key);
            prop_assert!(parse_event(&forged).is_err(), "duplicate {key} must be rejected: {forged}");
        }
    }

    /// Unknown fields are tolerated on every sweep message — a newer
    /// peer adding fields must not strand this parser.
    #[test]
    fn unknown_fields_are_tolerated(seed in 0u64..10_000) {
        let widen = |line: &str| format!("{{\"future_field\":[1,{{\"x\":2}}],{}", &line[1..]);
        let req = submit(seed);
        let widened = widen(&render_request(&req));
        let parsed = parse_request(&widened);
        prop_assert_eq!(parsed.as_ref(), Ok(&req), "request: {}", widened);
        let events = vec![
            done(seed),
            Event::Rejected { reason: "draining".to_string(), retry_after_ms: None },
        ];
        for ev in events {
            let widened = widen(&render_event(&ev));
            let parsed = parse_event(&widened);
            prop_assert_eq!(parsed.as_ref(), Ok(&ev), "event: {}", widened);
        }
    }
}
