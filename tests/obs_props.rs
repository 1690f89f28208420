//! Property checks for the observability layer (`isis-obs`).
//!
//! Uses private [`isis_obs::Obs`] instances rather than the process-wide
//! `isis_obs::global()` so cases don't race with other tests in this
//! binary: the only thread-shared piece is the span stack, which is
//! thread-local and empty again once every guard drops.

use isis_obs::{Body, Histogram, Journal, Json, Obs, Record};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Span trees are well-nested.
// ---------------------------------------------------------------------

const NAMES: [&str; 4] = ["test.a.one", "test.b.two", "test.c.three", "test.d.four"];

/// Drive a random tree of nested spans: each byte either opens a child
/// span (recursing) or closes the current level.
fn nest(obs: &Obs, shape: &[u8], idx: &mut usize, depth: usize) {
    while *idx < shape.len() {
        let b = shape[*idx];
        *idx += 1;
        if b.is_multiple_of(4) || depth >= 8 {
            return;
        }
        let mut span = obs.span(NAMES[b as usize % NAMES.len()]);
        obs.event("test.event", || Json::from(format!("depth {depth}")));
        nest(obs, shape, idx, depth + 1);
        span.field("depth", || Json::from(depth));
    }
}

/// Replay the record stream against an explicit stack: every start's
/// parent must be the span open at that moment, every end must close the
/// innermost open span, every event must belong to it, and nothing may
/// stay open.
fn assert_well_nested(records: &[Record]) {
    let mut stack: Vec<u64> = Vec::new();
    for rec in records {
        let open = stack.last().copied().unwrap_or(0);
        match &rec.body {
            Body::Start { .. } => {
                assert_eq!(
                    rec.span, open,
                    "span {} has parent {} but {open} was open",
                    rec.seq, rec.span
                );
                stack.push(rec.seq);
            }
            Body::End { .. } => {
                assert_eq!(
                    stack.pop(),
                    Some(rec.span),
                    "span end {} out of order",
                    rec.span
                );
            }
            Body::Event { .. } => {
                assert_eq!(rec.span, open, "event attributed to a closed span");
            }
        }
    }
    assert!(stack.is_empty(), "spans left open: {stack:?}");
}

// ---------------------------------------------------------------------
// JSON generation from a byte seed (bounded depth, exact-round-trip
// values only: integers ≤ 2^53 survive the f64 number model losslessly).
// ---------------------------------------------------------------------

const STRINGS: [&str; 6] = [
    "",
    "plain",
    "with \"quotes\"",
    "line\nbreak\ttab",
    "naïve — π",
    "\\back\\slash",
];

fn json_from_seed(bytes: &[u8], idx: &mut usize, depth: usize) -> Json {
    let b = match bytes.get(*idx) {
        Some(b) => *b,
        None => return Json::Null,
    };
    *idx += 1;
    match b % if depth >= 3 { 5 } else { 7 } {
        0 => Json::Null,
        1 => Json::from(b % 2 == 0),
        2 => Json::from(u64::from(b) * 12_345),
        3 => Json::from(-(i64::from(b))),
        4 => Json::from(STRINGS[b as usize % STRINGS.len()]),
        5 => {
            let len = (b % 4) as usize;
            Json::Arr(
                (0..len)
                    .map(|_| json_from_seed(bytes, idx, depth + 1))
                    .collect(),
            )
        }
        _ => {
            let len = (b % 4) as usize;
            Json::Obj(
                (0..len)
                    .map(|k| {
                        (
                            format!("k{k}_{}", STRINGS[(b as usize + k) % STRINGS.len()]),
                            json_from_seed(bytes, idx, depth + 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any interleaving of span opens/closes produces a well-nested journal
    /// with correctly attributed parents and events.
    #[test]
    fn span_trees_are_well_nested(shape in proptest::collection::vec(any::<u8>(), 0..200)) {
        let obs = Obs::new();
        obs.set_tracing(true);
        let mut idx = 0;
        while idx < shape.len() {
            nest(&obs, &shape, &mut idx, 0);
        }
        let snap = obs.journal().snapshot();
        prop_assert_eq!(snap.dropped, 0, "ring evicted records mid-test");
        assert_well_nested(&snap.records);
        for w in snap.records.windows(2) {
            prop_assert!(w[0].seq < w[1].seq, "seq must be strictly increasing");
        }
        // The reassembled tree renders every span exactly once.
        let text = snap.to_text();
        prop_assert!(text.contains(&format!("{} span(s)", snap.span_count())));
    }

    /// Histogram quantiles are upper bounds on the true sample quantiles,
    /// clamped to the exact observed range, and count/sum/min/max are exact.
    #[test]
    fn histogram_quantiles_bound_samples(samples in proptest::collection::vec(0u64..1_000_000_000, 1..300)) {
        let h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        prop_assert_eq!(snap.count, n);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        prop_assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
        for (q, reported) in [(0.50, snap.p50), (0.95, snap.p95), (0.99, snap.p99)] {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let true_q = sorted[rank as usize - 1];
            prop_assert!(
                true_q <= reported && reported <= snap.max,
                "q={q}: true {true_q} reported {reported} max {}", snap.max
            );
        }
    }

    /// The ring never holds more than its capacity; evictions are counted.
    #[test]
    fn ring_is_bounded_and_counts_evictions(cap in 2usize..64, n in 0usize..300) {
        let journal = Journal::with_capacity(cap);
        for i in 0..n {
            let body = match i % 3 {
                0 => Body::Start { name: "test.ring.span" },
                1 => Body::End { name: "test.ring.span", dur_ns: 1, fields: Vec::new() },
                _ => Body::Event { kind: "test.ring.fill", data: Json::from(i) },
            };
            journal.push(i as u64, 0, body);
        }
        let snap = journal.snapshot();
        prop_assert_eq!(snap.capacity, cap);
        prop_assert_eq!(snap.records.len(), n.min(cap));
        prop_assert_eq!(snap.dropped, n.saturating_sub(cap) as u64);
        // Oldest-first eviction: the survivors are the most recent pushes.
        if let Some(first) = snap.records.first() {
            prop_assert_eq!(first.t_ns, n.saturating_sub(cap) as u64);
        }
    }

    /// Arbitrary documents round-trip through the vendored JSON codec, and
    /// serialization is stable across a parse/dump cycle.
    #[test]
    fn json_export_round_trips(seed in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut idx = 0;
        let doc = json_from_seed(&seed, &mut idx, 0);
        let compact = doc.dump();
        let parsed = Json::parse(&compact).expect("dump must parse");
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.dump(), compact);
        // Pretty form parses back to the same document too.
        let pretty = doc.pretty();
        prop_assert_eq!(Json::parse(&pretty).expect("pretty must parse"), doc);
    }

    /// Journal records — spans with arbitrary fields and events with
    /// arbitrary payloads — round-trip through the JSONL export
    /// line-by-line; the ring stays bounded, drops are counted, and
    /// sequence numbers stay strictly monotonic, also across a clear.
    #[test]
    fn journal_round_trips_and_stays_bounded(
        seed in proptest::collection::vec(any::<u8>(), 0..64),
        cap in 2usize..32,
        n in 0usize..100,
    ) {
        let obs = Obs::new();
        obs.set_tracing(true);
        obs.journal().set_capacity(cap);
        const KINDS: [&str; 3] = ["test.journal.commit", "test.journal.ship", "test.journal.slow"];
        let mut pushed = 0usize;
        for i in 0..n {
            let mut idx = i % seed.len().max(1);
            if i % 4 == 0 {
                // A span around the event: a start, the event, an end.
                let mut span = obs.span("test.journal.span");
                obs.event(KINDS[i % KINDS.len()], || json_from_seed(&seed, &mut idx, 0));
                span.field("payload", || json_from_seed(&seed, &mut idx, 0));
                pushed += 3;
            } else {
                obs.event(KINDS[i % KINDS.len()], || json_from_seed(&seed, &mut idx, 0));
                pushed += 1;
            }
        }
        let snap = obs.journal().snapshot();
        prop_assert_eq!(snap.records.len(), pushed.min(cap));
        prop_assert_eq!(snap.dropped, pushed.saturating_sub(cap) as u64);
        for w in snap.records.windows(2) {
            prop_assert!(w[0].seq < w[1].seq, "seq must be strictly increasing");
        }
        let jsonl = snap.to_jsonl();
        prop_assert_eq!(jsonl.lines().count(), snap.records.len());
        for (line, rec) in jsonl.lines().zip(snap.records.iter()) {
            let parsed = Json::parse(line).expect("every JSONL line parses");
            prop_assert_eq!(&parsed, &rec.to_json());
            prop_assert_eq!(parsed.get("seq").unwrap().as_f64(), Some(rec.seq as f64));
            prop_assert_eq!(parsed.get("span").unwrap().as_f64(), Some(rec.span as f64));
            match &rec.body {
                Body::Start { name } => {
                    prop_assert_eq!(parsed.get("start").unwrap().as_str(), Some(*name));
                }
                Body::End { name, fields, .. } => {
                    prop_assert_eq!(parsed.get("end").unwrap().as_str(), Some(*name));
                    let payload = parsed.get("fields").unwrap().get("payload").unwrap();
                    prop_assert_eq!(payload, &fields[0].1);
                }
                Body::Event { kind, data } => {
                    prop_assert_eq!(parsed.get("kind").unwrap().as_str(), Some(*kind));
                    prop_assert_eq!(parsed.get("data").unwrap(), data);
                }
            }
        }
        let doc = Json::parse(&snap.to_json().pretty()).expect("snapshot json parses");
        prop_assert_eq!(doc.get("schema").unwrap().as_str(), Some("isis-obs/2"));
        prop_assert_eq!(
            doc.get("records").unwrap().as_arr().unwrap().len(),
            snap.records.len()
        );
        // Clearing empties the buffer but never reuses sequence numbers.
        let high = snap.records.last().map(|r| r.seq).unwrap_or(0);
        obs.journal().clear();
        obs.event("test.journal.after", || Json::Null);
        let after = obs.journal().snapshot();
        prop_assert_eq!(after.records.len(), 1);
        prop_assert!(after.records[0].seq > high);
    }

    /// A run report from a live instance is always parseable and carries
    /// the metrics that were recorded.
    #[test]
    fn run_report_reflects_recorded_metrics(counts in proptest::collection::vec(1u64..1000, 1..20)) {
        let obs = Obs::new();
        obs.set_tracing(true);
        for (i, &c) in counts.iter().enumerate() {
            obs.count("test.report.hits", c);
            obs.observe("test.report.size", c * (i as u64 + 1));
            let _span = obs.span("test.report.work");
        }
        let report = obs.run_report();
        let parsed = Json::parse(&report.dump()).expect("report parses");
        prop_assert_eq!(parsed.get("schema").unwrap().as_str(), Some("isis-obs/2"));
        let hits = parsed
            .get("metrics").unwrap()
            .get("test.report.hits").unwrap()
            .get("value").unwrap()
            .as_f64().unwrap();
        prop_assert_eq!(hits as u64, counts.iter().sum::<u64>());
        let records = parsed.get("records").unwrap().as_arr().unwrap();
        let spans = records.iter().filter(|r| r.get("start").is_some()).count();
        prop_assert_eq!(spans, counts.len());
    }
}
