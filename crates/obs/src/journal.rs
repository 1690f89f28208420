//! The journal: the one bounded ring of everything `isis-obs` records
//! beyond the metrics registry.
//!
//! A [`Record`] is a span opening or closing, or a structured decision
//! event (`{kind, data}`: a commit outcome, a shipping round, a slow
//! query, an explain capture). All three share one ring, one capacity,
//! one drop count and one sequence, and every record carries the id of
//! the innermost span open on its thread when it was made — the parent
//! for a span start, the closing span itself for a span end — so a
//! snapshot reassembles the call tree with each event under the span it
//! happened in. A span's id is the sequence number of its start record.
//!
//! The ring is bounded: when full, the **oldest** record is dropped and
//! counted, so a long session keeps its most recent history in constant
//! memory. Clearing empties the ring but never rewinds the sequence.
//!
//! The journal itself is clock-free; [`crate::Obs`] stamps records with
//! nanoseconds since its construction. A snapshot exports three ways
//! under one schema (`isis-obs/2`): an indented text tree, one JSON
//! document, and JSONL — one record object per line.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Mutex;

use crate::json::Json;

/// The schema every journal and run-report export carries.
pub const SCHEMA: &str = "isis-obs/2";

/// Default ring capacity in records (a traced span is two records).
pub const DEFAULT_CAPACITY: usize = 4096;

/// What one journal record says.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A span opened; its id is the record's `seq`.
    Start {
        /// Span name (`crate.component.event`).
        name: &'static str,
    },
    /// The span `Record::span` closed.
    End {
        /// Span name, repeated so an end whose start was evicted still reads.
        name: &'static str,
        /// Wall-clock duration of the span in nanoseconds.
        dur_ns: u64,
        /// Structured fields the span attached while it was open.
        fields: Vec<(&'static str, Json)>,
    },
    /// A structured decision event.
    Event {
        /// Event kind (`crate.component.event`, e.g. `core.mvcc.commit`).
        kind: &'static str,
        /// Structured payload; its shape is the event kind's contract.
        data: Json,
    },
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Sequence number: strictly increasing, never reused, not reset by a
    /// clear.
    pub seq: u64,
    /// Nanoseconds since the owning [`crate::Obs`] epoch.
    pub t_ns: u64,
    /// The innermost open span (0 for none): the parent of a start, the
    /// closing span of an end, the enclosing span of an event.
    pub span: u64,
    /// What happened.
    pub body: Body,
}

impl Record {
    /// The event kind and payload, when this record is an event.
    pub fn event(&self) -> Option<(&'static str, &Json)> {
        match &self.body {
            Body::Event { kind, data } => Some((kind, data)),
            _ => None,
        }
    }

    /// The record as one JSON object — the JSONL line format:
    /// `{seq, t_ns, span}` plus `start`, or `end`/`dur_ns`/`fields`, or
    /// `kind`/`data`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", Json::from(self.seq)),
            ("t_ns", Json::from(self.t_ns)),
            ("span", Json::from(self.span)),
        ];
        match &self.body {
            Body::Start { name } => pairs.push(("start", Json::from(*name))),
            Body::End {
                name,
                dur_ns,
                fields,
            } => {
                pairs.push(("end", Json::from(*name)));
                pairs.push(("dur_ns", Json::from(*dur_ns)));
                if !fields.is_empty() {
                    pairs.push(("fields", Json::obj(fields.iter().cloned())));
                }
            }
            Body::Event { kind, data } => {
                pairs.push(("kind", Json::from(*kind)));
                pairs.push(("data", data.clone()));
            }
        }
        Json::obj(pairs)
    }
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Record>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

/// The bounded journal. See the module docs for semantics.
#[derive(Debug)]
pub struct Journal {
    ring: Mutex<Ring>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// A journal whose ring holds at most `cap` records (min 1).
    pub fn with_capacity(cap: usize) -> Journal {
        Journal {
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
                next_seq: 1,
            }),
        }
    }

    /// The ring, also after a panic elsewhere poisoned the lock: every
    /// update leaves it valid, and span guards push from `Drop`, which
    /// must not panic.
    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append a record, evicting the oldest if the ring is full. Returns
    /// the sequence number assigned (never 0).
    pub fn push(&self, t_ns: u64, span: u64, body: Body) -> u64 {
        let mut ring = self.ring();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(Record {
            seq,
            t_ns,
            span,
            body,
        });
        seq
    }

    /// Discard all records and the drop count (capacity and the sequence
    /// are kept).
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.buf.clear();
        ring.dropped = 0;
    }

    /// Change the capacity, evicting the oldest records if shrinking.
    pub fn set_capacity(&self, cap: usize) {
        let mut ring = self.ring();
        ring.cap = cap.max(1);
        while ring.buf.len() > ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
    }

    /// Copy out the current contents.
    pub fn snapshot(&self) -> JournalSnapshot {
        let ring = self.ring();
        JournalSnapshot {
            records: ring.buf.iter().cloned().collect(),
            dropped: ring.dropped,
            capacity: ring.cap,
        }
    }
}

/// A copied-out view of the journal, ready for filtering and export.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSnapshot {
    /// Records oldest-first.
    pub records: Vec<Record>,
    /// Records evicted since the last [`Journal::clear`].
    pub dropped: u64,
    /// Ring capacity at snapshot time.
    pub capacity: usize,
}

impl JournalSnapshot {
    /// The snapshot restricted to the records `keep` accepts; the drop
    /// count and capacity are the whole journal's.
    pub fn filter(mut self, keep: impl FnMut(&Record) -> bool) -> JournalSnapshot {
        self.records.retain(keep);
        self
    }

    /// The events of `kind`, oldest first.
    pub fn events_of<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = (&'a Record, &'a Json)> {
        self.records.iter().filter_map(move |r| match r.event() {
            Some((k, data)) if k == kind => Some((r, data)),
            _ => None,
        })
    }

    /// Number of span-start records.
    pub fn span_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.body, Body::Start { .. }))
            .count()
    }

    /// Number of event records.
    pub fn event_count(&self) -> usize {
        self.records.iter().filter(|r| r.event().is_some()).count()
    }

    /// The whole snapshot as one JSON document (schema `isis-obs/2`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("capacity", Json::from(self.capacity)),
            ("dropped", Json::from(self.dropped)),
            (
                "records",
                Json::Arr(self.records.iter().map(Record::to_json).collect()),
            ),
        ])
    }

    /// JSONL export: one compact record object per line, oldest first;
    /// ends with a newline when any records exist.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json().dump());
            out.push('\n');
        }
        out
    }

    /// Render as an indented tree: each span with its duration and fields,
    /// and under it its child spans and events in record order. A span
    /// whose parent is not in the snapshot, and an event whose span is
    /// not, sit at the top level.
    pub fn to_text(&self) -> String {
        // Record indices under each span present (0: the top level), and
        // each span's end. A record's span always precedes it.
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut ends: HashMap<u64, usize> = HashMap::new();
        let mut present: HashSet<u64> = HashSet::new();
        for (i, r) in self.records.iter().enumerate() {
            if let Body::End { .. } = r.body {
                ends.insert(r.span, i);
                continue;
            }
            let parent = if present.contains(&r.span) { r.span } else { 0 };
            children.entry(parent).or_default().push(i);
            if let Body::Start { .. } = r.body {
                present.insert(r.seq);
            }
        }
        let mut out = format!(
            "journal: {} span(s), {} event(s), {} dropped (capacity {})\n",
            present.len(),
            self.event_count(),
            self.dropped,
            self.capacity
        );
        self.render(&mut out, &children, &ends, 0, 1);
        out
    }

    fn render(
        &self,
        out: &mut String,
        children: &HashMap<u64, Vec<usize>>,
        ends: &HashMap<u64, usize>,
        parent: u64,
        depth: usize,
    ) {
        let pad = depth * 2;
        for &i in children.get(&parent).into_iter().flatten() {
            let r = &self.records[i];
            match &r.body {
                Body::Start { name } => {
                    out.push_str(&format!("{:pad$}{name} [", ""));
                    match ends.get(&r.seq).map(|&e| &self.records[e].body) {
                        Some(Body::End { dur_ns, fields, .. }) => {
                            out.push_str(&fmt_ns(*dur_ns));
                            out.push(']');
                            for (k, v) in fields {
                                out.push_str(&format!(" {k}={}", v.dump()));
                            }
                        }
                        _ => out.push_str("open]"),
                    }
                    out.push('\n');
                    self.render(out, children, ends, r.seq, depth + 1);
                }
                Body::Event { kind, data } => {
                    let orphan = if r.span != parent {
                        format!(" (span {})", r.span)
                    } else {
                        String::new()
                    };
                    out.push_str(&format!(
                        "{:pad$}· #{} +{} {kind}{orphan}: {}\n",
                        "",
                        r.seq,
                        fmt_ns(r.t_ns),
                        data.dump()
                    ));
                }
                Body::End { .. } => {}
            }
        }
    }
}

/// Nanoseconds in the largest unit that keeps the number readable.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(j: &Journal, parent: u64, name: &'static str) -> u64 {
        j.push(0, parent, Body::Start { name })
    }

    fn end(j: &Journal, id: u64, name: &'static str, dur_ns: u64) {
        j.push(
            0,
            id,
            Body::End {
                name,
                dur_ns,
                fields: Vec::new(),
            },
        );
    }

    #[test]
    fn ring_bounds_counts_drops_and_keeps_the_sequence() {
        let j = Journal::with_capacity(4);
        for i in 0..10u64 {
            j.push(
                i,
                0,
                Body::Event {
                    kind: "t.e",
                    data: Json::from(i),
                },
            );
        }
        let snap = j.snapshot();
        assert_eq!(snap.records.len(), 4);
        assert_eq!(snap.dropped, 6);
        // Oldest evicted: survivors are the last 4 pushes, seqs 7..=10.
        assert_eq!(snap.records[0].seq, 7);
        assert_eq!(snap.records[3].seq, 10);
        j.clear();
        assert_eq!(j.push(0, 0, Body::Start { name: "x" }), 11);
        assert_eq!(j.snapshot().dropped, 0);
        j.set_capacity(0);
        assert_eq!(j.snapshot().capacity, 1);
    }

    #[test]
    fn text_tree_nests_spans_fields_and_events() {
        let j = Journal::default();
        j.push(
            1,
            0,
            Body::Event {
                kind: "boot",
                data: Json::Null,
            },
        );
        let outer = start(&j, 0, "session.command.refresh");
        let inner = start(&j, outer, "session.refresh.round");
        j.push(
            5,
            inner,
            Body::Event {
                kind: "query.incremental.settle",
                data: Json::obj([("added", Json::from(1u64))]),
            },
        );
        j.push(
            0,
            inner,
            Body::End {
                name: "session.refresh.round",
                dur_ns: 1500,
                fields: vec![("changes", Json::from(2u64))],
            },
        );
        end(&j, outer, "session.command.refresh", 2_000_000);
        j.push(
            9,
            0,
            Body::Event {
                kind: "core.mvcc.commit",
                data: Json::Null,
            },
        );
        start(&j, 0, "x");
        let text = j.snapshot().to_text();
        assert!(
            text.starts_with("journal: 3 span(s), 3 event(s), 0 dropped"),
            "{text}"
        );
        assert!(text.contains("\n  · #1 +1ns boot: null\n"), "{text}");
        assert!(
            text.contains("\n  session.command.refresh [2.00ms]\n"),
            "{text}"
        );
        assert!(
            text.contains("\n    session.refresh.round [1.5µs] changes=2\n"),
            "{text}"
        );
        assert!(
            text.contains("\n      · #4 +5ns query.incremental.settle: {\"added\":1}\n"),
            "{text}"
        );
        assert!(
            text.contains("\n  · #7 +9ns core.mvcc.commit: null\n"),
            "{text}"
        );
        assert!(text.contains("\n  x [open]\n"), "{text}");
        // Filtered to events, the settle loses its span and says which.
        let events = j.snapshot().filter(|r| r.event().is_some()).to_text();
        assert!(
            events.contains("query.incremental.settle (span 3)"),
            "{events}"
        );
    }

    #[test]
    fn json_and_jsonl_round_trip() {
        let j = Journal::default();
        let id = start(&j, 0, "a");
        j.push(
            7,
            id,
            Body::Event {
                kind: "e",
                data: Json::obj([("d", Json::from("\"quoted\""))]),
            },
        );
        end(&j, id, "a", 42);
        let snap = j.snapshot();
        let json = snap.to_json();
        let back = Json::parse(&json.pretty()).unwrap();
        assert_eq!(back, json);
        assert_eq!(back.get("schema").unwrap().as_str(), Some(SCHEMA));
        let lines: Vec<Json> = snap
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("start").unwrap().as_str(), Some("a"));
        assert_eq!(lines[1].get("kind").unwrap().as_str(), Some("e"));
        assert_eq!(lines[2].get("dur_ns").unwrap().as_f64(), Some(42.0));
    }
}
