//! `isis-obs`: hand-rolled observability for the ISIS reproduction.
//!
//! The build environment has no crates.io access, so this crate provides —
//! with zero dependencies — what `tracing` + `metrics` would: one bounded
//! [`journal`] of spans and structured events, a typed metrics registry
//! with counters, gauges, and log₂ histograms ([`metrics`]), a minimal
//! JSON codec ([`json`]), and text/JSON/JSONL exporters.
//!
//! # The fast path
//!
//! Everything hangs off an [`Obs`] handle (usually [`global()`]). Every
//! instrument call first checks [`Obs::enabled`] — a single relaxed atomic
//! load — and returns immediately when observability is off. No clock is
//! read, no lock is taken, no allocation happens on the disabled path; the
//! `obs_overhead` bench in `isis-bench` holds this to <2% of the
//! 10k-musician query benchmark (DESIGN.md §5c records the budget).
//!
//! # Toggles
//!
//! * `ISIS_OBS` environment variable, read once when [`global()`] is first
//!   used: `1`/`on`/`true`/`yes` enables metrics and events, `trace`
//!   additionally journals spans, anything else (or unset) leaves both off.
//! * [`Obs::set_enabled`] / [`Obs::set_tracing`] at runtime — the REPL's
//!   `metrics on|off` and `trace on|off` commands call these.
//!
//! # Naming
//!
//! Metric, span and event names follow `crate.component.event`, e.g.
//! `query.service.index_probes`, `store.wal.fsync_ns`,
//! `session.refresh.apply_ns`. Histograms of durations end in `_ns`.
//!
//! ```
//! let obs = isis_obs::Obs::new();
//! obs.set_enabled(true);
//! obs.set_tracing(true);
//! {
//!     let mut outer = obs.span("demo.outer.work");
//!     outer.field("items", || isis_obs::Json::from(3u64));
//!     let _inner = obs.span("demo.inner.step");
//!     obs.count("demo.inner.items", 3);
//!     obs.event("demo.inner.decided", || isis_obs::Json::from("probe"));
//! }
//! let journal = obs.journal().snapshot();
//! assert_eq!((journal.span_count(), journal.event_count()), (2, 1));
//! assert!(obs.registry().snapshot().to_text().contains("demo.inner.items"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod metrics;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use journal::{Body, Journal, JournalSnapshot, Record};
pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot, Registry,
};

/// Default slow-query threshold: evaluations longer than this (wall
/// clock, observability enabled) are journaled as `query.service.slow`.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 10_000_000;

thread_local! {
    /// The stack of span ids open on this thread; the top is the span
    /// the next record belongs to.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn innermost_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// One observability domain: the enabled and tracing switches, the
/// slow-query threshold, a metrics registry, and the journal, sharing a
/// clock epoch.
///
/// The process-wide instance is [`global()`]; tests build private instances
/// with [`Obs::new`] so their assertions don't race other tests.
#[derive(Debug)]
pub struct Obs {
    enabled: AtomicBool,
    tracing: AtomicBool,
    slow_threshold_ns: AtomicU64,
    registry: Registry,
    journal: Journal,
    epoch: Instant,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh instance with metrics and tracing both off.
    pub fn new() -> Obs {
        Obs {
            enabled: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            registry: Registry::new(),
            journal: Journal::default(),
            epoch: Instant::now(),
        }
    }

    /// Is any instrumentation live? This is the one branch every
    /// instrument call pays when observability is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn metrics and events (and the possibility of tracing) on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Are spans journaled? (Requires [`Obs::enabled`] too.)
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Turn span journaling on or off. Turning tracing on also enables
    /// metrics — a span without its histogram is half a story.
    pub fn set_tracing(&self, on: bool) {
        if on {
            self.set_enabled(true);
        }
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// The slow-query threshold in nanoseconds (0 = capture off): query
    /// evaluations at or over it are journaled as `query.service.slow`
    /// while observability is enabled.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Set the slow-query threshold; 0 turns capture off.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The journal: the one bounded ring of spans and events.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Nanoseconds since this instance was created — the epoch all
    /// journal records are stamped with.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Bump the counter `name` by `delta`. No-op when disabled.
    #[inline]
    pub fn count(&self, name: &str, delta: u64) {
        if self.enabled() {
            self.registry.counter(name).add(delta);
        }
    }

    /// Set the gauge `name` to `v`. No-op when disabled.
    #[inline]
    pub fn gauge(&self, name: &str, v: i64) {
        if self.enabled() {
            self.registry.gauge(name).set(v);
        }
    }

    /// Record `v` into the histogram `name`. No-op when disabled.
    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        if self.enabled() {
            self.registry.histogram(name).record(v);
        }
    }

    /// Open a span: journals its start and end (when tracing) **and**
    /// feeds the histogram `name` with its duration (when enabled), so one
    /// call instruments a site for both exporters. When disabled this is
    /// the single-atomic-load fast path.
    #[inline]
    pub fn span<'a>(&'a self, name: &'static str) -> Span<'a> {
        if !self.enabled() {
            return Span { inner: None };
        }
        let id = if self.tracing() {
            let id = self
                .journal
                .push(self.now_ns(), innermost_span(), Body::Start { name });
            SPAN_STACK.with(|s| s.borrow_mut().push(id));
            id
        } else {
            0
        };
        Span {
            inner: Some(SpanInner {
                obs: self,
                name,
                id,
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// Journal a structured event under the innermost open span. The
    /// `data` closure only runs when observability is enabled, so payload
    /// construction costs nothing on the disabled path.
    #[inline]
    pub fn event(&self, kind: &'static str, data: impl FnOnce() -> Json) {
        if self.enabled() {
            self.journal.push(
                self.now_ns(),
                innermost_span(),
                Body::Event { kind, data: data() },
            );
        }
    }

    /// A machine-readable report of everything this instance has seen:
    /// the journal document (schema `isis-obs/2`) with the metrics added.
    pub fn run_report(&self) -> Json {
        self.report_with(self.registry.snapshot())
    }

    /// [`Obs::run_report`] with `metrics` under `"metrics"`: for a caller
    /// that lists a registry scope of its own beside this instance's.
    pub fn report_with(&self, metrics: MetricsSnapshot) -> Json {
        let mut report = self.journal.snapshot().to_json();
        if let Json::Obj(pairs) = &mut report {
            pairs.push(("metrics".to_string(), metrics.to_json()));
        }
        report
    }
}

struct SpanInner<'a> {
    obs: &'a Obs,
    name: &'static str,
    /// Journal id, or 0 when the span is not traced.
    id: u64,
    start: Instant,
    fields: Vec<(&'static str, Json)>,
}

/// RAII guard returned by [`Obs::span`]; closes the span on drop.
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

impl Span<'_> {
    /// Attach a structured field, journaled with the span's end. The
    /// `value` closure only runs while the span is traced.
    #[inline]
    pub fn field(&mut self, key: &'static str, value: impl FnOnce() -> Json) {
        if let Some(inner) = self.inner.as_mut().filter(|i| i.id != 0) {
            inner.fields.push((key, value()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        if inner.id != 0 {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                    stack.truncate(pos);
                }
            });
            inner.obs.journal.push(
                inner.obs.now_ns(),
                inner.id,
                Body::End {
                    name: inner.name,
                    dur_ns,
                    fields: inner.fields,
                },
            );
        }
        if inner.obs.enabled() {
            inner.obs.registry.histogram(inner.name).record(dur_ns);
        }
    }
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// The process-wide [`Obs`] instance.
///
/// On first use, the `ISIS_OBS` environment variable decides the initial
/// state: `1`/`on`/`true`/`yes` enables metrics and events, `trace` also
/// journals spans, anything else (including unset) leaves everything off —
/// the disabled fast path.
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(|| {
        let obs = Obs::new();
        match std::env::var("ISIS_OBS").as_deref() {
            Ok("1") | Ok("on") | Ok("true") | Ok("yes") => obs.set_enabled(true),
            Ok("trace") => obs.set_tracing(true),
            _ => {}
        }
        obs
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_record_nothing() {
        let obs = Obs::new();
        obs.count("a.b.c", 3);
        obs.observe("a.b.ns", 10);
        obs.gauge("a.b.g", 1);
        {
            let mut s = obs.span("a.b.span");
            s.field("f", || unreachable!("field must not build"));
            obs.event("a.b.e", || unreachable!("payload must not build"));
        }
        assert!(obs.registry().snapshot().entries.is_empty());
        assert!(obs.journal().snapshot().records.is_empty());
    }

    #[test]
    fn spans_nest_and_records_belong_to_the_innermost_span() {
        let obs = Obs::new();
        obs.set_tracing(true);
        {
            let mut a = obs.span("t.a.outer");
            {
                let _b = obs.span("t.b.inner");
                obs.event("t.b.note", || Json::from("hello"));
            }
            a.field("k", || Json::from(1u64));
            let _c = obs.span("t.c.sibling");
        }
        obs.event("t.root", || Json::Null);
        let snap = obs.journal().snapshot();
        let starts: Vec<(u64, u64)> = snap
            .records
            .iter()
            .filter(|r| matches!(r.body, Body::Start { .. }))
            .map(|r| (r.seq, r.span))
            .collect();
        assert_eq!(starts.len(), 3);
        let (outer, outer_parent) = starts[0];
        assert_eq!(outer_parent, 0);
        assert_eq!(starts[1].1, outer, "inner's parent is outer");
        assert_eq!(starts[2].1, outer, "sibling's parent is outer");
        let events: Vec<u64> = snap
            .records
            .iter()
            .filter(|r| r.event().is_some())
            .map(|r| r.span)
            .collect();
        assert_eq!(events, vec![starts[1].0, 0]);
        let outer_end = snap
            .records
            .iter()
            .find(|r| r.span == outer && matches!(r.body, Body::End { .. }))
            .expect("outer closed");
        assert!(
            matches!(&outer_end.body, Body::End { fields, .. } if fields == &vec![("k", Json::from(1u64))])
        );
        // The span histograms were fed too.
        let metrics = obs.registry().snapshot();
        assert!(metrics.entries.iter().any(|(n, _)| n == "t.b.inner"));
    }

    #[test]
    fn metrics_without_tracing_journal_events_but_not_spans() {
        let obs = Obs::new();
        obs.set_enabled(true);
        {
            let mut s = obs.span("m.only.span");
            s.field("f", || unreachable!("untraced spans take no fields"));
            obs.event("m.only.event", || Json::from(1u64));
        }
        obs.count("m.only.count", 1);
        let snap = obs.journal().snapshot();
        assert_eq!((snap.span_count(), snap.event_count()), (0, 1));
        assert_eq!(snap.records[0].span, 0, "no traced span is open");
        assert_eq!(obs.registry().snapshot().entries.len(), 2);
    }

    #[test]
    fn set_tracing_implies_enabled() {
        let obs = Obs::new();
        obs.set_tracing(true);
        assert!(obs.enabled());
        obs.set_tracing(false);
        assert!(obs.enabled(), "disabling tracing keeps metrics on");
    }

    #[test]
    fn run_report_is_parseable() {
        let obs = Obs::new();
        obs.set_tracing(true);
        {
            let _s = obs.span("r.r.span");
        }
        obs.count("r.r.count", 2);
        let report = obs.run_report();
        let back = Json::parse(&report.pretty()).unwrap();
        assert_eq!(back.get("schema").unwrap().as_str(), Some(journal::SCHEMA));
        assert!(back.get("metrics").unwrap().get("r.r.count").is_some());
        assert_eq!(back.get("records").unwrap().as_arr().unwrap().len(), 2);
    }
}
