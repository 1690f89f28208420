//! The typed metrics registry: counters, gauges, and log₂-bucketed
//! histograms.
//!
//! Metric names follow the `crate.component.event` scheme documented in
//! DESIGN.md §5c — e.g. `query.service.index_probes` or
//! `store.wal.append_ns`. All metric updates are single atomic operations,
//! so instruments can be bumped from any thread without locking; the
//! registry's mutex is only taken to resolve a name to a handle (once per
//! call site when handles are cached, as the hot paths do) and to snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions (queue depths, sizes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the gauge to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets — enough for any `u64` sample.
const BUCKETS: usize = 64;

/// A histogram with one bucket per power of two.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` (bucket 0 additionally
/// holds zero). Quantile estimates therefore over-approximate by at most
/// 2×, which [`HistogramSnapshot`]'s `p50`/`p95`/`p99` make precise: each
/// reported quantile is an upper bound on the true sample quantile, clamped
/// to the exact observed `[min, max]`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

/// The log₂ bucket index for a sample.
#[inline]
fn bucket_of(v: u64) -> usize {
    63 - (v | 1).leading_zeros() as usize
}

/// The largest value bucket `i` can hold.
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper(i).clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Upper bound on the median, clamped to `[min, max]`.
    pub p50: u64,
    /// Upper bound on the 95th percentile, clamped to `[min, max]`.
    pub p95: u64,
    /// Upper bound on the 99th percentile, clamped to `[min, max]`.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The value of one registered metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram summary.
    Histogram(HistogramSnapshot),
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The registry: a name → metric map.
///
/// Metrics are created on first use and live for the registry's lifetime;
/// [`Registry::reset`] zeroes values but keeps the handles valid, so cached
/// `Arc`s held by instrumentation sites never dangle.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind — metric
    /// names are a global contract (DESIGN.md §5c), so a kind clash is a
    /// programming error.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::default()))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::default()))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::default()))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Zero every registered metric, keeping existing handles valid.
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        for metric in inner.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    h.count.store(0, Ordering::Relaxed);
                    h.sum.store(0, Ordering::Relaxed);
                    h.min.store(u64::MAX, Ordering::Relaxed);
                    h.max.store(0, Ordering::Relaxed);
                    for b in &h.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// A sorted point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            entries: inner
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// A sorted snapshot of the whole registry, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in lexicographic name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// The value of the metric named `name`, if it is registered.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        let i = self
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()?;
        Some(&self.entries[i].1)
    }

    /// Render as aligned text, one metric per line — the REPL `metrics`
    /// output.
    pub fn to_text(&self) -> String {
        if self.entries.is_empty() {
            return "no metrics recorded\n".to_string();
        }
        let width = self
            .entries
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            let rendered = match value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Gauge(v) => format!("{v}"),
                MetricValue::Histogram(h) => format!(
                    "count={} mean={:.1} p50<={} p95<={} p99<={} min={} max={}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99,
                    h.min,
                    h.max
                ),
            };
            out.push_str(&format!("{name:<width$}  {rendered}\n"));
        }
        out
    }

    /// Render as a JSON object keyed by metric name.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        MetricValue::Counter(c) => {
                            Json::obj([("type", Json::from("counter")), ("value", Json::from(*c))])
                        }
                        MetricValue::Gauge(g) => {
                            Json::obj([("type", Json::from("gauge")), ("value", Json::from(*g))])
                        }
                        MetricValue::Histogram(h) => Json::obj([
                            ("type", Json::from("histogram")),
                            ("count", Json::from(h.count)),
                            ("sum", Json::from(h.sum)),
                            ("mean", Json::from(h.mean())),
                            ("min", Json::from(h.min)),
                            ("max", Json::from(h.max)),
                            ("p50", Json::from(h.p50)),
                            ("p95", Json::from(h.p95)),
                            ("p99", Json::from(h.p99)),
                        ]),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.b.c");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b.c").get(), 5);
        let g = r.gauge("a.b.depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [3u64, 5, 9, 1000, 17, 0, 2] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
        // True median is 5; the log2 upper bound for its bucket is 7.
        assert!(s.p50 >= 5 && s.p50 <= 9, "p50={}", s.p50);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p99),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("n");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("n").get(), 1);
    }

    #[test]
    fn snapshot_exports_sorted_text_and_json() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.histogram("a.ns").record(10);
        let snap = r.snapshot();
        assert_eq!(snap.entries[0].0, "a.ns");
        let text = snap.to_text();
        assert!(text.contains("b.count"), "{text}");
        let json = snap.to_json();
        assert_eq!(
            json.get("b.count").unwrap().get("value").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            json.get("a.ns").unwrap().get("count").unwrap().as_f64(),
            Some(1.0)
        );
    }
}
