//! The traced run's span tree, kept in memory and written out at the end.
//!
//! Spans are recorded by the benchmark itself around each call it makes
//! into a layer's public functions (and by [`crate::tvfs::TimingVfs`]
//! around every filesystem call the store makes). Each thread keeps a
//! stack of open spans, so a span opened inside another one on the same
//! thread becomes its child; a gesture's root span is opened with no
//! parent. A layer's self time is its span minus the part of that
//! interval its children cover.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The gesture a root span times, or the layer a child span times.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from every thread of the run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// This thread's open spans, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread records spans: the traced run switches it per
    /// scripted pass, so traced and untraced passes interleave on each
    /// thread and the difference between them is the tracing overhead.
    static ON: Cell<bool> = const { Cell::new(false) };
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches span recording on or off for the calling thread.
    pub fn set_on(&self, on: bool) {
        ON.with(|c| c.set(on));
    }

    pub fn is_on(&self) -> bool {
        ON.with(|c| c.get())
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of this thread's innermost open span, or
    /// a root when none is open. Returns `None` while this thread does not
    /// record.
    pub fn open(&self, name: &'static str) -> Option<Guard<'_>> {
        if !self.is_on() {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Some(Guard {
            rec: self,
            id,
            parent,
            name,
            start: self.now(),
        })
    }

    /// Records an already-timed interval as a leaf child of this thread's
    /// innermost open span (used for filesystem calls, which are timed
    /// by the VFS wrapper itself). Dropped when no span is open.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.is_on() {
            return;
        }
        let Some(parent) = OPEN.with(|s| s.borrow().last().copied()) else {
            return;
        };
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent),
            name,
            start: at(start),
            end: at(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// An open span; closing happens on drop.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(i) = s.iter().rposition(|&x| x == self.id) {
                s.remove(i);
            }
        });
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start: self.start,
                end,
            });
        }
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent. Children may nest
/// further or overlap one another (two threads' I/O, a timer's skew); the
/// union counts covered time once. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.dur();
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in clipped {
                match run {
                    Some((ra, rb)) if a <= rb => run = Some((ra, rb.max(b))),
                    _ => {
                        if let Some((ra, rb)) = run {
                            covered += rb - ra;
                        }
                        run = Some((a, b));
                    }
                }
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..50 ⊃ b 20..30; c 60..70.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(2), 20, 30),
            span(4, Some(1), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        // Children 10..40 and 30..60 overlap on 30..40: they cover 50.
        // A child sticking out past the parent is clipped to it.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_spans_per_thread_and_stays_silent_when_off() {
        let rec = Recorder::new();
        assert!(rec.open("off").is_none());
        rec.set_on(true);
        {
            let _root = rec.open("root");
            let _child = rec.open("child");
            let t = Instant::now();
            rec.leaf("io", t, t);
        }
        let spans = rec.take();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, child, io) = (by("root"), by("child"), by("io"));
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(io.parent, Some(child.id));
        // No span open: a leaf has nowhere to attach and is dropped.
        let t = Instant::now();
        rec.leaf("io", t, t);
        assert!(rec.take().is_empty());
    }
}
