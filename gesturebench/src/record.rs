//! What a workload run records: one latency sample per gesture, the time
//! of each scripted pass, failures and wrong answers, and (traced run
//! only) the per-layer figures measured around the layer calls.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spans::{Guard, Recorder};

/// The gestures both scripts are made of. Browse splits its refine steps
/// by whether they compile, and its scans by evaluation path, so that
/// each path is a kind of its own in `gesture_gmean_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Navigate,
    /// A fresh refine step: a program-cache miss that compiles.
    RefineCompile,
    /// A re-run of an earlier refine step: a program-cache hit.
    RefineRerun,
    /// `metricN = {v}`: the batch path.
    ScanBatch,
    /// `metricN < {v}`: the scalar path.
    ScanScalar,
    /// `members·plays ⊇ {i}` over groups: the scalar path over two steps.
    ScanTwoStep,
    Edit,
    Publish,
    Refresh,
    Catchup,
    Open,
}

impl Kind {
    pub const ALL: [Kind; 11] = [
        Kind::Navigate,
        Kind::RefineCompile,
        Kind::RefineRerun,
        Kind::ScanBatch,
        Kind::ScanScalar,
        Kind::ScanTwoStep,
        Kind::Edit,
        Kind::Publish,
        Kind::Refresh,
        Kind::Catchup,
        Kind::Open,
    ];

    /// The scan paths, in the order each browse trace runs them.
    pub const SCANS: [Kind; 3] = [Kind::ScanBatch, Kind::ScanScalar, Kind::ScanTwoStep];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Navigate => "navigate",
            Kind::RefineCompile => "refine_compile",
            Kind::RefineRerun => "refine_rerun",
            Kind::ScanBatch => "scan_batch",
            Kind::ScanScalar => "scan_scalar",
            Kind::ScanTwoStep => "scan_twostep",
            Kind::Edit => "edit",
            Kind::Publish => "publish",
            Kind::Refresh => "refresh",
            Kind::Catchup => "catchup",
            Kind::Open => "open",
        }
    }
}

/// One timed gesture.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Wall-clock latency, including any time spent blocked.
    pub ms: f64,
    /// Recorded during a traced pass of the traced run.
    pub traced: bool,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    /// Wall-clock cost of each complete scripted pass (browse trace or
    /// publish cycle), summed over its gestures, with its traced flag.
    pub passes: Vec<(f64, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers found by the output checks.
    pub wrong: Vec<String>,
    /// Per-layer samples (traced passes only), by metric name.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer figures reported as they are, by metric name.
    pub fixed: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a gesture that started at `start`; returns its latency.
    pub fn gesture(&mut self, kind: Kind, start: Instant, traced: bool) -> f64 {
        let ms = ms_since(start);
        self.samples.push(Sample { kind, ms, traced });
        ms
    }

    /// Counts one attempted gesture; an error counts as failed.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("gesture failed: {what}: {e}");
                None
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("WRONG: {msg}");
            self.wrong.push(msg);
        }
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layer.entry(name).or_default().push(v);
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Opens a span when the run is traced and this pass records spans.
pub fn span<'a>(rec: Option<&'a Recorder>, name: &'static str) -> Option<Guard<'a>> {
    rec.and_then(|r| r.open(name))
}
