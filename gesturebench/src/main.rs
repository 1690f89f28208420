//! Gesture-replay benchmark for the ISIS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path gesturebench/Cargo.toml -- \
//!     --workload browse|publish --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds a 1e5-entity database from the seed, sets the durable stack up
//! three times (reporting the median), replays the workload's gestures
//! through the public API for `--seconds`, checks every answer, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable report goes to standard error. See
//! `gesturebench/README.md` for what each workload and metric means.

mod browse;
mod publish;
mod record;
mod rng;
mod spans;
mod stack;
mod stats;
mod tvfs;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use isis_obs::Json;

use record::{Kind, Outcome};
use spans::Recorder;
use stack::{SetupTimes, Stack};
use stats::{mean, median, per_unit, percentile, quartiles};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Browse,
    Publish,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "browse" => Workload::Browse,
                    "publish" => Workload::Publish,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload browse|publish --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    // The library's own instrumentation stays off in both runs: the
    // traced run's spans are the benchmark's, around the layer calls.
    let obs = isis_obs::global();
    obs.set_tracing(false);
    obs.set_enabled(false);

    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    match run(&args, &out_dir) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, out_dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let recorder = args.trace.then(|| Arc::new(Recorder::new()));
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut built: Option<(Stack, stack::Inputs, PathBuf)> = None;
    for i in 0..SETUPS {
        // Drop the previous stack (and its files) before building the
        // next, so set-ups do not compete for memory.
        if let Some((stack, _, root)) = built.take() {
            drop::<Stack>(stack);
            remove_dir(&root);
        }
        let root = stack::fresh_root(out_dir, &i.to_string())?;
        let result = stack::build(args.seed, &root, recorder.as_ref());
        let (stack, inputs, times) = result.inspect_err(|_| remove_dir(&root))?;
        eprintln!(
            "setup {i}: {:.3}s (generate {:.3}s, store open {:.3}s, first refresh {:.3}s)",
            times.total, times.generate, times.store_open, times.first_refresh
        );
        setups.push(times);
        built = Some((stack, inputs, root));
    }
    let (mut stack, inputs, root) = built.expect("at least one set-up");

    let rec = recorder.as_deref();
    let (mut outcome, reader) = match args.workload {
        Workload::Browse => (
            browse::run(&mut stack, &inputs, args.seed, args.seconds, rec),
            None,
        ),
        Workload::Publish => {
            let (o, r) = publish::run(&mut stack, &inputs, args.seconds, rec);
            (o, Some(r))
        }
    };
    let pinned = (args.trace && args.workload == Workload::Publish).then(|| pinned_mb(&stack));
    drop(stack);
    remove_dir(&root);
    if let Some(mb) = pinned {
        outcome.fixed.insert("core.pinned_mb", mb?);
    }

    header(args, reader.as_ref());
    gesture_table(&outcome);
    let correct = outcome.wrong.is_empty();
    let metrics = if args.trace {
        let spans = recorder.as_ref().map(|r| r.take()).unwrap_or_default();
        let path = out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            workload_name(args.workload),
            args.seed
        ));
        write_spans(&path, &spans)?;
        eprintln!("wrote {} spans to {}", spans.len(), path.display());
        per_layer(&outcome, &setups, &spans)?
    } else {
        end_to_end(&outcome, &setups)?
    };
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, (value, unit))| {
                eprintln!("{name:<48} {value:>14.4} {unit}");
                (
                    name,
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics),
    ])
    .dump())
}

type Metrics = Vec<(String, (f64, &'static str))>;

fn end_to_end(o: &Outcome, setups: &[SetupTimes]) -> Result<Metrics, String> {
    let setup: Vec<f64> = setups.iter().map(|s| s.total).collect();
    let passes: Vec<f64> = o.passes.iter().map(|p| p.0).collect();
    eprintln!(
        "samples: {} passes, {} gestures, {} set-ups",
        passes.len(),
        o.samples.len(),
        setup.len()
    );
    Ok(vec![
        (
            "trace_p50_ms".into(),
            (median(&passes).map_err(|e| format!("passes: {e}"))?, "ms"),
        ),
        ("gesture_gmean_ms".into(), (kind_gmean(o, |_| true)?, "ms")),
        ("setup_s".into(), (median(&setup)?, "s")),
        ("peak_rss_mb".into(), (peak_rss_mb()?, "MB")),
    ])
}

/// The geometric mean, over the gesture kinds the workload makes, of each
/// kind's median wall-clock latency: every kind weighs the same, so a
/// kind that is cheap or rare still moves it by its relative change.
fn kind_gmean(o: &Outcome, keep: impl Fn(&record::Sample) -> bool) -> Result<f64, String> {
    let mut logs = Vec::new();
    for kind in Kind::ALL {
        let v: Vec<f64> = o
            .samples
            .iter()
            .filter(|s| s.kind == kind && keep(s))
            .map(|s| s.ms)
            .collect();
        if !v.is_empty() {
            logs.push(median(&v)?.max(1e-6).ln());
        }
    }
    if logs.is_empty() {
        return Err("no gesture completed".into());
    }
    Ok(mean(&logs).exp())
}

/// Layers whose self time the traced run reports, plus the gesture roots'
/// own time (the benchmark's bookkeeping between layer calls).
const LAYERS: [&str; 6] = [
    "views",
    "session",
    "query",
    "core",
    "store",
    "store.replication",
];

fn per_layer(o: &Outcome, setups: &[SetupTimes], spans: &[spans::Span]) -> Result<Metrics, String> {
    let l = |name: &str| o.layer.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let p50 = |name: &str| median(l(name)).unwrap_or(0.0);
    let avg = |name: &str| mean(l(name));
    let ratio =
        |num: &str, den: &str| per_unit(l(num).iter().sum(), l(den).iter().sum::<f64>() as u64);
    let fixed = |name: &str| o.fixed.get(name).copied().unwrap_or(0.0);
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut m: Metrics = vec![
        ("views.scene_ms".into(), (p50("views.scene_ms"), "ms")),
        (
            "views.scene_elements".into(),
            (avg("views.scene_elements"), "count"),
        ),
        ("session.apply_ms".into(), (p50("session.apply_ms"), "ms")),
        ("query.compile_ms".into(), (p50("query.compile_ms"), "ms")),
        ("query.plan_ms".into(), (p50("query.plan_ms"), "ms")),
        (
            "query.refine_eval_ms".into(),
            (p50("query.refine_eval_ms"), "ms"),
        ),
        (
            "query.scan_eval_ms".into(),
            (p50("query.scan_eval_ms"), "ms"),
        ),
        (
            "query.scan_batch_share".into(),
            (avg("query.scan_batch"), "ratio"),
        ),
        (
            "query.cache_hit_ratio".into(),
            (fixed("query.cache_hit_ratio"), "ratio"),
        ),
        (
            "query.cache_evictions".into(),
            (fixed("query.cache_evictions"), "1/query"),
        ),
        (
            "query.refine_rows_per_result".into(),
            (
                ratio("query.refine_scanned", "query.refine_returned"),
                "rows",
            ),
        ),
        (
            "query.scan_rows_per_result".into(),
            (ratio("query.scan_scanned", "query.scan_returned"), "rows"),
        ),
        (
            "session.undo_snapshot_ms".into(),
            (p50("session.undo_snapshot_ms"), "ms"),
        ),
        ("core.mutate_ms".into(), (p50("core.mutate_ms"), "ms")),
        ("core.commit_ms".into(), (p50("core.commit_ms"), "ms")),
        ("core.pin_ms".into(), (p50("core.pin_ms"), "ms")),
        ("core.pinned_mb".into(), (fixed("core.pinned_mb"), "MB")),
        ("query.refresh_ms".into(), (p50("query.refresh_ms"), "ms")),
        (
            "store.wal_append_ms".into(),
            (p50("store.wal_append_ms"), "ms"),
        ),
        ("store.fsync_ms".into(), (p50("store.fsync_ms"), "ms")),
        (
            "store.fsyncs_per_commit".into(),
            (avg("store.fsyncs_per_commit"), "count"),
        ),
        (
            "store.wal_bytes_per_commit".into(),
            (avg("store.wal_bytes_per_commit"), "bytes"),
        ),
        (
            "store.snapshot_bytes".into(),
            (avg("store.snapshot_bytes"), "bytes"),
        ),
        (
            "store.replication.ship_read_bytes_per_frame".into(),
            (avg("store.replication.ship_read_bytes_per_frame"), "bytes"),
        ),
        (
            "store.replication.replay_ms_per_frame".into(),
            (avg("store.replication.replay_ms_per_frame"), "ms"),
        ),
        (
            "store.replication.fsyncs_per_frame".into(),
            (avg("store.replication.fsyncs_per_frame"), "count"),
        ),
        ("sample.generate_s".into(), (setup(|s| s.generate)?, "s")),
        ("store.open_s".into(), (setup(|s| s.store_open)?, "s")),
        (
            "query.first_refresh_s".into(),
            (setup(|s| s.first_refresh)?, "s"),
        ),
    ];

    // Per-layer self time from the span tree, as a share of all gesture
    // time; "harness" is the roots' own time between layer calls.
    let selfs = spans::self_times(spans);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut roots = 0u64;
    for (s, own) in spans.iter().zip(&selfs) {
        let layer = if s.parent.is_none() {
            roots += s.dur();
            "harness"
        } else {
            s.name
        };
        *by_layer.entry(layer).or_default() += own;
    }
    for layer in LAYERS.iter().chain(&["harness"]) {
        let share = per_unit(by_layer.get(layer).copied().unwrap_or(0) as f64, roots);
        m.push((format!("self_share.{layer}"), (share, "ratio")));
    }

    // Tracing overhead: traced passes against the untraced passes they
    // alternate with, for each end-to-end gesture metric.
    let ratio_of = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let passes = |traced: bool| -> Vec<f64> {
        o.passes
            .iter()
            .filter(|p| p.1 == traced)
            .map(|p| p.0)
            .collect()
    };
    let trace = ratio_of(
        median(&passes(true)).unwrap_or(0.0),
        median(&passes(false)).unwrap_or(0.0),
    );
    let gmean = ratio_of(
        kind_gmean(o, |s| s.traced).unwrap_or(0.0),
        kind_gmean(o, |s| !s.traced).unwrap_or(0.0),
    );
    m.push(("overhead.trace_p50".into(), (trace, "ratio")));
    m.push(("overhead.gesture_gmean".into(), (gmean, "ratio")));

    // Each gesture's own median from the untraced passes (0 where the
    // workload has no such gesture).
    for kind in Kind::ALL {
        let v: Vec<f64> = o
            .samples
            .iter()
            .filter(|s| s.kind == kind && !s.traced)
            .map(|s| s.ms)
            .collect();
        m.push((
            format!("gesture.{}_p50_ms", kind.name()),
            (median(&v).unwrap_or(0.0), "ms"),
        ));
    }
    Ok(m)
}

/// Growth in resident memory from holding one more pinned session. The
/// first pins reuse memory the allocator already holds (earlier set-ups,
/// dropped sessions), so six are held and the median of the last three
/// increments is reported: by then each pin has to grow the process.
fn pinned_mb(stack: &Stack) -> Result<f64, String> {
    let mut held = Vec::new();
    let mut rss = vec![vm_kb("VmRSS:")?];
    for _ in 0..6 {
        held.push(isis_session::Session::open(&stack.shared).build());
        rss.push(vm_kb("VmRSS:")?);
    }
    let steps: Vec<f64> = rss.windows(2).map(|w| (w[1] - w[0]) / 1024.0).collect();
    median(&steps[3..])
}

fn peak_rss_mb() -> Result<f64, String> {
    vm_kb("VmHWM:").map(|kb| kb / 1024.0)
}

fn vm_kb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{field} missing from /proc/self/status"))
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Browse => "browse",
        Workload::Publish => "publish",
    }
}

fn header(args: &Args, reader: Option<&publish::Reader>) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (threads, rate, lateness) = match reader {
        None => (1, "none".to_string(), "none".to_string()),
        Some(r) => (
            2,
            format!("{}/s open loop", publish::OPEN_RATE),
            format!(
                "p50 {:.2}ms max {:.2}ms over {} opens",
                median(&r.lateness_ms).unwrap_or(0.0),
                r.lateness_ms.iter().copied().fold(0.0, f64::max),
                r.lateness_ms.len()
            ),
        ),
    };
    eprintln!(
        "run: workload={} seed={} seconds={} trace={} entities={} dist=zipf shape=wide \
         sync=EverySync threads={threads} reader_rate={rate} reader_lateness=({lateness}) \
         nproc={nproc} rev={}",
        workload_name(args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stack::ENTITIES,
        git_rev()
    );
}

/// Every gesture kind the run timed, with its sample count, quartiles
/// and the highest tail its count supports.
fn gesture_table(o: &Outcome) {
    eprintln!(
        "{:<14} {:>6} {:>10} {:>10} {:>10} {:>14}",
        "gesture", "n", "p25_ms", "p50_ms", "p75_ms", "tail_ms"
    );
    for kind in Kind::ALL {
        let v: Vec<f64> = o
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        if v.is_empty() {
            continue;
        }
        let q = quartiles(&v).unwrap_or([v[0]; 3]);
        let tail = [0.99, 0.95, 0.9]
            .into_iter()
            .find_map(|p| {
                percentile(&v, p)
                    .ok()
                    .map(|x| format!("p{:.0} {x:.3}", p * 100.0))
            })
            .unwrap_or_else(|| "-".into());
        eprintln!(
            "{:<14} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>14}",
            kind.name(),
            v.len(),
            q[0],
            q[1],
            q[2],
            tail
        );
    }
    eprintln!(
        "passes {}, gestures attempted {}, failed {}, wrong answers {}",
        o.passes.len(),
        o.attempted,
        o.failed,
        o.wrong.len()
    );
}

/// The checkout's git revision, when it is a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn write_spans(path: &Path, spans: &[spans::Span]) -> Result<(), String> {
    let selfs = spans::self_times(spans);
    let mut text = String::new();
    for (s, own) in spans.iter().zip(selfs) {
        let line = Json::obj([
            ("id", Json::from(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start)),
            ("end_ns", Json::from(s.end)),
            ("self_ns", Json::from(own)),
        ]);
        text.push_str(&line.dump());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn remove_dir(root: &Path) {
    if let Err(e) = std::fs::remove_dir_all(root) {
        eprintln!("warning: could not remove {}: {e}", root.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record::Sample;

    fn sample(kind: Kind, ms: f64, traced: bool) -> Sample {
        Sample { kind, ms, traced }
    }

    #[test]
    fn every_kind_weighs_the_same_in_the_geometric_mean() {
        // Many cheap samples of one kind and a few dear ones of another:
        // the medians 1 and 100 meet at 10, whatever the counts.
        let mut o = Outcome::default();
        o.samples
            .extend((0..99).map(|_| sample(Kind::RefineRerun, 1.0, false)));
        o.samples
            .extend([50.0, 100.0, 150.0].map(|ms| sample(Kind::ScanTwoStep, ms, false)));
        assert!((kind_gmean(&o, |_| true).unwrap() - 10.0).abs() < 1e-9);
        // A kind 4x slower moves a two-kind mean by 2x.
        for s in o.samples.iter_mut().filter(|s| s.kind == Kind::RefineRerun) {
            s.ms *= 4.0;
        }
        assert!((kind_gmean(&o, |_| true).unwrap() - 20.0).abs() < 1e-9);
        assert!(kind_gmean(&o, |s| s.traced).is_err());
    }
}
