//! The `browse` workload: one client, closed loop, read-only.
//!
//! Each trace replays the navigation gestures of PAPER.md §4.2, each
//! followed by `Session::scene()`, then a fresh 6-step refinement chain
//! through `Session::query`, two re-runs of earlier steps (program-cache
//! hits), and three ad-hoc scans that no index prunes, one per evaluation
//! path, from a rotation of 30 rounds. The refinement working set fits
//! the 128-entry program cache; the scan rotation does not.

use std::time::Instant;

use isis_core::{ClassId, EntityId, OrderedSet, Predicate};
use isis_query::ExplainRecord;
use isis_session::{Command, Session, SessionError};

use crate::record::{ms_since, ns_ms, span, Kind, Outcome};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stack::{Inputs, Stack, CHAIN_STEPS};

/// One in this many traces checks one seeded refine step and one seeded
/// scan against the interpreted oracle (the oracle scans the whole
/// extent, so checking every answer would dwarf the gestures).
const ORACLE_EVERY: u64 = 8;

/// Which answers of a trace the oracle checks: a refine step and a scan
/// path.
#[derive(Debug, Clone, Copy)]
struct Oracle {
    step: usize,
    scan: Kind,
}

pub fn run(
    stack: &mut Stack,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(seed ^ 0xB20E);
    let cache_before = stack
        .session
        .index_service()
        .map(|s| s.program_cache().stats())
        .unwrap_or_default();
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        // Traced and untraced traces alternate, and swap parity with each
        // round of the scan rotation, so both halves run every scan.
        let traced = rec.is_some() && (k + k / inputs.scans.len()).is_multiple_of(2);
        if let Some(r) = rec {
            r.set_on(traced);
        }
        let rec = rec.filter(|_| traced);
        let oracle = (rng.below(ORACLE_EVERY) == 0).then(|| Oracle {
            step: rng.below(CHAIN_STEPS as u64) as usize,
            scan: Kind::SCANS[rng.below(3) as usize],
        });
        if let Some(pass) = trace(stack, inputs, k, &mut rng, oracle, rec, &mut out) {
            out.passes.push((pass, traced));
        }
        k += 1;
    }
    if let Some(r) = rec {
        r.set_on(false);
    }
    if let Some(svc) = stack.session.index_service() {
        let now = svc.program_cache().stats();
        let hits = now.hits - cache_before.hits;
        let lookups = hits
            + (now.misses - cache_before.misses)
            + (now.invalidations - cache_before.invalidations);
        out.fixed
            .insert("query.cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
        out.fixed.insert(
            "query.cache_evictions",
            (now.evictions - cache_before.evictions) as f64 / lookups.max(1) as f64,
        );
    }
    out
}

/// One trace; returns its gestures' wall-clock cost in ms, or `None` if
/// a gesture failed.
fn trace(
    stack: &mut Stack,
    inputs: &Inputs,
    k: usize,
    rng: &mut Rng,
    oracle: Option<Oracle>,
    rec: Option<&Recorder>,
    out: &mut Outcome,
) -> Option<f64> {
    let ids = &stack.ids;
    let session = &mut stack.session;
    let pick = |rng: &mut Rng| ids.musician_ids[rng.below(ids.musician_ids.len() as u64) as usize];
    let m1 = pick(rng);
    let mut m2 = pick(rng);
    while m2 == m1 {
        m2 = pick(rng);
    }
    let script = [
        Command::PickByName("musicians".into()),
        Command::ViewContents,
        Command::Scroll(rng.below(200) as i32),
        Command::SelectEntity(m1),
        Command::SelectEntity(m2),
        Command::Follow(ids.plays),
        Command::Pop,
        Command::Pop,
    ];
    let mut pass = 0.0;
    for cmd in script {
        let follow = matches!(cmd, Command::Follow(_));
        let root = span(rec, "navigate");
        let t = Instant::now();
        let applied = {
            let _s = span(rec, "session");
            session.apply(cmd)
        };
        let apply_ms = ms_since(t);
        let scene = applied.and_then(|()| {
            let _v = span(rec, "views");
            let v = Instant::now();
            let scene = session.scene();
            if rec.is_some() {
                out.layer("views.scene_ms", ms_since(v));
            }
            scene
        });
        drop(root);
        let scene = out.attempt("navigate", scene)?;
        pass += out.gesture(Kind::Navigate, t, rec.is_some());
        if rec.is_some() {
            out.layer("session.apply_ms", apply_ms);
            out.layer("views.scene_elements", scene.elements.len() as f64);
        }
        if follow {
            check_follow(session, ids.plays, &[m1, m2], out);
        }
    }

    // A fresh refinement chain: every step compiles, and each answer may
    // only narrow the one before.
    let chain = &inputs.chains[k % inputs.chains.len()];
    let mut answers: Vec<OrderedSet> = Vec::with_capacity(chain.len());
    for (i, pred) in chain.iter().enumerate() {
        let got = query(session, ids.musicians, pred, Kind::RefineCompile, rec, out)?;
        pass += got.1;
        if let Some(prev) = answers.last() {
            out.check(got.0.iter().all(|e| prev.contains(e)), || {
                format!("refine step {i} of chain {k} widened the previous answer")
            });
        }
        if oracle.is_some_and(|o| o.step == i) {
            check_oracle(session, ids.musicians, pred, &got.0, out);
        }
        answers.push(got.0);
    }
    for i in [1, 3] {
        let got = query(
            session,
            ids.musicians,
            &chain[i],
            Kind::RefineRerun,
            rec,
            out,
        )?;
        pass += got.1;
        out.check(got.0.set_eq(&answers[i]), || {
            format!("re-run of refine step {i} of chain {k} changed its answer")
        });
    }

    // One scan per evaluation path, so every trace pays for each path.
    let round = &inputs.scans[k % inputs.scans.len()];
    for (kind, (class, pred)) in Kind::SCANS.into_iter().zip(round) {
        let got = query(session, *class, pred, kind, rec, out)?;
        pass += got.1;
        if oracle.is_some_and(|o| o.scan == kind) {
            check_oracle(session, *class, pred, &got.0, out);
        }
    }
    Some(pass)
}

/// A worksheet query as the user issues it. Traced passes ask
/// `Session::explain`, which answers identically and moves the same
/// counters, and record the planner's own phase timings.
fn query(
    session: &mut Session,
    class: ClassId,
    pred: &Predicate,
    kind: Kind,
    rec: Option<&Recorder>,
    out: &mut Outcome,
) -> Option<(OrderedSet, f64)> {
    let root = span(rec, kind.name());
    let t = Instant::now();
    let answer: Result<(OrderedSet, Option<ExplainRecord>), SessionError> = if rec.is_some() {
        let _q = span(rec, "query");
        session.explain(class, pred).map(|(a, r)| (a, Some(r)))
    } else {
        session.query(class, pred).map(|a| (a, None))
    };
    drop(root);
    let (answer, record) = out.attempt(kind.name(), answer)?;
    let ms = out.gesture(kind, t, rec.is_some());
    if let Some(r) = record {
        explained(kind, &r, out);
    }
    Some((answer, ms))
}

fn explained(kind: Kind, r: &ExplainRecord, out: &mut Outcome) {
    if r.cache != "hit" {
        let other = r.plan_ns + r.eval_ns;
        out.layer("query.compile_ms", ns_ms(r.total_ns.saturating_sub(other)));
    }
    let rows = (r.scanned as f64, r.returned as f64);
    match kind {
        Kind::RefineCompile | Kind::RefineRerun => {
            out.layer("query.plan_ms", ns_ms(r.plan_ns));
            out.layer("query.refine_eval_ms", ns_ms(r.eval_ns));
            out.layer("query.refine_scanned", rows.0);
            out.layer("query.refine_returned", rows.1);
        }
        _ => {
            out.layer("query.scan_eval_ms", ns_ms(r.eval_ns));
            out.layer(
                "query.scan_batch",
                f64::from(u8::from(r.eval_mode == "batch")),
            );
            out.layer("query.scan_scanned", rows.0);
            out.layer("query.scan_returned", rows.1);
        }
    }
}

/// After `Follow`, the new page's selection is the union of the followed
/// values of the selected entities, in first-seen order.
fn check_follow(
    session: &Session,
    attr: isis_core::AttrId,
    selected: &[EntityId],
    out: &mut Outcome,
) {
    let db = session.database();
    let mut expected: Vec<EntityId> = Vec::new();
    for &e in selected {
        match db.attr_value_set(e, attr) {
            Ok(vals) => {
                for v in vals.iter() {
                    if !expected.contains(&v) {
                        expected.push(v);
                    }
                }
            }
            Err(err) => out.check(false, || format!("follow check: {err}")),
        }
    }
    let got = session.pages().last().map(|p| p.selected.clone());
    out.check(got.as_deref() == Some(&expected[..]), || {
        format!("follow selected {got:?}, expected the union {expected:?}")
    });
}

/// The interpreted evaluator is the oracle for every compiled answer.
fn check_oracle(
    session: &Session,
    class: ClassId,
    pred: &Predicate,
    got: &OrderedSet,
    out: &mut Outcome,
) {
    match session.database().evaluate_derived_members(class, pred) {
        Ok(want) => out.check(want.set_eq(got), || {
            format!(
                "compiled answer ({} members) differs from the oracle ({} members) for {pred:?}",
                got.len(),
                want.len()
            )
        }),
        Err(e) => out.check(false, || format!("oracle failed: {e}")),
    }
}
