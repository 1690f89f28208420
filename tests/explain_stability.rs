//! EXPLAIN is stats-faithful and observability is result-invisible.
//!
//! Two contracts from the telemetry design (DESIGN.md §5c), checked
//! end-to-end in their own process because they toggle the process-wide
//! `isis_obs::global()` switch:
//!
//! 1. **Equivalence**: evaluation results are byte-identical with
//!    observability enabled and disabled — instrumentation must never
//!    perturb an answer.
//! 2. **Stability**: `IndexService::explain` advances the `QueryStats`
//!    counters by exactly the same deltas as the `evaluate` it wraps, and
//!    the record's own numbers agree with those counters.

use std::sync::{Mutex, MutexGuard};

use isis_core::{Atom, Clause, CompareOp, Map, Predicate, Rhs};
use isis_query::IndexService;
use isis_sample::instrumental_music;

/// Exclusive use of the process-global observability switches. Each test
/// holds it across all of its toggles, so no test evaluates while another
/// has flipped them; dropping it (also on panic) switches observability
/// off and restores the default slow-query threshold.
struct ObsLock {
    _lock: MutexGuard<'static, ()>,
}

fn obs_lock() -> ObsLock {
    static LOCK: Mutex<()> = Mutex::new(());
    ObsLock {
        _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

impl Drop for ObsLock {
    fn drop(&mut self) {
        let obs = isis_obs::global();
        obs.set_enabled(false);
        obs.set_slow_threshold_ns(isis_obs::DEFAULT_SLOW_THRESHOLD_NS);
    }
}

/// How many `kind` events the global journal holds.
fn journaled(kind: &str) -> usize {
    isis_obs::global()
        .journal()
        .snapshot()
        .events_of(kind)
        .count()
}

fn preds(im: &mut isis_sample::InstrumentalMusic) -> Vec<Predicate> {
    let yes = im.db.boolean(true);
    let booleans = im.db.predefined(isis_core::BaseKind::Booleans);
    vec![
        // One indexable ~ atom: the planner probes the plays index.
        Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            CompareOp::Match,
            Rhs::constant(im.instruments, [im.piano]),
        )])]),
        // Superset against two anchors: rarest-first intersection.
        Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            CompareOp::Superset,
            Rhs::constant(im.instruments, [im.violin, im.viola]),
        )])]),
        // CNF over two clauses, mixing probed and scanned atoms.
        Predicate::cnf(vec![
            Clause::new(vec![Atom::new(
                Map::single(im.plays),
                CompareOp::Match,
                Rhs::constant(im.instruments, [im.violin]),
            )]),
            Clause::new(vec![Atom::new(
                Map::single(im.union_attr),
                CompareOp::Match,
                Rhs::constant(booleans, [yes]),
            )]),
        ]),
    ]
}

/// Results must be byte-identical with observability on and off, for the
/// serial service path and with slow-query capture forcing the capturing
/// wrapper on every evaluation.
#[test]
fn results_are_identical_with_observability_on_and_off() {
    let _lock = obs_lock();
    let mut im = instrumental_music().unwrap();
    let obs = isis_obs::global();

    obs.set_enabled(false);
    let mut svc_off = IndexService::new(&im.db);
    svc_off.ensure_index(&im.db, im.plays).unwrap();
    let baseline: Vec<Vec<_>> = preds(&mut im)
        .iter()
        .map(|p| {
            svc_off
                .evaluate(&im.db, im.musicians, p)
                .unwrap()
                .as_slice()
                .to_vec()
        })
        .collect();

    obs.set_enabled(true);
    obs.journal().clear();
    let mut svc_on = IndexService::new(&im.db);
    svc_on.ensure_index(&im.db, im.plays).unwrap();
    obs.set_slow_threshold_ns(1); // force the capture path everywhere
    for (pred, want) in preds(&mut im).iter().zip(&baseline) {
        let got = svc_on.evaluate(&im.db, im.musicians, pred).unwrap();
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "observability changed an answer for {pred}"
        );
        let (explained, record) = svc_on.explain(&im.db, im.musicians, pred).unwrap();
        assert_eq!(
            explained.as_slice(),
            want.as_slice(),
            "explain changed an answer for {pred}"
        );
        assert_eq!(record.returned as usize, explained.len());
    }
    // Every forced-slow evaluation above, and only those, journaled one
    // slow-query event; every explain journaled one explain event.
    assert_eq!(journaled("query.service.slow"), baseline.len());
    assert_eq!(journaled("query.service.explain"), baseline.len());
}

/// The record's eval-mode facet is faithful: a program of single-step
/// constant atoms streams attribute columns (`batch`, with the run width
/// and per-column occupancy), while a multi-step map keeps the whole
/// program on the per-candidate interpreter (`scalar`, no column stats).
#[test]
fn explain_reports_eval_mode_and_column_stats() {
    let _lock = obs_lock();
    let mut im = instrumental_music().unwrap();
    isis_obs::global().set_enabled(false);
    let svc = IndexService::new(&im.db);

    // `plays ~ {piano}`: one single-step constant atom, batch eligible.
    let streamable = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.plays),
        CompareOp::Match,
        Rhs::constant(im.instruments, [im.piano]),
    )])]);
    let (_, rec) = svc.explain(&im.db, im.musicians, &streamable).unwrap();
    assert_eq!(rec.eval_mode, "batch");
    assert_eq!(rec.batch_rows, isis_query::BATCH_ROWS);
    assert_eq!(rec.columns.len(), 1);
    assert_eq!(rec.columns[0].attr, "plays");
    assert!(rec.columns[0].dense_len + rec.columns[0].overflow_len > 0);
    assert!(
        rec.to_text().contains("column streaming"),
        "{}",
        rec.to_text()
    );

    // The quartets predicate walks `members plays` — a two-step map, so
    // the program never builds a batch body.
    let pred = isis_sample::quartets_predicate(&mut im);
    let (_, rec) = svc.explain(&im.db, im.music_groups, &pred).unwrap();
    assert_eq!(rec.eval_mode, "scalar");
    assert_eq!(rec.batch_rows, 0);
    assert!(rec.to_text().contains("eval: scalar"), "{}", rec.to_text());
}

/// `explain` advances the `QueryStats` counters by exactly the same deltas
/// as the equivalent `evaluate`, and the record agrees with the counters.
#[test]
fn explain_counter_deltas_match_evaluate() {
    let _lock = obs_lock();
    let mut im = instrumental_music().unwrap();
    isis_obs::global().set_enabled(false);
    let mut svc = IndexService::new(&im.db);
    svc.ensure_index(&im.db, im.plays).unwrap();

    for pred in preds(&mut im) {
        // Warm once so both arms start from the same cache state.
        svc.evaluate(&im.db, im.musicians, &pred).unwrap();

        let s0 = svc.query_stats();
        let out = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let s1 = svc.query_stats();
        let (explained, record) = svc.explain(&im.db, im.musicians, &pred).unwrap();
        let s2 = svc.query_stats();

        assert_eq!(out.as_slice(), explained.as_slice());
        let eval_delta = (
            s1.queries - s0.queries,
            s1.index_probes - s0.index_probes,
            s1.grouping_scans - s0.grouping_scans,
            s1.seq_scans - s0.seq_scans,
            s1.index_misses - s0.index_misses,
        );
        let explain_delta = (
            s2.queries - s1.queries,
            s2.index_probes - s1.index_probes,
            s2.grouping_scans - s1.grouping_scans,
            s2.seq_scans - s1.seq_scans,
            s2.index_misses - s1.index_misses,
        );
        assert_eq!(
            eval_delta, explain_delta,
            "explain must move the counters exactly like evaluate for {pred}"
        );
        assert_eq!(eval_delta.0, 1, "each arm counts as one query");

        // The record's own numbers agree with what the counters saw.
        assert_eq!(record.returned as usize, explained.len());
        assert_eq!(record.scanned as usize, record.candidates);
        assert_eq!(record.cache, "hit", "warmed predicate must hit the cache");
        assert!(record.plan_reused, "no mutations: the plan stays valid");
        assert_eq!(
            record.atoms.len(),
            pred.clauses.iter().map(|c| c.atoms.len()).sum::<usize>()
        );
    }
}

/// A two-step lone `⊇` is answered by its exact walk: EXPLAIN says so,
/// and with observability on and off it answers as `evaluate` does and
/// moves the planner and program-cache counters by the same deltas.
#[test]
fn a_two_step_walk_explains_like_it_evaluates() {
    let _lock = obs_lock();
    let im = instrumental_music().unwrap();
    let pred = Predicate::cnf(vec![Clause::new(vec![Atom::new(
        Map::new(vec![im.members, im.plays]),
        CompareOp::Superset,
        Rhs::constant(im.instruments, [im.piano]),
    )])]);
    let want = im
        .db
        .evaluate_derived_members(im.music_groups, &pred)
        .unwrap();
    assert!(!want.is_empty());
    let mut runs = Vec::new();
    for enabled in [false, true] {
        isis_obs::global().set_enabled(enabled);
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.members).unwrap();
        svc.ensure_index(&im.db, im.plays).unwrap();
        let counters = |svc: &IndexService| {
            let (q, c) = (svc.query_stats(), svc.program_cache().stats());
            [
                q.queries,
                q.index_probes,
                q.grouping_scans,
                q.seq_scans,
                q.index_misses,
                c.hits,
                c.misses,
            ]
        };
        svc.evaluate(&im.db, im.music_groups, &pred).unwrap();
        let s0 = counters(&svc);
        let out = svc.evaluate(&im.db, im.music_groups, &pred).unwrap();
        let s1 = counters(&svc);
        let (explained, record) = svc.explain(&im.db, im.music_groups, &pred).unwrap();
        let s2 = counters(&svc);
        assert_eq!(out.as_slice(), want.as_slice(), "obs {enabled}");
        assert_eq!(explained.as_slice(), want.as_slice(), "obs {enabled}");
        let delta = |a: [u64; 7], b: [u64; 7]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| y - x).collect()
        };
        assert_eq!(delta(s0, s1), delta(s1, s2), "obs {enabled}");
        assert_eq!(record.eval_mode, "walk");
        assert_eq!((record.scanned, record.candidates), (0, 0));
        assert_eq!(record.returned as usize, want.len());
        assert_eq!(record.pool_len, Some(want.len()), "the walk is exact");
        assert_eq!(record.cache, "hit");
        assert!(record.plan_reused);
        runs.push(s2);
    }
    assert_eq!(runs[0], runs[1], "observability moved the counters");
}
