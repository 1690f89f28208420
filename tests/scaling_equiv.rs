//! The scaling equivalence battery (ISSUE 8 satellite): on a 100k-entity
//! synthetic database, query answers served through the [`IndexService`]
//! program cache must be *identical* — same members, same order, same
//! errors — to per-query recompilation through the same path and to the
//! core interpreter, across navigation rounds interleaved with the data
//! and schema edits that exercise every arm of the cache's invalidation
//! contract (pure hit, data-only re-hoist, schema-edit recompile).

use isis::prelude::*;
use isis_query::{IndexService, PredicateProgram, QueryError};
use isis_sample::workload::navigation_chain;
use isis_sample::{synthetic_scaled, ScaledMusic, SchemaShape, SynthSpec, ValueDist};

const SEED: u64 = 0xE8;

fn scaled_db() -> ScaledMusic {
    synthetic_scaled(SynthSpec {
        entities: 100_000,
        dist: ValueDist::Zipf,
        shape: SchemaShape::Wide,
        seed: 0x100_000,
    })
    .unwrap()
}

/// A predicate that fails during evaluation: `plays < {instrument}` orders
/// a multi-valued set, which the evaluator rejects on the first candidate
/// that reaches the atom.
fn error_pred(s: &ScaledMusic, inst: EntityId) -> Predicate {
    Predicate::cnf(vec![
        Clause::new(vec![Atom::new(
            Map::single(s.s.plays),
            CompareOp::Match,
            Rhs::constant(s.s.instruments, [inst]),
        )]),
        Clause::new(vec![Atom::new(
            Map::single(s.s.plays),
            CompareOp::Lt,
            Rhs::constant(s.s.instruments, [inst]),
        )]),
    ])
}

/// Cached (svc) vs freshly-compiled-per-query (svc_fresh, cache cleared
/// before each lookup) — both through the identical pruned path — and,
/// when `deep` is set, additionally against the interpreter and a raw
/// compiled extent scan. All four must agree exactly, on success and on
/// failure.
fn check_arms(
    svc: &IndexService,
    svc_fresh: &IndexService,
    db: &Database,
    parent: ClassId,
    pred: &Predicate,
    deep: bool,
) {
    let cached = svc.evaluate(db, parent, pred);
    svc_fresh.program_cache().clear();
    let fresh = svc_fresh.evaluate(db, parent, pred);
    match (&cached, &fresh) {
        (Ok(a), Ok(b)) => assert_eq!(a.as_slice(), b.as_slice(), "cached != fresh for {pred}"),
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "cached/fresh errors differ for {pred}"),
        _ => panic!("one arm failed for {pred}: cached={cached:?} fresh={fresh:?}"),
    }
    if !deep {
        return;
    }
    let interp = db.evaluate_derived_members(parent, pred);
    let compiled = PredicateProgram::compile(db, parent, pred)
        .map(|p| p.evaluate_extent(db, parent))
        .and_then(|r| r);
    match (&cached, &interp) {
        (Ok(a), Ok(b)) => assert_eq!(a.as_slice(), b.as_slice(), "cached != interpreted: {pred}"),
        (Err(ea), Err(eb)) => {
            assert_eq!(
                ea,
                &QueryError::Core(eb.clone()),
                "cached/interpreted errors differ: {pred}"
            )
        }
        _ => panic!("cached/interpreted disagree for {pred}: {cached:?} vs {interp:?}"),
    }
    match (&cached, &compiled) {
        (Ok(a), Ok(b)) => assert_eq!(a.as_slice(), b.as_slice(), "cached != compiled: {pred}"),
        (Err(ea), Err(eb)) => {
            assert_eq!(
                ea,
                &QueryError::Core(eb.clone()),
                "cached/compiled errors differ: {pred}"
            )
        }
        _ => panic!("cached/compiled disagree for {pred}: {cached:?} vs {compiled:?}"),
    }
}

#[test]
fn cached_queries_stay_equivalent_through_edits_at_scale() {
    let mut g = scaled_db();
    let mut svc = IndexService::new(&g.s.db);
    svc.ensure_index(&g.s.db, g.s.plays).unwrap();
    svc.ensure_index(&g.s.db, g.s.union_attr).unwrap();
    let mut svc_fresh = IndexService::new(&g.s.db);
    svc_fresh.ensure_index(&g.s.db, g.s.plays).unwrap();
    svc_fresh.ensure_index(&g.s.db, g.s.union_attr).unwrap();

    let mut invalidations_seen = 0;
    for round in 0..6 {
        // Interpreter + raw-compiled cross-checks are O(extent); run them
        // on the first rounds, the cheap pruned arms on every round.
        let deep = round < 2;
        let chain = navigation_chain(&mut g.s, 5, SEED + round);
        for pred in &chain {
            check_arms(&svc, &svc_fresh, &g.s.db, g.s.musicians, pred, deep);
        }
        // Repeat the chain: pure hits must serve the identical answers.
        for pred in &chain {
            check_arms(&svc, &svc_fresh, &g.s.db, g.s.musicians, pred, false);
        }
        // Error identity through every arm.
        let bad = error_pred(
            &g,
            g.s.instrument_ids[round as usize % g.s.instrument_ids.len()],
        );
        check_arms(&svc, &svc_fresh, &g.s.db, g.s.musicians, &bad, deep);

        match round % 3 {
            0 => {
                // Data edit: reassign some plays values. The cache must
                // revalidate (re-hoist) without a recompile and the new
                // answers must reflect the edit.
                for k in 0..50 {
                    let m =
                        g.s.musician_ids[(round as usize * 131 + k * 17) % g.s.musician_ids.len()];
                    let inst = g.s.instrument_ids[k % g.s.instrument_ids.len()];
                    g.s.db.assign_multi(m, g.s.plays, [inst]).unwrap();
                }
                svc.refresh(&g.s.db).unwrap();
                svc_fresh.refresh(&g.s.db).unwrap();
            }
            1 => {
                // Schema edit: every cached program must be invalidated,
                // not served stale.
                g.s.db
                    .create_baseclass(&format!("aux_class_{round}"))
                    .unwrap();
                svc.refresh(&g.s.db).unwrap();
                svc_fresh.refresh(&g.s.db).unwrap();
                let before = svc.program_cache().stats().invalidations;
                let probe = &navigation_chain(&mut g.s, 2, SEED + round)[1];
                check_arms(&svc, &svc_fresh, &g.s.db, g.s.musicians, probe, false);
                let after = svc.program_cache().stats().invalidations;
                assert!(
                    after > before,
                    "schema edit must invalidate cached programs (round {round})"
                );
                invalidations_seen += after - before;
            }
            _ => {}
        }
    }
    assert!(
        invalidations_seen >= 2,
        "battery must exercise invalidation"
    );
    let stats = svc.program_cache().stats();
    assert!(
        stats.hits > 0 && stats.misses > 0,
        "battery must exercise the cache: {stats:?}"
    );
}
