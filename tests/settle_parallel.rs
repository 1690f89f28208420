//! Pooled-settle equivalence and fault surfacing (ISSUE 8 satellite).
//!
//! On a synthetic database whose parent extent holds 1e5 musicians, a
//! [`DerivedMaintainer::settle_with`] run over the shared [`EvalPool`]
//! must produce *exactly* the memberships — same members, same storage
//! order, same `(added, removed)` counts — as the serial settle over the
//! same affected set. And when a worker panics mid-shard, the panic must
//! surface as [`QueryError::WorkerPanic`] with **no** membership writes
//! applied (the two-phase contract: evaluation fully precedes writes).
//!
//! The panic hook (`test_hooks::PANIC_ON_ENTITY`) is a process-global
//! static, so everything here lives in one `#[test]` function, run
//! sequentially; the hook is armed and disarmed inside it.

use std::sync::atomic::Ordering;

use isis::prelude::*;
use isis_query::parallel::test_hooks;
use isis_query::{DerivedMaintainer, EvalPool, QueryError};
use isis_sample::{synthetic_scaled, SchemaShape, SynthSpec, ValueDist};

const SEED: u64 = 0x5E771E;

#[test]
fn pooled_settle_matches_serial_and_surfaces_worker_panics() {
    // 150k entities → 100k musicians: the affected set is the full parent
    // extent, meeting the 1e5-affected floor.
    let mut g = synthetic_scaled(SynthSpec {
        entities: 150_000,
        dist: ValueDist::Zipf,
        shape: SchemaShape::Wide,
        seed: SEED,
    })
    .unwrap();
    assert!(
        g.s.musician_ids.len() >= 100_000,
        "extent below the 1e5 floor"
    );

    // Membership tracks one tail instrument: `plays ~ {target}`. Assigning
    // `plays = [target]` provably makes a musician a member; assigning any
    // other instrument provably removes one.
    let target = *g.s.instrument_ids.last().unwrap();
    let other = g.s.instrument_ids[0];
    let pred = Predicate::cnf(vec![Clause::new(vec![Atom::new(
        Map::single(g.s.plays),
        CompareOp::Match,
        Rhs::constant(g.s.instruments, [target]),
    )])]);
    let derived =
        g.s.db
            .create_derived_subclass(g.s.musicians, "settle_target")
            .unwrap();
    g.s.db.commit_membership(derived, pred).unwrap();

    let affected: OrderedSet = g.s.musician_ids.iter().copied().collect();
    let serial = EvalPool::new(1);
    let pool = EvalPool::new(2);

    // --- Equivalence: serial and pooled arms on clones of the same state.
    // commit_membership already settled the initial extent, so force real
    // work: push musicians into membership and out of it.
    for k in 0..5_000usize {
        let m = g.s.musician_ids[(k * 31) % g.s.musician_ids.len()];
        let inst = if k % 2 == 0 { target } else { other };
        g.s.db.assign_multi(m, g.s.plays, [inst]).unwrap();
    }
    let mut db_serial = g.s.db.clone();
    let mut db_pool = g.s.db.clone();

    let maint_serial = DerivedMaintainer::new(&db_serial, derived).unwrap();
    let maint_pool = DerivedMaintainer::new(&db_pool, derived).unwrap();

    let serial_counts = maint_serial
        .settle_with(&mut db_serial, &affected, &serial)
        .unwrap();
    let pool_counts = maint_pool
        .settle_with(&mut db_pool, &affected, &pool)
        .unwrap();
    assert_eq!(serial_counts, pool_counts, "(added, removed) must match");
    assert!(
        serial_counts.0 + serial_counts.1 > 0,
        "the perturbation must force membership writes"
    );
    let serial_members = db_serial.members(derived).unwrap();
    let pool_members = db_pool.members(derived).unwrap();
    assert_eq!(
        serial_members.as_slice(),
        pool_members.as_slice(),
        "pooled settle must reproduce serial memberships in storage order"
    );

    // Both arms are converged now: a repeat settle is a no-op either way.
    assert_eq!(
        maint_serial
            .settle_with(&mut db_serial, &affected, &serial)
            .unwrap(),
        (0, 0)
    );
    assert_eq!(
        maint_pool
            .settle_with(&mut db_pool, &affected, &pool)
            .unwrap(),
        (0, 0)
    );

    // --- Fault surfacing: perturb again so a settle *would* write, arm
    // the hook on an entity deep in the affected list, and prove the
    // pooled settle fails with WorkerPanic and writes nothing.
    for k in 0..1_000usize {
        let m = g.s.musician_ids[(k * 53 + 7) % g.s.musician_ids.len()];
        let inst = if k % 2 == 0 { target } else { other };
        db_pool.assign_multi(m, g.s.plays, [inst]).unwrap();
    }
    let members_before = db_pool.members(derived).unwrap().clone();
    let trap = g.s.musician_ids[g.s.musician_ids.len() / 2];
    test_hooks::PANIC_ON_ENTITY.store(trap.raw(), Ordering::SeqCst);
    let res = maint_pool.settle_with(&mut db_pool, &affected, &pool);
    test_hooks::PANIC_ON_ENTITY.store(u32::MAX, Ordering::SeqCst);
    match res {
        Err(QueryError::WorkerPanic(msg)) => {
            assert!(
                msg.contains("injected worker fault"),
                "panic payload must survive the worker boundary: {msg}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(
        db_pool.members(derived).unwrap().set_eq(&members_before),
        "a failed settle must not write memberships"
    );

    // With the hook disarmed the same settle succeeds and writes.
    let (added, removed) = maint_pool
        .settle_with(&mut db_pool, &affected, &pool)
        .unwrap();
    assert!(added + removed > 0, "recovery settle must apply the writes");
}
