//! The indexed-vs-naive equivalence battery: for random predicates, random
//! index subsets, and random mutation sequences, every query answered
//! through the shared [`IndexService`] must equal the naive full-scan
//! evaluator — before any mutation, after every incremental refresh, and
//! after a final drain. The generator deliberately includes a
//! grouping-ranged attribute (`likes`, valued in the `by_family` grouping)
//! so that re-keying a grouping's base attribute mid-window is exercised
//! against the maintained indexes.

use isis::prelude::*;
use isis_query::IndexService;
use isis_sample::instrumental_music;
use proptest::prelude::*;

/// Copyable handles into the generated schema (the sample database plus
/// the extra grouping-ranged attribute), so mutation helpers can work on a
/// bare `&mut Database` after the database has moved into a `Session`.
#[derive(Debug, Clone)]
struct Ids {
    musicians: ClassId,
    instruments: ClassId,
    families: ClassId,
    booleans: ClassId,
    plays: AttrId,
    family: AttrId,
    union_attr: AttrId,
    /// Multi-valued, ranged over the `by_family` grouping: its value set
    /// expands to the union of the named families' instrument sets, and a
    /// `family` reassignment silently re-keys that expansion.
    likes: AttrId,
    all_instruments: Vec<EntityId>,
    fams: [EntityId; 4],
    yes: EntityId,
    no: EntityId,
}

fn setup() -> (Database, Ids, Vec<EntityId>) {
    let mut im = instrumental_music().unwrap();
    let likes = im
        .db
        .create_attribute(im.musicians, "likes", im.by_family, Multiplicity::Multi)
        .unwrap();
    let yes = im.db.boolean(true);
    let no = im.db.boolean(false);
    let ids = Ids {
        musicians: im.musicians,
        instruments: im.instruments,
        families: im.families,
        booleans: im.db.predefined(BaseKind::Booleans),
        plays: im.plays,
        family: im.family,
        union_attr: im.union_attr,
        likes,
        all_instruments: im.all_instruments.clone(),
        fams: [im.brass, im.woodwind, im.stringed, im.keyboard],
        yes,
        no,
    };
    let live = im.all_musicians.clone();
    (im.db, ids, live)
}

/// A generated atom over musicians: `lhs-map op constant-set`.
#[derive(Debug, Clone)]
struct GenAtom {
    /// 0 = plays, 1 = plays∘family, 2 = union, 3 = likes (grouping-ranged),
    /// 4 = likes∘family (a walk through expanded postings)
    lhs: u8,
    op_idx: u8,
    negated: bool,
    consts: Vec<u8>,
}

fn atom_strategy() -> impl Strategy<Value = GenAtom> {
    (
        0u8..5,
        0u8..4,
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..3),
    )
        .prop_map(|(lhs, op_idx, negated, consts)| GenAtom {
            lhs,
            op_idx,
            negated,
            consts,
        })
}

fn build_atom(ids: &Ids, g: &GenAtom) -> Atom {
    let (lhs, pool_class, pool): (Map, ClassId, Vec<EntityId>) = match g.lhs {
        0 => (
            Map::single(ids.plays),
            ids.instruments,
            ids.all_instruments.clone(),
        ),
        1 => (
            Map::new(vec![ids.plays, ids.family]),
            ids.families,
            ids.fams.to_vec(),
        ),
        2 => (Map::single(ids.union_attr), ids.booleans, vec![ids.yes]),
        // The grouping-ranged attribute expands to instrument sets, so its
        // constants are instruments.
        3 => (
            Map::single(ids.likes),
            ids.instruments,
            ids.all_instruments.clone(),
        ),
        // Its first step expands through `by_family`, so a walk back from
        // a family crosses postings that a `family` re-key moves.
        _ => (
            Map::new(vec![ids.likes, ids.family]),
            ids.families,
            ids.fams.to_vec(),
        ),
    };
    let ops = [
        CompareOp::SetEq,
        CompareOp::Subset,
        CompareOp::Superset,
        CompareOp::Match,
    ];
    let anchors: Vec<EntityId> = g
        .consts
        .iter()
        .map(|i| pool[*i as usize % pool.len()])
        .collect();
    Atom::new(
        lhs,
        Operator {
            op: ops[g.op_idx as usize % ops.len()],
            negated: g.negated,
        },
        Rhs::constant(pool_class, anchors),
    )
}

fn build_predicate(ids: &Ids, clauses: &[Vec<GenAtom>], dnf: bool) -> Predicate {
    let cs: Vec<Clause> = clauses
        .iter()
        .map(|atoms| Clause::new(atoms.iter().map(|g| build_atom(ids, g)).collect()))
        .collect();
    if dnf {
        Predicate::dnf(cs)
    } else {
        Predicate::cnf(cs)
    }
}

/// One generated data mutation; indices are taken modulo the live pools.
#[derive(Debug, Clone)]
struct GenOp {
    kind: u8,
    a: u8,
    b: u8,
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    (0u8..8, any::<u8>(), any::<u8>()).prop_map(|(kind, a, b)| GenOp { kind, a, b })
}

/// Applies one generated mutation to the live database. Degenerate ops
/// (e.g. deleting from an emptied pool) are skipped.
fn apply_op(db: &mut Database, ids: &Ids, live: &mut Vec<EntityId>, fresh: &mut u32, op: &GenOp) {
    match op.kind {
        // Replace a musician's instrument set with one or two instruments.
        0 => {
            if live.is_empty() {
                return;
            }
            let m = live[op.a as usize % live.len()];
            let i1 = ids.all_instruments[op.b as usize % ids.all_instruments.len()];
            let i2 = ids.all_instruments[(op.b as usize / 7) % ids.all_instruments.len()];
            db.assign_multi(m, ids.plays, [i1, i2]).unwrap();
        }
        // Add one instrument to a musician's set.
        1 => {
            if live.is_empty() {
                return;
            }
            let m = live[op.a as usize % live.len()];
            let i = ids.all_instruments[op.b as usize % ids.all_instruments.len()];
            db.add_value(m, ids.plays, i).unwrap();
        }
        // Flip a musician's union membership.
        2 => {
            if live.is_empty() {
                return;
            }
            let m = live[op.a as usize % live.len()];
            let v = if op.b.is_multiple_of(2) {
                ids.yes
            } else {
                ids.no
            };
            db.assign_single(m, ids.union_attr, v).unwrap();
        }
        // Reclassify an instrument's family: re-keys the `by_family`
        // grouping, silently changing every `likes` expansion.
        3 => {
            let i = ids.all_instruments[op.a as usize % ids.all_instruments.len()];
            let f = ids.fams[op.b as usize % ids.fams.len()];
            db.assign_single(i, ids.family, f).unwrap();
        }
        // Insert a new musician (joins the parent extent with no values).
        4 => {
            *fresh += 1;
            let id = db
                .insert_entity(ids.musicians, &format!("gen_musician_{fresh}"))
                .unwrap();
            live.push(id);
        }
        // Delete a musician (leaves the parent extent entirely).
        5 => {
            if live.len() <= 2 {
                return;
            }
            let idx = op.a as usize % live.len();
            let m = live.swap_remove(idx);
            db.delete_entity(m).unwrap();
        }
        // Replace a musician's `likes` set with one or two families.
        6 => {
            if live.is_empty() {
                return;
            }
            let m = live[op.a as usize % live.len()];
            let f1 = ids.fams[op.b as usize % ids.fams.len()];
            let f2 = ids.fams[(op.b as usize / 5) % ids.fams.len()];
            db.assign_multi(m, ids.likes, [f1, f2]).unwrap();
        }
        // Add one family to a musician's `likes` set.
        _ => {
            if live.is_empty() {
                return;
            }
            let m = live[op.a as usize % live.len()];
            let f = ids.fams[op.b as usize % ids.fams.len()];
            db.add_value(m, ids.likes, f).unwrap();
        }
    }
}

/// Both evaluators are extent-ordered, so equality is exact (order and
/// all) — comparing slices also pins down determinism.
fn check(db: &Database, svc: &IndexService, ids: &Ids, pred: &Predicate, when: &str) {
    let indexed = svc.evaluate(db, ids.musicians, pred).unwrap();
    let naive = db.evaluate_derived_members(ids.musicians, pred).unwrap();
    assert_eq!(
        indexed.as_slice(),
        naive.as_slice(),
        "indexed disagrees with naive {when} for {pred}"
    );
}

proptest! {
    // The vendored stub's default is already 256; make the floor explicit.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The headline battery: random predicate, random subset of maintained
    /// indexes, random mutation sequence. The shared service must agree
    /// with the naive evaluator at every refresh point.
    #[test]
    fn indexed_evaluation_matches_naive_before_and_after_refreshes(
        clauses in proptest::collection::vec(
            proptest::collection::vec(atom_strategy(), 1..3),
            1..3
        ),
        dnf in any::<bool>(),
        index_mask in proptest::collection::vec(any::<bool>(), 4),
        ops in proptest::collection::vec(op_strategy(), 1..12),
        drain_each in any::<bool>(),
    ) {
        let (mut db, ids, mut live) = setup();
        let pred = build_predicate(&ids, &clauses, dnf);
        db.validate_predicate(ids.musicians, None, &pred).unwrap();

        let mut svc = IndexService::new(&db);
        for (on, attr) in index_mask
            .iter()
            .zip([ids.plays, ids.union_attr, ids.likes, ids.family])
        {
            if *on {
                svc.ensure_index(&db, attr).unwrap();
            }
        }
        check(&db, &svc, &ids, &pred, "before any mutation");

        let mut fresh = 0u32;
        for op in &ops {
            apply_op(&mut db, &ids, &mut live, &mut fresh, op);
            if drain_each {
                svc.refresh(&db).unwrap();
                check(&db, &svc, &ids, &pred, "after an incremental refresh");
            }
        }
        svc.refresh(&db).unwrap();
        check(&db, &svc, &ids, &pred, "after the final drain");
        prop_assert!(db.is_consistent().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The session-level contract: [`Session::query`] agrees with the naive
    /// evaluator under every refresh policy, and a refresh leaves the
    /// derived subclass (maintained through the same shared service) with
    /// exactly the membership the predicate selects.
    #[test]
    fn session_query_agrees_with_naive_under_every_policy(
        clauses in proptest::collection::vec(
            proptest::collection::vec(atom_strategy(), 1..3),
            1..3
        ),
        dnf in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
        policy_idx in 0u8..3,
    ) {
        let (mut db, ids, mut live) = setup();
        let pred = build_predicate(&ids, &clauses, dnf);
        db.validate_predicate(ids.musicians, None, &pred).unwrap();
        let derived = db.create_derived_subclass(ids.musicians, "gen_q").unwrap();
        db.commit_membership(derived, pred.clone()).unwrap();

        let policy = [
            RefreshPolicy::Manual,
            RefreshPolicy::OnCommit,
            RefreshPolicy::Immediate,
        ][policy_idx as usize % 3];
        let mut session = Session::builder(db).refresh_policy(policy).build();

        let mut fresh = 0u32;
        session
            .transact(|db| {
                for op in &ops {
                    apply_op(db, &ids, &mut live, &mut fresh, op);
                }
                Ok(())
            })
            .unwrap();

        let got = session.query(ids.musicians, &pred).unwrap();
        let naive = session
            .database()
            .evaluate_derived_members(ids.musicians, &pred)
            .unwrap();
        prop_assert_eq!(got.as_slice(), naive.as_slice(), "policy {:?}", policy);

        session.refresh_derived().unwrap();
        // Incremental settling appends re-joining members at the end of the
        // derived extent, so membership equality is set equality.
        let mut members: Vec<EntityId> =
            session.database().members(derived).unwrap().iter().collect();
        members.sort();
        let mut expect: Vec<EntityId> = naive.iter().collect();
        expect.sort();
        prop_assert_eq!(&members, &expect, "derived membership after refresh");

        // Post-refresh the pipeline is synchronised, so the answer must
        // come through the shared indexes (not the scan fallback).
        let again = session.query(ids.musicians, &pred).unwrap();
        prop_assert_eq!(again.as_slice(), naive.as_slice());
        let svc = session.index_service().expect("refresh builds the service");
        prop_assert!(svc.query_stats().queries >= 1);
    }
}

/// A lone atom: `~`, `⊇` or `=`, maybe negated, against 0–3 anchors, over
/// any of the five generated maps.
fn lone_atom_strategy() -> impl Strategy<Value = GenAtom> {
    (
        0u8..5,
        0u8..3,
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..4),
    )
        .prop_map(|(lhs, op, negated, consts)| GenAtom {
            lhs,
            // `~`, `⊇` and `=` in `build_atom`'s operator table.
            op_idx: [3, 2, 0][op as usize],
            negated,
            consts,
        })
}

/// Whether the service's exact walk answers `atom` alone: a non-negated
/// `~`, or `⊇` against at least one anchor, over a map indexed on every
/// step, by a service at the database's epoch.
fn walk_expected(db: &Database, svc: &IndexService, atom: &Atom, indexed: &[AttrId]) -> bool {
    let Rhs::Constant { anchors, .. } = &atom.rhs else {
        return false;
    };
    !atom.op.negated
        && match atom.op.op {
            CompareOp::Match => true,
            CompareOp::Superset => !anchors.is_empty(),
            _ => false,
        }
        && atom.lhs.steps().iter().all(|a| indexed.contains(a))
        && svc.cursor() == db.delta_epoch()
}

/// The service answers a lone atom as the naive evaluator does, order
/// included, and EXPLAIN reports `walk` exactly when the walk is the
/// answer. A service behind its database is only asked for its mode.
fn check_lone(
    db: &Database,
    svc: &IndexService,
    ids: &Ids,
    pred: &Predicate,
    indexed: &[AttrId],
    when: &str,
) {
    let atom = &pred.clauses[0].atoms[0];
    let walk = walk_expected(db, svc, atom, indexed);
    let (explained, record) = svc.explain(db, ids.musicians, pred).unwrap();
    assert_eq!(
        record.eval_mode == "walk",
        walk,
        "{when}: eval mode {} for {pred} (indexed {indexed:?})",
        record.eval_mode
    );
    if walk {
        assert_eq!(
            (record.scanned, record.candidates),
            (0, 0),
            "{when}: {pred}"
        );
    }
    if svc.cursor() != db.delta_epoch() {
        return;
    }
    let naive = db.evaluate_derived_members(ids.musicians, pred).unwrap();
    let indexed_answer = svc.evaluate(db, ids.musicians, pred).unwrap();
    assert_eq!(
        indexed_answer.as_slice(),
        naive.as_slice(),
        "{when}: indexed disagrees with naive for {pred}"
    );
    assert_eq!(explained.as_slice(), naive.as_slice(), "{when}: {pred}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Lone atoms, the shape the exact walk answers without running the
    /// program: random operator, negation, anchor count and map, random
    /// index subset, random mutations with and without a drain after each.
    #[test]
    fn lone_atoms_match_naive_and_walk_exactly_when_exact(
        gen in lone_atom_strategy(),
        dnf in any::<bool>(),
        index_mask in proptest::collection::vec(any::<bool>(), 4),
        ops in proptest::collection::vec(op_strategy(), 0..12),
        drain_each in any::<bool>(),
    ) {
        let (mut db, ids, mut live) = setup();
        let pred = build_predicate(&ids, &[vec![gen]], dnf);
        db.validate_predicate(ids.musicians, None, &pred).unwrap();

        let mut svc = IndexService::new(&db);
        let mut indexed = Vec::new();
        for (on, attr) in index_mask
            .iter()
            .zip([ids.plays, ids.union_attr, ids.likes, ids.family])
        {
            if *on {
                svc.ensure_index(&db, attr).unwrap();
                indexed.push(attr);
            }
        }
        check_lone(&db, &svc, &ids, &pred, &indexed, "before any mutation");

        let mut fresh = 0u32;
        for op in &ops {
            apply_op(&mut db, &ids, &mut live, &mut fresh, op);
            if drain_each {
                svc.refresh(&db).unwrap();
            }
            check_lone(&db, &svc, &ids, &pred, &indexed, "after a mutation");
        }
        svc.refresh(&db).unwrap();
        check_lone(&db, &svc, &ids, &pred, &indexed, "after the final drain");
    }
}
