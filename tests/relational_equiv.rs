//! Property-based equivalence of the three query engines: the ISIS
//! per-candidate evaluator, the compiled relational algebra plan, and the
//! index-pruned [`IndexService`] — all must select exactly the same
//! entities for arbitrary generated predicates.
//!
//! This is the machine-checked form of §2's "these predicates provide the
//! full power of relational algebra".

use isis::prelude::*;
use isis_query::compile_and_eval;
use isis_sample::instrumental_music;
use proptest::prelude::*;

/// A generated atom over the Instrumental_Music schema, ranging over
/// musicians: `lhs-map op constant-set`.
#[derive(Debug, Clone)]
struct GenAtom {
    /// 0 = plays, 1 = plays family, 2 = union, 3 = identity
    lhs: u8,
    op_idx: u8,
    negated: bool,
    /// Indices into the relevant constant pool.
    consts: Vec<u8>,
}

fn atom_strategy() -> impl Strategy<Value = GenAtom> {
    (
        0u8..4,
        0u8..6, // the six set operators (ordering ops excluded: maps are multivalued)
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

fn build_atom(im: &isis::sample::InstrumentalMusic, yes: EntityId, g: &GenAtom) -> Atom {
    let (lhs, pool_class, pool): (Map, ClassId, Vec<EntityId>) = match g.lhs {
        0 => (
            Map::single(im.plays),
            im.instruments,
            im.all_instruments.clone(),
        ),
        1 => (
            Map::new(vec![im.plays, im.family]),
            im.families,
            vec![
                im.brass,
                im.woodwind,
                im.stringed,
                im.percussion,
                im.keyboard,
            ],
        ),
        2 => (
            Map::single(im.union_attr),
            im.db.predefined(BaseKind::Booleans),
            vec![yes],
        ),
        _ => (Map::identity(), im.musicians, im.all_musicians.clone()),
    };
    let ops = [
        CompareOp::SetEq,
        CompareOp::Subset,
        CompareOp::Superset,
        CompareOp::ProperSubset,
        CompareOp::ProperSuperset,
        CompareOp::Match,
    ];
    let op = ops[g.op_idx as usize % ops.len()];
    let anchors: Vec<EntityId> = g
        .consts
        .iter()
        .map(|i| pool[*i as usize % pool.len()])
        .collect();
    Atom::new(
        lhs,
        Operator {
            op,
            negated: g.negated,
        },
        Rhs::constant(pool_class, anchors),
    )
}

fn build_predicate(
    im: &isis::sample::InstrumentalMusic,
    yes: EntityId,
    clauses: &[Vec<GenAtom>],
    dnf: bool,
) -> Predicate {
    let cs = clauses
        .iter()
        .map(|atoms| Clause::new(atoms.iter().map(|g| build_atom(im, yes, g)).collect()))
        .collect();
    if dnf {
        Predicate::dnf(cs)
    } else {
        Predicate::cnf(cs)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn three_engines_agree(
        clauses in proptest::collection::vec(
            proptest::collection::vec(atom_strategy(), 0..3),
            0..3
        ),
        dnf in any::<bool>(),
    ) {
        let mut im = instrumental_music().unwrap();
        let yes = im.db.boolean(true);
        let pred = build_predicate(&im, yes, &clauses, dnf);

        // 1. The reference evaluator.
        let reference: Vec<EntityId> = {
            let mut v: Vec<EntityId> = im
                .db
                .evaluate_derived_members(im.musicians, &pred)
                .unwrap()
                .iter()
                .collect();
            v.sort();
            v
        };

        // 2. Compiled relational algebra.
        let mut ra = compile_and_eval(&im.db, im.musicians, &pred).unwrap();
        ra.sort();
        prop_assert_eq!(&ra, &reference, "RA disagrees for {}", pred);

        // 3. Index-pruned evaluation.
        let mut indexed = IndexService::new(&im.db);
        indexed.ensure_index(&im.db, im.plays).unwrap();
        indexed.ensure_index(&im.db, im.union_attr).unwrap();
        let mut idx: Vec<EntityId> = indexed
            .evaluate(&im.db, im.musicians, &pred)
            .unwrap()
            .iter()
            .collect();
        idx.sort();
        prop_assert_eq!(&idx, &reference, "indexed disagrees for {}", pred);
    }

    /// Committing a generated predicate and re-loading the database through
    /// the storage engine preserves the query's answer set.
    #[test]
    fn committed_predicates_survive_persistence(
        clauses in proptest::collection::vec(
            proptest::collection::vec(atom_strategy(), 1..3),
            1..3
        ),
        dnf in any::<bool>(),
    ) {
        let mut im = instrumental_music().unwrap();
        let yes = im.db.boolean(true);
        let pred = build_predicate(&im, yes, &clauses, dnf);
        let class = im.db.create_derived_subclass(im.musicians, "generated").unwrap();
        im.db.commit_membership(class, pred).unwrap();
        let before: Vec<EntityId> = im.db.members(class).unwrap().iter().collect();

        let bytes = isis::store::write_snapshot_bytes(&im.db);
        let back = isis::store::read_snapshot_bytes(&bytes).unwrap();
        let after: Vec<EntityId> = back.members(class).unwrap().iter().collect();
        prop_assert_eq!(before, after);
        // And refreshing re-derives the same extent.
        let mut back = back;
        back.refresh_derived_class(class).unwrap();
        let refreshed: Vec<EntityId> = back.members(class).unwrap().iter().collect();
        let orig: Vec<EntityId> = im.db.members(class).unwrap().iter().collect();
        prop_assert_eq!(refreshed, orig);
    }
}

/// The DNF↔CNF relationship is honoured: a one-clause, one-atom predicate
/// means the same under both readings.
#[test]
fn single_atom_reading_independent() {
    let im = instrumental_music().unwrap();
    let atom = Atom::new(
        Map::single(im.plays),
        CompareOp::Match,
        Rhs::constant(im.instruments, [im.piano]),
    );
    let dnf = Predicate::dnf(vec![Clause::new(vec![atom.clone()])]);
    let cnf = Predicate::cnf(vec![Clause::new(vec![atom])]);
    let a = im.db.evaluate_derived_members(im.musicians, &dnf).unwrap();
    let b = im.db.evaluate_derived_members(im.musicians, &cnf).unwrap();
    assert!(a.set_eq(&b));
}
