//! The compiled-vs-interpreted equivalence battery: for random predicates
//! (both normal forms, identity and mapped constants, self-map right-hand
//! sides, ordering operators, negation), the compiled [`PredicateProgram`]
//! must agree with the core interpreter *exactly* — the same result set in
//! the same order when evaluation succeeds, and the same first error when
//! it fails (ordering atoms over non-literal or non-singleton sets). The
//! parallel battery repeats the check over randomized synthetic schemas
//! through a multi-worker [`isis_query::EvalPool`], and a third battery
//! pins the source-entity (`x`) atom semantics used by derived attributes.

use isis::prelude::*;
use isis_query::{EvalPool, MemoTable, PredicateProgram, QueryError};
use isis_sample::{instrumental_music, synthetic_music, Scale};
use proptest::prelude::*;

/// Copyable handles into the instrumental-music schema plus two extra
/// attributes that make self-map comparisons non-degenerate: every
/// musician gets a `fav_instrument` set and a single `fav_family`.
#[derive(Debug, Clone)]
struct Ids {
    musicians: ClassId,
    instruments: ClassId,
    families: ClassId,
    booleans: ClassId,
    plays: AttrId,
    family: AttrId,
    union_attr: AttrId,
    fav_instrument: AttrId,
    fav_family: AttrId,
    all_musicians: Vec<EntityId>,
    all_instruments: Vec<EntityId>,
    fams: [EntityId; 4],
    yes: EntityId,
}

fn setup() -> (Database, Ids) {
    let mut im = instrumental_music().unwrap();
    let fav_instrument = im
        .db
        .create_attribute(
            im.musicians,
            "fav_instrument",
            im.instruments,
            Multiplicity::Multi,
        )
        .unwrap();
    let fav_family = im
        .db
        .create_attribute(
            im.musicians,
            "fav_family",
            im.families,
            Multiplicity::Single,
        )
        .unwrap();
    let fams = [im.brass, im.woodwind, im.stringed, im.keyboard];
    let insts = im.all_instruments.clone();
    for (i, &m) in im.all_musicians.iter().enumerate() {
        let i1 = insts[i % insts.len()];
        let i2 = insts[(i * 3 + 1) % insts.len()];
        im.db.assign_multi(m, fav_instrument, [i1, i2]).unwrap();
        im.db
            .assign_single(m, fav_family, fams[i % fams.len()])
            .unwrap();
    }
    let yes = im.db.boolean(true);
    let ids = Ids {
        musicians: im.musicians,
        instruments: im.instruments,
        families: im.families,
        booleans: im.db.predefined(BaseKind::Booleans),
        plays: im.plays,
        family: im.family,
        union_attr: im.union_attr,
        fav_instrument,
        fav_family,
        all_musicians: im.all_musicians.clone(),
        all_instruments: insts,
        fams,
        yes,
    };
    (im.db, ids)
}

/// A generated atom over musicians. `rhs_kind` picks among an identity
/// constant, a *mapped* constant (the hoisting target: its image must be
/// recomputed by the interpreter per candidate), and a self-map.
#[derive(Debug, Clone)]
struct GenAtom {
    /// 0 = plays, 1 = plays∘family, 2 = union, 3 = fav_instrument
    lhs: u8,
    /// Pool of 6: the 4 set ops plus Lt and Ge (the fallible ordering ops).
    op_idx: u8,
    negated: bool,
    /// 0 = identity constant, 1 = mapped constant, 2 = self-map
    rhs_kind: u8,
    consts: Vec<u8>,
}

fn atom_strategy() -> impl Strategy<Value = GenAtom> {
    (
        0u8..4,
        0u8..6,
        any::<bool>(),
        0u8..3,
        proptest::collection::vec(any::<u8>(), 0..3),
    )
        .prop_map(|(lhs, op_idx, negated, rhs_kind, consts)| GenAtom {
            lhs,
            op_idx,
            negated,
            rhs_kind,
            consts,
        })
}

const OPS: [CompareOp; 6] = [
    CompareOp::SetEq,
    CompareOp::Subset,
    CompareOp::Superset,
    CompareOp::Match,
    CompareOp::Lt,
    CompareOp::Ge,
];

fn build_atom(ids: &Ids, g: &GenAtom) -> Atom {
    let lhs = match g.lhs {
        0 => Map::single(ids.plays),
        1 => Map::new(vec![ids.plays, ids.family]),
        2 => Map::single(ids.union_attr),
        _ => Map::single(ids.fav_instrument),
    };
    let anchors = |pool: &[EntityId]| -> Vec<EntityId> {
        g.consts
            .iter()
            .map(|i| pool[*i as usize % pool.len()])
            .collect()
    };
    let rhs = match (g.lhs, g.rhs_kind % 3) {
        // Identity constants in the lhs terminal class.
        (0, 0) | (3, 0) => Rhs::constant(ids.instruments, anchors(&ids.all_instruments)),
        (1, 0) => Rhs::constant(ids.families, anchors(&ids.fams)),
        (2, 0) => Rhs::constant(ids.booleans, anchors(&[ids.yes])),
        // Mapped constants reaching the lhs terminal class through one
        // attribute step — the images the compiler hoists.
        (0, 1) | (3, 1) => Rhs::Constant {
            class: ids.musicians,
            anchors: anchors(&ids.all_musicians).into_iter().collect(),
            map: Map::single(ids.plays),
        },
        (1, 1) => Rhs::Constant {
            class: ids.instruments,
            anchors: anchors(&ids.all_instruments).into_iter().collect(),
            map: Map::single(ids.family),
        },
        (2, 1) => Rhs::Constant {
            class: ids.musicians,
            anchors: anchors(&ids.all_musicians).into_iter().collect(),
            map: Map::single(ids.union_attr),
        },
        // Self-maps with the same terminal class as the lhs.
        (0, _) | (3, _) => Rhs::SelfMap(Map::single(ids.fav_instrument)),
        (1, _) => Rhs::SelfMap(Map::single(ids.fav_family)),
        (2, _) => Rhs::SelfMap(Map::single(ids.union_attr)),
        _ => unreachable!(),
    };
    Atom::new(
        lhs,
        Operator {
            op: OPS[g.op_idx as usize % OPS.len()],
            negated: g.negated,
        },
        rhs,
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

/// Both evaluators must agree on success (order and all) AND on failure
/// (the same first error — the compiled program's atom reordering keeps
/// fallible ordering atoms as barriers precisely so this holds).
fn check_serial(db: &Database, parent: ClassId, pred: &Predicate) {
    let interp = db.evaluate_derived_members(parent, pred);
    let prog = PredicateProgram::compile(db, parent, pred).unwrap();
    let compiled = prog.evaluate_extent(db, parent);
    match (interp, compiled) {
        (Ok(a), Ok(b)) => assert_eq!(a.as_slice(), b.as_slice(), "results differ for {pred}"),
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors differ for {pred}"),
        (a, b) => panic!("one side failed for {pred}: interpreted={a:?} compiled={b:?}"),
    }
}

proptest! {
    // The vendored stub's default is already 256; make the floor explicit.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The headline battery: compiled ≡ interpreted over random predicate
    /// shapes on the instrumental-music schema, including the error paths.
    #[test]
    fn compiled_program_matches_interpreter(
        clauses in proptest::collection::vec(
            proptest::collection::vec(atom_strategy(), 1..4),
            1..4
        ),
        dnf in any::<bool>(),
    ) {
        let (db, ids) = setup();
        let pred = build_predicate(&ids, &clauses, dnf);
        db.validate_predicate(ids.musicians, None, &pred).unwrap();
        check_serial(&db, ids.musicians, &pred);
    }
}

/// A generated atom over synthetic music groups, for the parallel battery:
/// `size` atoms admit genuinely comparable ordering ops (integer
/// singletons), the map chains exercise memoised shared slots.
#[derive(Debug, Clone)]
struct GroupAtom {
    /// 0 = size, 1 = members, 2 = members∘plays, 3 = members∘plays∘family
    lhs: u8,
    op_idx: u8,
    negated: bool,
    /// 0 = identity constant, 1 = mapped constant
    rhs_kind: u8,
    consts: Vec<u8>,
}

fn group_atom_strategy() -> impl Strategy<Value = GroupAtom> {
    (
        0u8..4,
        0u8..6,
        any::<bool>(),
        0u8..2,
        proptest::collection::vec(any::<u8>(), 1..3),
    )
        .prop_map(|(lhs, op_idx, negated, rhs_kind, consts)| GroupAtom {
            lhs,
            op_idx,
            negated,
            rhs_kind,
            consts,
        })
}

fn build_group_atom(s: &mut isis_sample::SyntheticMusic, g: &GroupAtom) -> Atom {
    let ints = s.db.predefined(BaseKind::Integers);
    let int_pool: Vec<EntityId> = (2..7).map(|k| s.db.int(k)).collect();
    let lhs = match g.lhs {
        0 => Map::single(s.size),
        1 => Map::single(s.members),
        2 => Map::new(vec![s.members, s.plays]),
        _ => Map::new(vec![s.members, s.plays, s.family]),
    };
    let anchors = |pool: &[EntityId]| -> Vec<EntityId> {
        g.consts
            .iter()
            .map(|i| pool[*i as usize % pool.len()])
            .collect()
    };
    let rhs = match (g.lhs, g.rhs_kind % 2) {
        (0, 0) => Rhs::constant(ints, anchors(&int_pool)),
        (1, 0) => Rhs::constant(s.musicians, anchors(&s.musician_ids)),
        (2, 0) => Rhs::constant(s.instruments, anchors(&s.instrument_ids)),
        (3, 0) => Rhs::constant(s.families, anchors(&s.family_ids)),
        (0, _) => Rhs::Constant {
            class: s.music_groups,
            anchors: anchors(&s.group_ids).into_iter().collect(),
            map: Map::single(s.size),
        },
        (1, _) => Rhs::Constant {
            class: s.music_groups,
            anchors: anchors(&s.group_ids).into_iter().collect(),
            map: Map::single(s.members),
        },
        (2, _) => Rhs::Constant {
            class: s.musicians,
            anchors: anchors(&s.musician_ids).into_iter().collect(),
            map: Map::single(s.plays),
        },
        (3, _) => Rhs::Constant {
            class: s.instruments,
            anchors: anchors(&s.instrument_ids).into_iter().collect(),
            map: Map::single(s.family),
        },
        _ => unreachable!(),
    };
    Atom::new(
        lhs,
        Operator {
            op: OPS[g.op_idx as usize % OPS.len()],
            negated: g.negated,
        },
        rhs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The parallel battery over randomized schemas: interpreted ≡
    /// compiled-serial ≡ compiled-parallel (persistent pool), for random
    /// scales and thread counts — including error agreement, which pins
    /// the chunk-splice rule that the globally-first error wins regardless
    /// of which worker hit it.
    #[test]
    fn parallel_compiled_matches_interpreter_on_random_schemas(
        n in 20usize..=300,
        seed in any::<u64>(),
        threads in 2usize..=8,
        clauses in proptest::collection::vec(
            proptest::collection::vec(group_atom_strategy(), 1..3),
            1..3
        ),
        dnf in any::<bool>(),
    ) {
        let mut s = synthetic_music(Scale::of(n), seed).unwrap();
        let cs: Vec<Clause> = clauses
            .iter()
            .map(|atoms| {
                Clause::new(atoms.iter().map(|g| build_group_atom(&mut s, g)).collect())
            })
            .collect();
        let pred = if dnf { Predicate::dnf(cs) } else { Predicate::cnf(cs) };
        s.db.validate_predicate(s.music_groups, None, &pred).unwrap();

        let interp = s.db.evaluate_derived_members(s.music_groups, &pred);
        check_serial(&s.db, s.music_groups, &pred);
        let prog = PredicateProgram::compile(&s.db, s.music_groups, &pred).unwrap();
        let members: Vec<EntityId> = s.db.members(s.music_groups).unwrap().iter().collect();
        let run = EvalPool::new(threads).evaluate(&s.db, &prog, &members, None);
        match (&interp, run) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.as_slice(), b.as_slice()),
            (Err(ea), Err(QueryError::Core(eb))) => prop_assert_eq!(ea, &eb),
            (a, b) => {
                panic!("parallel disagreement for {pred}: interpreted={a:?} parallel={b:?}")
            }
        }
    }
}

/// A generated source-entity atom: instruments are the candidates, a
/// musician is the source `x`.
#[derive(Debug, Clone)]
struct SourceAtom {
    /// 0 = identity lhs vs plays(x), 1 = family lhs vs plays∘family(x)
    shape: u8,
    op_idx: u8,
    negated: bool,
}

fn source_atom_strategy() -> impl Strategy<Value = SourceAtom> {
    (0u8..2, 0u8..6, any::<bool>()).prop_map(|(shape, op_idx, negated)| SourceAtom {
        shape,
        op_idx,
        negated,
    })
}

fn build_source_atom(ids: &Ids, g: &SourceAtom) -> Atom {
    let (lhs, rhs) = match g.shape {
        0 => (Map::identity(), Rhs::SourceMap(Map::single(ids.plays))),
        _ => (
            Map::single(ids.family),
            Rhs::SourceMap(Map::new(vec![ids.plays, ids.family])),
        ),
    };
    Atom::new(
        lhs,
        Operator {
            op: OPS[g.op_idx as usize % OPS.len()],
            negated: g.negated,
        },
        rhs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The source-entity battery: for every (source musician, candidate
    /// instrument) pair, the compiled program with a live memo table must
    /// agree with the interpreter's `eval_predicate_for` — the memo keys
    /// source-slot images on the source entity, so sweeping sources is
    /// exactly the stress that would expose stale reuse.
    #[test]
    fn source_entity_atoms_match_interpreter(
        clauses in proptest::collection::vec(
            proptest::collection::vec(source_atom_strategy(), 1..3),
            1..3
        ),
        dnf in any::<bool>(),
    ) {
        let (db, ids) = setup();
        let cs: Vec<Clause> = clauses
            .iter()
            .map(|atoms| Clause::new(atoms.iter().map(|g| build_source_atom(&ids, g)).collect()))
            .collect();
        let pred = if dnf { Predicate::dnf(cs) } else { Predicate::cnf(cs) };
        db.validate_predicate(ids.instruments, Some(ids.musicians), &pred)
            .unwrap();
        let prog =
            PredicateProgram::compile_with(&db, ids.instruments, Some(ids.musicians), &pred, None)
                .unwrap();
        let mut memo = MemoTable::new(&prog);
        for &x in &ids.all_musicians {
            for &e in &ids.all_instruments {
                let interp = db.eval_predicate_for(e, &pred, Some(x));
                let compiled = prog.eval_for(&db, e, Some(x), &mut memo);
                match (interp, compiled) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "pair ({x:?}, {e:?}) for {pred}"),
                    (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "errors for {pred}"),
                    (a, b) => {
                        panic!("one side failed for {pred}: interpreted={a:?} compiled={b:?}")
                    }
                }
            }
        }
    }
}
