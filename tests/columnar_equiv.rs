//! The columnar equivalence battery (ISSUE 10 satellite): the hybrid
//! column layout behind `AttrRecord::values` and the batched evaluator
//! built on it must be *invisible* — on a 100k-entity synthetic database,
//! seeded random mutation storms must leave every tracked value identical
//! to a reference shadow (and the storage invariants intact), and the
//! streaming `eval_batch` driver must return the same members, in the same
//! order, with the same errors, as the per-candidate scalar loop it
//! replaced — including candidate lists polluted with non-members.

use std::collections::HashMap;

use isis::prelude::*;
use isis_core::AttrValue;
use isis_query::{MemoTable, PredicateProgram};
use isis_sample::{synthetic_scaled, ScaledMusic, SchemaShape, SynthSpec, ValueDist};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn scaled_db() -> ScaledMusic {
    synthetic_scaled(SynthSpec {
        entities: 100_000,
        dist: ValueDist::Zipf,
        shape: SchemaShape::Wide,
        seed: 0xC0_1A,
    })
    .unwrap()
}

/// The per-candidate reference loop: exactly what every driver ran before
/// column streaming existed.
fn scalar_arm(
    prog: &PredicateProgram,
    db: &Database,
    cands: &[EntityId],
) -> Result<Vec<EntityId>, CoreError> {
    let mut memo = MemoTable::new(prog);
    let mut out = Vec::new();
    for &e in cands {
        if prog.eval_for(db, e, None, &mut memo)? {
            out.push(e);
        }
    }
    Ok(out)
}

fn batch_arm(
    prog: &PredicateProgram,
    db: &Database,
    cands: &[EntityId],
) -> Result<Vec<EntityId>, CoreError> {
    let mut memo = MemoTable::new(prog);
    prog.eval_batch(db, cands, None, &mut memo)
}

/// Both arms must agree exactly: same members in the same order on
/// success, the same first error on failure. Returns whether they
/// answered.
fn assert_arms_agree(
    prog: &PredicateProgram,
    db: &Database,
    cands: &[EntityId],
    ctx: &str,
) -> bool {
    let scalar = scalar_arm(prog, db, cands);
    let batch = batch_arm(prog, db, cands);
    match (&scalar, &batch) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "batch != scalar ({ctx})"),
        (Err(a), Err(b)) => assert_eq!(a, b, "batch/scalar errors differ ({ctx})"),
        _ => panic!("arms disagree ({ctx}): scalar={scalar:?} batch={batch:?}"),
    }
    scalar.is_ok()
}

/// Seeded mutation storm against a reference shadow. Every round mixes
/// multi reassignment, single reassignment, incremental `add_value`, and
/// `unassign` (column shrink — the demotion direction) over a tracked
/// sample, then replays the whole shadow through `value_of`. The first and
/// last rounds additionally run the full consistency sweep, which walks
/// every column cell and would surface any canonical-form violation
/// (stored NULL singles, empty multis, dense/overflow double-booking).
#[test]
fn columnar_layout_matches_reference_semantics_under_mutation() {
    let mut g = scaled_db();
    let mut rng = StdRng::seed_from_u64(0xC01);
    let yes = g.s.db.boolean(true);
    let no = g.s.db.boolean(false);

    let tracked: Vec<EntityId> = (0..2_000)
        .map(|_| g.s.musician_ids[rng.gen_range(0..g.s.musician_ids.len())])
        .collect();
    let mut shadow: HashMap<(EntityId, AttrId), AttrValue> = HashMap::new();
    for &m in &tracked {
        for attr in [g.s.plays, g.s.union_attr] {
            shadow.insert((m, attr), g.s.db.attr(attr).unwrap().value_of(m));
        }
    }

    const ROUNDS: usize = 6;
    for round in 0..ROUNDS {
        for _ in 0..400 {
            let m = tracked[rng.gen_range(0..tracked.len())];
            match rng.gen_range(0..5) {
                0 => {
                    let k = rng.gen_range(1..=4);
                    let insts: OrderedSet = (0..k)
                        .map(|_| g.s.instrument_ids[rng.gen_range(0..g.s.instrument_ids.len())])
                        .collect();
                    g.s.db
                        .assign_multi(m, g.s.plays, insts.iter().collect::<Vec<_>>())
                        .unwrap();
                    shadow.insert((m, g.s.plays), AttrValue::Multi(insts));
                }
                1 => {
                    let v = if rng.gen_bool(0.5) { yes } else { no };
                    g.s.db.assign_single(m, g.s.union_attr, v).unwrap();
                    shadow.insert((m, g.s.union_attr), AttrValue::Single(v));
                }
                2 => {
                    let inst = g.s.instrument_ids[rng.gen_range(0..g.s.instrument_ids.len())];
                    g.s.db.add_value(m, g.s.plays, inst).unwrap();
                    let mut set = shadow
                        .get(&(m, g.s.plays))
                        .map(AttrValue::as_set)
                        .unwrap_or_default();
                    set.insert(inst);
                    shadow.insert((m, g.s.plays), AttrValue::Multi(set));
                }
                3 => {
                    g.s.db.unassign(m, g.s.plays).unwrap();
                    shadow.insert((m, g.s.plays), AttrValue::Multi(OrderedSet::new()));
                }
                _ => {
                    g.s.db.unassign(m, g.s.union_attr).unwrap();
                    shadow.insert((m, g.s.union_attr), AttrValue::Single(EntityId::NULL));
                }
            }
        }

        for (&(m, attr), want) in &shadow {
            let got = g.s.db.attr(attr).unwrap().value_of(m);
            assert_eq!(
                got.as_set(),
                want.as_set(),
                "round {round}: column value for entity {m:?} diverged from the shadow"
            );
        }
        if round == 0 || round + 1 == ROUNDS {
            let violations = g.s.db.check_consistency().unwrap();
            assert!(
                violations.is_empty(),
                "round {round}: consistency sweep found {violations:?}"
            );
        }
    }
}

/// The constants random predicates draw from: `union ~ {yes}`, and for
/// ordering atoms over the integer metrics a constant of every literal
/// kind the validator admits there — INTEGERS, REALS, STRINGS and YES/NO
/// — with one element, none, or two.
struct Consts {
    booleans: ClassId,
    yes: EntityId,
    integers: ClassId,
    ints: Vec<EntityId>,
    reals: ClassId,
    real_values: Vec<EntityId>,
    strings: ClassId,
    string_values: Vec<EntityId>,
}

impl Consts {
    fn new(g: &mut ScaledMusic) -> Consts {
        Consts {
            booleans: g.s.db.predefined(BaseKind::Booleans),
            yes: g.s.db.boolean(true),
            integers: g.s.db.predefined(BaseKind::Integers),
            ints: (0..100).map(|v| g.s.db.int(v)).collect(),
            reals: g.s.db.predefined(BaseKind::Reals),
            real_values: [-0.5, 0.0, 49.5, 50.0, 99.25, 120.0]
                .into_iter()
                .map(|v| g.s.db.real(v).unwrap())
                .collect(),
            strings: g.s.db.predefined(BaseKind::Strings),
            string_values: ["50", "alto"].into_iter().map(|v| g.s.db.str(v)).collect(),
        }
    }

    /// An ordering constant: mostly one integer or real, which every
    /// assigned metric cell orders against, and otherwise one that no
    /// cell can be ordered against (a string, a boolean, an empty or a
    /// two-element constant), which must raise the scalar loop's error.
    fn ordering(&self, rng: &mut StdRng) -> Rhs {
        let pick = |vs: &[EntityId], rng: &mut StdRng| vs[rng.gen_range(0..vs.len())];
        match rng.gen_range(0..20) {
            0..=11 => Rhs::constant(self.integers, [pick(&self.ints, rng)]),
            12..=15 => Rhs::constant(self.reals, [pick(&self.real_values, rng)]),
            16 => Rhs::constant(self.strings, [pick(&self.string_values, rng)]),
            17 => Rhs::constant(self.booleans, [self.yes]),
            18 => Rhs::constant(self.integers, []),
            _ => Rhs::constant(
                self.integers,
                [pick(&self.ints[..50], rng), pick(&self.ints[50..], rng)],
            ),
        }
    }
}

fn random_pred(g: &ScaledMusic, c: &Consts, rng: &mut StdRng) -> Predicate {
    let set_ops = [
        CompareOp::Match,
        CompareOp::Subset,
        CompareOp::Superset,
        CompareOp::SetEq,
        CompareOp::ProperSubset,
        CompareOp::ProperSuperset,
    ];
    let ordering_ops = [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge];
    let clause = |rng: &mut StdRng| {
        let n = rng.gen_range(1..=3);
        Clause::new(
            (0..n)
                .map(|_| match rng.gen_range(0..10) {
                    0..=3 => {
                        let k = rng.gen_range(1..=3);
                        let insts: Vec<EntityId> = (0..k)
                            .map(|_| g.s.instrument_ids[rng.gen_range(0..g.s.instrument_ids.len())])
                            .collect();
                        Atom::new(
                            Map::single(g.s.plays),
                            set_ops[rng.gen_range(0..set_ops.len())],
                            Rhs::constant(g.s.instruments, insts),
                        )
                    }
                    4 => Atom::new(
                        Map::single(g.s.union_attr),
                        CompareOp::Match,
                        Rhs::constant(c.booleans, [c.yes]),
                    ),
                    _ => {
                        let metric = g.wide_attrs[rng.gen_range(0..g.wide_attrs.len())];
                        let op = ordering_ops[rng.gen_range(0..ordering_ops.len())];
                        let op = if rng.gen_bool(0.3) {
                            Operator::negated(op)
                        } else {
                            Operator::plain(op)
                        };
                        Atom::new(Map::single(metric), op, c.ordering(rng))
                    }
                })
                .collect(),
        )
    };
    let clauses: Vec<Clause> = (0..rng.gen_range(1..=3)).map(|_| clause(rng)).collect();
    if rng.gen_bool(0.5) {
        Predicate::dnf(clauses)
    } else {
        Predicate::cnf(clauses)
    }
}

/// Random single-step constant predicates (always batch-compatible) over
/// random candidate lists: the full extent, strided subsets, and subsets
/// with non-member entities spliced in (which must surface the scalar
/// loop's exact membership error from the same position). Some members
/// carry no metrics — the last of the first run, the first of the second,
/// and a few past the second — so an ordering atom that reaches one of
/// them must surface the scalar loop's ordering error.
#[test]
fn batch_and_scalar_agree_on_random_predicates_and_candidates() {
    let mut g = scaled_db();
    let mut rng = StdRng::seed_from_u64(0x0BA7C4);
    let c = Consts::new(&mut g);
    let members: Vec<EntityId> = g.s.db.members(g.s.musicians).unwrap().iter().collect();
    let mut bare = vec![1023, 1024];
    bare.extend((0..3).map(|_| rng.gen_range(2049..members.len())));
    for &pos in &bare {
        for &metric in &g.wide_attrs {
            g.s.db.unassign(members[pos], metric).unwrap();
        }
    }
    // The extent without its bare members, where an ordering atom against
    // a one-number constant decides every candidate it reaches.
    let assigned: Vec<EntityId> = (0..members.len())
        .filter(|i| !bare.contains(i))
        .map(|i| members[i])
        .collect();

    // Trials over the assigned members that failed and that answered:
    // both must occur.
    let mut answered = [0; 2];
    for trial in 0..24 {
        let pred = random_pred(&g, &c, &mut rng);
        let prog = PredicateProgram::compile(&g.s.db, g.s.musicians, &pred).unwrap();
        assert!(
            prog.batch_compatible(),
            "single-step constant atoms must stream: {pred}"
        );

        assert_arms_agree(
            &prog,
            &g.s.db,
            &members,
            &format!("trial {trial}, full extent"),
        );
        let ok = assert_arms_agree(
            &prog,
            &g.s.db,
            &assigned,
            &format!("trial {trial}, assigned members"),
        );
        answered[usize::from(ok)] += 1;

        let stride = rng.gen_range(2..7);
        let subset: Vec<EntityId> = members.iter().copied().step_by(stride).collect();
        assert_arms_agree(
            &prog,
            &g.s.db,
            &subset,
            &format!("trial {trial}, stride {stride}"),
        );

        // Splice non-members (instruments and groups) into the candidate
        // list at random positions; both arms must fail identically.
        let mut rogue = subset;
        for _ in 0..3 {
            let pos = rng.gen_range(0..=rogue.len());
            let alien = if rng.gen_bool(0.5) {
                g.s.instrument_ids[rng.gen_range(0..g.s.instrument_ids.len())]
            } else {
                g.s.group_ids[rng.gen_range(0..g.s.group_ids.len())]
            };
            rogue.insert(pos, alien);
        }
        let scalar = scalar_arm(&prog, &g.s.db, &rogue);
        assert!(
            scalar.is_err(),
            "trial {trial}: rogue candidates must trip the membership check"
        );
        assert_arms_agree(&prog, &g.s.db, &rogue, &format!("trial {trial}, rogue"));
    }

    assert!(
        answered.iter().all(|&n| n > 0),
        "trials over the assigned members [failed, answered]: {answered:?}"
    );

    // An ordering atom over a multivalued map streams, but no candidate
    // that reaches it can be decided (instruments are not literals): both
    // arms must surface the same evaluation error.
    let bad = Predicate::cnf(vec![
        Clause::new(vec![Atom::new(
            Map::single(g.s.plays),
            CompareOp::Match,
            Rhs::constant(g.s.instruments, [g.s.instrument_ids[0]]),
        )]),
        Clause::new(vec![Atom::new(
            Map::single(g.s.plays),
            CompareOp::Lt,
            Rhs::constant(g.s.instruments, [g.s.instrument_ids[0]]),
        )]),
    ]);
    let prog = PredicateProgram::compile(&g.s.db, g.s.musicians, &bad).unwrap();
    assert!(prog.batch_compatible(), "ordering atoms stream");
    assert_arms_agree(&prog, &g.s.db, &members, "ordering fallback");
}

/// Mutations between evaluations: reassignments that shrink and regrow
/// columns (exercising demotion and re-promotion of the dense region) must
/// never desynchronise the two arms.
#[test]
fn batch_and_scalar_agree_across_mutation_interleavings() {
    let mut g = scaled_db();
    let mut rng = StdRng::seed_from_u64(0x1_E5);
    let c = Consts::new(&mut g);

    for round in 0..4 {
        // Mutate a slice of the population: clear some plays sets entirely
        // (shrinking the column) and reassign others.
        for k in 0..300 {
            let m = g.s.musician_ids[(round * 977 + k * 31) % g.s.musician_ids.len()];
            if k % 3 == 0 {
                g.s.db.unassign(m, g.s.plays).unwrap();
            } else {
                let inst = g.s.instrument_ids[rng.gen_range(0..g.s.instrument_ids.len())];
                g.s.db.assign_multi(m, g.s.plays, [inst]).unwrap();
            }
        }
        let pred = random_pred(&g, &c, &mut rng);
        let prog = PredicateProgram::compile(&g.s.db, g.s.musicians, &pred).unwrap();
        let members: Vec<EntityId> = g.s.db.members(g.s.musicians).unwrap().iter().collect();
        assert_arms_agree(&prog, &g.s.db, &members, &format!("round {round}"));
    }
}
