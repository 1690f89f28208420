//! Property-based equivalence of the delta-refresh pipeline: after an
//! arbitrary sequence of data mutations, draining the core change log
//! through [`DerivedState::refresh`] — the path `Session::refresh_derived`
//! takes, which also maintains the sample's own derived subclasses — must
//! leave a derived subclass with exactly the membership a full
//! `refresh_derived_class` (re-evaluation over the whole parent extent)
//! would compute, and the database consistent.

use isis::prelude::*;
use isis_sample::{instrumental_music, InstrumentalMusic};
use proptest::prelude::*;

/// A generated atom over musicians: `lhs-map op constant-set`.
#[derive(Debug, Clone)]
struct GenAtom {
    /// 0 = plays, 1 = plays∘family, 2 = union, 3 = plays∘family against
    /// the mapped constant {instrument}∘family
    lhs: u8,
    op_idx: u8,
    negated: bool,
    consts: Vec<u8>,
}

fn atom_strategy() -> impl Strategy<Value = GenAtom> {
    (
        0u8..4,
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

/// One generated data mutation; indices are taken modulo the live pools.
#[derive(Debug, Clone)]
struct GenOp {
    kind: u8,
    a: u8,
    b: u8,
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    (0u8..6, any::<u8>(), any::<u8>()).prop_map(|(kind, a, b)| GenOp { kind, a, b })
}

fn build_atom(im: &InstrumentalMusic, yes: EntityId, g: &GenAtom) -> Atom {
    let mut rhs_map = Map::identity();
    let (lhs, pool_class, pool): (Map, ClassId, Vec<EntityId>) = match g.lhs {
        0 => (
            Map::single(im.plays),
            im.instruments,
            im.all_instruments.clone(),
        ),
        1 => (
            Map::new(vec![im.plays, im.family]),
            im.families,
            vec![im.brass, im.woodwind, im.stringed, im.keyboard],
        ),
        2 => (
            Map::single(im.union_attr),
            im.db.predefined(BaseKind::Booleans),
            vec![yes],
        ),
        // The families of some instruments: a family reassignment moves
        // the hoisted image every candidate is compared against.
        _ => {
            rhs_map = Map::single(im.family);
            (
                Map::new(vec![im.plays, im.family]),
                im.instruments,
                im.all_instruments.clone(),
            )
        }
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
        Rhs::Constant {
            class: pool_class,
            anchors: anchors.into_iter().collect(),
            map: rhs_map,
        },
    )
}

/// Applies one generated mutation to the live database. Returns `false`
/// when the op degenerates (e.g. deleting from an emptied pool).
fn apply_op(
    im: &mut InstrumentalMusic,
    live: &mut Vec<EntityId>,
    fresh: &mut u32,
    op: &GenOp,
) -> bool {
    let yes = im.db.boolean(true);
    let no = im.db.boolean(false);
    match op.kind {
        // Replace a musician's instrument set with one or two instruments.
        0 => {
            if live.is_empty() {
                return false;
            }
            let m = live[op.a as usize % live.len()];
            let i1 = im.all_instruments[op.b as usize % im.all_instruments.len()];
            let i2 = im.all_instruments[(op.b as usize / 7) % im.all_instruments.len()];
            im.db.assign_multi(m, im.plays, [i1, i2]).unwrap();
        }
        // Add one instrument to a musician's set.
        1 => {
            if live.is_empty() {
                return false;
            }
            let m = live[op.a as usize % live.len()];
            let i = im.all_instruments[op.b as usize % im.all_instruments.len()];
            im.db.add_value(m, im.plays, i).unwrap();
        }
        // Flip a musician's union membership.
        2 => {
            if live.is_empty() {
                return false;
            }
            let m = live[op.a as usize % live.len()];
            let v = if op.b.is_multiple_of(2) { yes } else { no };
            im.db.assign_single(m, im.union_attr, v).unwrap();
        }
        // Reclassify an instrument's family (hits the plays∘family map).
        3 => {
            let i = im.all_instruments[op.a as usize % im.all_instruments.len()];
            let fams = [im.brass, im.woodwind, im.stringed, im.keyboard];
            let f = fams[op.b as usize % fams.len()];
            im.db.assign_single(i, im.family, f).unwrap();
        }
        // Insert a new musician (joins the parent extent with no values).
        4 => {
            *fresh += 1;
            let id = im
                .db
                .insert_entity(im.musicians, &format!("gen_musician_{fresh}"))
                .unwrap();
            live.push(id);
        }
        // Delete a musician (leaves the parent extent entirely).
        _ => {
            if live.len() <= 2 {
                return false;
            }
            let idx = op.a as usize % live.len();
            let m = live.swap_remove(idx);
            im.db.delete_entity(m).unwrap();
        }
    }
    true
}

/// Brings derived state up to date through the one refresh path
/// `Session::refresh_derived` takes. Only the first refresh may be full:
/// a later one falls back to the full refresh when the delta drain did
/// not converge or its window was evicted.
fn refresh(db: &mut Database, state: &mut Option<DerivedState>) {
    let first = state.is_none();
    let (scope, mut changed) = (isis_obs::Registry::new(), Vec::new());
    *state = Some(DerivedState::refresh(state.take(), db, 1, &scope, &mut changed).unwrap());
    assert!(
        first
            || !changed
                .iter()
                .any(|c| matches!(c, ExtentChange::Full { .. })),
        "delta drain did not converge: {changed:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random predicate + random mutation sequence: the delta path and the
    /// full re-evaluation select exactly the same members.
    #[test]
    fn delta_refresh_matches_full_refresh(
        clauses in proptest::collection::vec(
            proptest::collection::vec(atom_strategy(), 1..3),
            1..3
        ),
        dnf in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..12),
        drain_each in any::<bool>(),
    ) {
        let mut im = instrumental_music().unwrap();
        let yes = im.db.boolean(true);
        let cs: Vec<Clause> = clauses
            .iter()
            .map(|atoms| Clause::new(atoms.iter().map(|g| build_atom(&im, yes, g)).collect()))
            .collect();
        let pred = if dnf { Predicate::dnf(cs) } else { Predicate::cnf(cs) };

        let derived = im.db.create_derived_subclass(im.musicians, "gen_derived").unwrap();
        im.db.commit_membership(derived, pred.clone()).unwrap();
        // The first refresh is full; its postings describe the state the
        // first window starts from.
        let mut state = None;
        refresh(&mut im.db, &mut state);

        let mut live = im.all_musicians.clone();
        let mut fresh = 0u32;
        for op in &ops {
            apply_op(&mut im, &mut live, &mut fresh, op);
            if drain_each {
                refresh(&mut im.db, &mut state);
            }
        }
        refresh(&mut im.db, &mut state);

        let mut incremental: Vec<EntityId> =
            im.db.members(derived).unwrap().iter().collect();
        incremental.sort();
        let mut full: Vec<EntityId> = im
            .db
            .evaluate_derived_members(im.musicians, &pred)
            .unwrap()
            .iter()
            .collect();
        full.sort();
        prop_assert_eq!(
            &incremental, &full,
            "delta refresh diverged from full refresh for {} after {:?}",
            pred, ops
        );
        prop_assert!(im.db.is_consistent().unwrap());
    }
}
