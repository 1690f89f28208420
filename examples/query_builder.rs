//! The query language in depth: every operator, DNF vs CNF, negation,
//! derived attributes — and the same query answered three more ways
//! (compiled relational algebra, QBE templates, index-pruned evaluation),
//! all agreeing. This is the paper's "full power of relational algebra"
//! claim, exercised.
//!
//! Run with `cargo run --example query_builder`.

use isis::prelude::*;
use isis::query::{compile_and_eval, compile_subclass_predicate, encode_database};

fn names(db: &Database, set: impl IntoIterator<Item = EntityId>) -> Vec<String> {
    set.into_iter()
        .map(|e| db.entity_name(e).unwrap().to_string())
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut im = isis::sample::instrumental_music()?;

    // ---- 1. The Figure-9 query, four ways -------------------------------
    let quartets = isis::sample::quartets_predicate(&mut im);
    let db = &im.db;
    let a = db.evaluate_derived_members(im.music_groups, &quartets)?;
    println!("ISIS evaluator      : {:?}", names(db, a.iter()));

    let ra = compile_and_eval(db, im.music_groups, &quartets)?;
    println!("relational algebra  : {:?}", names(db, ra.iter().copied()));
    let plan = compile_subclass_predicate(db, im.music_groups, &quartets)?;
    println!("  (plan: {} operator nodes)", plan.node_count());

    let four = im.db.int(4);
    let rdb = encode_database(&im.db)?;
    let qbe = QbeQuery::new(
        vec![
            isis_query::TemplateRow {
                relation: "attr_music_groups_size".into(),
                cells: vec![
                    isis_query::Cell::Var("g".into()),
                    isis_query::Cell::Const(four),
                ],
            },
            isis_query::TemplateRow {
                relation: "attr_music_groups_members".into(),
                cells: vec![
                    isis_query::Cell::Var("g".into()),
                    isis_query::Cell::Var("m".into()),
                ],
            },
            isis_query::TemplateRow {
                relation: "attr_musicians_plays".into(),
                cells: vec![
                    isis_query::Cell::Var("m".into()),
                    isis_query::Cell::Const(im.piano),
                ],
            },
        ],
        vec![],
        "g",
    )?;
    let q = qbe.eval(&rdb, &im.db)?;
    println!(
        "QBE baseline        : {:?}",
        names(&im.db, q.iter().copied())
    );
    println!("QBE template:\n{qbe}");

    let mut indexed = IndexService::new(&im.db);
    indexed.ensure_index(&im.db, im.size)?;
    indexed.ensure_index(&im.db, im.plays)?;
    let i = indexed.evaluate(&im.db, im.music_groups, &quartets)?;
    println!("index-pruned        : {:?}", names(&im.db, i.iter()));
    assert!(a.set_eq(&i));

    // ---- 2. Operators on parade ------------------------------------------
    let db = &mut im.db;
    println!("\nOperators over musicians.plays vs {{viola, violin}}:");
    for op in CompareOp::ALL {
        if op.is_ordering() {
            continue;
        }
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            op,
            Rhs::constant(im.instruments, [im.viola, im.violin]),
        )])]);
        let sel = db.evaluate_derived_members(im.musicians, &pred)?;
        println!(
            "  plays {} {{viola, violin}} -> {:?}",
            op,
            names(db, sel.iter())
        );
    }
    // Ordering on a singlevalued map: groups larger than a trio.
    let three = db.int(3);
    let ints = db.predefined(BaseKind::Integers);
    let big = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.size),
        CompareOp::Gt,
        Rhs::constant(ints, [three]),
    )])]);
    let sel = db.evaluate_derived_members(im.music_groups, &big)?;
    println!("  size > 3 -> {:?}", names(db, sel.iter()));
    // Negation.
    let nonunion = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.union_attr),
        Operator::negated(CompareOp::Match),
        Rhs::constant(db.predefined(BaseKind::Booleans), [db.boolean(true)]),
    )])]);
    let sel = db.evaluate_derived_members(im.musicians, &nonunion)?;
    println!("  NOT union ~ {{YES}} -> {:?}", names(db, sel.iter()));

    // ---- 3. switch and/or on one layout -----------------------------------
    let two = db.int(2);
    let four = db.int(4);
    let a2 = Atom::new(
        Map::single(im.size),
        CompareOp::SetEq,
        Rhs::constant(ints, [two]),
    );
    let a4 = Atom::new(
        Map::single(im.size),
        CompareOp::SetEq,
        Rhs::constant(ints, [four]),
    );
    let mut layout = Predicate::dnf(vec![Clause::new(vec![a4]), Clause::new(vec![a2])]);
    let dnf = db.evaluate_derived_members(im.music_groups, &layout)?;
    layout.switch_and_or();
    let cnf = db.evaluate_derived_members(im.music_groups, &layout)?;
    println!(
        "\nSame clause layout: DNF selects {}, CNF selects {}",
        dnf.len(),
        cnf.len()
    );
    assert!(cnf.is_empty());

    // ---- 4. A derived attribute with a per-source predicate ---------------
    // bandmates: for each musician x, the musicians sharing a group with x.
    let bandmates =
        db.create_attribute(im.musicians, "bandmates", im.musicians, Multiplicity::Multi)?;
    // e is a bandmate of x iff some group lists both: here expressed with
    // form (c): members⁻¹ is not directly expressible, so we use the
    // existential reading through music_groups — e ∈ members(g) ∧ x ∈
    // members(g). ISIS atoms compare maps from e and x; the weak match on
    // the *inverse* direction is phrased from the groups side in practice,
    // so we approximate as in the paper's in_group: via plays overlap.
    let deriv = AttrDerivation::Predicate(Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.plays),
        CompareOp::Match,
        Rhs::SourceMap(Map::single(im.plays)),
    )])]));
    db.commit_derivation(bandmates, deriv)?;
    let edith_mates = db.attr_value_set(im.edith, bandmates)?;
    println!(
        "\nmusicians sharing an instrument with Edith: {:?}",
        names(db, edith_mates.iter())
    );

    // ---- 5. Queries are saved with the schema ------------------------------
    let saved_pred = isis::sample::quartets_predicate(&mut im);
    let quartets_class = im.db.create_derived_subclass(im.music_groups, "quartets")?;
    im.db.commit_membership(quartets_class, saved_pred)?;
    let dir = std::env::temp_dir().join(format!("isis_qb_{}", std::process::id()));
    let store = StoreDir::open(&dir)?;
    store.save(&im.db, "with_query")?;
    let mut back = store.load("with_query")?;
    let q2 = back.class_by_name("quartets")?;
    // The predicate survived the round-trip and re-evaluates.
    back.refresh_derived_class(q2)?;
    println!(
        "reloaded database still answers the saved query: {:?}",
        names(&back, back.members(q2)?.iter())
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
