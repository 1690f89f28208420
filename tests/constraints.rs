//! The §5 integrity-constraint extension, end to end: the paper's
//! employee/manager example specified through the worksheet (the same
//! screen-and-pointing-device mechanism as queries), enforced
//! transactionally, and persisted through snapshot and WAL.

use isis::core::{ConstraintId, ConstraintKind};
use isis::prelude::*;
use isis::store::{StoreDir, SyncPolicy};
use isis_session::{Command, Session};

struct Office {
    db: Database,
    employees: ClassId,
    salary: AttrId,
    manager: AttrId,
    alice: EntityId,
    bob: EntityId,
}

fn office() -> Office {
    let mut db = Database::new("office");
    let employees = db.create_baseclass("employees").unwrap();
    let ints = db.predefined(BaseKind::Integers);
    let salary = db
        .create_attribute(employees, "salary", ints, Multiplicity::Single)
        .unwrap();
    let manager = db
        .create_attribute(employees, "manager", employees, Multiplicity::Single)
        .unwrap();
    let alice = db.insert_entity(employees, "Alice").unwrap();
    let bob = db.insert_entity(employees, "Bob").unwrap();
    let s90 = db.int(90);
    let s60 = db.int(60);
    db.assign_single(alice, salary, s90).unwrap();
    db.assign_single(bob, salary, s60).unwrap();
    db.assign_single(bob, manager, alice).unwrap();
    Office {
        db,
        employees,
        salary,
        manager,
        alice,
        bob,
    }
}

/// The paper's question — "how would a user specify that an employee
/// cannot earn more than his/her manager using only a screen and a
/// pointing device?" — answered: on the predicate worksheet.
#[test]
fn manager_constraint_through_the_worksheet() {
    let o = office();
    let mut s = Session::builder(o.db.clone()).build();
    s.apply(Command::Pick(SchemaNode::Class(o.employees)))
        .unwrap();
    s.apply(Command::DefineConstraint {
        name: "no_overpaid".into(),
        kind: ConstraintKind::Forbidden,
    })
    .unwrap();
    // The worksheet banner names the constraint.
    let input = s.worksheet_input().unwrap();
    assert!(input.target.contains("no_overpaid"));
    assert!(input.target.contains("forbidden"));
    // Atom: salary(e) > manager salary(e) — form (a), two maps from e.
    s.apply(Command::WsNewAtom).unwrap();
    s.apply(Command::WsPlaceInClause(0)).unwrap();
    s.apply(Command::WsLhsPush(o.salary)).unwrap();
    s.apply(Command::WsOperator(CompareOp::Gt.into())).unwrap();
    s.apply(Command::WsRhsSelfMap(vec![o.manager, o.salary]))
        .unwrap();
    s.apply(Command::WsCommit).unwrap();
    assert!(s.messages().last().unwrap().contains("installed and holds"));
    // Break it in the data with a raw write (no constraint enforcement)
    // and have the checker catch it.
    s.transact(|db| {
        let s95 = db.int(95);
        db.assign_single(o.bob, o.salary, s95)
    })
    .unwrap();
    s.apply(Command::CheckConstraints).unwrap();
    let msg = s.messages().last().unwrap();
    assert!(msg.contains("no_overpaid"), "{msg}");
    assert!(msg.contains("Bob"), "{msg}");
}

#[test]
fn transactional_enforcement_rolls_back() {
    let mut o = office();
    let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(o.salary),
        CompareOp::Gt,
        Rhs::SelfMap(Map::new(vec![o.manager, o.salary])),
    )])]);
    o.db.create_constraint("no_overpaid", o.employees, pred, ConstraintKind::Forbidden)
        .unwrap();
    let bob = o.bob;
    let salary = o.salary;
    let before = o.db.to_image();
    // A violating raise is rejected and rolled back…
    assert!(o
        .db
        .apply_checked(|db| {
            let s95 = db.int(95);
            db.assign_single(bob, salary, s95)
        })
        .is_err());
    assert_eq!(o.db.to_image(), before);
    // …a legal one is kept.
    o.db.apply_checked(|db| {
        let s80 = db.int(80);
        db.assign_single(bob, salary, s80)
    })
    .unwrap();
    assert_ne!(o.db.to_image(), before);
}

#[test]
fn constraints_survive_snapshot_and_wal() {
    let root = std::env::temp_dir().join(format!("isis_constraints_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = StoreDir::open(&root).unwrap();
    // Build through the logged database so the constraint goes to the WAL.
    let image;
    {
        let mut db = dir.open_logged("office", SyncPolicy::EverySync).unwrap();
        let employees = db.create_baseclass("employees").unwrap();
        let ints = db.database().predefined(BaseKind::Integers);
        let salary = db
            .create_attribute(employees, "salary", ints, Multiplicity::Single)
            .unwrap();
        let manager = db
            .create_attribute(employees, "manager", employees, Multiplicity::Single)
            .unwrap();
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(salary),
            CompareOp::Gt,
            Rhs::SelfMap(Map::new(vec![manager, salary])),
        )])]);
        let k = db
            .create_constraint("no_overpaid", employees, pred, ConstraintKind::Forbidden)
            .unwrap();
        assert_eq!(k, ConstraintId::from_raw(0));
        image = db.database().to_image();
        // Crash without checkpoint: recovery must replay the constraint.
    }
    let recovered = dir.load("office").unwrap();
    assert_eq!(recovered.to_image(), image);
    let k = recovered.constraint_by_name("no_overpaid").unwrap();
    assert_eq!(
        recovered.constraint(k).unwrap().kind,
        ConstraintKind::Forbidden
    );
    // And through a plain snapshot save/load too.
    dir.save(&recovered, "office2").unwrap();
    let again = dir.load("office2").unwrap();
    assert!(again.constraint_by_name("no_overpaid").is_ok());
    // Deleting the constraint is also durable.
    {
        let mut db = dir.open_logged("office", SyncPolicy::EverySync).unwrap();
        let k = db.database().constraint_by_name("no_overpaid").unwrap();
        db.delete_constraint(k).unwrap();
    }
    let recovered = dir.load("office").unwrap();
    assert!(recovered.constraint_by_name("no_overpaid").is_err());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn forall_constraint_through_worksheet_with_constant() {
    let o = office();
    let mut s = Session::builder(o.db.clone()).build();
    // Everyone must earn at least 10 — uses the constant temporary visit.
    s.apply(Command::Pick(SchemaNode::Class(o.employees)))
        .unwrap();
    s.apply(Command::DefineConstraint {
        name: "living_wage".into(),
        kind: ConstraintKind::ForAll,
    })
    .unwrap();
    s.apply(Command::WsNewAtom).unwrap();
    s.apply(Command::WsPlaceInClause(0)).unwrap();
    s.apply(Command::WsLhsPush(o.salary)).unwrap();
    s.apply(Command::WsOperator(CompareOp::Ge.into())).unwrap();
    s.apply(Command::WsRhsConstant(None)).unwrap();
    let ten = s.transact(|db| Ok(db.int(10))).unwrap();
    s.apply(Command::ConstantToggle(ten)).unwrap();
    s.apply(Command::ConstantDone).unwrap();
    s.apply(Command::WsCommit).unwrap();
    assert!(s.messages().last().unwrap().contains("living_wage"));
    let db = s.database();
    let k = db.constraint_by_name("living_wage").unwrap();
    assert!(db.check_constraint(k).unwrap().holds());
    // Alice violates after a pay cut.
    s.transact(|db| {
        let five = db.int(5);
        db.assign_single(o.alice, o.salary, five)
    })
    .unwrap();
    let report = s.database().check_constraint(k).unwrap();
    assert_eq!(report.violators, vec![o.alice]);
}
