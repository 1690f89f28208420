//! Session-level coverage on the university domain: deep inheritance in
//! the views, following a grouping-ranged attribute (the `B: S ↔ parent(G)`
//! reading of §2), and the advising constraint through `CheckConstraints`.

use isis::prelude::*;
use isis::sample::university;
use isis_session::{Command, Mode, Session};
use isis_views::Emphasis;

#[test]
fn deep_chain_renders_with_four_levels() {
    let u = university().unwrap();
    let mut s = Session::builder(u.db.clone()).build();
    s.apply(Command::Pick(SchemaNode::Class(u.teaching_assistants)))
        .unwrap();
    let scene = s.scene().unwrap();
    for name in [
        "people",
        "students",
        "graduate_students",
        "teaching_assistants",
        "staff",
    ] {
        assert!(scene.has_text(name), "{name}");
    }
    assert!(scene.hand().is_some());
}

#[test]
fn following_a_grouping_ranged_attribute_lands_on_the_grouping_page() {
    let u = university().unwrap();
    let mut s = Session::builder(u.db.clone()).build();
    // departments.teaches_in ranges over the by_building grouping: following
    // it must open the *grouping* page with the index sets highlighted.
    s.apply(Command::Pick(SchemaNode::Class(u.departments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    let cs = s
        .database()
        .entity_by_name(u.departments, "computer_science")
        .unwrap();
    s.apply(Command::SelectEntity(cs)).unwrap();
    s.apply(Command::Follow(u.teaches_in)).unwrap();
    let top = s.pages().last().unwrap();
    assert_eq!(top.node, SchemaNode::Grouping(u.by_building));
    // The CIT building's set is the data selection.
    let cit = s
        .database()
        .entity_by_name(s.database().predefined(BaseKind::Strings), "CIT")
        .unwrap();
    assert_eq!(top.selected, vec![cit]);
    let scene = s.scene().unwrap();
    assert!(scene
        .texts()
        .any(|(t, e)| t.contains("CIT") && t.contains("(2)") && e == Emphasis::Bold));
    // Following onward from the grouping page reaches the rooms.
    s.apply(Command::FollowGrouping).unwrap();
    let top = s.pages().last().unwrap();
    assert_eq!(top.node, SchemaNode::Class(u.rooms));
    assert_eq!(top.selected.len(), 2); // CIT 368 and CIT 159
    assert_eq!(*s.mode(), Mode::Data);
}

#[test]
fn constraint_check_reports_through_the_session() {
    let u = university().unwrap();
    let mut s = Session::builder(u.db.clone()).build();
    s.apply(Command::CheckConstraints).unwrap();
    assert!(s
        .messages()
        .last()
        .unwrap()
        .contains("all 1 constraints hold"));
    // Corrupt advising behind the engine's back, then re-check.
    let paris = u.paris;
    let advisor = u.advisor;
    s.transact(|db| db.assign_single(paris, advisor, paris))
        .unwrap();
    s.apply(Command::CheckConstraints).unwrap();
    let msg = s.messages().last().unwrap();
    assert!(msg.contains("no_self_advising"), "{msg}");
    assert!(msg.contains("Paris"), "{msg}");
}

#[test]
fn multi_parent_membership_through_session_commands() {
    let u = university().unwrap();
    let mut s = Session::builder(u.db.clone()).build();
    s.apply(Command::Pick(SchemaNode::Class(u.teaching_assistants)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::CreateEntity("Rivka".into())).unwrap();
    let db = s.database();
    let rivka = db.entity_by_name(u.people, "Rivka").unwrap();
    // Cascades through BOTH parent chains.
    for class in [
        u.teaching_assistants,
        u.graduate_students,
        u.students,
        u.staff,
        u.people,
    ] {
        assert!(db.members(class).unwrap().contains(rivka));
    }
    assert!(db.is_consistent().unwrap());
}
