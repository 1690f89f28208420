//! End-to-end tests of the session engine against the §4.2 narrative and
//! the Diagram-1 state invariants.

use isis_core::{
    Atom, BaseKind, Clause, CompareOp, CoreError, EntityId, Map, Multiplicity, Predicate, Rhs,
    SchemaNode,
};
use isis_sample::instrumental_music;
use isis_session::{Command, Mode, RefreshPolicy, Selection, Session, SessionError};
use isis_views::Emphasis;

fn session() -> (Session, isis_sample::InstrumentalMusic) {
    let im = instrumental_music().unwrap();
    (Session::builder(im.db.clone()).build(), im)
}

#[test]
fn pick_and_view_associations_figure1_to_2() {
    let (mut s, im) = session();
    // Figure 1: pick soloists.
    s.apply(Command::Pick(SchemaNode::Class(im.soloists)))
        .unwrap();
    assert_eq!(s.selection(), Some(Selection::Class(im.soloists)));
    let scene = s.scene().unwrap();
    assert!(scene.hand().is_some());
    // view associations → network of soloists.
    s.apply(Command::ViewAssociations).unwrap();
    assert_eq!(*s.mode(), Mode::Network);
    // Picking the value class of plays (instruments) re-targets the network
    // (Figure 2).
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    assert_eq!(*s.mode(), Mode::Network);
    let scene = s.scene().unwrap();
    assert!(scene.has_text("family"));
    // pop → forest with instruments still selected.
    s.apply(Command::Pop).unwrap();
    assert_eq!(*s.mode(), Mode::Forest);
    assert_eq!(s.selection(), Some(Selection::Class(im.instruments)));
}

#[test]
fn data_level_select_follow_and_reassign_figures_3_to_5() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    assert_eq!(*s.mode(), Mode::Data);
    // Figure 3: select flute, then oboe.
    s.apply(Command::SelectEntity(im.flute)).unwrap();
    s.apply(Command::SelectEntity(im.oboe)).unwrap();
    let scene = s.scene().unwrap();
    assert!(scene.has_text_with("flute", Emphasis::Bold));
    assert!(scene.has_text_with("oboe", Emphasis::Bold));
    // Figure 4: follow family → families page, brass highlighted (the
    // deliberate data error).
    s.apply(Command::Follow(im.family)).unwrap();
    assert_eq!(s.pages().len(), 2);
    assert_eq!(s.pages()[1].node, SchemaNode::Class(im.families));
    assert_eq!(s.pages()[1].selected, vec![im.brass]);
    // The user corrects: unhighlight brass, highlight woodwind.
    s.apply(Command::SelectEntity(im.brass)).unwrap(); // toggle off
    s.apply(Command::SelectEntity(im.woodwind)).unwrap();
    // Figure 5: (re)assign happens on the instruments page — pop back.
    s.apply(Command::Pop).unwrap();
    assert_eq!(s.pages().len(), 1);
    // flute and oboe are still the data selection (D preserved).
    assert_eq!(s.pages()[0].selected, vec![im.flute, im.oboe]);
    s.apply(Command::ReassignAttrValue {
        attr: im.family,
        value: im.woodwind,
    })
    .unwrap();
    for e in [im.flute, im.oboe] {
        assert_eq!(
            s.database()
                .attr_value_set(e, im.family)
                .unwrap()
                .as_slice(),
            &[im.woodwind]
        );
    }
}

#[test]
fn grouping_follow_figures_6_and_7() {
    let (mut s, im) = session();
    // display predicate of by_family (the user wonders what it is).
    s.apply(Command::Pick(SchemaNode::Grouping(im.by_family)))
        .unwrap();
    s.apply(Command::DisplayPredicate).unwrap();
    assert!(s
        .messages()
        .last()
        .unwrap()
        .contains("grouped by common value of their family attribute"));
    // Figure 6: contents of the grouping, select percussion.
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::SelectEntity(im.percussion)).unwrap();
    // Figure 7: follow (no attribute needed on a grouping page).
    s.apply(Command::FollowGrouping).unwrap();
    let top = s.pages().last().unwrap();
    assert_eq!(top.node, SchemaNode::Class(im.instruments));
    let drums = s
        .database()
        .entity_by_name(im.instruments, "drums")
        .unwrap();
    let cymbals = s
        .database()
        .entity_by_name(im.instruments, "cymbals")
        .unwrap();
    assert!(top.selected.contains(&drums));
    assert!(top.selected.contains(&cymbals));
    assert_eq!(top.selected.len(), 2);
}

/// Following two overlapping grouping sets highlights set by set in
/// selection order, each set in parent-extent order, and a musician in
/// both sets once, where its first set put it.
#[test]
fn follow_grouping_orders_overlapping_sets_by_selection() {
    let (mut s, im) = session();
    let db = s.database();
    let extent: Vec<EntityId> = db.members(im.musicians).unwrap().iter().collect();
    let set_of = |i: EntityId| -> Vec<EntityId> {
        extent
            .iter()
            .copied()
            .filter(|m| db.attr_value_set(*m, im.plays).unwrap().contains(i))
            .collect()
    };
    let instruments: Vec<EntityId> = db.members(im.instruments).unwrap().iter().collect();
    // Two overlapping sets, selected later-first, so the expected order is
    // neither extent order nor either set alone.
    let (first, second, expected) = instruments
        .iter()
        .flat_map(|&a| instruments.iter().map(move |&b| (a, b)))
        .find_map(|(a, b)| {
            let (sa, sb) = (set_of(a), set_of(b));
            let mut want = sb.clone();
            want.extend(sa.iter().filter(|m| !sb.contains(m)));
            let in_extent: Vec<EntityId> = extent
                .iter()
                .copied()
                .filter(|m| want.contains(m))
                .collect();
            let overlap = sa.iter().any(|m| sb.contains(m));
            (a != b && overlap && want != in_extent).then_some((b, a, want))
        })
        .expect("the sample has two overlapping instrument sets");
    s.apply(Command::Pick(SchemaNode::Grouping(im.by_instrument)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::SelectEntity(first)).unwrap();
    s.apply(Command::SelectEntity(second)).unwrap();
    s.apply(Command::FollowGrouping).unwrap();
    let top = s.pages().last().unwrap();
    assert_eq!(top.node, SchemaNode::Class(im.musicians));
    assert_eq!(top.selected, expected);
}

/// The full Figure 8–10 worksheet flow: create quartets, define its
/// membership (atoms A and E), commit, then define all_inst by the hand
/// operator.
#[test]
fn worksheet_flow_figures_8_to_10() {
    let (mut s, im) = session();
    // Figure 8: create subclass of music_groups, name it quartets.
    s.apply(Command::Pick(SchemaNode::Class(im.music_groups)))
        .unwrap();
    s.apply(Command::CreateSubclass("quartets".into())).unwrap();
    let quartets = s.database().class_by_name("quartets").unwrap();
    assert_eq!(s.selection(), Some(Selection::Class(quartets)));

    // (re)define membership → worksheet.
    s.apply(Command::DefineMembership).unwrap();
    assert_eq!(*s.mode(), Mode::Worksheet);

    // Atom A: size = {4}, placed in the second clause.
    s.apply(Command::WsNewAtom).unwrap();
    s.apply(Command::WsPlaceInClause(1)).unwrap();
    s.apply(Command::WsLhsPush(im.size)).unwrap();
    s.apply(Command::WsOperator(CompareOp::SetEq.into()))
        .unwrap();
    // constant → temporary data-level visit into INTEGERS.
    s.apply(Command::WsRhsConstant(None)).unwrap();
    match s.mode() {
        Mode::ConstantPick { class, .. } => {
            assert_eq!(
                *class,
                s.database().predefined(isis_core::BaseKind::Integers)
            );
        }
        m => panic!("expected constant pick, got {m:?}"),
    }
    let four = s.transact(|db| Ok(db.int(4))).unwrap();
    s.apply(Command::ConstantToggle(four)).unwrap();
    s.apply(Command::ConstantDone).unwrap();
    assert_eq!(*s.mode(), Mode::Worksheet);

    // Atom B (the paper calls it E): members plays ⊇ {piano}, clause 1.
    s.apply(Command::WsNewAtom).unwrap();
    s.apply(Command::WsPlaceInClause(0)).unwrap();
    s.apply(Command::WsLhsPush(im.members)).unwrap();
    s.apply(Command::WsLhsPush(im.plays)).unwrap();
    // The worksheet shows the stack of classes for the map.
    let input = s.worksheet_input().unwrap();
    assert_eq!(
        input.lhs_stack,
        vec!["music_groups", "musicians", "instruments"]
    );
    s.apply(Command::WsOperator(CompareOp::Superset.into()))
        .unwrap();
    s.apply(Command::WsRhsConstant(None)).unwrap();
    s.apply(Command::ConstantToggle(im.piano)).unwrap();
    s.apply(Command::ConstantDone).unwrap();

    // Switch to CNF and commit.
    s.apply(Command::WsSwitchAndOr).unwrap();
    s.apply(Command::WsCommit).unwrap();
    assert_eq!(*s.mode(), Mode::Forest);
    assert_eq!(s.selection(), Some(Selection::Class(quartets)));
    // Exactly LaBelle Musique qualifies.
    let members: Vec<EntityId> = s.database().members(quartets).unwrap().iter().collect();
    assert_eq!(members, vec![im.labelle]);

    // Figure 10: all_inst derived by the hand operator.
    s.apply(Command::CreateAttribute {
        name: "all_inst".into(),
        multiplicity: Multiplicity::Multi,
    })
    .unwrap();
    s.apply(Command::SpecifyValueClass(SchemaNode::Class(
        im.instruments,
    )))
    .unwrap();
    s.apply(Command::DefineDerivation).unwrap();
    let input = s.worksheet_input().unwrap();
    assert!(input.derivation_mode);
    assert!(input.target.contains("all_inst"));
    s.apply(Command::WsHandAssign(vec![im.members, im.plays]))
        .unwrap();
    s.apply(Command::WsCommit).unwrap();
    let all_inst = s.database().attr_by_name(quartets, "all_inst").unwrap();
    let set = s.database().attr_value_set(im.labelle, all_inst).unwrap();
    assert!(set.contains(im.piano));
    assert!(set.contains(im.viola));
    assert_eq!(set.len(), 4);
}

#[test]
fn make_subclass_figures_11_and_12() {
    let (mut s, im) = session();
    // Look at musicians, keep only Edith selected (Figure 11), follow
    // plays, make the edith_plays subclass of instruments (Figure 12).
    s.apply(Command::Pick(SchemaNode::Class(im.musicians)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::SelectEntity(im.edith)).unwrap();
    s.apply(Command::Follow(im.plays)).unwrap();
    let top = s.pages().last().unwrap();
    assert_eq!(top.selected, vec![im.viola, im.violin]);
    s.apply(Command::MakeSubclass("edith_plays".into()))
        .unwrap();
    // Still at the data level (temporary visit), but the new class is the
    // schema selection, under instruments.
    assert_eq!(*s.mode(), Mode::Data);
    let edith_plays = s.database().class_by_name("edith_plays").unwrap();
    assert_eq!(s.selection(), Some(Selection::Class(edith_plays)));
    assert_eq!(
        s.database().class(edith_plays).unwrap().parent,
        Some(im.instruments)
    );
    let members: Vec<EntityId> = s.database().members(edith_plays).unwrap().iter().collect();
    assert_eq!(members, vec![im.viola, im.violin]);
    // Back at the forest, the hand points at edith_plays (Figure 12).
    s.apply(Command::Pop).unwrap();
    s.apply(Command::Pop).unwrap();
    assert_eq!(*s.mode(), Mode::Forest);
    let scene = s.scene().unwrap();
    assert!(scene.has_text("edith_plays"));
    assert!(scene.hand().is_some());
}

#[test]
fn save_and_load_via_store() {
    let root = std::env::temp_dir().join(format!("isis_session_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = isis_store::StoreDir::open(&root).unwrap();
    let im = instrumental_music().unwrap();
    dir.save(&im.db, "Instrumental_Music").unwrap();
    let mut s = Session::builder(isis_core::Database::new("scratch"))
        .store(dir)
        .build();
    s.apply(Command::Load("Instrumental_Music".into())).unwrap();
    assert!(s.database().class_by_name("musicians").is_ok());
    // Modify and save as entertainment (the session's ending).
    s.apply(Command::Pick(SchemaNode::Class(im.music_groups)))
        .unwrap();
    s.apply(Command::CreateSubclass("quartets".into())).unwrap();
    s.apply(Command::Save("entertainment".into())).unwrap();
    let dir2 = isis_store::StoreDir::open(&root).unwrap();
    let loaded = dir2.load("entertainment").unwrap();
    assert!(loaded.class_by_name("quartets").is_ok());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn undo_redo_roundtrip() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.musicians)))
        .unwrap();
    s.apply(Command::CreateSubclass("temp".into())).unwrap();
    assert!(s.database().class_by_name("temp").is_ok());
    s.apply(Command::Undo).unwrap();
    assert!(s.database().class_by_name("temp").is_err());
    s.apply(Command::Redo).unwrap();
    assert!(s.database().class_by_name("temp").is_ok());
    // Undo twice → error on the second empty undo… (one snapshot exists).
    s.apply(Command::Undo).unwrap();
    assert!(s.apply(Command::Undo).is_err());
}

#[test]
fn reassign_on_data_level_is_undoable() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::SelectEntity(im.flute)).unwrap();
    s.apply(Command::ReassignAttrValue {
        attr: im.family,
        value: im.woodwind,
    })
    .unwrap();
    assert!(s
        .database()
        .attr_value_set(im.flute, im.family)
        .unwrap()
        .contains(im.woodwind));
    s.apply(Command::Undo).unwrap();
    assert!(s
        .database()
        .attr_value_set(im.flute, im.family)
        .unwrap()
        .contains(im.brass));
}

#[test]
fn temporary_visit_preserves_selections() {
    let (mut s, im) = session();
    // Establish a data selection D, then enter the worksheet and pick a
    // constant; D and S must survive untouched (Diagram 1).
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::SelectEntity(im.flute)).unwrap();
    let pages_before = s.pages().to_vec();
    s.apply(Command::Pop).unwrap(); // back to forest, D retained

    s.apply(Command::Pick(SchemaNode::Class(im.play_strings)))
        .unwrap();
    s.apply(Command::DefineMembership).unwrap();
    s.apply(Command::WsNewAtom).unwrap();
    s.apply(Command::WsPlaceInClause(0)).unwrap();
    s.apply(Command::WsLhsPush(im.plays)).unwrap();
    s.apply(Command::WsOperator(CompareOp::Match.into()))
        .unwrap();
    s.apply(Command::WsRhsConstant(None)).unwrap();
    s.apply(Command::ConstantToggle(im.viola)).unwrap();
    s.apply(Command::ConstantDone).unwrap();
    // D unchanged by the temporary visit.
    assert_eq!(s.pages(), pages_before.as_slice());
    assert_eq!(s.selection(), Some(Selection::Class(im.play_strings)));
}

#[test]
fn command_errors_are_informative() {
    let (mut s, im) = session();
    // Data-level commands outside the data level.
    assert!(s.apply(Command::Follow(im.plays)).is_err());
    assert!(s
        .apply(Command::ReassignAttrValue {
            attr: im.family,
            value: im.brass
        })
        .is_err());
    // Worksheet commands without a worksheet.
    assert!(s.apply(Command::WsNewAtom).is_err());
    assert!(s.apply(Command::WsCommit).is_err());
    // view contents with an attribute selected.
    s.apply(Command::PickAttr(im.plays)).unwrap();
    assert!(s.apply(Command::ViewContents).is_err());
    // Save without a store.
    assert!(matches!(
        s.apply(Command::Save("x".into())),
        Err(isis_session::SessionError::NoStore)
    ));
    // Follow with nothing selected.
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    assert!(matches!(
        s.apply(Command::Follow(im.family)),
        Err(isis_session::SessionError::NothingSelected)
    ));
    // Follow with an attribute not on the class.
    s.apply(Command::SelectEntity(im.flute)).unwrap();
    assert!(s.apply(Command::Follow(im.members)).is_err());
    // Selecting a non-member.
    assert!(s.apply(Command::SelectEntity(im.edith)).is_err());
}

#[test]
fn create_entity_at_data_level() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::CreateEntity("ocarina".into())).unwrap();
    let e = s
        .database()
        .entity_by_name(im.instruments, "ocarina")
        .unwrap();
    assert!(s.database().members(im.instruments).unwrap().contains(e));
    // Creating in a subclass page inserts into the baseclass and the
    // subclass (the paper's cascade).
    s.apply(Command::Pop).unwrap();
    s.apply(Command::Pick(SchemaNode::Class(im.soloists)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::CreateEntity("Zara".into())).unwrap();
    let z = s.database().entity_by_name(im.musicians, "Zara").unwrap();
    assert!(s.database().members(im.soloists).unwrap().contains(z));
    assert!(s.database().members(im.musicians).unwrap().contains(z));
}

#[test]
fn rename_and_delete_via_session() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.soloists)))
        .unwrap();
    s.apply(Command::Rename("stars".into())).unwrap();
    assert!(s.database().class_by_name("stars").is_ok());
    s.apply(Command::Delete).unwrap();
    assert!(s.database().class_by_name("stars").is_err());
    assert_eq!(s.selection(), None);
    // Deleting predefined classes is refused and surfaces as a core error.
    s.apply(Command::Pick(SchemaNode::Class(
        s.database().predefined(isis_core::BaseKind::Strings),
    )))
    .unwrap();
    assert!(s.apply(Command::Delete).is_err());
}

#[test]
fn scroll_pans_member_list() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::Scroll(5)).unwrap();
    assert_eq!(s.pages()[0].scroll, 5);
    s.apply(Command::Scroll(-10)).unwrap();
    assert_eq!(s.pages()[0].scroll, 0);
}

#[test]
fn stop_flag() {
    let (mut s, _) = session();
    assert!(!s.stopped());
    s.apply(Command::Stop).unwrap();
    assert!(s.stopped());
}

#[test]
fn display_predicate_of_derived_class() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.play_strings)))
        .unwrap();
    s.apply(Command::DisplayPredicate).unwrap();
    let msg = s.messages().last().unwrap();
    assert!(msg.contains("plays family"), "got: {msg}");
    assert!(msg.contains("stringed"), "got: {msg}");
}

#[test]
fn move_and_pan_affect_the_forest_view() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.soloists)))
        .unwrap();
    let before = s.scene().unwrap();
    // Drag soloists right and down (Figure 8's box placement).
    s.apply(Command::Move(10, 2)).unwrap();
    let after = s.scene().unwrap();
    assert_ne!(before, after);
    // The hand follows the moved box.
    let (hb, ha) = (before.hand().unwrap(), after.hand().unwrap());
    assert_eq!(ha.x, hb.x + 10);
    assert_eq!(ha.y, hb.y + 2);
    // Panning shifts everything.
    s.apply(Command::Pan(5, 0)).unwrap();
    let panned = s.scene().unwrap();
    assert_eq!(panned.hand().unwrap().x, ha.x + 5);
    // Moves require a class/grouping selection.
    s.apply(Command::PickAttr(im.plays)).unwrap();
    assert!(s.apply(Command::Move(1, 1)).is_err());
}

#[test]
fn auto_refresh_keeps_derived_classes_fresh() {
    let (mut s, im) = session();
    // Commit the quartets query first.
    s.apply(Command::Pick(SchemaNode::Class(im.music_groups)))
        .unwrap();
    s.apply(Command::CreateSubclass("quartets".into())).unwrap();
    s.apply(Command::DefineMembership).unwrap();
    s.apply(Command::WsNewAtom).unwrap();
    s.apply(Command::WsPlaceInClause(0)).unwrap();
    s.apply(Command::WsLhsPush(im.size)).unwrap();
    s.apply(Command::WsOperator(CompareOp::SetEq.into()))
        .unwrap();
    s.apply(Command::WsRhsConstant(None)).unwrap();
    let four = s.transact(|db| Ok(db.int(4))).unwrap();
    s.apply(Command::ConstantToggle(four)).unwrap();
    s.apply(Command::ConstantDone).unwrap();
    s.apply(Command::WsCommit).unwrap();
    let quartets = s.database().class_by_name("quartets").unwrap();
    let before = s.database().members(quartets).unwrap().len();
    assert_eq!(before, 2); // LaBelle Musique and String Fling have size 4

    // Without auto-refresh the class goes stale after a data edit…
    s.apply(Command::PickByName("music_groups".into())).unwrap();
    s.apply(Command::ViewContents).unwrap();
    let trio = s
        .database()
        .entity_by_name(im.music_groups, "Trio Grande")
        .unwrap();
    s.apply(Command::SelectEntity(trio)).unwrap();
    s.apply(Command::ReassignAttrValue {
        attr: im.size,
        value: four,
    })
    .unwrap();
    assert_eq!(s.database().members(quartets).unwrap().len(), 2); // stale

    // …with auto-refresh it tracks immediately.
    s.set_refresh_policy(RefreshPolicy::Immediate);
    let two = s.transact(|db| Ok(db.int(2))).unwrap();
    s.apply(Command::ReassignAttrValue {
        attr: im.size,
        value: two,
    })
    .unwrap();
    s.apply(Command::ReassignAttrValue {
        attr: im.size,
        value: four,
    })
    .unwrap();
    assert_eq!(s.database().members(quartets).unwrap().len(), 3);
    assert!(s
        .messages()
        .iter()
        .any(|m| m.contains("quartets re-evaluated")));
}

#[test]
fn a_failed_delta_round_leaves_no_window_unsettled() {
    let mut im = instrumental_music().unwrap();
    // small: music_groups with size < {5}.
    let ints = im.db.predefined(BaseKind::Integers);
    let five = im.db.int(5);
    let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.size),
        CompareOp::Lt,
        Rhs::constant(ints, [five]),
    )])]);
    let small = im
        .db
        .create_derived_subclass(im.music_groups, "small")
        .unwrap();
    im.db.commit_membership(small, pred.clone()).unwrap();
    let members = im.db.members(small).unwrap().clone();
    let first = members.iter().next().expect("a small group");
    let outsider = im
        .db
        .members(im.music_groups)
        .unwrap()
        .iter()
        .find(|g| !members.contains(*g))
        .expect("a group of five or more");
    let size = im.size;
    let mut s = Session::builder(im.db).build();
    assert_eq!(s.refresh_policy(), RefreshPolicy::Manual);
    s.refresh_derived().unwrap();

    // Window 1: a member loses its size, which its round cannot compare,
    // and the outsider shrinks into the class.
    s.transact(|db| {
        db.unassign(first, size)?;
        let three = db.int(3);
        db.assign_single(outsider, size, three)
    })
    .unwrap();
    let err = s.refresh_derived().unwrap_err();
    assert!(
        matches!(err, SessionError::Core(CoreError::NotComparable(_))),
        "a delta round's core error keeps its face: {err:?}"
    );
    // Window 2 repairs the member; window 1's outsider must still join.
    s.transact(|db| {
        let ten = db.int(10);
        db.assign_single(first, size, ten)
    })
    .unwrap();
    s.refresh_derived().unwrap();
    let db = s.database();
    let want = db.evaluate_derived_members(im.music_groups, &pred).unwrap();
    assert!(db.members(small).unwrap().contains(outsider));
    assert!(db.members(small).unwrap().set_eq(&want));
}

#[test]
fn parallel_query_matches_serial_and_keeps_a_persistent_pool() {
    use isis_sample::{synthetic_music, workload, Scale};

    let mut syn = synthetic_music(Scale::of(400), 11).unwrap();
    let instrument = syn.instrument_ids[0];
    let pred = workload::quartets_query(&mut syn, instrument, 4);

    let mut serial = Session::builder(syn.db.clone())
        .refresh_policy(RefreshPolicy::OnCommit)
        .build();
    let mut parallel = Session::builder(syn.db.clone())
        .refresh_policy(RefreshPolicy::OnCommit)
        .eval_threads(4)
        .build();
    assert_eq!(serial.eval_threads(), 1);
    assert_eq!(parallel.eval_threads(), 4);

    let want = serial.query(syn.music_groups, &pred).unwrap();
    for _ in 0..3 {
        let got = parallel.query(syn.music_groups, &pred).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }
    for _ in 0..2 {
        serial.query(syn.music_groups, &pred).unwrap();
    }
    // The pool was spawned once on the service and reused across queries.
    assert_eq!(
        parallel.index_service().unwrap().eval_pool_threads(),
        Some(4)
    );
    assert_eq!(serial.index_service().unwrap().eval_pool_threads(), None);

    // Reconfiguring mid-session takes effect on the next query.
    parallel.set_eval_threads(2);
    let got = parallel.query(syn.music_groups, &pred).unwrap();
    assert_eq!(got.as_slice(), want.as_slice());
    assert_eq!(
        parallel.index_service().unwrap().eval_pool_threads(),
        Some(2)
    );
    serial.query(syn.music_groups, &pred).unwrap();

    // Worker count changes where a query runs, never what the planner
    // records: four queries each, identical counters.
    let stats = |s: &Session| s.index_service().unwrap().query_stats();
    assert_eq!(stats(&parallel).queries, 4);
    assert_eq!(stats(&serial), stats(&parallel));

    // EXPLAIN on the parallel session answers like a query and moves the
    // counters by the same delta.
    let before = stats(&parallel);
    let (explained, record) = parallel.explain(syn.music_groups, &pred).unwrap();
    assert_eq!(explained.as_slice(), want.as_slice());
    assert_eq!(record.threads, 2);
    let after_explain = stats(&parallel);
    parallel.query(syn.music_groups, &pred).unwrap();
    let after_query = stats(&parallel);
    let delta = |a: isis_query::QueryStats, b: isis_query::QueryStats| {
        (
            b.queries - a.queries,
            b.index_probes - a.index_probes,
            b.grouping_scans - a.grouping_scans,
            b.seq_scans - a.seq_scans,
            b.index_misses - a.index_misses,
        )
    };
    assert_eq!(
        delta(before, after_explain),
        delta(after_explain, after_query)
    );
    assert_eq!(delta(before, after_explain).0, 1);
}

/// The data-level guards refuse before any effect: every data-level verb
/// is `WrongMode` outside the data level (in a fresh session, and all but
/// scroll at the forest over a page stack kept from a visit), and the
/// verbs that act on the data selection refuse an empty one.
#[test]
fn data_level_guards_refuse_before_any_effect() {
    let (mut s, im) = session();
    let on_selection = vec![
        Command::Follow(im.family),
        Command::ReassignAttrValue {
            attr: im.family,
            value: im.brass,
        },
        Command::ReassignAttrValues {
            attr: im.family,
            values: vec![im.brass],
        },
        Command::MakeSubclass("picked".into()),
    ];
    let mut data_level = on_selection.clone();
    data_level.extend([
        Command::SelectEntity(im.flute),
        Command::ConstantToggle(im.flute),
        Command::ConstantDone,
        Command::FollowGrouping,
        Command::CreateEntity("ocarina".into()),
    ]);
    let refuse = |s: &mut Session, cmds: &[Command], empty_selection: bool| {
        for cmd in cmds {
            match s.apply(cmd.clone()) {
                Err(SessionError::NothingSelected) if empty_selection => {}
                Err(SessionError::WrongMode(_)) if !empty_selection => {}
                got => panic!("{cmd:?}: {got:?}"),
            }
        }
    };
    refuse(
        &mut s,
        &[&data_level[..], &[Command::Scroll(1)]].concat(),
        false,
    );
    s.apply(Command::Pick(SchemaNode::Class(im.instruments)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    refuse(&mut s, &on_selection, true);
    s.apply(Command::SelectEntity(im.flute)).unwrap();
    s.apply(Command::Pop).unwrap();
    refuse(&mut s, &data_level, false);
    s.apply(Command::Pick(SchemaNode::Grouping(im.by_family)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    refuse(&mut s, &[Command::FollowGrouping], true);
    assert!(matches!(
        s.apply(Command::Undo),
        Err(SessionError::NothingToUndo)
    ));
}

/// Scrolling saturates instead of overflowing, and stays on the page: it
/// stops at the last row of a class page or of a grouping page's sets.
#[test]
fn scroll_saturates_within_the_page() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.musicians)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    let last = s.database().members(im.musicians).unwrap().len() - 1;
    for (delta, want) in [(500, last), (i32::MAX, last), (i32::MIN, 0), (-1, 0)] {
        s.apply(Command::Scroll(delta)).unwrap();
        assert_eq!(s.pages()[0].scroll, want, "after scroll {delta}");
    }
    s.apply(Command::Pick(SchemaNode::Grouping(im.by_family)))
        .unwrap();
    s.apply(Command::ViewContents).unwrap();
    s.apply(Command::Scroll(i32::MAX)).unwrap();
    let sets = s.database().grouping_sizes(im.by_family).unwrap().len();
    assert_eq!(s.pages()[0].scroll, sets - 1);
}

/// Applies a forest gesture twice in each direction, from the selected
/// soloists box past the plane's edge: the second changes nothing, and the
/// forest still renders.
fn saturates_at_the_edge_of_the_plane(gesture: fn(i32, i32) -> Command) {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.soloists)))
        .unwrap();
    for (dx, dy) in [(i32::MAX, 0), (0, i32::MAX), (i32::MIN, 0), (0, i32::MIN)] {
        s.apply(gesture(dx, dy)).unwrap();
        let edge = s.scene().unwrap();
        s.apply(gesture(dx, dy)).unwrap();
        assert_eq!(s.scene().unwrap(), edge, "{:?}", gesture(dx, dy));
        assert!(isis_views::render::ascii::render(&edge).contains("Instrumental_Music"));
    }
}

#[test]
fn pan_saturates_at_the_edge_of_the_plane() {
    saturates_at_the_edge_of_the_plane(Command::Pan);
}

#[test]
fn move_saturates_at_the_edge_of_the_plane() {
    saturates_at_the_edge_of_the_plane(Command::Move);
}

#[test]
fn a_worksheet_tags_atoms_a_to_z_and_refuses_a_27th() {
    let (mut s, im) = session();
    s.apply(Command::Pick(SchemaNode::Class(im.music_groups)))
        .unwrap();
    s.apply(Command::CreateSubclass("quartets".into())).unwrap();
    s.apply(Command::DefineMembership).unwrap();
    for _ in 0..26 {
        s.apply(Command::WsNewAtom).unwrap();
    }
    let tags: String = s.worksheet().unwrap().atoms.iter().map(|a| a.tag).collect();
    assert_eq!(tags, "ABCDEFGHIJKLMNOPQRSTUVWXYZ");
    assert!(matches!(
        s.apply(Command::WsNewAtom),
        Err(SessionError::WrongMode(_))
    ));
    let ws = s.worksheet().unwrap();
    assert_eq!(ws.atoms.len(), 26);
    assert_eq!(
        ws.editing,
        Some(25),
        "the refusal left the editing atom alone"
    );
    // Every tag stays addressable.
    s.apply(Command::WsEdit('A')).unwrap();
    s.apply(Command::WsEdit('Z')).unwrap();
}

/// Under the Manual policy with changes pending, query and EXPLAIN run the
/// compiled program: the answers match the interpreted oracle and the
/// record reports the program's eval mode and the planner's reasons.
#[test]
fn the_unassisted_scan_runs_the_compiled_program() {
    let (mut s, im) = session();
    s.transact(|db| db.insert_entity(im.musicians, "Zoe").map(|_| ()))
        .unwrap();
    let streams = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.plays),
        CompareOp::Match,
        Rhs::constant(im.instruments, [im.piano]),
    )])]);
    let walks = Predicate::cnf(vec![Clause::new(vec![Atom::new(
        Map::new(vec![im.members, im.plays]),
        CompareOp::Superset,
        Rhs::constant(im.instruments, [im.piano]),
    )])]);
    // With no index, `plays` still prunes through the `by_instrument`
    // grouping; the two-step map has nothing to prune with.
    for (parent, pred, mode, pooled, why) in [
        (
            im.musicians,
            &streams,
            "batch",
            true,
            "a grouping on the attribute",
        ),
        (
            im.music_groups,
            &walks,
            "scalar",
            false,
            "a step of the map has no index",
        ),
    ] {
        let want = s.database().evaluate_derived_members(parent, pred).unwrap();
        assert_eq!(s.query(parent, pred).unwrap().as_slice(), want.as_slice());
        let (got, record) = s.explain(parent, pred).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(record.pool_len.is_some(), pooled, "{pred}");
        assert_eq!(record.atoms.len(), 1, "{pred}");
        assert!(record.atoms[0].why.contains(why), "{pred}");
        assert_eq!(record.eval_mode, mode, "{pred}");
        assert_eq!(record.returned as usize, want.len());
    }
    assert!(s.index_service().is_none(), "nothing was refreshed");
}

/// The session-scope counts an answer moves: unassisted answers, queries,
/// sequential scans and index probes.
fn answer_counts(s: &Session) -> [u64; 4] {
    [
        "session.query.unassisted",
        "query.service.queries",
        "query.service.seq_scans",
        "query.service.index_probes",
    ]
    .map(|name| s.query_scope().counter(name).get())
}

/// Asks `pred` over `parent` by query and by EXPLAIN; each answer equals
/// the interpreted oracle. Returns each answer's counter deltas and the
/// record.
fn ask_both(
    s: &mut Session,
    parent: isis_core::ClassId,
    pred: &Predicate,
) -> ([[u64; 4]; 2], isis_query::ExplainRecord) {
    let want = s.database().evaluate_derived_members(parent, pred).unwrap();
    let before = answer_counts(s);
    assert_eq!(s.query(parent, pred).unwrap().as_slice(), want.as_slice());
    let mid = answer_counts(s);
    let (got, record) = s.explain(parent, pred).unwrap();
    assert_eq!(got.as_slice(), want.as_slice());
    let after = answer_counts(s);
    let delta = |a: [u64; 4], b: [u64; 4]| std::array::from_fn(|i| b[i] - a[i]);
    ([delta(before, mid), delta(mid, after)], record)
}

/// Under the Manual policy every answer goes through an index service:
/// before the first refresh a fresh one with no index, after it the
/// derived state's, which scans the extent while an edit that makes Gil a
/// pianist waits for the next refresh. Each such answer counts one query
/// and one unassisted answer; once refreshed, the service probes again.
#[test]
fn manual_answers_match_the_oracle_before_a_refresh_and_while_one_is_pending() {
    let mut im = instrumental_music().unwrap();
    let pianists = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.plays),
        CompareOp::Match,
        Rhs::constant(im.instruments, [im.piano]),
    )])]);
    // A derived class over `plays`, so a refresh indexes it.
    let class = im
        .db
        .create_derived_subclass(im.musicians, "pianists")
        .unwrap();
    im.db.commit_membership(class, pianists.clone()).unwrap();
    let mut s = Session::builder(im.db.clone()).build();
    assert_eq!(s.refresh_policy(), RefreshPolicy::Manual);

    // (a) Before the first refresh.
    let (deltas, _) = ask_both(&mut s, im.musicians, &pianists);
    for d in deltas {
        assert_eq!((d[0], d[1]), (1, 1), "{d:?}");
    }
    assert!(s.index_service().is_none(), "answering refreshes nothing");

    // (b) After a refresh, with an edit pending that makes Gil qualify.
    s.apply(Command::Refresh).unwrap();
    let gil = s.database().entity_by_name(im.musicians, "Gil").unwrap();
    s.transact(|db| db.add_value(gil, im.plays, im.piano))
        .unwrap();
    let svc = s.index_service().unwrap();
    assert_ne!(
        svc.cursor(),
        s.database().delta_epoch(),
        "a refresh is pending"
    );
    let want = s
        .database()
        .evaluate_derived_members(im.musicians, &pianists)
        .unwrap();
    assert!(want.len() == 4 && want.contains(gil));
    let (deltas, record) = ask_both(&mut s, im.musicians, &pianists);
    assert_eq!(deltas, [[1, 1, 1, 0]; 2]);
    assert_eq!(record.pool_len, None);
    assert!(record
        .atoms
        .iter()
        .all(|a| a.why.contains("behind its database")));

    // (c) Refreshed, the service probes and nothing is unassisted.
    s.apply(Command::Refresh).unwrap();
    let (deltas, record) = ask_both(&mut s, im.musicians, &pianists);
    assert_eq!(deltas[0], [0, 1, 0, 1]);
    assert_eq!(record.eval_mode, "walk");
}

/// The session's query counters live in its registry scope, not on the
/// index service: undo + refresh, load, pull, a rebased publish and a full
/// refresh after a schema edit each build a new service (its program
/// cache starts empty), and the planner and program-cache counts carry on.
#[test]
fn query_counters_survive_every_service_rebuild() {
    let root = std::env::temp_dir().join(format!("isis_session_counters_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let im = instrumental_music().unwrap();
    let mut s = Session::builder(im.db.clone())
        .store(isis_store::StoreDir::open(&root).unwrap())
        .refresh_policy(RefreshPolicy::OnCommit)
        .build();
    let pianists = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(im.plays),
        CompareOp::Match,
        Rhs::constant(im.instruments, [im.piano]),
    )])]);
    // (queries, program-cache lookups), read through the current service.
    let counts = |s: &Session| {
        let svc = s.index_service().expect("a refresh built a service");
        let c = svc.program_cache().stats();
        (
            svc.query_stats().queries,
            c.hits + c.misses + c.invalidations,
        )
    };
    s.query(im.musicians, &pianists).unwrap();
    let mut last = counts(&s);
    assert_eq!(last, (1, 1));
    let mut after_rebuild = |s: &mut Session, step: &str| {
        let svc = s.index_service().expect("a refresh built a service");
        assert!(svc.program_cache().is_empty(), "{step} built a new service");
        let now = counts(s);
        assert!(
            now.0 >= last.0 && now.1 >= last.1,
            "{step} dropped the counts: {last:?} -> {now:?}"
        );
        s.query(im.musicians, &pianists).unwrap();
        last = counts(s);
        assert_eq!(last, (now.0 + 1, now.1 + 1), "{step}");
    };

    s.transact(|db| db.insert_entity(im.musicians, "Undone").map(drop))
        .unwrap();
    s.apply(Command::Undo).unwrap();
    s.apply(Command::Refresh).unwrap();
    after_rebuild(&mut s, "undo + refresh");

    s.apply(Command::Save("counted".into())).unwrap();
    s.apply(Command::Load("counted".into())).unwrap();
    s.apply(Command::Refresh).unwrap();
    after_rebuild(&mut s, "load");

    // Load detached the session onto a new shared handle: the rival
    // commits there.
    let mut rival = Session::open(s.shared()).build();
    rival
        .transact(|db| db.insert_entity(im.musicians, "Pulled").map(drop))
        .unwrap();
    rival.commit_changes().unwrap();
    s.apply(Command::Pull).unwrap();
    after_rebuild(&mut s, "pull");

    s.transact(|db| db.insert_entity(im.musicians, "Mine").map(drop))
        .unwrap();
    rival
        .transact(|db| db.insert_entity(im.musicians, "Theirs").map(drop))
        .unwrap();
    rival.commit_changes().unwrap();
    assert!(s.commit_changes().unwrap().rebased);
    after_rebuild(&mut s, "rebased publish");

    s.transact(|db| db.create_baseclass("venues").map(drop))
        .unwrap();
    s.apply(Command::Refresh).unwrap();
    after_rebuild(&mut s, "schema edit + refresh");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A write set that outgrows the session's own delta window is refused
/// with `SnapshotTooOld`, and no re-pin can make it fit: the retry loop
/// runs the intent once, returns the conflict, and leaves the session
/// clean and the head untouched.
#[test]
fn a_write_set_that_outgrows_its_window_is_not_retried() {
    let mut im = instrumental_music().unwrap();
    im.db.set_delta_capacity(4);
    let shared = isis_core::SharedDatabase::new(im.db);
    let head = shared.epoch();
    let mut s = Session::open(&shared).build();
    let mut runs = 0;
    let got = s.transact_with_retry(&isis_core::RetryBackoff::unslept(16), |db| {
        runs += 1;
        for name in ["Ann", "Bea", "Cyd"] {
            db.insert_entity(im.musicians, name)?;
        }
        Ok(())
    });
    assert!(
        matches!(
            got,
            Err(SessionError::Conflict(
                isis_core::CommitConflict::SnapshotTooOld { .. }
            ))
        ),
        "{got:?}"
    );
    assert_eq!(runs, 1, "no re-pin makes the write set fit");
    assert_eq!(shared.epoch(), head, "the head is untouched");
    assert!(!s.is_dirty(), "the session is left clean");
    assert!(s.database().entity_by_name(im.musicians, "Ann").is_err());
}

/// A base that other sessions' commits evicted from the head's window is
/// retried: the re-pin lands inside the window and the intent commits.
#[test]
fn a_base_evicted_by_other_commits_is_retried() {
    let mut im = instrumental_music().unwrap();
    im.db.set_delta_capacity(8);
    let shared = isis_core::SharedDatabase::new(im.db);
    let mut s = Session::open(&shared).build();
    let mut rival = Session::open(&shared).build();
    let mut runs = 0;
    let receipt = s
        .transact_with_retry(&isis_core::RetryBackoff::unslept(16), |db| {
            runs += 1;
            if runs == 1 {
                // Rival commits push the head past this attempt's base.
                for i in 0..8 {
                    rival
                        .transact_with_retry(&isis_core::RetryBackoff::unslept(0), |db| {
                            db.insert_entity(im.musicians, &format!("rival{i}"))
                                .map(|_| ())
                        })
                        .unwrap();
                }
            }
            db.insert_entity(im.musicians, "Dot").map(|_| ())
        })
        .unwrap();
    assert_eq!(runs, 2, "one evicted attempt, one retry");
    assert!(!s.is_dirty());
    assert_eq!(receipt.epoch, shared.epoch());
    let head = shared.pin();
    assert!(head.entity_by_name(im.musicians, "Dot").is_ok());
    assert!(head.entity_by_name(im.musicians, "rival7").is_ok());
}
