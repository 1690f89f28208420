//! The session's full refresh against its oracle, change for change.
//!
//! `Session::refresh_derived` on a session without maintainers re-evaluates
//! every derived subclass through its index service: candidates pruned by
//! the planner, the compiled program run on the pool, and the result
//! installed with `Database::install_members`. The oracle is the
//! interpreted path on a twin database: `refresh_derived_class` for every
//! derived subclass in id order, then `refresh_derived_attr` for every
//! derived attribute. Both must leave identical extents (order included),
//! record an identical delta-log suffix, and fail with the same error.
//!
//! The seeded fixture covers a derived subclass of a derived subclass (the
//! descendant cascade), predicates over attributes owned by, or ranged
//! over, a derived subclass settled earlier and indexed before its install
//! (the full refresh drains only at the end, so those postings are stale
//! and must only widen the candidates), a grouping-ranged atom, ordering
//! atoms that error on groups without a size (placed after and before an
//! index-prunable atom), and a follower that pulled concurrent commits.

use isis::prelude::*;
use isis_sample::{synthetic_music, Scale, SyntheticMusic};
use isis_session::{RefreshPolicy, Session, SessionError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 24;
const MUSICIANS: usize = 400;
const EDITS: usize = 24;

/// The generated schema and the derived subclasses on top of it.
struct Fixture {
    s: SyntheticMusic,
    /// `musicians.likes`, ranged over the `by_family` grouping.
    likes: AttrId,
    /// `pianists.section`: an attribute owned by a derived subclass.
    section: AttrId,
    pianists: ClassId,
    /// Musicians that left `pianists`, and with it their section.
    former: Vec<EntityId>,
    derived: Vec<ClassId>,
    /// `music_groups.lead`, ranged over `pianists`.
    lead: AttrId,
    /// `lead·section ~ {late_section}`: a lone walk settled after the
    /// pianists install.
    led_late: ClassId,
    late_section: EntityId,
}

fn single(atoms: Vec<Atom>) -> Predicate {
    Predicate::dnf(vec![Clause::new(atoms)])
}

fn build(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF011);
    let mut s = synthetic_music(Scale::of(MUSICIANS), seed).unwrap();
    let likes =
        s.db.create_attribute(s.musicians, "likes", s.by_family, Multiplicity::Multi)
            .unwrap();
    for &m in &s.musician_ids {
        if rng.gen_bool(0.5) {
            let f = *s.family_ids.choose(&mut rng).unwrap();
            s.db.assign_multi(m, likes, [f]).unwrap();
        }
    }
    let hot = s.instrument_ids[0];
    let (musicians, groups) = (s.musicians, s.music_groups);
    let ints = s.db.predefined(BaseKind::Integers);
    let member = |s: &SyntheticMusic, rng: &mut StdRng| {
        Atom::new(
            Map::single(s.members),
            CompareOp::Match,
            Rhs::constant(s.musicians, [*s.musician_ids.choose(rng).unwrap()]),
        )
    };
    let smaller = |s: &mut SyntheticMusic, k: i64| {
        let k = s.db.int(k);
        Atom::new(Map::single(s.size), CompareOp::Lt, Rhs::constant(ints, [k]))
    };
    let commit = |s: &mut SyntheticMusic, parent: ClassId, name: &str, pred: Predicate| {
        let c = s.db.create_derived_subclass(parent, name).unwrap();
        s.db.commit_membership(c, pred).unwrap();
        c
    };

    // 0. Created first, so it settles first; its predicate, committed
    //    below, walks into `pianists.section` through `lead`.
    let led = s.db.create_derived_subclass(groups, "led_early").unwrap();
    // 1. pianists: plays ~ {hot}.
    let plays_hot = Atom::new(
        Map::single(s.plays),
        CompareOp::Match,
        Rhs::constant(s.instruments, [hot]),
    );
    let pianists = commit(&mut s, musicians, "pianists", single(vec![plays_hot]));
    let section =
        s.db.create_attribute(pianists, "section", s.instruments, Multiplicity::Single)
            .unwrap();
    let first_sections: Vec<EntityId> = s.instrument_ids[..4].to_vec();
    for m in s.db.members(pianists).unwrap().clone().iter() {
        let i = *first_sections.choose(&mut rng).unwrap();
        s.db.assign_single(m, section, i).unwrap();
    }
    let lead =
        s.db.create_attribute(groups, "lead", pianists, Multiplicity::Single)
            .unwrap();
    let pianist_ids: Vec<EntityId> = s.db.members(pianists).unwrap().iter().collect();
    for &g in s.group_ids.iter().step_by(2) {
        s.db.assign_single(g, lead, *pianist_ids.choose(&mut rng).unwrap())
            .unwrap();
    }
    let lead_section = Atom::new(
        Map::new(vec![lead, section]),
        CompareOp::Match,
        Rhs::constant(s.instruments, [first_sections[0]]),
    );
    s.db.commit_membership(led, single(vec![lead_section]))
        .unwrap();
    // 2. A derived subclass of a derived subclass, over an attribute the
    //    derived parent owns.
    let sectioned = Atom::new(
        Map::single(section),
        CompareOp::Match,
        Rhs::constant(s.instruments, [first_sections[0], first_sections[1]]),
    );
    commit(&mut s, pianists, "sectioned", single(vec![sectioned]));
    // 2b. The walk `led_early` takes, settled after `pianists`: both steps
    //    were indexed before the pianists install scrubs `lead` (ranged
    //    over pianists) and drops `section` (owned by pianists) from the
    //    leavers.
    let lead_section_late = Atom::new(
        Map::new(vec![lead, section]),
        CompareOp::Match,
        Rhs::constant(s.instruments, [first_sections[1]]),
    );
    let led_late = commit(&mut s, groups, "led_late", single(vec![lead_section_late]));
    // Every third pianist stops playing the hot instrument and leaves,
    // dropping its section. When pianists leave or rejoin during the
    // refresh, `led_early` has already indexed `lead` and `section`, so
    // `sectioned` and `led_late` plan on postings the pianists install
    // left stale.
    let former: Vec<EntityId> = s.db.members(pianists).unwrap().iter().step_by(3).collect();
    for &m in &former {
        let mut plays = s.db.attr_value_set(m, s.plays).unwrap();
        plays.remove(hot);
        s.db.assign_multi(m, s.plays, plays.iter()).unwrap();
    }
    s.db.refresh_derived_class(pianists).unwrap();
    // 3. An ordering atom behind an index-prunable one.
    let (a, b) = (member(&s, &mut rng), smaller(&mut s, 4));
    let (c, d) = (member(&s, &mut rng), smaller(&mut s, 3));
    let after = Predicate::dnf(vec![Clause::new(vec![a, b]), Clause::new(vec![c, d])]);
    commit(&mut s, groups, "small_after", after);
    // 4. A grouping-ranged atom: likes expands to the instruments of the
    //    liked families.
    let fans = Atom::new(
        Map::single(likes),
        CompareOp::Match,
        Rhs::constant(s.instruments, [hot, s.instrument_ids[1]]),
    );
    commit(&mut s, musicians, "fans", single(vec![fans]));
    // 5. An ordering atom ahead of the index-prunable one (CNF too).
    let (a, b) = (smaller(&mut s, 5), member(&s, &mut rng));
    commit(&mut s, groups, "small_before", single(vec![a, b]));
    let (a, b) = (member(&s, &mut rng), smaller(&mut s, 6));
    let cnf = Predicate::cnf(vec![Clause::new(vec![b]), Clause::new(vec![a])]);
    commit(&mut s, groups, "small_cnf", cnf);
    let derived =
        s.db.classes()
            .filter(|(_, c)| c.is_derived())
            .map(|(id, _)| id)
            .collect();
    Fixture {
        s,
        likes,
        section,
        pianists,
        former,
        derived,
        lead,
        led_late,
        late_section: first_sections[1],
    }
}

/// One random data edit that can stale any of the derived subclasses.
fn edit(f: &Fixture, db: &mut Database, rng: &mut StdRng) {
    let s = &f.s;
    let musician = *s.musician_ids.choose(rng).unwrap();
    let group = *s.group_ids.choose(rng).unwrap();
    let instrument = *s.instrument_ids[..8].choose(rng).unwrap();
    match rng.gen_range(0..7) {
        0 => {
            let k = rng.gen_range(1..4);
            let plays: Vec<EntityId> = s.instrument_ids[..6]
                .choose_multiple(rng, k)
                .copied()
                .collect();
            db.assign_multi(musician, s.plays, plays).unwrap();
        }
        1 => {
            let rejoining = *f.former.choose(rng).unwrap();
            let m = if rng.gen_bool(0.5) {
                rejoining
            } else {
                musician
            };
            db.add_value(m, s.plays, s.instrument_ids[0]).unwrap();
        }
        2 => {
            // Pianists only: the owner class bounds who carries a section.
            let owners: Vec<EntityId> = db.members(f.pianists).unwrap().iter().collect();
            if let Some(&m) = owners.choose(rng) {
                db.assign_single(m, f.section, instrument).unwrap();
            }
        }
        3 => {
            let family = *s.family_ids.choose(rng).unwrap();
            db.assign_multi(musician, f.likes, [family]).unwrap();
        }
        4 => {
            // Re-key the grouping likes ranges over.
            let family = *s.family_ids.choose(rng).unwrap();
            db.assign_single(instrument, s.family, family).unwrap();
        }
        5 => {
            let chosen: Vec<EntityId> = s.musician_ids.choose_multiple(rng, 4).copied().collect();
            db.assign_multi(group, s.members, chosen).unwrap();
            let size = db.int(rng.gen_range(2..7));
            db.assign_single(group, s.size, size).unwrap();
        }
        _ => {
            // Rare: a group without a size makes `size < {k}` fail.
            if rng.gen_bool(0.25) {
                db.unassign(group, s.size).unwrap();
            }
        }
    }
}

/// The oracle: the interpreted refresh, in the order the session takes.
fn interpreted_refresh(db: &mut Database) -> Result<(), CoreError> {
    let classes: Vec<ClassId> = db
        .classes()
        .filter(|(_, c)| c.is_derived())
        .map(|(id, _)| id)
        .collect();
    for c in classes {
        db.refresh_derived_class(c)?;
    }
    let attrs: Vec<AttrId> = db
        .attrs()
        .filter(|(_, a)| a.is_derived())
        .map(|(id, _)| id)
        .collect();
    for a in attrs {
        db.refresh_derived_attr(a)?;
    }
    Ok(())
}

/// Refreshes `session` and `twin` and compares them change for change,
/// and checks the §2 integrity rules after the refresh. Returns whether
/// the refresh failed.
fn compare(f: &Fixture, session: &mut Session, mut twin: Database, what: &str) -> bool {
    let mark = session.database().delta_epoch();
    assert_eq!(mark, twin.delta_epoch(), "{what}: twins start apart");
    let want = interpreted_refresh(&mut twin);
    let got = session.refresh_derived();
    let failed = match (got, want) {
        (Ok(()), Ok(())) => false,
        (Err(SessionError::Core(a)), Err(b)) => {
            assert_eq!(a, b, "{what}: different errors");
            true
        }
        (got, want) => panic!("{what}: session {got:?} vs interpreted {want:?}"),
    };
    let db = session.database();
    for &c in &f.derived {
        assert_eq!(
            db.members(c).unwrap().as_slice(),
            twin.members(c).unwrap().as_slice(),
            "{what}: extent of {}",
            twin.class(c).unwrap().name
        );
    }
    assert_eq!(
        db.changes_since(mark).unwrap(),
        twin.changes_since(mark).unwrap(),
        "{what}: delta-log suffix"
    );
    assert_eq!(db.check_consistency().unwrap(), vec![], "{what}: §2 rules");
    failed
}

#[test]
fn full_refresh_matches_the_interpreted_refresh_change_for_change() {
    let (mut failed, mut settled) = (0, 0);
    for seed in 0..SEEDS {
        let f = build(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = f.s.db.clone();
        for _ in 0..EDITS {
            edit(&f, &mut db, &mut rng);
        }
        let twin = db.clone();
        let mut session = Session::builder(db).build();
        if compare(&f, &mut session, twin, &format!("seed {seed}")) {
            failed += 1;
        } else {
            settled += 1;
        }
    }
    assert!(failed > 0, "no seed exercised a failing refresh");
    assert!(settled > 0, "no seed exercised a settling refresh");
}

#[test]
fn follower_refresh_after_pull_matches_the_interpreted_refresh() {
    for seed in 0..SEEDS / 4 {
        let f = build(seed);
        let shared = SharedDatabase::new(f.s.db.clone());
        let mut follower = Session::open(&shared)
            .refresh_policy(RefreshPolicy::Manual)
            .build();
        let mut writer = Session::open(&shared)
            .refresh_policy(RefreshPolicy::Manual)
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        // Concurrent commits land on the head without refreshing it, so its
        // derived extents go stale.
        for _ in 0..3 {
            writer
                .transact(|db| {
                    for _ in 0..EDITS / 3 {
                        edit(&f, db, &mut rng);
                    }
                    Ok(())
                })
                .unwrap();
            writer.commit_changes().unwrap();
        }
        follower.pull().unwrap();
        let twin = shared.pin();
        compare(&f, &mut follower, twin, &format!("follower seed {seed}"));
    }
}

/// The stale-wide postings case, pinned down: a group led by a pianist
/// whose section `led_late` walks, and that pianist stops playing the hot
/// instrument. The full refresh indexes `lead` and `section` for
/// `led_early`, then the pianists install drops the pianist's section and
/// scrubs the group's lead, so the postings `led_late` would walk still
/// reach the group. The walk is not the answer there: the program
/// re-checks it, and the group leaves `led_late` as in the interpreted
/// refresh.
#[test]
fn a_lone_walk_over_postings_an_earlier_install_left_stale_is_rechecked() {
    let mut checked = 0;
    for seed in 0..SEEDS / 4 {
        let f = build(seed);
        let mut db = f.s.db.clone();
        let hot = f.s.instrument_ids[0];
        let Some((group, pianist)) = db.members(f.led_late).unwrap().iter().find_map(|g| {
            let p = db.attr_value_set(g, f.lead).unwrap().as_singleton()?;
            db.attr_value_set(p, f.s.plays)
                .unwrap()
                .contains(hot)
                .then_some((g, p))
        }) else {
            continue;
        };
        assert_eq!(
            db.attr_value_set(pianist, f.section)
                .unwrap()
                .as_singleton(),
            Some(f.late_section)
        );
        let mut plays = db.attr_value_set(pianist, f.s.plays).unwrap();
        plays.remove(hot);
        db.assign_multi(pianist, f.s.plays, plays.iter()).unwrap();
        let twin = db.clone();
        let mut session = Session::builder(db).build();
        assert!(!compare(
            &f,
            &mut session,
            twin,
            &format!("stale seed {seed}")
        ));
        let db = session.database();
        assert!(!db.members(f.pianists).unwrap().contains(pianist));
        assert!(db.attr_value_set(group, f.lead).unwrap().is_empty());
        assert!(!db.members(f.led_late).unwrap().contains(group));
        checked += 1;
    }
    assert!(checked > 0, "no seed led a late-section group by a pianist");
}
