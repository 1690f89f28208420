//! The MVCC isolation battery: seeded, randomized checks of the
//! snapshot-isolation contract of [`SharedDatabase`] (DESIGN.md §6).
//!
//! Three properties, each over hundreds of seeded cases:
//!
//! 1. **Reader stability** — a reader pinned at epoch `E` never observes
//!    any state beyond `E`, no matter what concurrent writers commit.
//! 2. **First committer wins** — of two writers whose write sets conflict,
//!    exactly one commit is admitted and the other gets a typed
//!    [`CommitConflict`].
//! 3. **Serializability** — the committed history equals *some* serial
//!    order: replaying the admitted commits' intents sequentially, in
//!    commit order, reproduces the shared head exactly (up to entity ids,
//!    which are line-local — states are compared by name).
//!
//! Property 1 also runs over a database spanning several 1024-id chunks,
//! where pins share their untouched chunks with the head.
//!
//! Plus a threaded stress run (the handle is `Send + Sync`; interleavings
//! vary by seed) and a fault-injected durability sweep: a commit whose WAL
//! append or fsync fails must be vetoed *and* leave nothing on disk for
//! recovery to replay — no phantom commits.
//!
//! Seeds are printed in every panic message; `ISIS_MVCC_SEED` overrides
//! the base seed.

use std::sync::Arc;

use isis::core::{
    AttrValue, BaseKind, Change, CommitConflict, CoreError, Database, EntityId, Multiplicity,
    SharedDatabase,
};
use isis::store::{write_snapshot_bytes, FaultVfs, StdVfs, StoreDir, SyncPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PEOPLE: usize = 8;

fn base_seed() -> u64 {
    std::env::var("ISIS_MVCC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

/// A shared database over a small known schema: `people` with a
/// singlevalued integer `age`, an enumerated subclass `club`, and eight
/// members `P0..P7` (evens in the club, ages pre-assigned).
fn base_shared() -> SharedDatabase {
    let mut db = Database::new("mvcc-battery");
    let people = db.create_baseclass("people").unwrap();
    let ints = db.predefined(BaseKind::Integers);
    let age = db
        .create_attribute(people, "age", ints, Multiplicity::Single)
        .unwrap();
    let club = db.create_subclass(people, "club").unwrap();
    for i in 0..PEOPLE {
        let e = db.insert_entity(people, &format!("P{i}")).unwrap();
        if i % 2 == 0 {
            db.add_to_class(e, club).unwrap();
        }
        let lit = db.intern(20 + i as i64).unwrap();
        db.assign_single(e, age, lit).unwrap();
    }
    SharedDatabase::new(db)
}

/// A name-based digest of the full user-visible state, stable across
/// databases whose entity ids differ (each MVCC line allocates its own).
fn fingerprint(db: &Database) -> String {
    // Literal extents (strings, integers, ...) grow as a side effect of
    // interning, which is semantically free — a commit that interned a
    // value without storing it anywhere changed nothing a user can see.
    let builtins: Vec<_> = BaseKind::ALL.iter().map(|k| db.predefined(*k)).collect();
    let mut lines = Vec::new();
    for (cid, rec) in db.classes() {
        if builtins.contains(&cid) {
            continue;
        }
        let mut members: Vec<String> = db
            .members(cid)
            .unwrap()
            .iter()
            .map(|e| display(db, e))
            .collect();
        members.sort();
        lines.push(format!("class {} = [{}]", rec.name, members.join(",")));
        for aid in db.visible_attrs(cid).unwrap() {
            let arec = db.attr(aid).unwrap();
            if arec.is_derived() {
                continue; // recomputable; refresh timing is line-local
            }
            for e in db.members(cid).unwrap().iter() {
                let val = match db.attr_value(e, aid).unwrap() {
                    AttrValue::Single(v) if v.is_null() => continue,
                    AttrValue::Single(v) => display(db, v),
                    AttrValue::Multi(s) => {
                        let mut vs: Vec<String> = s.iter().map(|v| display(db, v)).collect();
                        vs.sort();
                        vs.join("|")
                    }
                };
                lines.push(format!(
                    "value {}.{}.{} = {}",
                    rec.name,
                    display(db, e),
                    arec.name,
                    val
                ));
            }
        }
    }
    lines.sort();
    lines.join("\n")
}

fn display(db: &Database, e: EntityId) -> String {
    db.literal_of(e)
        .map(|l| l.display_name())
        .or_else(|| db.entity_name(e).ok().map(str::to_string))
        .unwrap_or_else(|| format!("#{e:?}"))
}

/// One writer's high-level step, phrased over names so the same intent can
/// be applied to any database line.
#[derive(Debug, Clone)]
enum Intent {
    Insert(String),
    Delete(String),
    Assign(String, i64),
    AddMember(String),
    RemoveMember(String),
}

fn random_intent(rng: &mut StdRng, writer: usize, step: usize) -> Intent {
    let subject = format!("P{}", rng.gen_range(0..PEOPLE));
    match rng.gen_range(0..6u32) {
        0 => Intent::Insert(format!("W{writer}_{step}")),
        1 => Intent::Delete(subject),
        2 | 3 => Intent::Assign(subject, rng.gen_range(0..100i64)),
        4 => Intent::AddMember(subject),
        _ => Intent::RemoveMember(subject),
    }
}

/// Applies one intent through the public mutators; `Err` means the intent
/// is inapplicable to this line's current state (e.g. the subject is
/// already deleted) and the caller should skip it.
fn apply_intent(db: &mut Database, intent: &Intent) -> Result<(), isis::core::CoreError> {
    let people = db.class_by_name("people")?;
    let club = db.class_by_name("club")?;
    let age = db.attr_by_name(people, "age")?;
    match intent {
        Intent::Insert(name) => {
            db.insert_entity(people, name)?;
        }
        Intent::Delete(name) => {
            let e = db.entity_by_name(people, name)?;
            db.delete_entity(e)?;
        }
        Intent::Assign(name, v) => {
            let e = db.entity_by_name(people, name)?;
            let lit = db.intern(*v)?;
            db.assign_single(e, age, lit)?;
        }
        Intent::AddMember(name) => {
            let e = db.entity_by_name(people, name)?;
            db.add_to_class(e, club)?;
        }
        Intent::RemoveMember(name) => {
            let e = db.entity_by_name(people, name)?;
            db.remove_from_class(e, club)?;
        }
    }
    Ok(())
}

/// Applies one intent and reports whether it recorded any *visible*
/// change. A no-op on this line (assigning the value already stored,
/// adding an existing membership) contributes nothing to the commit's
/// write set, so snapshot isolation rightly ignores it — a serial-order
/// check must too. Literal interns alone do not count (see
/// [`fingerprint`]).
fn apply_effective(db: &mut Database, intent: &Intent) -> bool {
    let mark = db.delta_epoch();
    if apply_intent(db, intent).is_err() {
        return false;
    }
    db.changes_since(mark)
        .expect("battery mutations fit the delta window")
        .iter()
        .any(|c| {
            !matches!(c, Change::EntityInserted { entity, .. }
                if db.literal_of(*entity).is_some())
        })
}

/// Property 1: 256 seeded cases of a pinned reader staying byte-stable
/// while writers commit around it.
#[test]
fn pinned_reader_never_observes_beyond_its_epoch() {
    for case in 0..256u64 {
        let seed = base_seed().wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = base_shared();

        let reader = shared.pin();
        let pinned_epoch = reader.delta_epoch();
        let before = fingerprint(&reader);

        let writers = rng.gen_range(1..4usize);
        for w in 0..writers {
            let mut local = shared.pin();
            let base = local.delta_epoch();
            let mut touched = false;
            for step in 0..rng.gen_range(1..4usize) {
                touched |= apply_intent(&mut local, &random_intent(&mut rng, w, step)).is_ok();
            }
            if touched {
                // First-committer-wins may reject a writer; stability of
                // the reader must hold either way.
                let _ = shared.commit(base, &local);
            }
        }

        assert_eq!(
            reader.delta_epoch(),
            pinned_epoch,
            "seed {seed:#x}: pinned epoch moved"
        );
        assert_eq!(
            fingerprint(&reader),
            before,
            "seed {seed:#x}: pinned snapshot changed under concurrent commits"
        );
        // After re-pinning the reader does see the committed head.
        let repinned = shared.pin();
        assert_eq!(
            fingerprint(&repinned),
            shared.read(fingerprint),
            "seed {seed:#x}: a fresh pin diverges from the head"
        );
    }
}

/// People in the chunk-spanning base: with their name strings interned
/// in between, their ids run past 7,000, so the entity arena and the
/// `age` column span seven 1024-id chunks.
const CHUNKED_PEOPLE: usize = 3_500;

/// `people` × [`CHUNKED_PEOPLE`] with a singlevalued integer `age` and a
/// multivalued `likes` over people (so a delete scrubs references).
fn chunked_base() -> Database {
    let mut db = Database::new("mvcc-chunks");
    let people = db.create_baseclass("people").unwrap();
    let ints = db.predefined(BaseKind::Integers);
    let age = db
        .create_attribute(people, "age", ints, Multiplicity::Single)
        .unwrap();
    let likes = db
        .create_attribute(people, "likes", people, Multiplicity::Multi)
        .unwrap();
    let ids = db
        .insert_entities(people, (0..CHUNKED_PEOPLE).map(|i| format!("P{i}")))
        .unwrap();
    let ages: Vec<EntityId> = (0..50).map(|a| db.intern(a as i64).unwrap()).collect();
    let n = ids.len();
    db.assign_batch(ids.iter().enumerate().flat_map(|(i, &e)| {
        let liked = [ids[(i * 7 + 1) % n], ids[(i * 13 + 5) % n]];
        [
            (e, age, AttrValue::Single(ages[i % ages.len()])),
            (e, likes, AttrValue::Multi(liked.into_iter().collect())),
        ]
    }))
    .unwrap();
    db
}

/// One writer step on a subject in the first, a middle or the last chunk
/// of people, through the mutators the [`Intent`]s lack: rename,
/// multivalued assign, unassign, a delete that scrubs `likes` references,
/// and an assignment of a newly interned literal.
fn chunked_step(rng: &mut StdRng, db: &mut Database, tag: &str) -> Result<(), CoreError> {
    let people = db.class_by_name("people")?;
    let age = db.attr_by_name(people, "age")?;
    let likes = db.attr_by_name(people, "likes")?;
    let (n, mid) = (CHUNKED_PEOPLE, CHUNKED_PEOPLE / 2);
    let index = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(0..200),
        1 => rng.gen_range(mid - 100..mid + 100),
        _ => rng.gen_range(n - 200..n),
    };
    let subject = db.entity_by_name(people, &format!("P{index}"))?;
    let other = db.entity_by_name(people, &format!("P{}", rng.gen_range(0..n)))?;
    match rng.gen_range(0..5u32) {
        0 => {
            db.rename_entity(subject, &format!("R{tag}"))?;
        }
        1 => {
            db.assign_multi(subject, likes, [other, subject])?;
        }
        2 => {
            db.unassign(subject, age)?;
        }
        3 => {
            db.delete_entity(subject)?;
        }
        _ => {
            let fresh = db.intern(1_000_000 + rng.gen_range(0..1_000_000i64))?;
            db.assign_single(subject, age, fresh)?;
        }
    }
    Ok(())
}

/// Property 1 across chunk boundaries: concurrent writers touch the
/// first, a middle and the last chunk of a database whose clones share
/// their untouched chunks, and a pinned reader's snapshot bytes never
/// change.
#[test]
fn pinned_reader_is_byte_stable_across_chunk_boundaries() {
    let base = chunked_base();
    let mut admitted = 0;
    for case in 0..24u64 {
        let seed = base_seed().wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SharedDatabase::new(base.clone());

        let reader = shared.pin();
        let before = write_snapshot_bytes(&reader);

        let mut writers: Vec<(u64, Database)> = (0..rng.gen_range(2..5usize))
            .map(|_| {
                let local = shared.pin();
                (local.delta_epoch(), local)
            })
            .collect();
        for (w, (_, local)) in writers.iter_mut().enumerate() {
            for step in 0..rng.gen_range(1..6usize) {
                let _ = chunked_step(&mut rng, local, &format!("{case}_{w}_{step}"));
            }
        }
        for (epoch, local) in &writers {
            if shared.commit(*epoch, local).is_ok_and(|r| r.changes > 0) {
                admitted += 1;
            }
        }

        assert_eq!(
            write_snapshot_bytes(&reader),
            before,
            "seed {seed:#x}: pinned snapshot bytes changed under concurrent commits"
        );
        let fresh = shared.pin();
        assert_eq!(
            fingerprint(&fresh),
            shared.read(fingerprint),
            "seed {seed:#x}: a fresh pin diverges from the head"
        );
        assert!(
            fresh.check_consistency().unwrap().is_empty(),
            "seed {seed:#x}: head inconsistent"
        );
    }
    assert!(admitted > 24, "only {admitted} writers committed changes");
}

/// Property 2: 256 seeded conflicting pairs — exactly one admitted, the
/// loser's rejection is a typed conflict.
#[test]
fn conflicting_writers_exactly_one_commit_wins() {
    for case in 0..256u64 {
        let seed = base_seed().wrapping_add(0x1000).wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = base_shared();
        let subject = format!("P{}", rng.gen_range(0..PEOPLE));
        // Setup puts even-numbered people in the club, so an AddMember is
        // only effective on an odd subject and a RemoveMember on an even
        // one — a no-op records nothing and cannot conflict.
        let odd = format!("P{}", rng.gen_range(0..PEOPLE / 2) * 2 + 1);
        let even = format!("P{}", rng.gen_range(0..PEOPLE / 2) * 2);

        // A pair of intents guaranteed to overlap effectively.
        let (ia, ib) = match rng.gen_range(0..5u32) {
            0 => (
                Intent::Assign(subject.clone(), 1),
                Intent::Assign(subject.clone(), 2),
            ),
            1 => (
                Intent::Delete(subject.clone()),
                Intent::Assign(subject.clone(), 3),
            ),
            2 => (Intent::Delete(odd.clone()), Intent::AddMember(odd.clone())),
            3 => (
                Intent::AddMember(odd.clone()),
                Intent::AddMember(odd.clone()),
            ),
            _ => (
                Intent::RemoveMember(even.clone()),
                Intent::RemoveMember(even.clone()),
            ),
        };

        let mut a = shared.pin();
        let base_a = a.delta_epoch();
        let mut b = shared.pin();
        let base_b = b.delta_epoch();
        apply_intent(&mut a, &ia).unwrap();
        apply_intent(&mut b, &ib).unwrap();

        // Randomize which writer reaches the head first.
        let (first, second) = if rng.gen_bool(0.5) {
            (shared.commit(base_a, &a), shared.commit(base_b, &b))
        } else {
            (shared.commit(base_b, &b), shared.commit(base_a, &a))
        };
        assert!(
            first.is_ok(),
            "seed {seed:#x}: first committer must win, got {first:?}"
        );
        let conflict = second.expect_err(&format!(
            "seed {seed:#x}: second conflicting commit was admitted ({ia:?} vs {ib:?})"
        ));
        assert!(
            matches!(
                conflict,
                CommitConflict::Value { .. }
                    | CommitConflict::Membership { .. }
                    | CommitConflict::Delete { .. }
            ),
            "seed {seed:#x}: unexpected conflict kind {conflict:?}"
        );
        shared.read(|db| assert!(db.check_consistency().unwrap().is_empty()));
    }
}

/// Property 3: 128 seeded multi-writer rounds — the admitted history is
/// equivalent to replaying the admitted intents serially in commit order.
#[test]
fn committed_history_equals_some_serial_order() {
    for case in 0..128u64 {
        let seed = base_seed().wrapping_add(0x2000).wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = base_shared();
        let serial_base = shared.pin();

        let mut admitted: Vec<Vec<Intent>> = Vec::new();
        let writers = rng.gen_range(2..5usize);
        let mut lines = Vec::new();
        for w in 0..writers {
            let mut local = shared.pin();
            let base = local.delta_epoch();
            let mut applied = Vec::new();
            for step in 0..rng.gen_range(1..4usize) {
                let intent = random_intent(&mut rng, w, step);
                if apply_effective(&mut local, &intent) {
                    applied.push(intent);
                }
            }
            lines.push((base, local, applied));
        }
        for (base, local, applied) in lines {
            if applied.is_empty() {
                continue;
            }
            if shared.commit(base, &local).is_ok() {
                admitted.push(applied);
            }
        }

        // Serial replay of the admitted intents, in commit order, from the
        // same starting state.
        let mut serial = serial_base;
        for intents in &admitted {
            for intent in intents {
                apply_intent(&mut serial, intent).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed:#x}: admitted intent {intent:?} not serially \
                         applicable: {e} — conflict detection admitted a \
                         non-serializable pair"
                    )
                });
            }
        }
        let head = shared.read(fingerprint);
        let serial_fp = fingerprint(&serial);
        if serial_fp != head {
            let diff: Vec<String> = serial_fp
                .lines()
                .filter(|l| !head.contains(l))
                .map(|l| format!("serial-only: {l}"))
                .chain(
                    head.lines()
                        .filter(|l| !serial_fp.contains(l))
                        .map(|l| format!("head-only:   {l}")),
                )
                .collect();
            panic!(
                "seed {seed:#x}: head diverges from serial replay of admitted \
                 commits\nadmitted: {admitted:?}\n{}",
                diff.join("\n")
            );
        }
        shared.read(|db| assert!(db.check_consistency().unwrap().is_empty()));
    }
}

/// Threaded stress: the handle really is shared across threads, and under
/// seeded workloads every admitted commit survives to the head.
#[test]
fn threaded_writers_with_retries_converge() {
    for round in 0..4u64 {
        let shared = base_shared();
        let threads = 4;
        let per_thread = 12;
        let names: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(base_seed() ^ (round << 8) ^ t as u64);
                        let mut committed = Vec::new();
                        for i in 0..per_thread {
                            let name = format!("T{t}_{round}_{i}");
                            // Insert-only writers cannot conflict, but may
                            // race the head; retry until admitted.
                            loop {
                                let mut local = shared.pin();
                                let base = local.delta_epoch();
                                apply_intent(&mut local, &Intent::Insert(name.clone())).unwrap();
                                if rng.gen_bool(0.5) {
                                    std::thread::yield_now();
                                }
                                match shared.commit(base, &local) {
                                    Ok(_) => break,
                                    Err(CommitConflict::SnapshotTooOld { .. }) => continue,
                                    Err(e) => panic!("insert-only commit rejected: {e}"),
                                }
                            }
                            committed.push(name);
                        }
                        committed
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        shared.read(|db| {
            let people = db.class_by_name("people").unwrap();
            for name in names.iter().flatten() {
                assert!(
                    db.entity_by_name(people, name).is_ok(),
                    "round {round}: admitted commit of {name} lost"
                );
            }
            assert!(db.check_consistency().unwrap().is_empty());
        });
        assert_eq!(shared.commits(), (threads * per_thread) as u64);
    }
}

/// Durability: sweep a deterministic crash point across every vfs
/// operation of a durable commit. A vetoed commit must be invisible in
/// memory and absent from recovery; an admitted commit must never be half
/// on disk.
#[test]
fn faulted_durable_commits_admit_no_phantoms() {
    let root = std::env::temp_dir().join(format!("isis_mvcc_phantom_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // Baseline store: one class, no members.
    let setup = StoreDir::open_with(&root, Arc::new(StdVfs::new())).unwrap();
    let (shared, _) = setup.open_shared("band", SyncPolicy::EverySync).unwrap();
    let mut w = shared.pin();
    let base = w.delta_epoch();
    w.create_baseclass("musicians").unwrap();
    shared.commit(base, &w).unwrap();
    drop(shared);

    for step in 0..48u64 {
        let faulty = Arc::new(FaultVfs::crash_at(step));
        let outcome = StoreDir::open_with(&root, faulty.clone())
            .and_then(|d| d.open_shared("band", SyncPolicy::EverySync))
            .map(|(shared, _)| {
                let mut local = shared.pin();
                let base = local.delta_epoch();
                let musicians = local.class_by_name("musicians").unwrap();
                local.insert_entity(musicians, "Edith").unwrap();
                let admitted = shared.commit(base, &local).is_ok();
                let visible = shared.read(|db| db.entity_by_name(musicians, "Edith").is_ok());
                assert_eq!(
                    admitted, visible,
                    "step {step}: commit admission and head visibility disagree"
                );
                admitted
            });

        // Clean recovery must agree with what the surviving handle said.
        let clean = StoreDir::open(&root).unwrap();
        let (db, _) = clean.recover("band").unwrap();
        assert!(db.check_consistency().unwrap().is_empty());
        let musicians = db.class_by_name("musicians").unwrap();
        let on_disk = db.entity_by_name(musicians, "Edith").is_ok();
        match outcome {
            Ok(true) => assert!(on_disk, "step {step}: admitted commit lost"),
            Ok(false) => assert!(!on_disk, "step {step}: phantom commit recovered"),
            // The handle itself died before reporting: either state is a
            // legal crash outcome, and consistency was already checked.
            Err(_) => {}
        }

        // Reset to the empty pre-commit state for the next step.
        let reset = StoreDir::open(&root).unwrap();
        let (mut db, _) = reset.recover("band").unwrap();
        if let Ok(e) = db.entity_by_name(musicians, "Edith") {
            db.delete_entity(e).unwrap();
        }
        reset.save(&db, "band").unwrap();
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Satellite regression (ISSUE 7): a session opened on a shared head
/// whose durability hook is poisoned must surface a typed error instead
/// of silently pinning. A poisoned hook means disk may already hold state
/// the head vetoed (or vice versa) — a session pinned there could serve
/// or replicate never-acknowledged data.
#[test]
fn session_open_on_poisoned_head_surfaces_typed_error() {
    use isis::session::{Session, SessionError};

    let root = std::env::temp_dir().join(format!("isis_mvcc_poison_open_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // Baseline: one schema commit, then normalise the layout.
    let setup = StoreDir::open_with(&root, Arc::new(StdVfs::new())).unwrap();
    let (shared, _) = setup.open_shared("band", SyncPolicy::EverySync).unwrap();
    let mut w = shared.pin();
    let base = w.delta_epoch();
    w.create_baseclass("musicians").unwrap();
    shared.commit(base, &w).unwrap();
    drop(shared);

    // Find the fault-point band of a schema commit (the checkpoint path
    // holds the poison windows), then scan it until the hook poisons:
    // crash points below the band kill the reopen, points beyond it let
    // the commit succeed.
    let probe = Arc::new(FaultVfs::counting());
    let d = StoreDir::open_with(&root, probe.clone()).unwrap();
    let (shared, _) = d.open_shared("band", SyncPolicy::EverySync).unwrap();
    let after_open = probe.steps();
    let mut w = shared.pin();
    let base = w.delta_epoch();
    w.create_baseclass("venues").unwrap();
    shared.commit(base, &w).unwrap();
    let after_commit = probe.steps();
    drop(shared);

    let reset_state = || {
        let reset = StoreDir::open(&root).unwrap();
        let (mut db, _) = reset.recover("band").unwrap();
        if let Ok(venues) = db.class_by_name("venues") {
            db.delete_class(venues).unwrap();
        }
        reset.save(&db, "band").unwrap();
        drop(reset.open_shared("band", SyncPolicy::EverySync).unwrap());
    };
    reset_state();

    let width = after_commit - after_open;
    let mut poisoned_shared = None;
    for step in after_open.saturating_sub(2)..after_commit + width + 256 {
        let faulty = Arc::new(FaultVfs::crash_at(step));
        let attempt = StoreDir::open_with(&root, faulty)
            .and_then(|d| d.open_shared("band", SyncPolicy::EverySync));
        if let Ok((shared, _)) = attempt {
            let mut w = shared.pin();
            let base = w.delta_epoch();
            w.create_baseclass("venues").unwrap();
            let _ = shared.commit(base, &w);
            if shared.hook_poisoned() {
                poisoned_shared = Some(shared);
                break;
            }
        }
        reset_state();
    }
    let shared = poisoned_shared.expect("sweep never produced a poisoned hook");

    // The poisoned head refuses new sessions with a typed error...
    match Session::open(&shared).try_build() {
        Err(SessionError::Poisoned(detail)) => {
            assert!(!detail.is_empty());
        }
        Ok(_) => panic!("try_build silently pinned a poisoned head"),
        Err(other) => panic!("expected SessionError::Poisoned, got {other}"),
    }
    // ...while a healthy handle (same builder path) is unaffected.
    let healthy = SharedDatabase::new(Database::new("healthy"));
    assert!(Session::open(&healthy).try_build().is_ok());
    // Reopening the store heals: recovery re-derives a consistent head.
    drop(shared);
    let clean = StoreDir::open(&root).unwrap();
    let (healed, _) = clean.open_shared("band", SyncPolicy::EverySync).unwrap();
    assert!(!healed.hook_poisoned());
    assert!(Session::open(&healed).try_build().is_ok());

    std::fs::remove_dir_all(&root).unwrap();
}
