//! Crash-consistency suite: simulate a crash at *every* fault point a
//! workload exposes (every byte boundary of every write and append, every
//! fsync, rename, truncate, and remove) and assert that recovery always
//! succeeds with a state equal to some committed prefix of the operation
//! sequence, never losing an acknowledged operation.
//!
//! Also home to the codec corruption matrix (every-byte bit flips and
//! truncations over a real snapshot and log) and two seeded randomized
//! fault storms, one checking that the directory always reopens
//! consistent and one that no acknowledged action is lost
//! (`ISIS_CRASH_SEED` overrides the seed; it is printed on failure).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use isis_core::DatabaseImage;
use isis_store::{
    read_snapshot_bytes, replay_log, replay_with, FaultProfile, FaultVfs, LoggedDatabase, StdVfs,
    StoreDir, StoreError, SyncPolicy,
};

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isis_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One labelled step of the workload.
type Action = (
    &'static str,
    fn(&mut LoggedDatabase) -> Result<(), StoreError>,
);

/// The workload: a database-building session with two checkpoints. Every
/// action resolves the ids it needs by name, so a prefix of the sequence
/// is meaningful on its own and the same list drives both the probe run
/// and every crash run.
fn actions() -> Vec<Action> {
    use isis_core::Multiplicity;
    fn class(db: &LoggedDatabase, name: &str) -> Result<isis_core::ClassId, StoreError> {
        Ok(db.database().class_by_name(name)?)
    }
    vec![
        ("create musicians", |db| {
            db.create_baseclass("musicians").map(|_| ())
        }),
        ("create instruments", |db| {
            db.create_baseclass("instruments").map(|_| ())
        }),
        ("create plays", |db| {
            let m = class(db, "musicians")?;
            let i = class(db, "instruments")?;
            db.create_attribute(m, "plays", i, Multiplicity::Multi)
                .map(|_| ())
        }),
        ("insert Edith", |db| {
            let m = class(db, "musicians")?;
            db.insert_entity(m, "Edith").map(|_| ())
        }),
        ("insert viola", |db| {
            let i = class(db, "instruments")?;
            db.insert_entity(i, "viola").map(|_| ())
        }),
        ("assign plays", |db| {
            let m = class(db, "musicians")?;
            let i = class(db, "instruments")?;
            let plays = db.database().attr_by_name(m, "plays")?;
            let e = db.database().entity_by_name(m, "Edith")?;
            let v = db.database().entity_by_name(i, "viola")?;
            db.assign_multi(e, plays, [v]).map(|_| ())
        }),
        ("checkpoint 1", |db| db.checkpoint()),
        ("create violists", |db| {
            let m = class(db, "musicians")?;
            db.create_subclass(m, "violists").map(|_| ())
        }),
        ("insert cello", |db| {
            let i = class(db, "instruments")?;
            db.insert_entity(i, "cello").map(|_| ())
        }),
        ("add cello to plays", |db| {
            let m = class(db, "musicians")?;
            let i = class(db, "instruments")?;
            let plays = db.database().attr_by_name(m, "plays")?;
            let e = db.database().entity_by_name(m, "Edith")?;
            let c = db.database().entity_by_name(i, "cello")?;
            db.add_value(e, plays, c).map(|_| ())
        }),
        ("rename Edith", |db| {
            let m = class(db, "musicians")?;
            let e = db.database().entity_by_name(m, "Edith")?;
            db.rename_entity(e, "Edith P").map(|_| ())
        }),
        ("checkpoint 2", |db| db.checkpoint()),
        ("insert Karen", |db| {
            let m = class(db, "musicians")?;
            db.insert_entity(m, "Karen").map(|_| ())
        }),
        ("unassign plays", |db| {
            let m = class(db, "musicians")?;
            let plays = db.database().attr_by_name(m, "plays")?;
            let e = db.database().entity_by_name(m, "Edith P")?;
            db.unassign(e, plays).map(|_| ())
        }),
    ]
}

/// Runs the workload in `root` through `vfs`, stopping at the first
/// failure (a crash). Returns the number of acknowledged actions; with
/// `history`, records the image after the open and after each action.
fn run_workload(
    root: &Path,
    vfs: Arc<FaultVfs>,
    mut history: Option<&mut Vec<DatabaseImage>>,
) -> (usize, Result<(), StoreError>) {
    let mut acked = 0;
    let result = (|| {
        let dir = StoreDir::open_with(root, vfs)?;
        let mut db = dir.open_logged("w", SyncPolicy::EverySync)?;
        if let Some(h) = history.as_mut() {
            h.push(db.database().to_image());
        }
        for (_, action) in actions() {
            action(&mut db)?;
            acked += 1;
            if let Some(h) = history.as_mut() {
                h.push(db.database().to_image());
            }
        }
        Ok(())
    })();
    (acked, result)
}

/// The tentpole: a crash at every single fault point, recovery always
/// total, state always a committed prefix, no acknowledged action lost.
#[test]
fn crash_at_every_fault_point_recovers_a_committed_prefix() {
    // Probe: count the fault points and capture the image after every
    // committed prefix of the workload.
    let probe_root = tempdir("probe");
    let counter = Arc::new(FaultVfs::counting());
    let mut history = Vec::new();
    let (total_actions, result) = run_workload(&probe_root, counter.clone(), Some(&mut history));
    result.expect("probe run must complete");
    let steps = counter.steps();
    assert_eq!(history.len(), total_actions + 1);
    assert!(
        steps > 200,
        "expected a workload with hundreds of fault points, got {steps}"
    );
    std::fs::remove_dir_all(&probe_root).unwrap();

    let root = tempdir("sweep");
    for s in 0..=steps {
        let _ = std::fs::remove_dir_all(&root);
        let fault = Arc::new(FaultVfs::crash_at(s));
        let (acked, result) = run_workload(&root, fault.clone(), None);
        if s >= steps {
            assert!(
                result.is_ok(),
                "crash point past the workload must not fire"
            );
        } else {
            assert!(result.is_err(), "crash at step {s} must surface an error");
        }

        // Power back on: reopen with a clean VFS and recover.
        let clean = StoreDir::open(&root).unwrap();
        if !clean.exists("w") {
            assert_eq!(
                acked, 0,
                "crash at step {s}: actions were acknowledged but no database survived"
            );
            continue;
        }
        let (db, report) = clean
            .recover("w")
            .unwrap_or_else(|e| panic!("crash at step {s}: recovery failed: {e}"));
        assert!(
            db.is_consistent().unwrap(),
            "crash at step {s}: recovered database is inconsistent\n{report}"
        );
        let image = db.to_image();
        let idx = history
            .iter()
            .rposition(|h| *h == image)
            .unwrap_or_else(|| {
                panic!("crash at step {s}: recovered state is not a committed prefix\n{report}")
            });
        assert!(
            idx >= acked,
            "crash at step {s}: lost acknowledged work (recovered prefix {idx}, acked {acked})\n{report}"
        );
        // Recovery is repeatable and the handle-level open heals the
        // directory back to a pristine state.
        let reopened = clean.open_logged("w", SyncPolicy::EverySync).unwrap();
        assert_eq!(reopened.database().to_image(), image);
        drop(reopened);
        let (_, report2) = clean.recover("w").unwrap();
        assert!(
            report2.is_pristine(),
            "crash at step {s}: reopen did not heal: {report2}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A corrupted newest snapshot falls back to the previous generation and
/// the log suffix that belongs to it.
#[test]
fn fallback_generation_plus_wal_survives_newest_corruption() {
    let root = tempdir("fallback");
    let dir = StoreDir::open(&root).unwrap();
    let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
    for (label, action) in actions() {
        action(&mut db).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    let image = db.database().to_image();
    drop(db);
    // The last checkpoint left the previous generation in the fallback
    // slot; the log holds everything since. Corrupt the newest snapshot.
    let snap = root.join("w.isis");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap, &bytes).unwrap();
    let (recovered, report) = dir.recover("w").unwrap();
    assert!(report.used_fallback);
    assert!(recovered.is_consistent().unwrap());
    // Fallback generation is checkpoint 2's fold; its log is the stale
    // newest generation's, so the recovered state is checkpoint 2's.
    assert!(report.wal_stale);
    let _ = image;
    std::fs::remove_dir_all(&root).unwrap();
}

/// Satellite: the corruption matrix. Every single-bit flip and every
/// truncation of a real snapshot errors cleanly; every single-bit flip of
/// a real log leaves strict replay a committed prefix and salvage replay a
/// subsequence — and none of it panics.
#[test]
fn corruption_matrix_over_snapshot_and_log() {
    let root = tempdir("matrix");
    let dir = StoreDir::open(&root).unwrap();
    let mut db = dir.open_logged("w", SyncPolicy::OsFlush).unwrap();
    for (i, (_, action)) in actions().into_iter().enumerate() {
        // Skip the checkpoints: keep every op in one log segment.
        if i != 6 && i != 11 {
            action(&mut db).unwrap();
        }
    }
    drop(db);
    let snap_bytes = std::fs::read(root.join("w.isis")).unwrap();
    let wal_path = root.join("w.wal");
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let original = read_snapshot_bytes(&snap_bytes).unwrap();
    let baseline = replay_log(&wal_path).unwrap();
    assert!(baseline.ops.len() >= 10);
    assert!(!baseline.torn_tail);

    // Snapshot: every single-bit flip is detected (the generation lives
    // inside the checksummed frame, so it is covered too).
    for pos in 0..snap_bytes.len() {
        let mut bad = snap_bytes.clone();
        bad[pos] ^= 1 << (pos % 8);
        assert!(
            read_snapshot_bytes(&bad).is_err(),
            "flip at byte {pos} went undetected"
        );
    }
    // Snapshot: every truncation is detected.
    for len in 0..snap_bytes.len() {
        assert!(
            read_snapshot_bytes(&snap_bytes[..len]).is_err(),
            "truncation to {len} bytes went undetected"
        );
    }
    let _ = original;

    let vfs = StdVfs::new();
    for pos in 0..wal_bytes.len() {
        let mut bad = wal_bytes.clone();
        bad[pos] ^= 1 << (pos % 8);
        std::fs::write(&wal_path, &bad).unwrap();
        // Strict replay: never panics, always yields a committed prefix.
        let strict = replay_with(&vfs, &wal_path, false)
            .unwrap_or_else(|e| panic!("flip at byte {pos}: strict replay failed: {e}"));
        assert!(
            baseline.ops.starts_with(&strict.ops),
            "flip at byte {pos}: strict replay is not a prefix"
        );
        // Salvage replay: resynchronises, yields a subsequence.
        let salvage = replay_with(&vfs, &wal_path, true)
            .unwrap_or_else(|e| panic!("flip at byte {pos}: salvage replay failed: {e}"));
        let mut it = baseline.ops.iter();
        assert!(
            salvage.ops.iter().all(|op| it.any(|b| b == op)),
            "flip at byte {pos}: salvage replay is not a subsequence"
        );
        assert!(
            salvage.ops.len() >= strict.ops.len(),
            "flip at byte {pos}: salvage recovered less than strict"
        );
    }
    // Log truncations: strict replay drops the torn tail, keeps the prefix.
    for len in 0..wal_bytes.len() {
        std::fs::write(&wal_path, &wal_bytes[..len]).unwrap();
        let r = replay_with(&vfs, &wal_path, false).unwrap();
        assert!(
            baseline.ops.starts_with(&r.ops),
            "truncation to {len}: not a prefix"
        );
        if len < wal_bytes.len() {
            assert!(r.ops.len() < baseline.ops.len() || r.torn_tail || len == 0);
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Seeded fault storm: under random torn writes, fsync failures, dropped
/// renames, ENOSPC, and silent bit flips in the log, the directory always
/// reopens to a consistent database. Set `ISIS_CRASH_SEED` to reproduce a
/// failure; the seed is in every panic message.
#[test]
fn seeded_fault_storm_always_reopens_consistent() {
    let seed: u64 = std::env::var("ISIS_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let mut injected_total = 0;
    for round in 0..12u64 {
        let seed = seed.wrapping_add(round.wrapping_mul(0x9E37_79B9));
        let root = tempdir("storm");
        let fault = Arc::new(FaultVfs::seeded(seed));
        {
            let dir = match StoreDir::open_with(&root, fault.clone()) {
                Ok(d) => d,
                Err(_) => continue,
            };
            // Apply the workload, shrugging off injected failures; retry
            // the open a few times since recovery itself runs on the
            // faulty device.
            let mut handle = None;
            for _ in 0..8 {
                match dir.open_logged("w", SyncPolicy::EverySync) {
                    Ok(db) => {
                        handle = Some(db);
                        break;
                    }
                    Err(_) => continue,
                }
            }
            let Some(mut db) = handle else {
                let _ = std::fs::remove_dir_all(&root);
                continue;
            };
            for (_, action) in actions() {
                let _ = action(&mut db);
            }
        }
        injected_total += fault.stats().total();
        if !root.exists() {
            continue;
        }
        // Power back on with a healthy device: recovery must be total.
        let clean = StoreDir::open(&root).unwrap();
        if clean.exists("w") {
            let (db, report) = clean
                .recover("w")
                .unwrap_or_else(|e| panic!("seed {seed:#x}: recovery failed: {e}"));
            assert!(
                db.is_consistent().unwrap(),
                "seed {seed:#x}: inconsistent after fault storm\n{report}"
            );
            let fsck = clean.fsck("w").unwrap();
            assert!(
                fsck.consistent,
                "seed {seed:#x}: fsck found inconsistency\n{fsck}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        injected_total > 0,
        "seed {seed:#x}: twelve storm rounds injected nothing"
    );
}

/// Seeded fault storm checked against the handle: recovery holds every
/// action the handle acknowledged and nothing past the one failed action
/// after them. Bit flips are left out: silent bit rot can destroy an
/// acknowledged record, which is outside the durability promise. Set
/// `ISIS_CRASH_SEED` to reproduce a failure; the seed is in every panic
/// message.
#[test]
fn seeded_fault_storm_loses_no_acknowledged_action() {
    let seed: u64 = std::env::var("ISIS_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let profile = FaultProfile {
        append_bit_flip: 0,
        ..FaultProfile::default()
    };
    let mut failed_actions = 0;
    for round in 0..256u64 {
        let seed = seed.wrapping_add(round.wrapping_mul(0x9E37_79B9));
        let root = tempdir("acked_storm");
        let Ok(dir) = StoreDir::open_with(&root, Arc::new(FaultVfs::seeded_with(seed, profile)))
        else {
            continue;
        };
        // Recovery runs on the faulty device too, so retry the open.
        let Some(mut db) = (0..8).find_map(|_| dir.open_logged("w", SyncPolicy::EverySync).ok())
        else {
            let _ = std::fs::remove_dir_all(&root);
            continue;
        };
        let mut acked = db.database().to_image();
        for (_, action) in actions() {
            match action(&mut db) {
                Ok(()) => acked = db.database().to_image(),
                Err(_) => failed_actions += 1,
            }
        }
        let last = db.database().to_image();
        drop(db);
        let (recovered, report) = StoreDir::open(&root)
            .unwrap()
            .recover("w")
            .unwrap_or_else(|e| panic!("seed {seed:#x}: recovery failed: {e}"));
        let image = recovered.to_image();
        assert!(
            image == acked || image == last,
            "seed {seed:#x}: recovered state is neither the last acknowledged one nor it plus \
             the failed action after it\n{report}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        failed_actions > 0,
        "seed {seed:#x}: 256 storm rounds failed no action"
    );
}

/// The recovery report is surfaced end to end: through the session's
/// `doctor` and `fsck` commands after a torn-log load.
#[test]
fn doctor_and_fsck_surface_recovery_through_the_session() {
    use isis_session::{Command, Session};
    let root = tempdir("doctor");
    let dir = StoreDir::open(&root).unwrap();
    let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
    for (i, (_, action)) in actions().into_iter().enumerate() {
        if i < 6 {
            action(&mut db).unwrap();
        }
    }
    drop(db);
    // Tear the log's final record.
    let wal_path = root.join("w.wal");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

    let mut session = Session::builder(isis_core::Database::new("scratch"))
        .store(dir)
        .build();
    session.apply(Command::Load("w".into())).unwrap();
    let log = session.messages().join("\n");
    assert!(log.contains("torn tail"), "load did not report: {log}");
    let report = session.last_recovery().expect("load records recovery");
    assert!(report.wal_torn_tail);
    assert!(!report.is_pristine());

    let before = session.messages().len();
    session.apply(Command::Doctor(None)).unwrap();
    let doctor = session.messages()[before..].join("\n");
    assert!(doctor.contains("torn tail"), "doctor: {doctor}");

    let before = session.messages().len();
    session.apply(Command::Fsck(Some("w".into()))).unwrap();
    let fsck = session.messages()[before..].join("\n");
    assert!(fsck.contains("consistency: ok"), "fsck: {fsck}");
    std::fs::remove_dir_all(&root).unwrap();
}
