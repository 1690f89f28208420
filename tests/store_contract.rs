//! Store contract tests: acknowledged ⇔ recoverable on a `LoggedDatabase`
//! when one operation fails, the design history over a log a crash left
//! behind, and the fallback generation read the same way by every reader
//! of a database's snapshots.
//!
//! Each fault is injected by [`OneFault`], a `StdVfs` that fails exactly
//! one chosen operation, so each test reaches its window without a sweep.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use isis::core::{Database, SharedDatabase};
use isis::store::{
    DesignHistory, Replica, ReplicationLog, ShipCursor, Shipment, StdVfs, StoreDir, StoreError,
    SyncPolicy, Vfs,
};

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isis_contract_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The operations [`OneFault`] can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Append,
    Truncate,
    SyncDir,
}

/// A `StdVfs` that fails one operation: after [`OneFault::arm`]`(op, skip)`
/// the next `skip` calls of `op` pass and the one after fails. A failed
/// append first writes half its bytes, like a torn write.
#[derive(Debug, Default)]
struct OneFault {
    inner: StdVfs,
    armed: Mutex<Option<(Op, usize)>>,
}

impl OneFault {
    fn arm(&self, op: Op, skip: usize) {
        *self.armed.lock().unwrap() = Some((op, skip));
    }

    /// `true` once the armed fault has fired.
    fn fired(&self) -> bool {
        self.armed.lock().unwrap().is_none()
    }

    fn fires(&self, op: Op) -> bool {
        let mut armed = self.armed.lock().unwrap();
        match *armed {
            Some((o, 0)) if o == op => {
                *armed = None;
                true
            }
            Some((o, n)) if o == op => {
                *armed = Some((o, n - 1));
                false
            }
            _ => false,
        }
    }
}

fn injected(op: Op) -> io::Error {
    io::Error::other(format!("injected {op:?} failure"))
}

impl Vfs for OneFault {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.fires(Op::Append) {
            self.inner.append(path, &bytes[..bytes.len() / 2])?;
            return Err(injected(Op::Append));
        }
        self.inner.append(path, bytes)
    }
    fn truncate(&self, path: &Path) -> io::Result<()> {
        if self.fires(Op::Truncate) {
            return Err(injected(Op::Truncate));
        }
        self.inner.truncate(path)
    }
    fn truncate_to(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate_to(path, len)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.fires(Op::SyncDir) {
            return Err(injected(Op::SyncDir));
        }
        self.inner.sync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

/// What a clean restart recovers from `root`.
fn recovered(root: &Path) -> Database {
    StoreDir::open(root).unwrap().load("w").unwrap()
}

/// A checkpoint whose final directory fsync fails has already renamed the
/// new snapshot into place. A mutation after it must be refused, or it
/// must be in the log recovery replays — never acknowledged and then
/// skipped as a stale log.
#[test]
fn checkpoint_with_a_failed_final_directory_fsync_loses_no_acknowledged_mutation() {
    let root = tempdir("dirsync");
    let vfs = Arc::new(OneFault::default());
    let dir = StoreDir::open_with(&root, vfs.clone()).unwrap();
    let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
    let people = db.create_baseclass("people").unwrap();
    // The install fsyncs the directory after rotating the old snapshot
    // out and again after renaming the new one in: fail the second.
    vfs.arm(Op::SyncDir, 1);
    assert!(db.checkpoint().is_err());
    assert!(vfs.fired(), "the checkpoint never reached its final fsync");
    let before = db.database().to_image();
    match db.insert_entity(people, "Edith") {
        Ok(_) => assert_eq!(
            recovered(&root).to_image(),
            db.database().to_image(),
            "an acknowledged insert did not survive recovery"
        ),
        Err(e) => {
            assert!(matches!(e, StoreError::Poisoned { .. }), "{e}");
            assert_eq!(recovered(&root).to_image(), before);
        }
    }
    // Reopening heals: the handle takes mutations again, durably.
    drop(db);
    let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
    db.insert_entity(people, "Amy").unwrap();
    assert_eq!(recovered(&root).to_image(), db.database().to_image());
    std::fs::remove_dir_all(&root).unwrap();
}

/// A failed append leaves the mutation applied in memory but not in the
/// log, so the handle is poisoned: the next mutation is refused instead of
/// being acknowledged on top of a state recovery cannot rebuild.
#[test]
fn a_failed_append_poisons_the_logged_database() {
    let root = tempdir("append");
    let vfs = Arc::new(OneFault::default());
    let dir = StoreDir::open_with(&root, vfs.clone()).unwrap();
    let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
    let people = db.create_baseclass("people").unwrap();
    let durable = db.database().to_image();
    vfs.arm(Op::Append, 0);
    assert!(db.insert_entity(people, "Edith").is_err());
    let edith = db.database().entity_by_name(people, "Edith").unwrap();
    let next = db.rename_entity(edith, "Edith P");
    assert!(
        matches!(next, Err(StoreError::Poisoned { .. })),
        "a mutation after a failed append was not refused: {next:?}"
    );
    assert!(matches!(db.checkpoint(), Err(StoreError::Poisoned { .. })));
    let (back, report) = StoreDir::open(&root).unwrap().recover("w").unwrap();
    assert_eq!(back.to_image(), durable);
    assert_eq!(report.wal_records_rejected, 0, "{report}");
    // Reopening heals.
    drop(db);
    let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
    db.insert_entity(people, "Edith").unwrap();
    assert_eq!(recovered(&root).to_image(), db.database().to_image());
    std::fs::remove_dir_all(&root).unwrap();
}

/// A crash between installing a checkpoint's snapshot and resetting the
/// log leaves the old segment behind a newer snapshot. The design history
/// reads it the way recovery does: the stale segment is not replayed onto
/// the snapshot that already holds it.
#[test]
fn history_over_a_crash_between_install_and_reset_narrates() {
    let root = tempdir("history");
    let vfs = Arc::new(OneFault::default());
    let dir = StoreDir::open_with(&root, vfs.clone()).unwrap();
    let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
    let people = db.create_baseclass("people").unwrap();
    db.insert_entity(people, "Edith").unwrap();
    // The log reset's truncate is the first truncate of a checkpoint.
    vfs.arm(Op::Truncate, 0);
    assert!(db.checkpoint().is_err());
    assert!(vfs.fired());
    drop(db);
    let clean = StoreDir::open(&root).unwrap();
    let hist = DesignHistory::load(&clean, "w").unwrap();
    hist.narrate().unwrap();
    assert_eq!(
        hist.state_at(hist.len()).unwrap().to_image(),
        clean.load("w").unwrap().to_image()
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// Commits a new baseclass: a schema commit, which the durability hook
/// makes durable by checkpointing a new snapshot generation.
fn schema_commit(shared: &SharedDatabase, class: &str) {
    let mut w = shared.pin();
    let base = w.delta_epoch();
    w.create_baseclass(class).unwrap();
    shared.commit(base, &w).unwrap();
}

/// Flips one byte in the middle of the newest snapshot of `w` in `root`.
fn corrupt_newest(root: &Path) {
    let snap = root.join("w.isis");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap, &bytes).unwrap();
}

/// With the newest snapshot corrupt, every reader of a database's
/// snapshots reads the fallback generation: recovery, a replica reopening
/// its own directory, the replication log shipping a resync, and the
/// design history.
#[test]
fn every_snapshot_reader_falls_back_to_the_previous_generation() {
    let proot = tempdir("fallback_primary");
    let rroot = tempdir("fallback_replica");
    let pdir = StoreDir::open(&proot).unwrap();
    let rdir = StoreDir::open(&rroot).unwrap();
    let log = ReplicationLog::open(&pdir, "w").unwrap();
    let (primary, _) = pdir.open_shared("w", SyncPolicy::EverySync).unwrap();
    let (mut replica, _) = Replica::open(&rdir, "w", SyncPolicy::EverySync).unwrap();
    schema_commit(&primary, "people");
    replica.sync(&log).unwrap();
    let fallback = primary.pin().to_image();
    let fallback_gen = replica.cursor().generation;
    schema_commit(&primary, "venues");
    replica.sync(&log).unwrap();
    assert!(replica.cursor().generation > fallback_gen);
    drop((primary, replica));
    corrupt_newest(&proot);
    corrupt_newest(&rroot);

    let (db, report) = pdir.recover("w").unwrap();
    assert!(report.used_fallback, "{report}");
    assert_eq!(report.snapshot_generation, fallback_gen);
    assert_eq!(db.to_image(), fallback);

    let (replica, report) = Replica::open(&rdir, "w", SyncPolicy::EverySync).unwrap();
    assert!(report.used_fallback, "{report}");
    assert_eq!(replica.cursor().generation, fallback_gen);
    assert_eq!(replica.pin().to_image(), fallback);

    match log.ship(&ShipCursor::genesis(), 16).unwrap() {
        Shipment::Checkpoint { generation, .. } => assert_eq!(generation, fallback_gen),
        other => panic!("expected a resync checkpoint, got {other:?}"),
    }

    let hist = DesignHistory::load(&pdir, "w").unwrap();
    assert_eq!(hist.state_at(0).unwrap().to_image(), fallback);
    assert_eq!(hist.state_at(hist.len()).unwrap().to_image(), fallback);

    std::fs::remove_dir_all(&proot).unwrap();
    std::fs::remove_dir_all(&rroot).unwrap();
}
