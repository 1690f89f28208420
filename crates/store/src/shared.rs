//! Durable MVCC: a [`SharedDatabase`] whose admitted commits are
//! write-ahead logged.
//!
//! [`StoreDir::open_shared`] recovers (or creates) a named database, folds
//! whatever recovery replayed into a fresh snapshot generation, and wraps
//! the result in a [`SharedDatabase`] carrying a [`WalCommitHook`]. The
//! hook runs inside the commit critical section *before* the new head is
//! installed, so the durability contract is exactly the one the isolation
//! battery checks:
//!
//! * an admitted commit is one atomic [`LogOp::CommitBatch`] frame — a
//!   crash mid-append tears the frame and recovery discards the whole
//!   commit, never half of it;
//! * a failed append or fsync vetoes the commit
//!   ([`CommitConflict::Durability`](isis_core::CommitConflict)): the head
//!   is not installed, and the hook rewinds any bytes that did reach the
//!   file so a later recovery cannot replay a commit that was reported as
//!   failed — no phantom commits;
//! * a commit containing schema edits falls back to a full snapshot
//!   checkpoint (schema replay onto a concurrently-advanced line is not
//!   attempted), the same log-segment checkpoint
//!   [`LoggedDatabase::checkpoint`](crate::LoggedDatabase::checkpoint)
//!   runs.
//!
//! The hook writes only through its log segment, which rewinds a failed
//! append and poisons itself when a partial failure leaves disk and memory
//! possibly diverged; a poisoned hook refuses every later commit.
//!
//! Derived-class memberships and derived-attribute materialisations are
//! *not* logged: like the paper's stale derived subclasses (§2), they are
//! recomputable, and the MVCC layer already excludes them from conflict
//! detection. A recovered database may therefore hold stale derived state
//! until the next refresh — the same staleness any pinned session sees.

use std::collections::HashSet;

use isis_core::{AttrValue, Change, ChangeSet, CommitHook, Database, EntityId, SharedDatabase};

use crate::error::StoreError;
use crate::recovery::RecoveryReport;
use crate::segment::LogSegment;
use crate::store::StoreDir;
use crate::wal::{LogOp, SyncPolicy};

impl StoreDir {
    /// Opens `name` as a durable shared database: many [`Session`]s (or
    /// raw pins) may work against the returned handle concurrently, and
    /// every admitted commit is WAL-durable under `policy`. Creates the
    /// database if absent. Whatever recovery found is in the returned
    /// [`RecoveryReport`].
    ///
    /// [`Session`]: https://docs.rs/isis-session
    pub fn open_shared(
        &self,
        name: &str,
        policy: SyncPolicy,
    ) -> Result<(SharedDatabase, RecoveryReport), StoreError> {
        let (db, segment, report) = self.open_segment(name, policy)?;
        let shared = SharedDatabase::new(db);
        shared.set_commit_hook(Some(Box::new(WalCommitHook { segment })));
        Ok((shared, report))
    }
}

/// The durability hook a [`StoreDir::open_shared`] handle carries: runs
/// under the commit lock, before the new head is installed.
#[derive(Debug)]
pub struct WalCommitHook {
    /// Poisoned when a partial failure left disk and memory possibly
    /// diverged (rollback failed, or a checkpoint installed but its log
    /// reset failed); every later commit is then refused until the store
    /// is reopened.
    segment: LogSegment,
}

impl CommitHook for WalCommitHook {
    fn on_commit(&mut self, db: &Database, applied: &ChangeSet) -> Result<(), String> {
        // The hook boundary is stringly typed so isis-core stays free of
        // storage types; everything below it works in typed `StoreError`s
        // (a plain I/O failure surfaces as `StoreError::Io`, never a
        // panic, and unrollbackable partial failures as
        // `StoreError::Poisoned`).
        self.record(db, applied).map_err(|e| e.to_string())
    }

    fn poisoned(&self) -> bool {
        self.segment.is_poisoned()
    }
}

impl WalCommitHook {
    fn record(&mut self, db: &Database, applied: &ChangeSet) -> Result<(), StoreError> {
        self.segment.check()?;
        let obs = isis_obs::global();
        match batch_ops(db, applied) {
            Some(ops) => {
                if obs.enabled() {
                    obs.count("store.wal.commit_frames", 1);
                    let n = ops.len();
                    obs.event("store.wal.commit", || {
                        isis_obs::Json::obj([
                            ("mode", isis_obs::Json::from("frames")),
                            ("ops", isis_obs::Json::from(n)),
                        ])
                    });
                }
                if ops.is_empty() {
                    // Every change in the commit was derived
                    // materialisation — nothing durable to record.
                    return Ok(());
                }
                // A failed append vetoes the commit; the segment rewinds
                // it so recovery can never replay a commit the caller was
                // told did not happen.
                self.segment.append(&LogOp::CommitBatch(ops))
            }
            None => {
                // Schema edits fall back to a whole-head snapshot; the
                // frames-vs-checkpoint split is the headline durability
                // telemetry, so record which path this commit took.
                if obs.enabled() {
                    obs.count("store.wal.commit_checkpoints", 1);
                    let n = applied.len();
                    obs.event("store.wal.commit", || {
                        isis_obs::Json::obj([
                            ("mode", isis_obs::Json::from("checkpoint")),
                            ("changes", isis_obs::Json::from(n)),
                        ])
                    });
                }
                self.segment.checkpoint(db)
            }
        }
    }
}

/// Converts an admitted commit's change stream into replayable operations,
/// or `None` when the commit needs a full checkpoint (schema edits, or a
/// referenced class/attribute that the head cannot resolve).
///
/// Id alignment: replay allocates entity ids in the same order the
/// original mutators did, because literal interns are emitted at their
/// recorded stream position and `InsertEntity` re-interns its name string
/// (allocating exactly when the original insert did — see the WAL module
/// docs). Changes the replayed operations regenerate themselves are
/// skipped: naming-attribute assignments (covered by `RenameEntity` /
/// `InsertEntity`), derived state, the scrub records `DeleteEntity`
/// re-derives, and the values a `RemoveFromClass` drops
/// ([`ChangeSet::leave_drops`]).
fn batch_ops(db: &Database, applied: &ChangeSet) -> Option<Vec<LogOp>> {
    if applied.has_schema_changes() {
        return None;
    }
    let deleted: HashSet<EntityId> = applied
        .iter()
        .filter_map(|c| match c {
            Change::EntityDeleted { entity, .. } => Some(*entity),
            _ => None,
        })
        .collect();
    let mut ops = Vec::new();
    for (change, dropped) in applied.iter().zip(applied.leave_drops(db)) {
        match change {
            Change::EntityInserted { entity, base, name } => match db.literal_of(*entity) {
                Some(lit) => ops.push(LogOp::Intern(lit.clone())),
                None => ops.push(LogOp::InsertEntity(*base, name.clone())),
            },
            Change::EntityDeleted { entity, .. } => ops.push(LogOp::DeleteEntity(*entity)),
            Change::EntityRenamed { entity, name } => {
                if !deleted.contains(entity) {
                    ops.push(LogOp::RenameEntity(*entity, name.clone()));
                }
            }
            Change::MembershipAdded { entity, class } => {
                if !deleted.contains(entity) && !db.class(*class).ok()?.is_derived() {
                    ops.push(LogOp::AddToClass(*entity, *class));
                }
            }
            Change::MembershipRemoved { entity, class } => {
                if !deleted.contains(entity) && !db.class(*class).ok()?.is_derived() {
                    ops.push(LogOp::RemoveFromClass(*entity, *class));
                }
            }
            Change::AttrAssigned {
                entity, attr, new, ..
            } => {
                if deleted.contains(entity) || dropped {
                    continue;
                }
                let rec = db.attr(*attr).ok()?;
                if rec.is_derived() || rec.naming {
                    continue;
                }
                match new {
                    AttrValue::Single(v) if v.is_null() => {
                        ops.push(LogOp::Unassign(*entity, *attr));
                    }
                    AttrValue::Single(v) => ops.push(LogOp::AssignSingle(*entity, *attr, *v)),
                    AttrValue::Multi(s) => {
                        ops.push(LogOp::AssignMulti(*entity, *attr, s.iter().collect()));
                    }
                }
            }
            Change::Schema(_) => return None,
        }
    }
    Some(ops)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Arc;

    use isis_core::{BaseKind, Multiplicity};

    use super::*;
    use crate::vfs::{FaultVfs, StdVfs};

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("isis_shared_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn data_commits_survive_reopen_via_commit_batches() {
        let root = tempdir("reopen");
        let dir = StoreDir::open(&root).unwrap();
        let (shared, report) = dir.open_shared("band", SyncPolicy::EverySync).unwrap();
        assert!(report.is_pristine());

        // A schema commit (checkpoint fallback) followed by data commits
        // (batch frames).
        let mut w = shared.pin();
        let base = w.delta_epoch();
        let musicians = w.create_baseclass("musicians").unwrap();
        shared.commit(base, &w).unwrap();

        let mut w = shared.pin();
        let base = w.delta_epoch();
        w.insert_entity(musicians, "Edith").unwrap();
        w.insert_entity(musicians, "Amy").unwrap();
        shared.commit(base, &w).unwrap();

        let mut w = shared.pin();
        let base = w.delta_epoch();
        let edith = w.entity_by_name(musicians, "Edith").unwrap();
        w.rename_entity(edith, "Edith Mae").unwrap();
        shared.commit(base, &w).unwrap();
        drop(shared);

        let (reopened, report) = dir.open_shared("band", SyncPolicy::EverySync).unwrap();
        assert_eq!(report.wal_records_rejected, 0);
        reopened.read(|db| {
            let musicians = db.class_by_name("musicians").unwrap();
            assert!(db.entity_by_name(musicians, "Edith Mae").is_ok());
            assert!(db.entity_by_name(musicians, "Amy").is_ok());
            assert!(db.check_consistency().unwrap().is_empty());
        });
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn deletes_and_values_replay_with_aligned_ids() {
        let root = tempdir("ids");
        let dir = StoreDir::open(&root).unwrap();
        let (shared, _) = dir.open_shared("band", SyncPolicy::EverySync).unwrap();

        let mut w = shared.pin();
        let base = w.delta_epoch();
        let musicians = w.create_baseclass("musicians").unwrap();
        let ints = w.predefined(BaseKind::Integers);
        let age = w
            .create_attribute(musicians, "age", ints, Multiplicity::Single)
            .unwrap();
        shared.commit(base, &w).unwrap();

        let mut w = shared.pin();
        let base = w.delta_epoch();
        let edith = w.insert_entity(musicians, "Edith").unwrap();
        let gone = w.insert_entity(musicians, "Gone").unwrap();
        let forty = w.intern(40i64).unwrap();
        w.assign_single(edith, age, forty).unwrap();
        w.delete_entity(gone).unwrap();
        shared.commit(base, &w).unwrap();
        let live_epoch = shared.epoch();
        drop(shared);

        let (reopened, _) = dir.open_shared("band", SyncPolicy::EverySync).unwrap();
        reopened.read(|db| {
            let musicians = db.class_by_name("musicians").unwrap();
            let edith = db.entity_by_name(musicians, "Edith").unwrap();
            let age = db.attr_by_name(musicians, "age").unwrap();
            let forty = db.find_literal(40i64).expect("40 re-interned at its slot");
            assert_eq!(db.attr_value(edith, age).unwrap(), AttrValue::Single(forty));
            assert!(db.entity_by_name(musicians, "Gone").is_err());
            assert!(db.check_consistency().unwrap().is_empty());
        });
        // Sanity: the live head had advanced past the base generation.
        assert!(live_epoch > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn leaves_from_a_value_owning_subclass_recover_and_rebase() {
        let root = tempdir("reject");
        let dir = StoreDir::open(&root).unwrap();
        let (shared, _) = dir.open_shared("band", SyncPolicy::EverySync).unwrap();

        let mut w = shared.pin();
        let base = w.delta_epoch();
        let musicians = w.create_baseclass("musicians").unwrap();
        let soloists = w.create_subclass(musicians, "soloists").unwrap();
        let ints = w.predefined(BaseKind::Integers);
        let fee = w
            .create_attribute(soloists, "fee", ints, Multiplicity::Single)
            .unwrap();
        shared.commit(base, &w).unwrap();

        let mut w = shared.pin();
        let base = w.delta_epoch();
        for name in ["Edith", "Amy", "Kurt"] {
            let m = w.insert_entity(musicians, name).unwrap();
            w.add_to_class(m, soloists).unwrap();
            let hundred = w.intern(100i64).unwrap();
            w.assign_single(m, fee, hundred).unwrap();
        }
        shared.commit(base, &w).unwrap();

        // Edith's reject commits on the fast path. Amy's reject, and Kurt
        // leaving and rejoining in one commit, are rebased onto it.
        let mut edith_out = shared.pin();
        let edith_base = edith_out.delta_epoch();
        let mut amy_out = shared.pin();
        let amy_base = amy_out.delta_epoch();
        let mut kurt_back = shared.pin();
        let kurt_base = kurt_back.delta_epoch();
        let edith = edith_out.entity_by_name(musicians, "Edith").unwrap();
        edith_out.remove_from_class(edith, soloists).unwrap();
        assert!(!shared.commit(edith_base, &edith_out).unwrap().rebased);
        let amy = amy_out.entity_by_name(musicians, "Amy").unwrap();
        amy_out.remove_from_class(amy, soloists).unwrap();
        assert!(shared.commit(amy_base, &amy_out).unwrap().rebased);
        let kurt = kurt_back.entity_by_name(musicians, "Kurt").unwrap();
        kurt_back.remove_from_class(kurt, soloists).unwrap();
        kurt_back.add_to_class(kurt, soloists).unwrap();
        assert!(shared.commit(kurt_base, &kurt_back).unwrap().rebased);
        let head = shared.pin();
        assert_eq!(head.members(soloists).unwrap().as_slice(), &[kurt]);
        assert_eq!(
            head.attr_value(kurt, fee).unwrap(),
            AttrValue::Single(EntityId::NULL)
        );
        assert_eq!(head.check_consistency().unwrap(), vec![]);
        drop(shared);

        let (reopened, report) = dir.open_shared("band", SyncPolicy::EverySync).unwrap();
        assert_eq!(report.wal_records_rejected, 0, "{report}");
        reopened.read(|db| {
            assert_eq!(db.members(soloists).unwrap().as_slice(), &[kurt]);
            assert_eq!(
                db.attr_value(kurt, fee).unwrap(),
                AttrValue::Single(EntityId::NULL)
            );
            assert_eq!(db.check_consistency().unwrap(), vec![]);
        });
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_fsync_vetoes_commit_and_admits_no_phantom() {
        let root = tempdir("phantom");
        let setup = StoreDir::open_with(&root, Arc::new(StdVfs::new())).unwrap();
        let (shared, _) = setup.open_shared("band", SyncPolicy::EverySync).unwrap();
        let mut w = shared.pin();
        let base = w.delta_epoch();
        w.create_baseclass("musicians").unwrap();
        shared.commit(base, &w).unwrap();
        drop(shared);

        // Reopen through a vfs that dies at each successive step; whatever
        // the outcome of the poisoned commit, recovery must see either the
        // pre-commit or the post-commit state — never a half commit, and
        // never a commit that was vetoed *and* survives on disk while the
        // handle keeps running.
        for step in 0..60 {
            let faulty = Arc::new(FaultVfs::crash_at(step));
            let dir = StoreDir::open_with(&root, faulty.clone());
            let attempt = dir
                .and_then(|d| d.open_shared("band", SyncPolicy::EverySync))
                .map(|(shared, _)| {
                    let mut w = shared.pin();
                    let base = w.delta_epoch();
                    let musicians = w.class_by_name("musicians").unwrap();
                    w.insert_entity(musicians, "Edith").unwrap();
                    let admitted = shared.commit(base, &w).is_ok();
                    let in_memory = shared.read(|db| db.entity_by_name(musicians, "Edith").is_ok());
                    // A vetoed commit must not be visible in memory.
                    assert_eq!(admitted, in_memory);
                    admitted
                });

            // Recover with a clean vfs: the store must hold exactly the
            // pre- or post-commit state, matching what was acknowledged
            // when the handle survived to tell us.
            let clean = StoreDir::open(&root).unwrap();
            let (db, _) = clean.recover("band").unwrap();
            let musicians = db.class_by_name("musicians").unwrap();
            let edith_on_disk = db.entity_by_name(musicians, "Edith").is_ok();
            assert!(db.check_consistency().unwrap().is_empty());
            if let Ok(admitted) = attempt {
                if admitted {
                    assert!(edith_on_disk, "admitted commit lost (step {step})");
                } else {
                    assert!(!edith_on_disk, "phantom commit admitted (step {step})");
                }
            }
            // Reset to the pre-commit state for the next fault step.
            let reset = StoreDir::open(&root).unwrap();
            let (mut db, _) = reset.recover("band").unwrap();
            if let Ok(edith) = db.entity_by_name(musicians, "Edith") {
                db.delete_entity(edith).unwrap();
            }
            reset.save(&db, "band").unwrap();
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn schema_checkpoint_crash_sweep_admits_no_silent_divergence() {
        // A schema commit takes the checkpoint-fallback path: sync the old
        // segment, install a new snapshot generation, reset the log. Crash
        // at every step of that sequence (including between the snapshot
        // install and the log reset) and check the contract:
        //
        // * an admitted schema commit is on disk after recovery;
        // * a vetoed schema commit is on disk ONLY in the documented
        //   crash-after-fsync-before-ack window — and then the hook must
        //   be poisoned, so the handle refuses to diverge further and
        //   `try_build`-style callers can see the state is suspect;
        // * recovery always lands on exactly the pre- or post-commit
        //   state, never a torn hybrid.
        let root = tempdir("schema_sweep");
        let setup = StoreDir::open_with(&root, Arc::new(StdVfs::new())).unwrap();
        let (shared, _) = setup.open_shared("band", SyncPolicy::EverySync).unwrap();
        let mut w = shared.pin();
        let base = w.delta_epoch();
        w.create_baseclass("musicians").unwrap();
        shared.commit(base, &w).unwrap();
        drop(shared);

        // Every iteration (and the probe below) must start from a disk
        // layout with identical byte counts, or the fault-point window
        // drifts. `reset_state` deletes any committed "venues", saves, and
        // normalises through one clean open_shared so the layout is always
        // "snapshot generation N + empty log with an N header" — only the
        // generation value differs, and it is fixed-width.
        let reset_state = |root: &PathBuf| {
            let reset = StoreDir::open(root).unwrap();
            let (mut db, _) = reset.recover("band").unwrap();
            if let Ok(venues) = db.class_by_name("venues") {
                db.delete_class(venues).unwrap();
            }
            reset.save(&db, "band").unwrap();
            drop(reset.open_shared("band", SyncPolicy::EverySync).unwrap());
        };
        reset_state(&root);

        // Locate the commit's fault-point window: count the points consumed
        // by the reopen alone versus reopen + schema commit, then sweep
        // exactly that band (a write of n bytes exposes n+1 points, so the
        // open path alone consumes hundreds — sweeping from zero would
        // never reach the checkpoint sequence).
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
        reset_state(&root);

        // The probe gives the window's *size*; its absolute offset can
        // drift a little between runs (fallback snapshot sizes differ by
        // a few bytes across resets), so sweep from just before the
        // probe's open boundary and stop once a crash point lands beyond
        // the whole open+commit sequence (nothing fires at all).
        let width = after_commit - after_open;
        let sweep_cap = after_commit + width + 256;
        let mut poisoned_windows = 0u32;
        let mut step = after_open.saturating_sub(2);
        while step < sweep_cap {
            let faulty = Arc::new(FaultVfs::crash_at(step));
            let attempt = StoreDir::open_with(&root, faulty.clone())
                .and_then(|d| d.open_shared("band", SyncPolicy::EverySync))
                .map(|(shared, _)| {
                    let mut w = shared.pin();
                    let base = w.delta_epoch();
                    w.create_baseclass("venues").unwrap();
                    let admitted = shared.commit(base, &w).is_ok();
                    let in_memory = shared.read(|db| db.class_by_name("venues").is_ok());
                    assert_eq!(
                        admitted, in_memory,
                        "vetoed schema commit visible (step {step})"
                    );
                    (admitted, shared.hook_poisoned())
                });

            let clean = StoreDir::open(&root).unwrap();
            let (db, _) = clean.recover("band").unwrap();
            assert!(
                db.class_by_name("musicians").is_ok(),
                "pre-existing schema lost (step {step})"
            );
            let venues_on_disk = db.class_by_name("venues").is_ok();
            assert!(db.check_consistency().unwrap().is_empty());
            let mut past_the_end = false;
            if let Ok((admitted, poisoned)) = attempt {
                if admitted {
                    assert!(venues_on_disk, "admitted schema commit lost (step {step})");
                    past_the_end = !faulty.has_crashed();
                } else if venues_on_disk {
                    // The one admissible veto-but-durable outcome: the
                    // snapshot installed and the log reset then failed.
                    // The handle must know it cannot continue.
                    assert!(
                        poisoned,
                        "vetoed schema commit on disk without poisoning (step {step})"
                    );
                    poisoned_windows += 1;
                }
            }

            // Reset to the canonical pre-commit layout for the next step.
            reset_state(&root);
            if past_the_end {
                // The crash point fell beyond the whole open+commit
                // sequence: every later step is a no-fault run.
                break;
            }
            step += 1;
        }
        // The sweep is wide enough to cross the install→reset window at
        // least once; if it never did, the test has gone stale.
        assert!(
            poisoned_windows > 0,
            "sweep never hit the checkpoint install→reset crash window"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
