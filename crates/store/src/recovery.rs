//! Structured recovery: multi-generation snapshot fallback, salvage WAL
//! replay, and the reports (`doctor` / `fsck`) describing what happened.
//!
//! `StoreDir::newest_snapshot` is the one reader of a database's snapshot
//! generations, for recovery, replication and the design history alike.
//! Replication asks it to check each slot's sealed frame only
//! (`StoreDir::newest_sealed_snapshot`): the replica decodes what it is
//! shipped, so the primary does not decode it too.
//!
//! [`StoreDir::recover`] is the one true open path — [`StoreDir::load`],
//! [`StoreDir::open_logged`] and [`StoreDir::open_shared`] all go through
//! it. It loads the newest readable generation, replays whatever log
//! suffix belongs to it (in salvage mode, so a corrupt mid-log record
//! loses that record, not the rest of the log), and narrates every
//! deviation from the happy path in a [`RecoveryReport`] instead of
//! failing. It returns an error only when *no* snapshot generation is
//! readable.

use std::fmt;

use isis_core::Database;

use crate::error::StoreError;
use crate::store::{open_snapshot_frame, read_snapshot_bytes_gen, StoreDir};
use crate::wal::replay_with;

/// The newest readable snapshot generation of a database, as
/// `StoreDir::newest_snapshot` found it.
pub(crate) struct NewestSnapshot<T = Database> {
    /// What reading the slot produced: the decoded database, or `()`
    /// from `StoreDir::newest_sealed_snapshot`.
    pub(crate) db: T,
    /// The generation the snapshot was written under.
    pub(crate) generation: u64,
    /// The file's bytes as read; replication ships them verbatim.
    pub(crate) bytes: Vec<u8>,
    /// `true` if the newest slot was absent or unreadable and the
    /// fallback generation loaded instead.
    pub(crate) used_fallback: bool,
    /// Why the generation tried before this one was rejected.
    pub(crate) errors: Vec<String>,
}

/// What recovery found and did while opening a database.
///
/// A pristine report means the happy path: newest snapshot readable, log
/// intact and belonging to it, every record replayed. Anything else —
/// fallback generation used, bytes salvaged past, torn tail, stale log,
/// rejected operations — is counted here rather than raised as an error,
/// because a recovered-with-losses database is still a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The database name.
    pub name: String,
    /// The snapshot generation that was actually loaded.
    pub snapshot_generation: u64,
    /// `true` if the newest generation was unreadable and the previous
    /// one was used instead.
    pub used_fallback: bool,
    /// Human-readable load failures for generations that were tried and
    /// rejected before one succeeded.
    pub snapshot_errors: Vec<String>,
    /// Log records successfully replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Log records that decoded but were rejected by the engine on
    /// replay.
    pub wal_records_rejected: usize,
    /// Bytes of unparseable log skipped over by salvage resynchronisation.
    pub wal_bytes_skipped: usize,
    /// Number of times salvage had to resynchronise mid-log.
    pub wal_resyncs: usize,
    /// `true` if the log ended in a torn (partially written) record.
    pub wal_torn_tail: bool,
    /// `true` if a log was present but named a different snapshot
    /// generation and was therefore skipped entirely.
    pub wal_stale: bool,
}

impl RecoveryReport {
    /// A report for a database that did not exist and was freshly created.
    pub(crate) fn fresh(name: &str) -> RecoveryReport {
        RecoveryReport {
            name: name.to_string(),
            snapshot_generation: 0,
            used_fallback: false,
            snapshot_errors: Vec::new(),
            wal_records_replayed: 0,
            wal_records_rejected: 0,
            wal_bytes_skipped: 0,
            wal_resyncs: 0,
            wal_torn_tail: false,
            wal_stale: false,
        }
    }

    /// `true` if recovery was the happy path: nothing skipped, salvaged,
    /// rejected, torn, stale, or fallen back on.
    pub fn is_pristine(&self) -> bool {
        !self.used_fallback
            && self.snapshot_errors.is_empty()
            && self.wal_records_rejected == 0
            && self.wal_bytes_skipped == 0
            && self.wal_resyncs == 0
            && !self.wal_torn_tail
            && !self.wal_stale
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "database {:?}: snapshot generation {}{}",
            self.name,
            self.snapshot_generation,
            if self.used_fallback {
                " (fallback — newest generation unreadable)"
            } else {
                ""
            }
        )?;
        for err in &self.snapshot_errors {
            write!(f, "\n  snapshot error: {err}")?;
        }
        if self.wal_stale {
            write!(f, "\n  log: stale (names another generation), skipped")?;
        } else {
            write!(
                f,
                "\n  log: {} record(s) replayed, {} rejected",
                self.wal_records_replayed, self.wal_records_rejected
            )?;
            if self.wal_resyncs > 0 {
                write!(
                    f,
                    "\n  log: salvaged past {} corrupt byte(s) in {} resync(s)",
                    self.wal_bytes_skipped, self.wal_resyncs
                )?;
            }
            if self.wal_torn_tail {
                write!(f, "\n  log: torn tail (incomplete final record dropped)")?;
            }
        }
        if self.is_pristine() {
            write!(f, "\n  status: pristine")?;
        } else {
            write!(f, "\n  status: recovered with deviations")?;
        }
        Ok(())
    }
}

/// The result of an `fsck`-style verification pass: a full recovery dry
/// run plus a consistency check of the recovered database.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// What recovery found and did.
    pub recovery: RecoveryReport,
    /// `true` if the recovered database passed the internal consistency
    /// checker.
    pub consistent: bool,
    /// Number of classes in the recovered database.
    pub classes: usize,
    /// Number of attributes in the recovered database.
    pub attrs: usize,
    /// Number of entities in the recovered database.
    pub entities: usize,
}

impl FsckReport {
    /// `true` if everything checks out: pristine recovery and a clean
    /// consistency pass.
    pub fn clean(&self) -> bool {
        self.consistent && self.recovery.is_pristine()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.recovery)?;
        write!(
            f,
            "\n  contents: {} class(es), {} attribute(s), {} entit(ies)",
            self.classes, self.attrs, self.entities
        )?;
        write!(
            f,
            "\n  consistency: {}",
            if self.consistent { "ok" } else { "VIOLATED" }
        )
    }
}

impl StoreDir {
    /// Reads the newest snapshot generation of `name` that decodes: the
    /// newest slot, else the fallback. Fails only if none does —
    /// [`StoreError::NotFound`] when neither file exists, the single
    /// candidate's own error when one does, and [`StoreError::Recovery`]
    /// listing both failures when both do.
    pub(crate) fn newest_snapshot(&self, name: &str) -> Result<NewestSnapshot, StoreError> {
        self.newest_slot(name, read_snapshot_bytes_gen)
    }

    /// [`StoreDir::newest_snapshot`] for a reader that needs only the
    /// generation and the bytes: a slot is readable when its sealed frame
    /// checks out (magic, length, CRC and generation), and its image is
    /// not decoded.
    pub(crate) fn newest_sealed_snapshot(
        &self,
        name: &str,
    ) -> Result<NewestSnapshot<()>, StoreError> {
        self.newest_slot(name, |bytes| {
            open_snapshot_frame(bytes).map(|(generation, _)| ((), generation))
        })
    }

    /// The newest slot of `name` that `read` accepts, else the fallback.
    fn newest_slot<T>(
        &self,
        name: &str,
        read: impl Fn(&[u8]) -> Result<(T, u64), StoreError>,
    ) -> Result<NewestSnapshot<T>, StoreError> {
        StoreDir::check_name(name)?;
        let vfs = self.vfs();
        let present: Vec<_> = [
            (self.snapshot_path(name), false),
            (self.fallback_path(name), true),
        ]
        .into_iter()
        .filter(|(path, _)| vfs.exists(path))
        .collect();
        if present.is_empty() {
            return Err(StoreError::NotFound(name.into()));
        }
        let single = present.len() == 1;
        let mut errors = Vec::new();
        for (path, used_fallback) in present {
            let slot = vfs
                .read(&path)
                .map_err(StoreError::from)
                .and_then(|bytes| read(&bytes).map(|(db, generation)| (db, generation, bytes)));
            match slot {
                Ok((db, generation, bytes)) => {
                    return Ok(NewestSnapshot {
                        db,
                        generation,
                        bytes,
                        used_fallback,
                        errors,
                    })
                }
                Err(e) if single => return Err(e),
                Err(e) => errors.push(format!("{}: {e}", path.display())),
            }
        }
        Err(StoreError::Recovery {
            name: name.into(),
            detail: errors.join("; "),
        })
    }

    /// Loads the database saved under `name`, trying the newest snapshot
    /// generation first and falling back to the previous one, then
    /// salvage-replaying the log suffix that belongs to the loaded
    /// generation. Returns the database together with a report of
    /// everything recovery had to do.
    ///
    /// Fails only if no snapshot generation is readable: with the single
    /// candidate's own error when only one exists, or
    /// [`StoreError::Recovery`] listing every failure when both do.
    pub fn recover(&self, name: &str) -> Result<(Database, RecoveryReport), StoreError> {
        let obs = isis_obs::global();
        let mut span = obs.span("store.recovery.recover");
        obs.count("store.recovery.runs", 1);
        let NewestSnapshot {
            mut db,
            generation: snapshot_generation,
            used_fallback,
            errors: snapshot_errors,
            ..
        } = self.newest_snapshot(name)?;
        let vfs = self.vfs();
        let replay = replay_with(vfs.as_ref(), &self.wal_path(name), true)?;
        let wal_stale = !replay.extends(snapshot_generation);
        let mut wal_records_replayed = 0;
        let mut wal_records_rejected = 0;
        if !wal_stale {
            for op in &replay.ops {
                match op.apply(&mut db) {
                    Ok(()) => wal_records_replayed += 1,
                    Err(_) => wal_records_rejected += 1,
                }
            }
        }
        let report = RecoveryReport {
            name: name.to_string(),
            snapshot_generation,
            used_fallback,
            snapshot_errors,
            wal_records_replayed,
            wal_records_rejected,
            wal_bytes_skipped: if wal_stale { 0 } else { replay.skipped_bytes },
            wal_resyncs: if wal_stale { 0 } else { replay.resyncs },
            wal_torn_tail: !wal_stale && replay.torn_tail,
            wal_stale,
        };
        obs.count("store.recovery.wal_replayed", wal_records_replayed as u64);
        obs.count("store.recovery.wal_rejected", wal_records_rejected as u64);
        if report.used_fallback {
            obs.count("store.recovery.fallbacks", 1);
        }
        span.field("generation", || report.snapshot_generation.into());
        span.field("replayed", || wal_records_replayed.into());
        span.field("fallback", || report.used_fallback.into());
        Ok((db, report))
    }

    /// Runs an `fsck`-style verification of the database saved under
    /// `name`: a full recovery dry run (nothing on disk is modified) plus
    /// a consistency check of the recovered state.
    pub fn fsck(&self, name: &str) -> Result<FsckReport, StoreError> {
        let _span = isis_obs::global().span("store.recovery.fsck");
        let (db, recovery) = self.recover(name)?;
        let consistent = db.is_consistent().unwrap_or(false);
        Ok(FsckReport {
            recovery,
            consistent,
            classes: db.classes().count(),
            attrs: db.attrs().count(),
            entities: db.entities().count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_report_is_pristine() {
        let r = RecoveryReport::fresh("x");
        assert!(r.is_pristine());
        assert!(r.to_string().contains("pristine"));
    }

    #[test]
    fn deviations_break_pristine_and_show_in_display() {
        let mut r = RecoveryReport::fresh("w");
        r.wal_torn_tail = true;
        r.wal_records_replayed = 3;
        assert!(!r.is_pristine());
        let text = r.to_string();
        assert!(text.contains("torn tail"));
        assert!(text.contains("3 record(s) replayed"));
        assert!(text.contains("deviations"));
        let mut s = RecoveryReport::fresh("w");
        s.wal_stale = true;
        assert!(s.to_string().contains("stale"));
    }
}
