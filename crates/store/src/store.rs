//! Snapshots, the database directory, and the logged database.
//!
//! On disk a database named `N` in a [`StoreDir`] is a family of files:
//!
//! * `N.isis`   — the newest checksummed snapshot (magic + framed
//!   generation + image);
//! * `N.isis.1` — the previous snapshot generation, kept as a fallback so
//!   a corrupted newest snapshot is recoverable;
//! * `N.wal`    — the write-ahead log of operations applied since the
//!   snapshot generation named in its header record.
//!
//! Opening replays `snapshot + log` and folds it into a fresh generation
//! (`open_segment`, the one durable open); `StoreDir::install` is the one
//! atomic snapshot install (temp file, fsync, rotate, rename, fsync of the
//! directory). All I/O goes through a [`Vfs`], so the crash-consistency
//! suite can inject faults at every byte boundary and recovery
//! ([`StoreDir::recover`](StoreDir::recover)) can be proven total.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use isis_core::{
    AttrDerivation, AttrId, ChangeSet, ClassId, ConstraintId, ConstraintKind, CoreError, Database,
    EntityId, GroupingId, Literal, Multiplicity, Predicate, ValueClassSpec,
};

use crate::codec::{read_frame, seal_frame, CodecError, FRAME_HEADER};
use crate::encode::{decode_image, encode_image_into};
use crate::error::StoreError;
use crate::recovery::RecoveryReport;
use crate::segment::LogSegment;
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{replay_with, LogOp, SyncPolicy, WalFile};

/// Magic bytes at the start of a snapshot file (format version 2: the
/// CRC-protected frame payload is the u64 LE snapshot generation followed
/// by the image bytes).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ISISDB\x02\x00";

/// Serialises `db` to in-memory snapshot bytes (same format as the file;
/// generation 0).
pub fn write_snapshot_bytes(db: &Database) -> Vec<u8> {
    snapshot_bytes_with_gen(db, 0)
}

/// Serialises `db` to snapshot bytes under an explicit generation. The
/// generation sits *inside* the checksummed frame, so a flipped generation
/// byte is detected like any other corruption.
pub fn snapshot_bytes_with_gen(db: &Database, generation: u64) -> Vec<u8> {
    // One buffer: the image encodes behind the header, which is sealed in
    // place, so a large snapshot is never copied.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&[0; FRAME_HEADER]);
    bytes.extend_from_slice(&generation.to_le_bytes());
    let mut bytes = encode_image_into(&db.to_image(), bytes);
    seal_frame(&mut bytes[SNAPSHOT_MAGIC.len()..]);
    bytes
}

/// Deserialises snapshot bytes back into a database plus the generation
/// they were written under.
pub fn read_snapshot_bytes_gen(bytes: &[u8]) -> Result<(Database, u64), StoreError> {
    let (generation, image) = open_snapshot_frame(bytes)?;
    let img = decode_image(image)?;
    Ok((Database::from_image(img)?, generation))
}

/// The generation and the image bytes of the snapshot in `bytes`, after
/// checking its magic, its frame's length and CRC, and that nothing
/// trails the frame. The image itself is not decoded.
pub(crate) fn open_snapshot_frame(bytes: &[u8]) -> Result<(u64, &[u8]), StoreError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() {
        return Err(StoreError::Codec(CodecError::BadMagic));
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != *SNAPSHOT_MAGIC {
        // A well-formed header with a different version byte is version
        // skew, not garbage.
        if bytes[..6] == SNAPSHOT_MAGIC[..6] && bytes[7] == 0 {
            return Err(StoreError::Codec(CodecError::BadVersion(bytes[6] as u32)));
        }
        return Err(StoreError::Codec(CodecError::BadMagic));
    }
    let (payload, consumed) = read_frame(&bytes[SNAPSHOT_MAGIC.len()..])?;
    if SNAPSHOT_MAGIC.len() + consumed != bytes.len() {
        return Err(StoreError::Codec(CodecError::Corrupt(
            "trailing bytes after snapshot frame".into(),
        )));
    }
    if payload.len() < 8 {
        return Err(StoreError::Codec(CodecError::Corrupt(
            "snapshot payload shorter than its generation".into(),
        )));
    }
    let mut gen8 = [0u8; 8];
    gen8.copy_from_slice(&payload[..8]);
    Ok((u64::from_le_bytes(gen8), &payload[8..]))
}

/// Deserialises snapshot bytes back into a database.
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<Database, StoreError> {
    read_snapshot_bytes_gen(bytes).map(|(db, _)| db)
}

/// The generation of the snapshot in `bytes`, if it decodes in full.
pub(crate) fn peek_generation(bytes: &[u8]) -> Option<u64> {
    read_snapshot_bytes_gen(bytes).ok().map(|(_, g)| g)
}

/// A directory of named databases — ISIS's "load the database
/// Instrumental_Music … saves this new database as entertainment" (§4.2).
///
/// ```
/// use isis_store::StoreDir;
///
/// let root = std::env::temp_dir().join(format!("isis_doc_{}", std::process::id()));
/// let dir = StoreDir::open(&root)?;
/// let db = isis_core::Database::new("demo");
/// dir.save(&db, "demo")?;
/// assert_eq!(dir.list()?, vec!["demo".to_string()]);
/// let back = dir.load("demo")?;
/// assert_eq!(back.to_image(), db.to_image());
/// # std::fs::remove_dir_all(&root).unwrap();
/// # Ok::<(), isis_store::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StoreDir {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
}

impl StoreDir {
    /// Opens (creating if needed) a database directory on the real
    /// filesystem.
    pub fn open(root: impl Into<PathBuf>) -> Result<StoreDir, StoreError> {
        StoreDir::open_with(root, Arc::new(StdVfs::new()))
    }

    /// Opens (creating if needed) a database directory through an explicit
    /// [`Vfs`] — a [`FaultVfs`](crate::FaultVfs) turns every operation on
    /// this directory into a potential fault point.
    pub fn open_with(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Result<StoreDir, StoreError> {
        let root = root.into();
        vfs.create_dir_all(&root)?;
        Ok(StoreDir { root, vfs })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The VFS every byte of this directory's I/O goes through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    pub(crate) fn check_name(name: &str) -> Result<(), StoreError> {
        if name.is_empty()
            || name
                .chars()
                .any(|c| !(c.is_alphanumeric() || c == '_' || c == '-' || c == ' '))
        {
            return Err(StoreError::BadName(name.into()));
        }
        Ok(())
    }

    pub(crate) fn snapshot_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.isis"))
    }

    pub(crate) fn fallback_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.isis.1"))
    }

    pub(crate) fn wal_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.wal"))
    }

    /// Lists the database names present, sorted. (Fallback generations
    /// `*.isis.1` and temp files do not add names.)
    pub fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for path in self.vfs.read_dir(&self.root)? {
            if path.extension().and_then(|e| e.to_str()) == Some("isis") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// `true` if a database of this name exists (either generation — a
    /// crash between the two checkpoint renames leaves only the fallback).
    pub fn exists(&self, name: &str) -> bool {
        self.vfs.exists(&self.snapshot_path(name)) || self.vfs.exists(&self.fallback_path(name))
    }

    /// The next unused snapshot generation for `name`: one past everything
    /// on disk, so a stale log can never be mistaken for the new
    /// generation's. A snapshot's generation is read from its sealed frame
    /// without decoding the image.
    pub(crate) fn next_generation(&self, name: &str) -> u64 {
        let mut newest = 0;
        for path in [self.snapshot_path(name), self.fallback_path(name)] {
            if let Ok(bytes) = self.vfs.read(&path) {
                if let Ok((g, _)) = open_snapshot_frame(&bytes) {
                    newest = newest.max(g);
                }
            }
        }
        if let Ok(replay) = replay_with(self.vfs.as_ref(), &self.wal_path(name), false) {
            if let Some(g) = replay.snapshot_gen {
                newest = newest.max(g);
            }
        }
        newest + 1
    }

    /// Installs snapshot `bytes` as the newest generation of `name`:
    /// temp-write + fsync, optionally rotate the current newest to the
    /// fallback slot, rename into place, fsync the directory after each
    /// rename. With `rotate == false` the current newest is overwritten in
    /// place and the existing fallback survives — used when the newest was
    /// itself unreadable and the fallback is the only good copy.
    pub(crate) fn install(&self, name: &str, bytes: &[u8], rotate: bool) -> Result<(), StoreError> {
        let snap = self.snapshot_path(name);
        let tmp = snap.with_extension("isis.tmp");
        self.vfs.write(&tmp, bytes)?;
        self.vfs.sync_file(&tmp)?;
        if rotate && self.vfs.exists(&snap) {
            self.vfs.rename(&snap, &self.fallback_path(name))?;
            self.vfs.sync_dir(&self.root)?;
        }
        self.vfs.rename(&tmp, &snap)?;
        self.vfs.sync_dir(&self.root)?;
        Ok(())
    }

    /// Saves `db` under `name` (the *save* menu command). Overwrites any
    /// existing database of that name and supersedes its log; the previous
    /// snapshot (if any) is kept as the fallback generation.
    pub fn save(&self, db: &Database, name: &str) -> Result<(), StoreError> {
        let _span = isis_obs::global().span("store.snapshot.save");
        Self::check_name(name)?;
        let generation = self.next_generation(name);
        self.install(name, &snapshot_bytes_with_gen(db, generation), true)?;
        // Any log on disk now names an older generation and is skipped on
        // recovery; removing it is just tidiness.
        let wal = self.wal_path(name);
        if self.vfs.exists(&wal) {
            self.vfs.remove_file(&wal)?;
        }
        Ok(())
    }

    /// Loads the database saved under `name`: the newest readable snapshot
    /// generation plus its log suffix (see [`StoreDir::recover`] for the
    /// report-returning variant).
    pub fn load(&self, name: &str) -> Result<Database, StoreError> {
        self.recover(name).map(|(db, _)| db)
    }

    /// Deletes a saved database (all generations and the log).
    pub fn delete(&self, name: &str) -> Result<(), StoreError> {
        Self::check_name(name)?;
        if !self.exists(name) {
            return Err(StoreError::NotFound(name.into()));
        }
        for path in [
            self.snapshot_path(name),
            self.fallback_path(name),
            self.wal_path(name),
        ] {
            if self.vfs.exists(&path) {
                self.vfs.remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Opens `name` as a logged database: subsequent mutations are WAL-
    /// durable and recoverable. Creates the database if absent. Whatever
    /// recovery had to do to get here is in the returned handle's
    /// [`recovery_report`](LoggedDatabase::recovery_report).
    pub fn open_logged(
        &self,
        name: &str,
        policy: SyncPolicy,
    ) -> Result<LoggedDatabase, StoreError> {
        let (db, segment, report) = self.open_segment(name, policy)?;
        Ok(LoggedDatabase {
            db,
            segment,
            report,
        })
    }

    /// The durable open behind [`StoreDir::open_logged`] and
    /// [`StoreDir::open_shared`](crate::StoreDir::open_shared): recovers
    /// `name` (or starts it empty), folds whatever recovery replayed into a
    /// fresh snapshot generation, and restarts the log under it.
    pub(crate) fn open_segment(
        &self,
        name: &str,
        policy: SyncPolicy,
    ) -> Result<(Database, LogSegment, RecoveryReport), StoreError> {
        Self::check_name(name)?;
        let (db, report) = if self.exists(name) {
            self.recover(name)?
        } else {
            (Database::new(name), RecoveryReport::fresh(name))
        };
        // When recovery fell back to the previous generation, the newest
        // slot holds the corrupt file: overwrite it and keep the good
        // fallback.
        let generation = self.next_generation(name);
        let rotate = !report.used_fallback;
        self.install(name, &snapshot_bytes_with_gen(&db, generation), rotate)?;
        let mut wal = WalFile::open_with(self.vfs.clone(), self.wal_path(name), policy)?;
        wal.reset(generation)?;
        Ok((db, LogSegment::new(self, name, wal, generation), report))
    }
}

/// A database whose every mutation is applied in memory and appended to a
/// write-ahead log, recoverable after a crash from `snapshot + log`.
///
/// A mutation is applied in memory before it is logged, so a failed append
/// leaves memory ahead of the log: the handle is then poisoned and refuses
/// every further mutation and checkpoint with [`StoreError::Poisoned`]
/// until the database is reopened. Acknowledged ⇔ recoverable holds for
/// every call that returned `Ok`.
#[derive(Debug)]
pub struct LoggedDatabase {
    db: Database,
    segment: LogSegment,
    report: RecoveryReport,
}

macro_rules! logged {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* ) -> $ret:ty, $op:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, $($arg: $ty),*) -> Result<$ret, StoreError> {
            #[allow(clippy::redundant_closure_call)]
            let op = ($op)($($arg.clone()),*);
            self.logged(op, |db| db.$name($($arg),*))
        }
    };
}

impl LoggedDatabase {
    /// Read access to the in-memory database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The database's directory name.
    pub fn name(&self) -> &str {
        self.segment.name()
    }

    /// The snapshot generation the current log segment extends.
    pub fn generation(&self) -> u64 {
        self.segment.generation()
    }

    /// What recovery found and did when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Number of operations in the current log segment.
    pub fn log_records(&self) -> usize {
        self.segment.records()
    }

    /// Writes a fresh snapshot generation and restarts the log under it.
    ///
    /// The sequence is crash-safe at every step: sync the log (so the old
    /// generation stays fully recoverable), install the new snapshot
    /// (temp + fsync + rotate + rename + directory fsync), then reset the
    /// log with the new generation's header. A crash before the final
    /// rename recovers the old generation plus its complete log; a crash
    /// after it recovers the new snapshot and skips the stale log. A
    /// failure after the final rename poisons the handle, because later
    /// mutations would extend a log recovery skips.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.segment.check()?;
        self.segment.checkpoint(&self.db)
    }

    /// The one path of every logged mutation: refuse on a poisoned handle,
    /// apply in memory (a rejected operation touches neither memory nor
    /// the log), then append `op`. A failed append poisons the handle.
    fn logged<T>(
        &mut self,
        op: LogOp,
        mutate: impl FnOnce(&mut Database) -> Result<T, CoreError>,
    ) -> Result<T, StoreError> {
        self.segment.check()?;
        let out = mutate(&mut self.db)?;
        match self.segment.append(&op) {
            Ok(()) => Ok(out),
            Err(e @ StoreError::Poisoned { .. }) => Err(e),
            Err(e) => Err(self.segment.poison(format!(
                "a mutation applied in memory could not be logged: {e}"
            ))),
        }
    }

    // --- logged mutations -------------------------------------------------

    logged!(
        /// Logged [`Database::create_baseclass`].
        create_baseclass(name: &str) -> ClassId,
        |name: &str| LogOp::CreateBaseclass(name.to_string())
    );
    logged!(
        /// Logged [`Database::create_subclass`].
        create_subclass(parent: ClassId, name: &str) -> ClassId,
        |parent, name: &str| LogOp::CreateSubclass(parent, name.to_string())
    );
    logged!(
        /// Logged [`Database::create_derived_subclass`].
        create_derived_subclass(parent: ClassId, name: &str) -> ClassId,
        |parent, name: &str| LogOp::CreateDerivedSubclass(parent, name.to_string())
    );
    logged!(
        /// Logged [`Database::rename_class`].
        rename_class(class: ClassId, name: &str) -> ChangeSet,
        |class, name: &str| LogOp::RenameClass(class, name.to_string())
    );
    logged!(
        /// Logged [`Database::delete_class`].
        delete_class(class: ClassId) -> ChangeSet,
        LogOp::DeleteClass
    );
    logged!(
        /// Logged [`Database::rename_attr`].
        rename_attr(attr: AttrId, name: &str) -> ChangeSet,
        |attr, name: &str| LogOp::RenameAttr(attr, name.to_string())
    );
    logged!(
        /// Logged [`Database::delete_attr`].
        delete_attr(attr: AttrId) -> ChangeSet,
        LogOp::DeleteAttr
    );
    logged!(
        /// Logged [`Database::create_grouping`].
        create_grouping(parent: ClassId, name: &str, attr: AttrId) -> GroupingId,
        |parent, name: &str, attr| LogOp::CreateGrouping(parent, name.to_string(), attr)
    );
    logged!(
        /// Logged [`Database::rename_grouping`].
        rename_grouping(grouping: GroupingId, name: &str) -> ChangeSet,
        |grouping, name: &str| LogOp::RenameGrouping(grouping, name.to_string())
    );
    logged!(
        /// Logged [`Database::delete_grouping`].
        delete_grouping(grouping: GroupingId) -> ChangeSet,
        LogOp::DeleteGrouping
    );
    logged!(
        /// Logged [`Database::insert_entity`].
        insert_entity(base: ClassId, name: &str) -> EntityId,
        |base, name: &str| LogOp::InsertEntity(base, name.to_string())
    );
    logged!(
        /// Logged [`Database::add_to_class`].
        add_to_class(entity: EntityId, class: ClassId) -> ChangeSet,
        LogOp::AddToClass
    );
    logged!(
        /// Logged [`Database::remove_from_class`].
        remove_from_class(entity: EntityId, class: ClassId) -> ChangeSet,
        LogOp::RemoveFromClass
    );
    logged!(
        /// Logged [`Database::delete_entity`].
        delete_entity(entity: EntityId) -> ChangeSet,
        LogOp::DeleteEntity
    );
    logged!(
        /// Logged [`Database::rename_entity`].
        rename_entity(entity: EntityId, name: &str) -> ChangeSet,
        |entity, name: &str| LogOp::RenameEntity(entity, name.to_string())
    );
    logged!(
        /// Logged [`Database::assign_single`].
        assign_single(entity: EntityId, attr: AttrId, value: EntityId) -> ChangeSet,
        LogOp::AssignSingle
    );
    logged!(
        /// Logged [`Database::add_value`].
        add_value(entity: EntityId, attr: AttrId, value: EntityId) -> ChangeSet,
        LogOp::AddValue
    );
    logged!(
        /// Logged [`Database::unassign`].
        unassign(entity: EntityId, attr: AttrId) -> ChangeSet,
        LogOp::Unassign
    );
    logged!(
        /// Logged [`Database::refresh_derived_class`].
        refresh_derived_class(class: ClassId) -> usize,
        LogOp::RefreshDerivedClass
    );
    logged!(
        /// Logged [`Database::refresh_derived_attr`].
        refresh_derived_attr(attr: AttrId) -> usize,
        LogOp::RefreshDerivedAttr
    );
    logged!(
        /// Logged [`Database::add_secondary_parent`].
        add_secondary_parent(class: ClassId, parent: ClassId) -> ChangeSet,
        LogOp::AddSecondaryParent
    );
    logged!(
        /// Logged [`Database::commit_membership`].
        commit_membership(class: ClassId, pred: Predicate) -> usize,
        LogOp::CommitMembership
    );
    logged!(
        /// Logged [`Database::commit_derivation`].
        commit_derivation(attr: AttrId, derivation: AttrDerivation) -> usize,
        LogOp::CommitDerivation
    );
    logged!(
        /// Logged [`Database::create_constraint`].
        create_constraint(name: &str, class: ClassId, predicate: Predicate, kind: ConstraintKind)
            -> ConstraintId,
        |name: &str, class, predicate, kind| {
            LogOp::CreateConstraint(name.to_string(), class, predicate, kind)
        }
    );
    logged!(
        /// Logged [`Database::delete_constraint`].
        delete_constraint(id: ConstraintId) -> (),
        LogOp::DeleteConstraint
    );

    /// Logged [`Database::create_attribute`].
    pub fn create_attribute(
        &mut self,
        class: ClassId,
        name: &str,
        value_class: impl Into<ValueClassSpec>,
        multiplicity: Multiplicity,
    ) -> Result<AttrId, StoreError> {
        let vc = value_class.into();
        let op = LogOp::CreateAttribute(class, name.to_string(), vc, multiplicity);
        self.logged(op, |db| db.create_attribute(class, name, vc, multiplicity))
    }

    /// Logged [`Database::respecify_value_class`].
    pub fn respecify_value_class(
        &mut self,
        attr: AttrId,
        value_class: impl Into<ValueClassSpec>,
    ) -> Result<ChangeSet, StoreError> {
        let vc = value_class.into();
        self.logged(LogOp::RespecifyValueClass(attr, vc), |db| {
            db.respecify_value_class(attr, vc)
        })
    }

    /// Logged [`Database::assign_multi`].
    pub fn assign_multi(
        &mut self,
        entity: EntityId,
        attr: AttrId,
        values: impl IntoIterator<Item = EntityId>,
    ) -> Result<ChangeSet, StoreError> {
        let values: Vec<EntityId> = values.into_iter().collect();
        let op = LogOp::AssignMulti(entity, attr, values.clone());
        self.logged(op, |db| db.assign_multi(entity, attr, values))
    }

    /// Logged [`Database::intern`].
    pub fn intern(&mut self, lit: impl Into<Literal>) -> Result<EntityId, StoreError> {
        let lit = lit.into();
        self.logged(LogOp::Intern(lit.clone()), |db| db.intern(lit))
    }

    /// Logged [`Database::enable_multiple_inheritance`].
    pub fn enable_multiple_inheritance(&mut self) -> Result<(), StoreError> {
        self.logged(LogOp::EnableMultipleInheritance, |db| {
            db.enable_multiple_inheritance();
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::replay_log;
    use isis_core::BaseKind;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("isis_store_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn build_sample(db: &mut LoggedDatabase) -> (ClassId, ClassId, AttrId, EntityId, EntityId) {
        let m = db.create_baseclass("musicians").unwrap();
        let i = db.create_baseclass("instruments").unwrap();
        let plays = db
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let e = db.insert_entity(m, "Edith").unwrap();
        let v = db.insert_entity(i, "viola").unwrap();
        db.assign_multi(e, plays, [v]).unwrap();
        (m, i, plays, e, v)
    }

    /// A slot's generation comes from its sealed frame: a fallback that
    /// names generation 9 but holds an image that does not decode still
    /// counts as on disk.
    #[test]
    fn next_generation_reads_the_sealed_frame_without_decoding() {
        let root = tempdir("next_generation");
        let dir = StoreDir::open(&root).unwrap();
        let db = Database::new("N");
        std::fs::write(dir.snapshot_path("N"), snapshot_bytes_with_gen(&db, 3)).unwrap();
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.extend_from_slice(b"not an image");
        let mut undecodable = SNAPSHOT_MAGIC.to_vec();
        undecodable.extend_from_slice(&crate::codec::frame(&payload));
        assert!(read_snapshot_bytes_gen(&undecodable).is_err());
        std::fs::write(dir.fallback_path("N"), undecodable).unwrap();
        assert_eq!(dir.next_generation("N"), 10);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_save_load_roundtrip() {
        let root = tempdir("roundtrip");
        let dir = StoreDir::open(&root).unwrap();
        let mut im = isis_sample::instrumental_music().unwrap();
        im.db.int(4);
        dir.save(&im.db, "Instrumental_Music").unwrap();
        assert!(dir.exists("Instrumental_Music"));
        assert_eq!(dir.list().unwrap(), vec!["Instrumental_Music".to_string()]);
        let back = dir.load("Instrumental_Music").unwrap();
        assert_eq!(back.to_image(), im.db.to_image());
        // Saving under a new name (the session's "entertainment").
        dir.save(&back, "entertainment").unwrap();
        assert_eq!(dir.list().unwrap().len(), 2);
        dir.delete("entertainment").unwrap();
        assert!(!dir.exists("entertainment"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_missing_fails() {
        let root = tempdir("missing");
        let dir = StoreDir::open(&root).unwrap();
        assert!(matches!(dir.load("nope"), Err(StoreError::NotFound(_))));
        assert!(matches!(dir.delete("nope"), Err(StoreError::NotFound(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bad_names_rejected() {
        let root = tempdir("badname");
        let dir = StoreDir::open(&root).unwrap();
        let db = Database::new("x");
        assert!(matches!(dir.save(&db, ""), Err(StoreError::BadName(_))));
        assert!(matches!(
            dir.save(&db, "../evil"),
            Err(StoreError::BadName(_))
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_snapshot_detected() {
        let root = tempdir("corrupt");
        let dir = StoreDir::open(&root).unwrap();
        let db = Database::new("c");
        dir.save(&db, "c").unwrap();
        let path = root.join("c.isis");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(dir.load("c"), Err(StoreError::Codec(_))));
        // Bad magic.
        std::fs::write(&path, b"NOTADB").unwrap();
        assert!(matches!(
            dir.load("c"),
            Err(StoreError::Codec(CodecError::BadMagic))
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unsupported_snapshot_version_reported_as_such() {
        let db = Database::new("v");
        let mut bytes = write_snapshot_bytes(&db);
        bytes[6] = 0x7F;
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(StoreError::Codec(CodecError::BadVersion(0x7F)))
        ));
    }

    #[test]
    fn snapshot_generation_roundtrips() {
        let db = Database::new("g");
        let bytes = snapshot_bytes_with_gen(&db, 42);
        let (back, generation) = read_snapshot_bytes_gen(&bytes).unwrap();
        assert_eq!(generation, 42);
        assert_eq!(back.to_image(), db.to_image());
    }

    #[test]
    fn snapshot_bytes_are_magic_then_the_framed_generation_and_image() {
        let db = isis_sample::instrumental_music().unwrap().db;
        for generation in [0u64, 42] {
            let mut payload = generation.to_le_bytes().to_vec();
            payload.extend_from_slice(&crate::encode::encode_image(&db.to_image()));
            let mut want = SNAPSHOT_MAGIC.to_vec();
            want.extend_from_slice(&crate::codec::frame(&payload));
            assert_eq!(snapshot_bytes_with_gen(&db, generation), want);
        }
    }

    #[test]
    fn logged_database_recovers_after_crash() {
        let root = tempdir("crashrec");
        let dir = StoreDir::open(&root).unwrap();
        let image_before;
        {
            let mut db = dir.open_logged("work", SyncPolicy::EverySync).unwrap();
            build_sample(&mut db);
            let four = db.intern(Literal::Int(4)).unwrap();
            let m = db.database().class_by_name("musicians").unwrap();
            let ints = db.database().predefined(BaseKind::Integers);
            let age = db
                .create_attribute(m, "age", ints, Multiplicity::Single)
                .unwrap();
            let e = db.database().entity_by_name(m, "Edith").unwrap();
            db.assign_single(e, age, four).unwrap();
            image_before = db.database().to_image();
            // Simulate a crash: drop without checkpoint.
        }
        // Reopen: snapshot (empty) + log replay must reproduce the state.
        let recovered = dir.load("work").unwrap();
        assert_eq!(recovered.to_image(), image_before);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_truncates_log_and_persists() {
        let root = tempdir("ckpt");
        let dir = StoreDir::open(&root).unwrap();
        let mut db = dir.open_logged("work", SyncPolicy::OsFlush).unwrap();
        build_sample(&mut db);
        assert!(db.log_records() > 0);
        let gen_before = db.generation();
        db.checkpoint().unwrap();
        assert_eq!(db.log_records(), 0);
        assert_eq!(db.generation(), gen_before + 1);
        let image = db.database().to_image();
        drop(db);
        // The log holds only the new generation's header: no operations.
        let replay = replay_log(&root.join("work.wal")).unwrap();
        assert!(replay.ops.is_empty());
        assert!(!replay.torn_tail);
        assert_eq!(replay.snapshot_gen, Some(gen_before + 1));
        assert_eq!(dir.load("work").unwrap().to_image(), image);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_log_tail_loses_only_last_op() {
        let root = tempdir("tornlog");
        let dir = StoreDir::open(&root).unwrap();
        {
            let mut db = dir.open_logged("work", SyncPolicy::EverySync).unwrap();
            build_sample(&mut db);
        }
        // Tear the final record.
        let wal_path = root.join("work.wal");
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 2]).unwrap();
        let recovered = dir.load("work").unwrap();
        // Everything except the torn final assign_multi survived.
        let m = recovered.class_by_name("musicians").unwrap();
        let e = recovered.entity_by_name(m, "Edith").unwrap();
        let plays = recovered.attr_by_name(m, "plays").unwrap();
        assert!(recovered.attr_value_set(e, plays).unwrap().is_empty());
        assert!(recovered.is_consistent().unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_logged_folds_replay_into_snapshot() {
        let root = tempdir("fold");
        let dir = StoreDir::open(&root).unwrap();
        {
            let mut db = dir.open_logged("work", SyncPolicy::EverySync).unwrap();
            build_sample(&mut db);
        }
        // Second open folds the log into the snapshot and restarts it.
        let db2 = dir.open_logged("work", SyncPolicy::EverySync).unwrap();
        let replay = replay_log(&root.join("work.wal")).unwrap();
        assert!(replay.ops.is_empty());
        assert!(!replay.torn_tail);
        let m = db2.database().class_by_name("musicians").unwrap();
        assert!(db2.database().entity_by_name(m, "Edith").is_ok());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recover_falls_back_to_previous_generation() {
        let root = tempdir("fallback");
        let dir = StoreDir::open(&root).unwrap();
        let checkpointed_image;
        {
            let mut db = dir.open_logged("work", SyncPolicy::EverySync).unwrap();
            build_sample(&mut db);
            db.checkpoint().unwrap();
            checkpointed_image = db.database().to_image();
        }
        // The checkpoint rotated the open-time snapshot into the fallback
        // slot. Corrupt the newest generation.
        let snap = root.join("work.isis");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        let (db, report) = dir.recover("work").unwrap();
        assert!(report.used_fallback);
        assert_eq!(report.snapshot_errors.len(), 1);
        // The stale (empty) log of the new generation was skipped; the
        // fallback is the open-time fold, i.e. the pre-build_sample state.
        assert!(db.is_consistent().unwrap());
        assert!(!report.is_pristine());
        // Reopening heals the newest slot: a fresh fold replaces the
        // corrupt file, after which recovery is pristine again.
        drop(dir.open_logged("work", SyncPolicy::EverySync).unwrap());
        let (healed, report2) = dir.recover("work").unwrap();
        assert!(report2.is_pristine());
        assert!(healed.is_consistent().unwrap());
        let _ = checkpointed_image;
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_wal_is_skipped_after_save() {
        let root = tempdir("stale");
        let dir = StoreDir::open(&root).unwrap();
        {
            let mut db = dir.open_logged("work", SyncPolicy::EverySync).unwrap();
            build_sample(&mut db);
        }
        // Keep the old log around; save a fresh database over the name.
        let wal = std::fs::read(root.join("work.wal")).unwrap();
        let fresh = Database::new("work");
        dir.save(&fresh, "work").unwrap();
        std::fs::write(root.join("work.wal"), &wal).unwrap();
        // The resurrected log names the old generation: skipped, reported.
        let (db, report) = dir.recover("work").unwrap();
        assert!(report.wal_stale);
        assert_eq!(report.wal_records_replayed, 0);
        assert_eq!(db.to_image(), fresh.to_image());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejected_ops_are_not_logged() {
        let root = tempdir("reject");
        let dir = StoreDir::open(&root).unwrap();
        let mut db = dir.open_logged("work", SyncPolicy::EverySync).unwrap();
        db.create_baseclass("musicians").unwrap();
        let before = db.log_records();
        assert!(db.create_baseclass("musicians").is_err());
        assert_eq!(db.log_records(), before);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
