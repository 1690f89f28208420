//! The write-ahead log: a durable stream of logical operations.
//!
//! Every mutation of a [`LoggedDatabase`](crate::LoggedDatabase) is encoded
//! as a [`LogOp`] and appended as a CRC-framed record *after* being applied
//! in memory (the in-memory engine validates; only validated operations
//! reach the log, so replay can never fail on well-formed files). Replay of
//! `snapshot + log` reproduces the database state exactly, because every
//! id-allocating operation (including literal interning) is logged in order.
//!
//! A torn final record — the classic crash during append — is detected by
//! its checksum/length and discarded on open. Replay can also run in
//! *salvage* mode ([`replay_with`]): instead of stopping at the first
//! corrupt mid-log record it scans forward, byte by byte, to the next
//! position where a whole frame checksums *and* decodes, and resumes there
//! — reporting how many bytes it skipped so recovery can tell the user.
//!
//! A log segment opened by a [`StoreDir`](crate::StoreDir) begins with a
//! header record naming the *snapshot generation* it extends. On recovery
//! the log is replayed only when its header generation matches the snapshot
//! actually loaded; a crash between installing a new snapshot and resetting
//! the log can therefore never double-apply old operations. Headerless logs
//! (standalone [`WalFile`] use, pre-generation files) replay
//! unconditionally, as before.
//!
//! All file I/O goes through the [`Vfs`] trait, so the
//! crash-consistency suite can inject faults at every byte boundary.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use isis_core::{
    AttrDerivation, AttrId, ClassId, ConstraintId, ConstraintKind, Database, EntityId, GroupingId,
    Literal, Multiplicity, Predicate, ValueClassSpec,
};

use crate::codec::{frame, read_frame, CodecError, Reader, Writer};
use crate::encode::{r_map, r_predicate, w_map, w_predicate};
use crate::error::StoreError;
use crate::vfs::{StdVfs, Vfs};

/// A logical, replayable database operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// `create_baseclass(name)`.
    CreateBaseclass(String),
    /// `create_subclass(parent, name)`.
    CreateSubclass(ClassId, String),
    /// `create_derived_subclass(parent, name)`.
    CreateDerivedSubclass(ClassId, String),
    /// `rename_class(class, name)`.
    RenameClass(ClassId, String),
    /// `delete_class(class)`.
    DeleteClass(ClassId),
    /// `create_attribute(class, name, value_class, multiplicity)`.
    CreateAttribute(ClassId, String, ValueClassSpec, Multiplicity),
    /// `rename_attr(attr, name)`.
    RenameAttr(AttrId, String),
    /// `respecify_value_class(attr, value_class)`.
    RespecifyValueClass(AttrId, ValueClassSpec),
    /// `delete_attr(attr)`.
    DeleteAttr(AttrId),
    /// `create_grouping(parent, name, attr)`.
    CreateGrouping(ClassId, String, AttrId),
    /// `rename_grouping(grouping, name)`.
    RenameGrouping(GroupingId, String),
    /// `delete_grouping(grouping)`.
    DeleteGrouping(GroupingId),
    /// `insert_entity(base, name)`.
    InsertEntity(ClassId, String),
    /// `intern(literal)`.
    Intern(Literal),
    /// `add_to_class(entity, class)`.
    AddToClass(EntityId, ClassId),
    /// `remove_from_class(entity, class)`.
    RemoveFromClass(EntityId, ClassId),
    /// `delete_entity(entity)`.
    DeleteEntity(EntityId),
    /// `rename_entity(entity, name)`.
    RenameEntity(EntityId, String),
    /// `assign_single(entity, attr, value)`.
    AssignSingle(EntityId, AttrId, EntityId),
    /// `assign_multi(entity, attr, values)`.
    AssignMulti(EntityId, AttrId, Vec<EntityId>),
    /// `add_value(entity, attr, value)`.
    AddValue(EntityId, AttrId, EntityId),
    /// `unassign(entity, attr)`.
    Unassign(EntityId, AttrId),
    /// `commit_membership(class, predicate)`.
    CommitMembership(ClassId, Predicate),
    /// `refresh_derived_class(class)`.
    RefreshDerivedClass(ClassId),
    /// `commit_derivation(attr, derivation)`.
    CommitDerivation(AttrId, AttrDerivation),
    /// `refresh_derived_attr(attr)`.
    RefreshDerivedAttr(AttrId),
    /// `enable_multiple_inheritance()`.
    EnableMultipleInheritance,
    /// `add_secondary_parent(class, parent)`.
    AddSecondaryParent(ClassId, ClassId),
    /// `create_constraint(name, class, predicate, kind)`.
    CreateConstraint(String, ClassId, Predicate, ConstraintKind),
    /// `delete_constraint(id)`.
    DeleteConstraint(ConstraintId),
    /// One MVCC commit's operations, framed as a single atomic record:
    /// a torn tail or checksum failure discards the *whole* commit, so
    /// recovery can never observe half of one. Batches never nest.
    CommitBatch(Vec<LogOp>),
}

impl LogOp {
    /// Applies the operation to a database, returning the engine error if
    /// the operation is rejected.
    pub fn apply(&self, db: &mut Database) -> Result<(), isis_core::CoreError> {
        match self {
            LogOp::CreateBaseclass(n) => db.create_baseclass(n).map(|_| ()),
            LogOp::CreateSubclass(p, n) => db.create_subclass(*p, n).map(|_| ()),
            LogOp::CreateDerivedSubclass(p, n) => db.create_derived_subclass(*p, n).map(|_| ()),
            LogOp::RenameClass(c, n) => db.rename_class(*c, n).map(|_| ()),
            LogOp::DeleteClass(c) => db.delete_class(*c).map(|_| ()),
            LogOp::CreateAttribute(c, n, vc, m) => db.create_attribute(*c, n, *vc, *m).map(|_| ()),
            LogOp::RenameAttr(a, n) => db.rename_attr(*a, n).map(|_| ()),
            LogOp::RespecifyValueClass(a, vc) => db.respecify_value_class(*a, *vc).map(|_| ()),
            LogOp::DeleteAttr(a) => db.delete_attr(*a).map(|_| ()),
            LogOp::CreateGrouping(p, n, a) => db.create_grouping(*p, n, *a).map(|_| ()),
            LogOp::RenameGrouping(g, n) => db.rename_grouping(*g, n).map(|_| ()),
            LogOp::DeleteGrouping(g) => db.delete_grouping(*g).map(|_| ()),
            LogOp::InsertEntity(b, n) => db.insert_entity(*b, n).map(|_| ()),
            LogOp::Intern(l) => db.intern(l.clone()).map(|_| ()),
            LogOp::AddToClass(e, c) => db.add_to_class(*e, *c).map(|_| ()),
            LogOp::RemoveFromClass(e, c) => db.remove_from_class(*e, *c).map(|_| ()),
            LogOp::DeleteEntity(e) => db.delete_entity(*e).map(|_| ()),
            LogOp::RenameEntity(e, n) => db.rename_entity(*e, n).map(|_| ()),
            LogOp::AssignSingle(e, a, v) => db.assign_single(*e, *a, *v).map(|_| ()),
            LogOp::AssignMulti(e, a, vs) => db.assign_multi(*e, *a, vs.iter().copied()).map(|_| ()),
            LogOp::AddValue(e, a, v) => db.add_value(*e, *a, *v).map(|_| ()),
            LogOp::Unassign(e, a) => db.unassign(*e, *a).map(|_| ()),
            LogOp::CommitMembership(c, p) => db.commit_membership(*c, p.clone()).map(|_| ()),
            LogOp::RefreshDerivedClass(c) => db.refresh_derived_class(*c).map(|_| ()),
            LogOp::CommitDerivation(a, d) => db.commit_derivation(*a, d.clone()).map(|_| ()),
            LogOp::RefreshDerivedAttr(a) => db.refresh_derived_attr(*a).map(|_| ()),
            LogOp::EnableMultipleInheritance => {
                db.enable_multiple_inheritance();
                Ok(())
            }
            LogOp::AddSecondaryParent(c, p) => db.add_secondary_parent(*c, *p).map(|_| ()),
            LogOp::CreateConstraint(n, c, p, k) => {
                db.create_constraint(n, *c, p.clone(), *k).map(|_| ())
            }
            LogOp::DeleteConstraint(id) => db.delete_constraint(*id),
            LogOp::CommitBatch(ops) => {
                for op in ops {
                    op.apply(db)?;
                }
                Ok(())
            }
        }
    }

    /// Encodes the operation into bytes (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let wc = |w: &mut Writer, c: &ClassId| w.u32(c.raw());
        let wa = |w: &mut Writer, a: &AttrId| w.u32(a.raw());
        let wg = |w: &mut Writer, g: &GroupingId| w.u32(g.raw());
        let we = |w: &mut Writer, e: &EntityId| w.u32(e.raw());
        let wvc = |w: &mut Writer, vc: &ValueClassSpec| match vc {
            ValueClassSpec::Class(c) => {
                w.u8(0);
                w.u32(c.raw());
            }
            ValueClassSpec::Grouping(g) => {
                w.u8(1);
                w.u32(g.raw());
            }
        };
        match self {
            LogOp::CreateBaseclass(n) => {
                w.u8(0);
                w.string(n);
            }
            LogOp::CreateSubclass(p, n) => {
                w.u8(1);
                wc(&mut w, p);
                w.string(n);
            }
            LogOp::CreateDerivedSubclass(p, n) => {
                w.u8(2);
                wc(&mut w, p);
                w.string(n);
            }
            LogOp::RenameClass(c, n) => {
                w.u8(3);
                wc(&mut w, c);
                w.string(n);
            }
            LogOp::DeleteClass(c) => {
                w.u8(4);
                wc(&mut w, c);
            }
            LogOp::CreateAttribute(c, n, vc, m) => {
                w.u8(5);
                wc(&mut w, c);
                w.string(n);
                wvc(&mut w, vc);
                w.boolean(*m == Multiplicity::Multi);
            }
            LogOp::RenameAttr(a, n) => {
                w.u8(6);
                wa(&mut w, a);
                w.string(n);
            }
            LogOp::RespecifyValueClass(a, vc) => {
                w.u8(7);
                wa(&mut w, a);
                wvc(&mut w, vc);
            }
            LogOp::DeleteAttr(a) => {
                w.u8(8);
                wa(&mut w, a);
            }
            LogOp::CreateGrouping(p, n, a) => {
                w.u8(9);
                wc(&mut w, p);
                w.string(n);
                wa(&mut w, a);
            }
            LogOp::RenameGrouping(g, n) => {
                w.u8(10);
                wg(&mut w, g);
                w.string(n);
            }
            LogOp::DeleteGrouping(g) => {
                w.u8(11);
                wg(&mut w, g);
            }
            LogOp::InsertEntity(b, n) => {
                w.u8(12);
                wc(&mut w, b);
                w.string(n);
            }
            LogOp::Intern(l) => {
                w.u8(13);
                match l {
                    Literal::Str(s) => {
                        w.u8(0);
                        w.string(s);
                    }
                    Literal::Int(i) => {
                        w.u8(1);
                        w.i64(*i);
                    }
                    Literal::Real(x) => {
                        w.u8(2);
                        w.f64(*x);
                    }
                    Literal::Bool(b) => {
                        w.u8(3);
                        w.boolean(*b);
                    }
                }
            }
            LogOp::AddToClass(e, c) => {
                w.u8(14);
                we(&mut w, e);
                wc(&mut w, c);
            }
            LogOp::RemoveFromClass(e, c) => {
                w.u8(15);
                we(&mut w, e);
                wc(&mut w, c);
            }
            LogOp::DeleteEntity(e) => {
                w.u8(16);
                we(&mut w, e);
            }
            LogOp::RenameEntity(e, n) => {
                w.u8(17);
                we(&mut w, e);
                w.string(n);
            }
            LogOp::AssignSingle(e, a, v) => {
                w.u8(18);
                we(&mut w, e);
                wa(&mut w, a);
                we(&mut w, v);
            }
            LogOp::AssignMulti(e, a, vs) => {
                w.u8(19);
                we(&mut w, e);
                wa(&mut w, a);
                w.seq(vs, |w, v| w.u32(v.raw()));
            }
            LogOp::AddValue(e, a, v) => {
                w.u8(20);
                we(&mut w, e);
                wa(&mut w, a);
                we(&mut w, v);
            }
            LogOp::Unassign(e, a) => {
                w.u8(21);
                we(&mut w, e);
                wa(&mut w, a);
            }
            LogOp::CommitMembership(c, p) => {
                w.u8(22);
                wc(&mut w, c);
                w_predicate(&mut w, p);
            }
            LogOp::RefreshDerivedClass(c) => {
                w.u8(23);
                wc(&mut w, c);
            }
            LogOp::CommitDerivation(a, d) => {
                w.u8(24);
                wa(&mut w, a);
                match d {
                    AttrDerivation::Assign(m) => {
                        w.u8(0);
                        w_map(&mut w, m);
                    }
                    AttrDerivation::Predicate(p) => {
                        w.u8(1);
                        w_predicate(&mut w, p);
                    }
                }
            }
            LogOp::RefreshDerivedAttr(a) => {
                w.u8(25);
                wa(&mut w, a);
            }
            LogOp::EnableMultipleInheritance => {
                w.u8(26);
            }
            LogOp::AddSecondaryParent(c, p) => {
                w.u8(27);
                wc(&mut w, c);
                wc(&mut w, p);
            }
            LogOp::CreateConstraint(n, c, p, k) => {
                w.u8(28);
                w.string(n);
                wc(&mut w, c);
                w_predicate(&mut w, p);
                w.u8(match k {
                    ConstraintKind::ForAll => 0,
                    ConstraintKind::Forbidden => 1,
                });
            }
            LogOp::DeleteConstraint(id) => {
                w.u8(29);
                w.u32(id.raw());
            }
            LogOp::CommitBatch(ops) => {
                w.u8(30);
                w.seq(ops, |w, op| w.bytes_field(&op.encode()));
            }
        }
        w.into_bytes()
    }

    /// Decodes one operation.
    pub fn decode(bytes: &[u8]) -> Result<LogOp, CodecError> {
        let mut r = Reader::new(bytes);
        let rc =
            |r: &mut Reader| -> Result<ClassId, CodecError> { Ok(ClassId::from_raw(r.u32()?)) };
        let ra = |r: &mut Reader| -> Result<AttrId, CodecError> { Ok(AttrId::from_raw(r.u32()?)) };
        let rg = |r: &mut Reader| -> Result<GroupingId, CodecError> {
            Ok(GroupingId::from_raw(r.u32()?))
        };
        let re =
            |r: &mut Reader| -> Result<EntityId, CodecError> { Ok(EntityId::from_raw(r.u32()?)) };
        let rvc = |r: &mut Reader| -> Result<ValueClassSpec, CodecError> {
            Ok(match r.u8()? {
                0 => ValueClassSpec::Class(ClassId::from_raw(r.u32()?)),
                1 => ValueClassSpec::Grouping(GroupingId::from_raw(r.u32()?)),
                t => return Err(CodecError::Corrupt(format!("value class tag {t}"))),
            })
        };
        let op = match r.u8()? {
            0 => LogOp::CreateBaseclass(r.string()?),
            1 => LogOp::CreateSubclass(rc(&mut r)?, r.string()?),
            2 => LogOp::CreateDerivedSubclass(rc(&mut r)?, r.string()?),
            3 => LogOp::RenameClass(rc(&mut r)?, r.string()?),
            4 => LogOp::DeleteClass(rc(&mut r)?),
            5 => {
                let c = rc(&mut r)?;
                let n = r.string()?;
                let vc = rvc(&mut r)?;
                let m = if r.boolean()? {
                    Multiplicity::Multi
                } else {
                    Multiplicity::Single
                };
                LogOp::CreateAttribute(c, n, vc, m)
            }
            6 => LogOp::RenameAttr(ra(&mut r)?, r.string()?),
            7 => LogOp::RespecifyValueClass(ra(&mut r)?, rvc(&mut r)?),
            8 => LogOp::DeleteAttr(ra(&mut r)?),
            9 => LogOp::CreateGrouping(rc(&mut r)?, r.string()?, ra(&mut r)?),
            10 => LogOp::RenameGrouping(rg(&mut r)?, r.string()?),
            11 => LogOp::DeleteGrouping(rg(&mut r)?),
            12 => LogOp::InsertEntity(rc(&mut r)?, r.string()?),
            13 => LogOp::Intern(match r.u8()? {
                0 => Literal::Str(r.string()?),
                1 => Literal::Int(r.i64()?),
                2 => Literal::Real(r.f64()?),
                3 => Literal::Bool(r.boolean()?),
                t => return Err(CodecError::Corrupt(format!("literal tag {t}"))),
            }),
            14 => LogOp::AddToClass(re(&mut r)?, rc(&mut r)?),
            15 => LogOp::RemoveFromClass(re(&mut r)?, rc(&mut r)?),
            16 => LogOp::DeleteEntity(re(&mut r)?),
            17 => LogOp::RenameEntity(re(&mut r)?, r.string()?),
            18 => LogOp::AssignSingle(re(&mut r)?, ra(&mut r)?, re(&mut r)?),
            19 => {
                let e = re(&mut r)?;
                let a = ra(&mut r)?;
                let vs = r.seq(|r| Ok(EntityId::from_raw(r.u32()?)))?;
                LogOp::AssignMulti(e, a, vs)
            }
            20 => LogOp::AddValue(re(&mut r)?, ra(&mut r)?, re(&mut r)?),
            21 => LogOp::Unassign(re(&mut r)?, ra(&mut r)?),
            22 => LogOp::CommitMembership(rc(&mut r)?, r_predicate(&mut r)?),
            23 => LogOp::RefreshDerivedClass(rc(&mut r)?),
            24 => {
                let a = ra(&mut r)?;
                let d = match r.u8()? {
                    0 => AttrDerivation::Assign(r_map(&mut r)?),
                    1 => AttrDerivation::Predicate(r_predicate(&mut r)?),
                    t => return Err(CodecError::Corrupt(format!("derivation tag {t}"))),
                };
                LogOp::CommitDerivation(a, d)
            }
            25 => LogOp::RefreshDerivedAttr(ra(&mut r)?),
            26 => LogOp::EnableMultipleInheritance,
            27 => LogOp::AddSecondaryParent(rc(&mut r)?, rc(&mut r)?),
            28 => {
                let n = r.string()?;
                let c = rc(&mut r)?;
                let p = r_predicate(&mut r)?;
                let k = match r.u8()? {
                    0 => ConstraintKind::ForAll,
                    1 => ConstraintKind::Forbidden,
                    t => return Err(CodecError::Corrupt(format!("constraint kind tag {t}"))),
                };
                LogOp::CreateConstraint(n, c, p, k)
            }
            29 => LogOp::DeleteConstraint(ConstraintId::from_raw(r.u32()?)),
            30 => {
                let ops = r.seq(|r| {
                    let bytes = r.bytes_field()?;
                    // Reject nesting *before* recursing so hostile input
                    // cannot drive the decoder arbitrarily deep.
                    if bytes.first() == Some(&30) {
                        return Err(CodecError::Corrupt("nested commit batch".into()));
                    }
                    LogOp::decode(bytes)
                })?;
                LogOp::CommitBatch(ops)
            }
            t => return Err(CodecError::Corrupt(format!("log op tag {t}"))),
        };
        if !r.is_at_end() {
            return Err(CodecError::Corrupt("trailing bytes after log op".into()));
        }
        Ok(op)
    }
}

/// Durability policy for the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every append (durable to the last operation).
    EverySync,
    /// Let the OS flush; `fsync` only at checkpoints. Faster, may lose a
    /// suffix of operations on power failure (never corrupts: torn tails
    /// are discarded on open).
    #[default]
    OsFlush,
}

/// Magic bytes at the start of a WAL segment header record's payload.
/// The header frame's payload is these 8 bytes followed by the u64 (LE)
/// snapshot generation the segment extends.
pub const WAL_HEADER_MAGIC: &[u8; 8] = b"ISISWAL\x01";

fn header_frame(generation: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(WAL_HEADER_MAGIC);
    payload.extend_from_slice(&generation.to_le_bytes());
    frame(&payload)
}

fn parse_header(payload: &[u8]) -> Option<u64> {
    if payload.len() != 16 || &payload[..8] != WAL_HEADER_MAGIC {
        return None;
    }
    let mut gen8 = [0u8; 8];
    gen8.copy_from_slice(&payload[8..16]);
    Some(u64::from_le_bytes(gen8))
}

/// An append-only write-ahead log file.
#[derive(Debug)]
pub struct WalFile {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    policy: SyncPolicy,
    records: usize,
}

impl WalFile {
    /// Opens (creating if needed) the log at `path` for appending, on the
    /// real filesystem.
    pub fn open(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<WalFile, StoreError> {
        WalFile::open_with(Arc::new(StdVfs::new()), path, policy)
    }

    /// Opens (creating if needed) the log at `path` through an explicit
    /// [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        policy: SyncPolicy,
    ) -> Result<WalFile, StoreError> {
        let path = path.into();
        if !vfs.exists(&path) {
            vfs.append(&path, &[])?;
        }
        Ok(WalFile {
            vfs,
            path,
            policy,
            records: 0,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The durability policy the log was opened with.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Records appended through this handle.
    pub fn appended_records(&self) -> usize {
        self.records
    }

    /// Appends one operation.
    pub fn append(&mut self, op: &LogOp) -> Result<(), StoreError> {
        let obs = isis_obs::global();
        let span = obs.span("store.wal.append_ns");
        let framed = frame(&op.encode());
        self.vfs.append(&self.path, &framed)?;
        if self.policy == SyncPolicy::EverySync {
            self.vfs.sync_file(&self.path)?;
        }
        self.records += 1;
        drop(span);
        obs.count("store.wal.appends", 1);
        obs.count("store.wal.append_bytes", framed.len() as u64);
        Ok(())
    }

    /// Current byte length of the log file — a rollback mark for
    /// [`WalFile::rewind_to`].
    pub(crate) fn len(&self) -> Result<u64, StoreError> {
        Ok(self.vfs.file_len(&self.path)?)
    }

    /// Rewinds the file to `len` bytes and makes the rewind durable,
    /// discarding a failed append so recovery can never replay a record
    /// whose write was reported as failed. Uses [`Vfs::truncate_to`]
    /// (all-or-nothing `set_len` semantics) rather than rewriting the
    /// retained prefix: a rewrite that failed partway would destroy
    /// records that were already acknowledged as durable.
    pub(crate) fn rewind_to(&mut self, len: u64) -> Result<(), StoreError> {
        if self.vfs.file_len(&self.path)? > len {
            self.vfs.truncate_to(&self.path, len)?;
        } else {
            self.vfs.sync_file(&self.path)?;
        }
        Ok(())
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let obs = isis_obs::global();
        let _span = obs.span("store.wal.fsync_ns");
        obs.count("store.wal.fsyncs", 1);
        self.vfs.sync_file(&self.path)?;
        Ok(())
    }

    /// Starts a fresh log segment extending snapshot `generation`: truncates
    /// the log, writes the generation header record, and makes it durable.
    /// On recovery the segment replays only onto that exact generation.
    pub fn reset(&mut self, generation: u64) -> Result<(), StoreError> {
        self.vfs.truncate(&self.path)?;
        self.records = 0;
        self.vfs.append(&self.path, &header_frame(generation))?;
        self.vfs.sync_file(&self.path)?;
        Ok(())
    }
}

/// The outcome of replaying a log file.
#[derive(Debug)]
pub struct Replay {
    /// Operations recovered, in order.
    pub ops: Vec<LogOp>,
    /// Bytes consumed as valid frames (header record included).
    pub valid_bytes: usize,
    /// `true` if a torn/corrupt tail was discarded.
    pub torn_tail: bool,
    /// The snapshot generation named by the segment header, or `None` for
    /// a headerless (standalone / pre-generation) log, which replays
    /// unconditionally.
    pub snapshot_gen: Option<u64>,
    /// Bytes skipped by salvage resynchronisation (0 in strict mode).
    pub skipped_bytes: usize,
    /// Number of corrupt regions salvage scanned past (0 in strict mode).
    pub resyncs: usize,
}

impl Replay {
    /// `true` unless the segment's header names a generation other than
    /// `generation`: a log replays only onto its own snapshot, and a
    /// headerless log onto any.
    pub(crate) fn extends(&self, generation: u64) -> bool {
        self.snapshot_gen.is_none_or(|g| g == generation)
    }

    fn empty() -> Replay {
        Replay {
            ops: Vec::new(),
            valid_bytes: 0,
            torn_tail: false,
            snapshot_gen: None,
            skipped_bytes: 0,
            resyncs: 0,
        }
    }
}

/// The first position at or after `from` where a complete frame checksums
/// and decodes as a [`LogOp`].
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len()).find(
        |&q| matches!(read_frame(&bytes[q..]), Ok((payload, _)) if LogOp::decode(payload).is_ok()),
    )
}

/// Reads a log file, returning every valid operation up to the first torn
/// or corrupt record (which a crash during append can legitimately leave).
pub fn replay_log(path: &Path) -> Result<Replay, StoreError> {
    replay_with(&StdVfs::new(), path, false)
}

/// Reads a log file through a [`Vfs`]. In strict mode (`salvage == false`)
/// replay stops at the first torn or corrupt record, exactly like
/// [`replay_log`]. In salvage mode a corrupt mid-log region is scanned past
/// to the next whole, decodable frame; the skipped byte count and resync
/// count are reported so callers can surface the loss.
pub fn replay_with(vfs: &dyn Vfs, path: &Path, salvage: bool) -> Result<Replay, StoreError> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::empty()),
        Err(e) => return Err(e.into()),
    };
    let mut replay = Replay::empty();
    let mut pos = 0;
    // A generation header is recognised only as the segment's first record.
    if let Ok((payload, consumed)) = read_frame(&bytes) {
        if let Some(generation) = parse_header(payload) {
            replay.snapshot_gen = Some(generation);
            pos = consumed;
            replay.valid_bytes = consumed;
        }
    }
    while pos < bytes.len() {
        let ok = match read_frame(&bytes[pos..]) {
            Ok((payload, consumed)) => match LogOp::decode(payload) {
                Ok(op) => {
                    replay.ops.push(op);
                    pos += consumed;
                    replay.valid_bytes += consumed;
                    true
                }
                Err(_) => false,
            },
            Err(_) => false,
        };
        if !ok {
            if salvage {
                if let Some(next) = resync(&bytes, pos + 1) {
                    replay.skipped_bytes += next - pos;
                    replay.resyncs += 1;
                    pos = next;
                    continue;
                }
            }
            replay.torn_tail = true;
            break;
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::Database;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("isis_wal_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_ops() -> Vec<LogOp> {
        vec![
            LogOp::CreateBaseclass("musicians".into()),
            LogOp::CreateBaseclass("instruments".into()),
            LogOp::CreateAttribute(
                ClassId::from_raw(4),
                "plays".into(),
                ValueClassSpec::Class(ClassId::from_raw(5)),
                Multiplicity::Multi,
            ),
            LogOp::InsertEntity(ClassId::from_raw(4), "Edith".into()),
            LogOp::InsertEntity(ClassId::from_raw(5), "viola".into()),
            LogOp::Intern(Literal::Int(4)),
            LogOp::Intern(Literal::Bool(true)),
            LogOp::Intern(Literal::Real(2.5)),
            LogOp::Intern(Literal::Str("x".into())),
        ]
    }

    #[test]
    fn op_encode_roundtrip() {
        for op in sample_ops() {
            let bytes = op.encode();
            assert_eq!(LogOp::decode(&bytes).unwrap(), op);
        }
        // Some more exotic ops.
        let ops = vec![
            LogOp::CommitMembership(ClassId::from_raw(9), Predicate::always_true()),
            LogOp::CommitDerivation(
                AttrId::from_raw(3),
                AttrDerivation::Assign(isis_core::Map::new(vec![AttrId::from_raw(1)])),
            ),
            LogOp::AssignMulti(
                EntityId::from_raw(1),
                AttrId::from_raw(2),
                vec![EntityId::from_raw(3), EntityId::from_raw(4)],
            ),
            LogOp::EnableMultipleInheritance,
            LogOp::AddSecondaryParent(ClassId::from_raw(5), ClassId::from_raw(6)),
        ];
        for op in ops {
            assert_eq!(LogOp::decode(&op.encode()).unwrap(), op);
        }
    }

    #[test]
    fn decode_rejects_bad_tags_and_trailing() {
        assert!(LogOp::decode(&[200]).is_err());
        let mut bytes = LogOp::EnableMultipleInheritance.encode();
        bytes.push(0);
        assert!(LogOp::decode(&bytes).is_err());
    }

    #[test]
    fn commit_batch_roundtrips_and_rejects_nesting() {
        let batch = LogOp::CommitBatch(sample_ops());
        assert_eq!(LogOp::decode(&batch.encode()).unwrap(), batch);
        assert_eq!(
            LogOp::decode(&LogOp::CommitBatch(Vec::new()).encode()).unwrap(),
            LogOp::CommitBatch(Vec::new())
        );
        let nested = LogOp::CommitBatch(vec![LogOp::CommitBatch(sample_ops())]);
        assert!(LogOp::decode(&nested.encode()).is_err());
    }

    #[test]
    fn commit_batch_applies_atomically_through_replay() {
        let dir = tempdir("batch");
        let path = dir.join("batch.wal");
        let mut wal = WalFile::open(&path, SyncPolicy::EverySync).unwrap();
        wal.append(&LogOp::CommitBatch(vec![
            LogOp::CreateBaseclass("musicians".into()),
            LogOp::InsertEntity(ClassId::from_raw(4), "Edith".into()),
        ]))
        .unwrap();
        drop(wal);
        let replay = replay_log(&path).unwrap();
        assert_eq!(replay.ops.len(), 1);
        let mut db = Database::new("batch");
        for op in &replay.ops {
            op.apply(&mut db).unwrap();
        }
        let musicians = db.class_by_name("musicians").unwrap();
        assert!(db.entity_by_name(musicians, "Edith").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_and_replay() {
        let dir = tempdir("append");
        let path = dir.join("test.wal");
        let mut wal = WalFile::open(&path, SyncPolicy::EverySync).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        assert_eq!(wal.appended_records(), sample_ops().len());
        drop(wal);
        let replay = replay_log(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.ops, sample_ops());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_discarded() {
        let dir = tempdir("torn");
        let path = dir.join("torn.wal");
        let mut wal = WalFile::open(&path, SyncPolicy::OsFlush).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        // Chop a few bytes off the end: the last record becomes torn.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replay = replay_log(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.ops.len(), sample_ops().len() - 1);
        // Corrupt a middle byte: everything after it is discarded.
        let mut bytes2 = bytes.clone();
        bytes2[10] ^= 0xFF;
        std::fs::write(&path, &bytes2).unwrap();
        let replay2 = replay_log(&path).unwrap();
        assert!(replay2.torn_tail);
        assert!(replay2.ops.len() < sample_ops().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = tempdir("missing");
        let replay = replay_log(&dir.join("nope.wal")).unwrap();
        assert!(replay.ops.is_empty());
        assert!(!replay.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ops_apply_like_direct_calls() {
        let mut direct = Database::new("d");
        let m = direct.create_baseclass("musicians").unwrap();
        let i = direct.create_baseclass("instruments").unwrap();
        let plays = direct
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let e = direct.insert_entity(m, "Edith").unwrap();
        let v = direct.insert_entity(i, "viola").unwrap();
        direct.assign_multi(e, plays, [v]).unwrap();
        direct.int(4);

        let mut replayed = Database::new("d");
        for op in [
            LogOp::CreateBaseclass("musicians".into()),
            LogOp::CreateBaseclass("instruments".into()),
            LogOp::CreateAttribute(
                m,
                "plays".into(),
                ValueClassSpec::Class(i),
                Multiplicity::Multi,
            ),
            LogOp::InsertEntity(m, "Edith".into()),
            LogOp::InsertEntity(i, "viola".into()),
            LogOp::AssignMulti(e, plays, vec![v]),
            LogOp::Intern(Literal::Int(4)),
        ] {
            op.apply(&mut replayed).unwrap();
        }
        assert_eq!(direct.to_image(), replayed.to_image());
    }

    #[test]
    fn intern_literal_tag_4_is_corrupt() {
        assert!(LogOp::decode(&[13u8, 4]).is_err());
    }

    #[test]
    fn reset_writes_generation_header() {
        let dir = tempdir("reset");
        let path = dir.join("g.wal");
        let mut wal = WalFile::open(&path, SyncPolicy::EverySync).unwrap();
        wal.reset(7).unwrap();
        wal.append(&LogOp::CreateBaseclass("x".into())).unwrap();
        let replay = replay_log(&path).unwrap();
        assert_eq!(replay.snapshot_gen, Some(7));
        assert_eq!(replay.ops, vec![LogOp::CreateBaseclass("x".into())]);
        assert!(!replay.torn_tail);
        // Resetting again starts a fresh segment under the new generation.
        wal.reset(8).unwrap();
        let replay = replay_log(&path).unwrap();
        assert_eq!(replay.snapshot_gen, Some(8));
        assert!(replay.ops.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_resyncs_past_mid_log_corruption() {
        let dir = tempdir("salvage");
        let path = dir.join("s.wal");
        let ops = sample_ops();
        {
            let mut wal = WalFile::open(&path, SyncPolicy::OsFlush).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        // Flip a payload bit inside the third record.
        let mut bytes = std::fs::read(&path).unwrap();
        let skip: usize = ops[..2].iter().map(|op| op.encode().len() + 8).sum();
        bytes[skip + 8] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        // Strict replay stops at the corruption.
        let strict = replay_log(&path).unwrap();
        assert!(strict.torn_tail);
        assert_eq!(strict.ops, &ops[..2]);
        // Salvage skips exactly the corrupted record and resumes.
        let vfs = StdVfs::new();
        let salvaged = replay_with(&vfs, &path, true).unwrap();
        assert!(!salvaged.torn_tail);
        assert_eq!(salvaged.resyncs, 1);
        assert_eq!(salvaged.skipped_bytes, ops[2].encode().len() + 8);
        let mut expect = ops.clone();
        expect.remove(2);
        assert_eq!(salvaged.ops, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
