//! # isis-store
//!
//! The persistence substrate for the ISIS reproduction — the machinery
//! behind the session's "he saves this new database as *entertainment*"
//! (§4.2), grown into a small storage engine a library user can rely on:
//!
//! * [`codec`] — an explicit, versioned binary codec with CRC32 frames;
//! * [`encode`] — byte layouts for database images and predicates;
//! * [`vfs`] — a virtual filesystem trait all I/O goes through, with a
//!   durable [`StdVfs`] and a deterministic fault-injecting [`FaultVfs`];
//! * snapshots (`N.isis`) written atomically and durably (temp-file,
//!   fsync, rename, directory fsync), with the previous generation kept
//!   as a fallback (`N.isis.1`);
//! * a write-ahead log (`N.wal`) of logical operations with torn-tail
//!   detection, a generation header tying it to its snapshot, and a
//!   salvage mode that resynchronises past mid-log corruption;
//! * [`recovery`] — multi-generation recovery with a structured
//!   [`RecoveryReport`] and an `fsck`-style verification pass, over the
//!   one reader of a database's snapshot generations;
//! * [`StoreDir`] — a directory of named databases (list / save / load /
//!   delete), and [`LoggedDatabase`] — a database handle whose mutations
//!   are WAL-durable with crash-safe [`LoggedDatabase::checkpoint`]
//!   compaction;
//! * [`replication`] — primary→replica log shipping over WAL commit
//!   frames: [`ReplicationLog`] serves frames and resync checkpoints,
//!   [`Replica`] replays them into its own durable directory and shared
//!   head, with explicit lag accounting in [`ReplicaStatus`].
//!
//! Each storage job has one implementation: one durable open, one
//! newest-snapshot reader, one atomic install, and one log segment through
//! which [`LoggedDatabase`], the [`WalCommitHook`] and the [`Replica`]
//! append and checkpoint. A partial failure that may leave disk and memory
//! disagreeing poisons the segment, and the handle refuses with
//! [`StoreError::Poisoned`] until reopened.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod encode;
pub mod error;
pub mod history;
pub mod recovery;
pub mod replication;
mod segment;
pub mod shared;
mod store;
pub mod vfs;
pub mod wal;

pub use codec::{crc32, CodecError};
pub use error::StoreError;
pub use history::{describe, is_schema_level, DesignHistory, HistoryEntry};
pub use recovery::{FsckReport, RecoveryReport};
pub use replication::{Replica, ReplicaStatus, ReplicationLog, ShipCursor, Shipment};
pub use shared::WalCommitHook;
pub use store::{
    read_snapshot_bytes, read_snapshot_bytes_gen, snapshot_bytes_with_gen, write_snapshot_bytes,
    LoggedDatabase, StoreDir, SNAPSHOT_MAGIC,
};
pub use vfs::{FaultMode, FaultProfile, FaultStats, FaultVfs, RetryPolicy, StdVfs, Vfs};
pub use wal::{replay_log, replay_with, LogOp, Replay, SyncPolicy, WalFile, WAL_HEADER_MAGIC};
