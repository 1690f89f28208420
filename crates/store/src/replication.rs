//! Primary→replica log shipping over WAL [`LogOp::CommitBatch`] frames.
//!
//! A primary opened with [`StoreDir::open_shared`] already writes every
//! admitted data commit as one atomic `CommitBatch` frame and every schema
//! commit as a full snapshot checkpoint (a new generation). This module
//! turns that on-disk stream into replication:
//!
//! * [`ReplicationLog`] reads the primary's directory and answers "what
//!   does a replica at [`ShipCursor`] still need?" — either the next
//!   commit frames of the cursor's generation, or (when the cursor's
//!   generation has been superseded by a checkpoint, a schema commit, or a
//!   primary restart) a full snapshot to resync from. Shipping is
//!   strictly ordered: a frame is only ever shipped after every frame
//!   before it, so a replica is always an exact *prefix* of the primary's
//!   committed history.
//! * [`Replica`] replays shipped frames into its own [`SharedDatabase`]
//!   and its own directory: each applied frame is appended verbatim to
//!   the replica's WAL *before* the in-memory head advances, so the
//!   replica's durable state and its shipping cursor can never disagree —
//!   the cursor is re-derived from `snapshot generation + WAL frame
//!   count` on reopen rather than trusted from a side file. Read-only
//!   sessions pin the replica's head at its applied epoch; direct commits
//!   to a replica are vetoed by its hook.
//! * [`ReplicaStatus`] reports lag in ship ordinals: `applied_epoch` is
//!   the replica's monotone count of applied frames (a pending checkpoint
//!   resync counts as one), `head_epoch` projects the primary's position
//!   onto the same counter, `lag` is the difference.
//!
//! Everything is in-process and path-based — the "wire" is the primary's
//! directory read through its [`Vfs`](crate::Vfs) — which is exactly what
//! the torture harness wants: every ship and replay step can be crashed,
//! torn, or failed deterministically.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use isis_core::{ChangeSet, CommitHook, Database, SharedDatabase};

use crate::codec::{frame, read_frame};
use crate::error::StoreError;
use crate::recovery::{NewestSnapshot, RecoveryReport};
use crate::segment::LogSegment;
use crate::store::{read_snapshot_bytes_gen, StoreDir};
use crate::wal::{replay_with, LogOp, SyncPolicy, WalFile};

/// Magic bytes of the replica's ship-meta file payload (`N.ship`): these 8
/// bytes followed by the u64 (LE) ship ordinal at the start of the current
/// replica segment. The meta is advisory — losing it resets the ordinal
/// display, never correctness, because the cursor itself is derived from
/// the replica's snapshot generation and WAL frame count.
const SHIP_MAGIC: &[u8; 8] = b"ISISSHP\x01";

/// A durable position in a primary's replication stream: `frames` commit
/// frames applied on top of snapshot generation `generation`. Positions
/// are totally ordered by `(generation, frames)`; a generation uniquely
/// identifies a folded snapshot, so equal cursors name identical states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShipCursor {
    /// The snapshot generation the position belongs to.
    pub generation: u64,
    /// Commit frames applied within that generation.
    pub frames: u64,
}

impl ShipCursor {
    /// The position of a replica that has never been bootstrapped.
    pub fn genesis() -> ShipCursor {
        ShipCursor {
            generation: 0,
            frames: 0,
        }
    }
}

/// What one [`ReplicationLog::ship`] call hands a replica.
#[derive(Debug)]
pub enum Shipment {
    /// The replica holds everything the primary has made durable.
    UpToDate,
    /// The next commit frames of the cursor's generation, in commit
    /// order. Each element is one atomic frame (one admitted commit).
    Frames(Vec<LogOp>),
    /// The cursor's generation was superseded (schema checkpoint or
    /// primary restart): install this snapshot and continue from
    /// `(generation, 0)`.
    Checkpoint {
        /// The generation the snapshot encodes.
        generation: u64,
        /// The raw snapshot bytes, installable verbatim.
        snapshot: Vec<u8>,
    },
}

/// What [`ReplicationLog::standing`] found for one cursor.
enum Standing {
    /// The cursor's segment is the live one: its frames, of which the
    /// replica has `applied` the first.
    Live { ops: Vec<LogOp>, applied: usize },
    /// The cursor sits at the start of the newest sealed generation, whose
    /// segment is not live: nothing to ship.
    Sealed,
    /// A newer sealed generation superseded the cursor's: the replica
    /// resyncs from `newest`, then takes the `segment` frames its live
    /// segment holds.
    Superseded {
        newest: NewestSnapshot<()>,
        segment: u64,
    },
}

/// The primary side of log shipping: a read-only view over a database's
/// directory that serves commit frames and resync checkpoints to any
/// number of replicas. Opening one is cheap; it holds no file handles and
/// no locks — every call re-reads the primary's current on-disk state, so
/// it observes exactly what a crash would leave behind.
#[derive(Debug, Clone)]
pub struct ReplicationLog {
    dir: StoreDir,
    name: String,
}

impl ReplicationLog {
    /// A replication log over database `name` in `dir` (the primary's
    /// directory). The database need not exist yet; shipping from an
    /// absent primary reports [`StoreError::NotFound`].
    pub fn open(dir: &StoreDir, name: &str) -> Result<ReplicationLog, StoreError> {
        StoreDir::check_name(name)?;
        Ok(ReplicationLog {
            dir: dir.clone(),
            name: name.to_string(),
        })
    }

    /// The database name this log ships.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ships what a replica at `cursor` needs next, at most `max_frames`
    /// commit frames per call. Strictly ordered: frames arrive in commit
    /// order with no gaps, so anything a replica applies is a prefix of
    /// the primary's durable history.
    ///
    /// A cursor *ahead* of the primary's durable state (a replica that
    /// applied frames the primary has since lost) is a typed
    /// [`StoreError::Replication`] error, never silently rewound.
    pub fn ship(&self, cursor: &ShipCursor, max_frames: usize) -> Result<Shipment, StoreError> {
        let obs = isis_obs::global();
        let _span = obs.span("store.replication.ship");
        Ok(match self.standing(cursor)? {
            Standing::Live { ops, applied } if applied < ops.len() => {
                let frames: Vec<LogOp> = ops
                    .into_iter()
                    .skip(applied)
                    .take(max_frames.max(1))
                    .collect();
                obs.count("store.replication.frames_shipped", frames.len() as u64);
                Shipment::Frames(frames)
            }
            Standing::Live { .. } | Standing::Sealed => Shipment::UpToDate,
            // The replica decodes the snapshot when it applies it.
            Standing::Superseded { newest, .. } => {
                obs.count("store.replication.checkpoints_shipped", 1);
                Shipment::Checkpoint {
                    generation: newest.generation,
                    snapshot: newest.bytes,
                }
            }
        })
    }

    /// Commit frames the primary holds beyond `cursor` — the replica's
    /// lag in ship ordinals. A pending checkpoint resync counts as one,
    /// plus whatever frames follow it in the new segment.
    pub fn outstanding(&self, cursor: &ShipCursor) -> Result<u64, StoreError> {
        Ok(match self.standing(cursor)? {
            Standing::Live { ops, applied } => (ops.len() - applied) as u64,
            Standing::Sealed => 0,
            Standing::Superseded { segment, .. } => 1 + segment,
        })
    }

    /// Where a replica at `cursor` stands against the primary's durable
    /// state, the one decision behind [`ReplicationLog::ship`] and
    /// [`ReplicationLog::outstanding`]. Reads the WAL segment once, and the
    /// newest sealed snapshot only when the cursor's segment is gone
    /// (schema checkpoint, primary restart, or a never-bootstrapped
    /// replica). A cursor ahead of the primary is an error.
    fn standing(&self, cursor: &ShipCursor) -> Result<Standing, StoreError> {
        let replay = replay_with(
            self.dir.vfs().as_ref(),
            &self.dir.wal_path(&self.name),
            false,
        )?;
        if replay.snapshot_gen == Some(cursor.generation) && cursor.generation != 0 {
            // Steady state: the cursor's segment is the live one.
            let have = replay.ops.len() as u64;
            if cursor.frames > have {
                return Err(self.ahead_error(cursor, have));
            }
            return Ok(Standing::Live {
                ops: replay.ops,
                applied: cursor.frames as usize,
            });
        }
        let newest = self.dir.newest_sealed_snapshot(&self.name)?;
        match newest.generation.cmp(&cursor.generation) {
            std::cmp::Ordering::Greater => {
                let segment = if replay.snapshot_gen == Some(newest.generation) {
                    replay.ops.len() as u64
                } else {
                    0
                };
                Ok(Standing::Superseded { newest, segment })
            }
            std::cmp::Ordering::Equal if cursor.frames == 0 => Ok(Standing::Sealed),
            _ => Err(self.ahead_error(cursor, 0)),
        }
    }

    fn ahead_error(&self, cursor: &ShipCursor, have: u64) -> StoreError {
        StoreError::Replication {
            name: self.name.clone(),
            detail: format!(
                "replica cursor at generation {} frame {} is ahead of the primary's durable \
                 state ({} frame(s) in its segment) — the primary lost acknowledged commits \
                 or the replica belongs to another history",
                cursor.generation, cursor.frames, have
            ),
        }
    }
}

/// Explicit lag accounting for one replica against its primary, in ship
/// ordinals (monotone counts of applied commit frames; a checkpoint
/// resync counts as one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Frames the replica has applied since it was bootstrapped.
    pub applied_epoch: u64,
    /// The primary's position projected onto the replica's counter:
    /// `applied_epoch` plus everything still outstanding.
    pub head_epoch: u64,
    /// `head_epoch - applied_epoch`: commit frames (plus any pending
    /// checkpoint jump) the replica has not yet applied.
    pub lag: u64,
}

impl ReplicaStatus {
    /// `true` if the replica holds everything the primary has made
    /// durable.
    pub fn caught_up(&self) -> bool {
        self.lag == 0
    }
}

/// The hook a replica's [`SharedDatabase`] carries: replicas are
/// read-only for everyone but the replayer, so any session commit against
/// a replica head is vetoed.
#[derive(Debug)]
struct ReplicaGuard {
    gate: Arc<AtomicBool>,
}

impl CommitHook for ReplicaGuard {
    fn on_commit(&mut self, _db: &Database, _applied: &ChangeSet) -> Result<(), String> {
        if self.gate.load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err("replica is read-only: its state is replayed from the primary's log".into())
        }
    }
}

/// A replica: a [`SharedDatabase`] whose head is advanced only by
/// replaying frames shipped from a primary, backed by its own directory
/// so that everything it has acknowledged survives its own crashes.
///
/// Durability discipline: each shipped frame is appended verbatim to the
/// replica's WAL (and fsynced under [`SyncPolicy::EverySync`]) *before*
/// the in-memory head advances; a checkpoint resync installs the shipped
/// snapshot with the same temp-write → fsync → rename sequence the
/// primary uses. On [`Replica::open`] the cursor is re-derived from the
/// snapshot generation plus the replayed frame count — there is no window
/// in which the durable state and the cursor can disagree.
///
/// Read-only sessions open on [`Replica::shared`] and pin the applied
/// epoch like any other [`SharedDatabase`] reader; their commits are
/// vetoed by the replica's hook.
#[derive(Debug)]
pub struct Replica {
    shared: SharedDatabase,
    /// The replica's own log: its generation is the cursor's, and it is
    /// poisoned when a partial failure leaves the log and the head unable
    /// to agree.
    segment: LogSegment,
    /// Frames applied within the segment's generation.
    frames: u64,
    /// Monotone count of frames applied since bootstrap (checkpoint
    /// resyncs count as one). Persisted advisorily in the ship meta.
    ordinal: u64,
    gate: Arc<AtomicBool>,
}

impl Replica {
    /// Opens (or creates) the replica of `name` living in `dir` — the
    /// *replica's* directory, never the primary's. A fresh replica starts
    /// at [`ShipCursor::genesis`] and bootstraps from the first shipped
    /// checkpoint. An existing replica recovers strictly: its newest
    /// readable snapshot plus every intact frame of its own WAL, with no
    /// salvage skipping — a replica that cannot replay a middle frame is
    /// diverged ([`StoreError::Replication`]) rather than silently holed.
    pub fn open(
        dir: &StoreDir,
        name: &str,
        policy: SyncPolicy,
    ) -> Result<(Replica, RecoveryReport), StoreError> {
        StoreDir::check_name(name)?;
        let _span = isis_obs::global().span("store.replication.replica_open");
        let vfs = dir.vfs().clone();
        if !dir.exists(name) {
            let wal = WalFile::open_with(vfs, dir.wal_path(name), policy)?;
            let segment = LogSegment::new(dir, name, wal, 0);
            let replica = Replica::assemble(Database::new(name), segment, 0, 0);
            return Ok((replica, RecoveryReport::fresh(name)));
        }

        // The fallback generation loads only when the newest is
        // unreadable — a crashed checkpoint install.
        let NewestSnapshot {
            mut db,
            generation,
            used_fallback,
            errors: snapshot_errors,
            ..
        } = dir.newest_snapshot(name)?;

        // Strict replay of the replica's own log: every intact frame, in
        // order, no salvage. A torn tail is a crashed append of a frame
        // that was never acknowledged — dropped and re-shipped.
        let replay = replay_with(vfs.as_ref(), &dir.wal_path(name), false)?;
        let wal_stale = replay.snapshot_gen != Some(generation);
        let mut frames = 0u64;
        if !wal_stale {
            for op in &replay.ops {
                if let Err(e) = op.apply(&mut db) {
                    return Err(StoreError::Replication {
                        name: name.into(),
                        detail: format!("replica frame {frames} rejected on recovery: {e}"),
                    });
                }
                frames += 1;
            }
        }
        let mut wal = WalFile::open_with(vfs.clone(), dir.wal_path(name), policy)?;
        if wal_stale {
            // The log belongs to another generation, or to none yet (a
            // crashed resync): re-tie it to the snapshot that loaded.
            wal.reset(generation)?;
        } else if replay.torn_tail {
            // Drop the torn frame so future appends stay reachable.
            wal.rewind_to(replay.valid_bytes as u64)?;
        }

        let ordinal_base = read_ship_meta(vfs.as_ref(), &ship_path(dir, name)).unwrap_or(0);
        let report = RecoveryReport {
            name: name.to_string(),
            snapshot_generation: generation,
            used_fallback,
            snapshot_errors,
            wal_records_replayed: frames as usize,
            wal_records_rejected: 0,
            wal_bytes_skipped: 0,
            wal_resyncs: 0,
            wal_torn_tail: !wal_stale && replay.torn_tail,
            wal_stale,
        };
        let segment = LogSegment::new(dir, name, wal, generation);
        let replica = Replica::assemble(db, segment, frames, ordinal_base + frames);
        Ok((replica, report))
    }

    /// Wraps an opened state in a replica whose head only the replayer
    /// can move.
    fn assemble(db: Database, segment: LogSegment, frames: u64, ordinal: u64) -> Replica {
        let gate = Arc::new(AtomicBool::new(false));
        let shared = SharedDatabase::new(db);
        shared.set_commit_hook(Some(Box::new(ReplicaGuard { gate: gate.clone() })));
        Replica {
            shared,
            segment,
            frames,
            ordinal,
            gate,
        }
    }

    /// The shared handle read-only sessions open on. Pins taken here are
    /// snapshots at the replica's applied epoch; commits against it are
    /// vetoed.
    pub fn shared(&self) -> &SharedDatabase {
        &self.shared
    }

    /// Pins the replica's applied state (a read snapshot).
    pub fn pin(&self) -> Database {
        self.shared.pin()
    }

    /// The replica's position in the primary's stream.
    pub fn cursor(&self) -> ShipCursor {
        ShipCursor {
            generation: self.segment.generation(),
            frames: self.frames,
        }
    }

    /// Frames applied since bootstrap (the replica-side ship ordinal).
    pub fn applied_epoch(&self) -> u64 {
        self.ordinal
    }

    /// The database name this replica mirrors.
    pub fn name(&self) -> &str {
        self.segment.name()
    }

    /// `true` if a partial failure left this handle unable to guarantee
    /// its WAL and its head agree; reopen the replica to re-derive a
    /// consistent state from disk.
    pub fn is_poisoned(&self) -> bool {
        self.segment.is_poisoned()
    }

    /// Lag accounting against `log` without applying anything.
    pub fn status(&self, log: &ReplicationLog) -> Result<ReplicaStatus, StoreError> {
        let outstanding = log.outstanding(&self.cursor())?;
        Ok(ReplicaStatus {
            applied_epoch: self.ordinal,
            head_epoch: self.ordinal + outstanding,
            lag: outstanding,
        })
    }

    /// Applies at most one shipment (up to `max_frames` commit frames, or
    /// one checkpoint resync) from `log`, then reports status. The
    /// granular sibling of [`Replica::sync`], for callers that interleave
    /// catch-up with reads.
    pub fn sync_step(
        &mut self,
        log: &ReplicationLog,
        max_frames: usize,
    ) -> Result<ReplicaStatus, StoreError> {
        self.segment.check()?;
        let obs = isis_obs::global();
        let _span = obs.span("store.replication.sync");
        let (kind, applied) = match log.ship(&self.cursor(), max_frames)? {
            Shipment::UpToDate => ("up_to_date", 0usize),
            Shipment::Frames(frames) => {
                let n = frames.len();
                for op in frames {
                    self.apply_frame(op)?;
                }
                ("frames", n)
            }
            Shipment::Checkpoint {
                generation,
                snapshot,
            } => {
                self.install_checkpoint(generation, snapshot)?;
                ("checkpoint", 1)
            }
        };
        let status = self.status(log)?;
        obs.gauge("store.replication.lag", status.lag as i64);
        if obs.enabled() {
            obs.gauge(
                "store.replication.applied_epoch",
                status.applied_epoch as i64,
            );
            obs.gauge("store.replication.head_epoch", status.head_epoch as i64);
            let (applied_epoch, lag) = (status.applied_epoch, status.lag);
            obs.event("store.replication.ship", || {
                isis_obs::Json::obj([
                    ("kind", isis_obs::Json::from(kind)),
                    ("applied", isis_obs::Json::from(applied)),
                    ("applied_epoch", isis_obs::Json::from(applied_epoch)),
                    ("lag", isis_obs::Json::from(lag)),
                ])
            });
        }
        Ok(status)
    }

    /// Catches up fully: applies shipments until the primary reports
    /// [`Shipment::UpToDate`], then reports status (lag 0 unless the
    /// primary committed while we were applying).
    pub fn sync(&mut self, log: &ReplicationLog) -> Result<ReplicaStatus, StoreError> {
        const BATCH: usize = 64;
        loop {
            let before = (self.cursor(), self.ordinal);
            let status = self.sync_step(log, BATCH)?;
            if status.caught_up() || (self.cursor(), self.ordinal) == before {
                return Ok(status);
            }
        }
    }

    /// One shipped frame: validate against the applied state, append to
    /// the replica's own WAL (write-ahead), then advance the in-memory
    /// head. Acknowledged ⇔ recoverable, exactly like the primary.
    fn apply_frame(&mut self, op: LogOp) -> Result<(), StoreError> {
        let obs = isis_obs::global();
        let _span = obs.span("store.replication.replay");
        let mut local = self.shared.pin();
        let base = local.delta_epoch();
        if let Err(e) = op.apply(&mut local) {
            return Err(StoreError::Replication {
                name: self.name().into(),
                detail: format!(
                    "shipped frame {} of generation {} rejected: {e}",
                    self.frames,
                    self.segment.generation()
                ),
            });
        }
        self.segment.append(&op)?;
        self.gate.store(true, Ordering::SeqCst);
        let committed = self.shared.commit(base, &local);
        self.gate.store(false, Ordering::SeqCst);
        if let Err(c) = committed {
            // The frame is durable but the head refused to move — someone
            // committed to the replica head behind our back. Disk and
            // memory now disagree; refuse to continue (reopen re-derives
            // a consistent head from disk).
            return Err(self
                .segment
                .poison(format!("replica head moved during replay: {c}")));
        }
        self.frames += 1;
        self.ordinal += 1;
        obs.count("store.replication.frames_applied", 1);
        Ok(())
    }

    /// A full resync: durably install the shipped snapshot, restart the
    /// replica's WAL on the new generation, and swap the in-memory head.
    /// Existing reader pins keep their old snapshots; new pins see the
    /// resynced state.
    fn install_checkpoint(&mut self, generation: u64, snapshot: Vec<u8>) -> Result<(), StoreError> {
        let obs = isis_obs::global();
        let _span = obs.span("store.replication.checkpoint");
        let (db, encoded) = read_snapshot_bytes_gen(&snapshot)?;
        if encoded != generation {
            return Err(StoreError::Replication {
                name: self.name().into(),
                detail: format!(
                    "checkpoint claims generation {generation} but its snapshot encodes {encoded}"
                ),
            });
        }
        if generation <= self.segment.generation() {
            return Err(StoreError::Replication {
                name: self.name().into(),
                detail: format!(
                    "checkpoint generation {generation} does not advance the replica \
                     (already at generation {})",
                    self.segment.generation()
                ),
            });
        }
        let (dir, name) = (self.segment.dir(), self.segment.name());
        dir.install(name, &snapshot, true)?;
        let next_ordinal = self.ordinal + 1;
        // Advisory ordinal meta; the cursor itself derives from the
        // installed snapshot + (about-to-be-reset) WAL. If anything from
        // here on fails, a reopen finds snapshot `generation` with a
        // stale log and lands on cursor `(generation, 0)` — exactly where
        // this resync was headed.
        write_ship_meta(dir, name, next_ordinal)?;
        self.segment.restart(generation)?;
        self.shared.install_head(db);
        self.frames = 0;
        self.ordinal = next_ordinal;
        obs.count("store.replication.checkpoints_installed", 1);
        Ok(())
    }
}

fn ship_path(dir: &StoreDir, name: &str) -> PathBuf {
    dir.root().join(format!("{name}.ship"))
}

fn write_ship_meta(dir: &StoreDir, name: &str, ordinal: u64) -> Result<(), StoreError> {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(SHIP_MAGIC);
    payload.extend_from_slice(&ordinal.to_le_bytes());
    let path = ship_path(dir, name);
    dir.vfs().write(&path, &frame(&payload))?;
    dir.vfs().sync_file(&path)?;
    Ok(())
}

fn read_ship_meta(vfs: &dyn crate::Vfs, path: &std::path::Path) -> Option<u64> {
    let bytes = vfs.read(path).ok()?;
    let (payload, _) = read_frame(&bytes).ok()?;
    if payload.len() != 16 || &payload[..8] != SHIP_MAGIC {
        return None;
    }
    let mut ord8 = [0u8; 8];
    ord8.copy_from_slice(&payload[8..16]);
    Some(u64::from_le_bytes(ord8))
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use isis_core::{BaseKind, Multiplicity};

    use super::*;
    use crate::vfs::StdVfs;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("isis_repl_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fingerprint(db: &Database) -> String {
        let mut lines = Vec::new();
        for (id, rec) in db.classes() {
            let mut members: Vec<String> = db
                .members(id)
                .map(|set| {
                    set.iter()
                        .filter_map(|e| db.entity_name(e).ok().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            members.sort();
            lines.push(format!("{}:[{}]", rec.name, members.join(",")));
        }
        lines.sort();
        lines.join(";")
    }

    #[test]
    fn bootstrap_ship_and_catch_up() {
        let proot = tempdir("boot_p");
        let rroot = tempdir("boot_r");
        let pdir = StoreDir::open(&proot).unwrap();
        let rdir = StoreDir::open(&rroot).unwrap();
        let (primary, _) = pdir.open_shared("band", SyncPolicy::EverySync).unwrap();

        let mut w = primary.pin();
        let base = w.delta_epoch();
        let musicians = w.create_baseclass("musicians").unwrap();
        let ints = w.predefined(BaseKind::Integers);
        w.create_attribute(musicians, "age", ints, Multiplicity::Single)
            .unwrap();
        primary.commit(base, &w).unwrap();

        let log = ReplicationLog::open(&pdir, "band").unwrap();
        let (mut replica, report) = Replica::open(&rdir, "band", SyncPolicy::EverySync).unwrap();
        assert!(report.is_pristine());
        let status = replica.sync(&log).unwrap();
        assert!(status.caught_up());
        assert!(
            replica.pin().class_by_name("musicians").is_ok(),
            "schema checkpoint must have shipped"
        );

        // Data commits ship as frames.
        for name in ["Edith", "Amy", "Joan"] {
            let mut w = primary.pin();
            let base = w.delta_epoch();
            w.insert_entity(musicians, name).unwrap();
            primary.commit(base, &w).unwrap();
        }
        let status = replica.status(&log).unwrap();
        assert_eq!(status.lag, 3);
        let status = replica.sync(&log).unwrap();
        assert!(status.caught_up());
        assert_eq!(
            primary.read(fingerprint),
            fingerprint(&replica.pin()),
            "replica must equal the primary after catch-up"
        );

        std::fs::remove_dir_all(&proot).unwrap();
        std::fs::remove_dir_all(&rroot).unwrap();
    }

    #[test]
    fn replica_cursor_survives_reopen() {
        let proot = tempdir("reopen_p");
        let rroot = tempdir("reopen_r");
        let pdir = StoreDir::open(&proot).unwrap();
        let rdir = StoreDir::open(&rroot).unwrap();
        let (primary, _) = pdir.open_shared("band", SyncPolicy::EverySync).unwrap();
        let mut w = primary.pin();
        let base = w.delta_epoch();
        let musicians = w.create_baseclass("musicians").unwrap();
        primary.commit(base, &w).unwrap();
        for name in ["Edith", "Amy"] {
            let mut w = primary.pin();
            let base = w.delta_epoch();
            w.insert_entity(musicians, name).unwrap();
            primary.commit(base, &w).unwrap();
        }

        let log = ReplicationLog::open(&pdir, "band").unwrap();
        let (mut replica, _) = Replica::open(&rdir, "band", SyncPolicy::EverySync).unwrap();
        replica.sync(&log).unwrap();
        let cursor = replica.cursor();
        let applied = replica.applied_epoch();
        let served = fingerprint(&replica.pin());
        drop(replica);

        let (mut replica, report) = Replica::open(&rdir, "band", SyncPolicy::EverySync).unwrap();
        assert_eq!(replica.cursor(), cursor, "cursor must derive from disk");
        assert_eq!(replica.applied_epoch(), applied);
        assert_eq!(report.wal_records_replayed as u64, cursor.frames);
        assert_eq!(fingerprint(&replica.pin()), served);
        assert!(replica.sync(&log).unwrap().caught_up());

        std::fs::remove_dir_all(&proot).unwrap();
        std::fs::remove_dir_all(&rroot).unwrap();
    }

    #[test]
    fn schema_commit_reships_checkpoint_mid_stream() {
        let proot = tempdir("schema_p");
        let rroot = tempdir("schema_r");
        let pdir = StoreDir::open(&proot).unwrap();
        let rdir = StoreDir::open(&rroot).unwrap();
        let (primary, _) = pdir.open_shared("band", SyncPolicy::EverySync).unwrap();
        let mut w = primary.pin();
        let base = w.delta_epoch();
        let musicians = w.create_baseclass("musicians").unwrap();
        primary.commit(base, &w).unwrap();

        let log = ReplicationLog::open(&pdir, "band").unwrap();
        let (mut replica, _) = Replica::open(&rdir, "band", SyncPolicy::EverySync).unwrap();
        replica.sync(&log).unwrap();

        // Data, then schema (generation bump), then more data.
        let mut w = primary.pin();
        let base = w.delta_epoch();
        w.insert_entity(musicians, "Edith").unwrap();
        primary.commit(base, &w).unwrap();
        let mut w = primary.pin();
        let base = w.delta_epoch();
        w.create_baseclass("venues").unwrap();
        primary.commit(base, &w).unwrap();
        let mut w = primary.pin();
        let base = w.delta_epoch();
        w.insert_entity(musicians, "Amy").unwrap();
        primary.commit(base, &w).unwrap();

        let status = replica.sync(&log).unwrap();
        assert!(status.caught_up());
        let replicated = replica.pin();
        assert!(replicated.class_by_name("venues").is_ok());
        assert_eq!(primary.read(fingerprint), fingerprint(&replicated));

        std::fs::remove_dir_all(&proot).unwrap();
        std::fs::remove_dir_all(&rroot).unwrap();
    }

    #[test]
    fn replica_head_refuses_direct_commits() {
        let proot = tempdir("guard_p");
        let rroot = tempdir("guard_r");
        let pdir = StoreDir::open(&proot).unwrap();
        let rdir = StoreDir::open(&rroot).unwrap();
        let (primary, _) = pdir.open_shared("band", SyncPolicy::EverySync).unwrap();
        let mut w = primary.pin();
        let base = w.delta_epoch();
        w.create_baseclass("musicians").unwrap();
        primary.commit(base, &w).unwrap();

        let log = ReplicationLog::open(&pdir, "band").unwrap();
        let (mut replica, _) = Replica::open(&rdir, "band", SyncPolicy::EverySync).unwrap();
        replica.sync(&log).unwrap();

        let mut rogue = replica.shared().pin();
        let base = rogue.delta_epoch();
        let musicians = rogue.class_by_name("musicians").unwrap();
        rogue.insert_entity(musicians, "Intruder").unwrap();
        match replica.shared().commit(base, &rogue).unwrap_err() {
            isis_core::CommitConflict::Durability(m) => assert!(m.contains("read-only")),
            other => panic!("expected a read-only veto, got {other:?}"),
        }
        // The replayer still works after the veto.
        assert!(replica.sync(&log).unwrap().caught_up());

        std::fs::remove_dir_all(&proot).unwrap();
        std::fs::remove_dir_all(&rroot).unwrap();
    }

    #[test]
    fn replica_ahead_is_a_typed_error() {
        let proot = tempdir("ahead_p");
        let pdir = StoreDir::open(&proot).unwrap();
        let (primary, _) = pdir.open_shared("band", SyncPolicy::EverySync).unwrap();
        let mut w = primary.pin();
        let base = w.delta_epoch();
        w.create_baseclass("musicians").unwrap();
        primary.commit(base, &w).unwrap();

        let log = ReplicationLog::open(&pdir, "band").unwrap();
        let head_gen = match log.ship(&ShipCursor::genesis(), 16).unwrap() {
            Shipment::Checkpoint { generation, .. } => generation,
            other => panic!("expected a bootstrap checkpoint, got {other:?}"),
        };
        let ahead = ShipCursor {
            generation: head_gen,
            frames: 99,
        };
        assert!(matches!(
            log.ship(&ahead, 16),
            Err(StoreError::Replication { .. })
        ));
        assert!(matches!(
            log.outstanding(&ahead),
            Err(StoreError::Replication { .. })
        ));

        std::fs::remove_dir_all(&proot).unwrap();
    }

    #[test]
    fn ship_meta_roundtrip_and_corruption_tolerance() {
        let root = tempdir("meta");
        let dir = StoreDir::open_with(&root, std::sync::Arc::new(StdVfs::new())).unwrap();
        write_ship_meta(&dir, "band", 42).unwrap();
        let path = ship_path(&dir, "band");
        assert_eq!(read_ship_meta(dir.vfs().as_ref(), &path), Some(42));
        // Corrupt meta degrades to None (ordinal resets), never an error.
        dir.vfs().write(&path, b"garbage").unwrap();
        assert_eq!(read_ship_meta(dir.vfs().as_ref(), &path), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The primary ships the newest snapshot whose sealed frame checks out
    /// without decoding it; the replica decodes it before installing
    /// anything, so an image that does not decode is refused and the
    /// replica stays where it was.
    #[test]
    fn shipping_checks_the_sealed_frame_and_the_replica_decodes() {
        let proot = tempdir("sealed_p");
        let rroot = tempdir("sealed_r");
        let pdir = StoreDir::open(&proot).unwrap();
        let rdir = StoreDir::open(&rroot).unwrap();
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.extend_from_slice(b"not an image");
        let mut sealed = crate::store::SNAPSHOT_MAGIC.to_vec();
        sealed.extend_from_slice(&frame(&payload));
        std::fs::write(pdir.snapshot_path("band"), sealed).unwrap();

        let log = ReplicationLog::open(&pdir, "band").unwrap();
        let genesis = ShipCursor::genesis();
        assert_eq!(log.outstanding(&genesis).unwrap(), 1);
        match log.ship(&genesis, 16).unwrap() {
            Shipment::Checkpoint { generation, .. } => assert_eq!(generation, 9),
            other => panic!("expected a resync checkpoint, got {other:?}"),
        }
        let (mut replica, _) = Replica::open(&rdir, "band", SyncPolicy::EverySync).unwrap();
        assert!(replica.sync(&log).is_err());
        assert_eq!(replica.cursor(), genesis);
        assert!(!rdir.snapshot_path("band").exists());
        std::fs::remove_dir_all(&proot).unwrap();
        std::fs::remove_dir_all(&rroot).unwrap();
    }
}
