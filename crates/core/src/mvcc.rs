//! In-process snapshot isolation over the delta log.
//!
//! The paper's ISIS is a multi-user system; this module is the concurrency
//! story for the reproduction. A [`SharedDatabase`] is an `Arc`-backed
//! handle that any number of sessions open concurrently:
//!
//! * **Readers pin.** [`SharedDatabase::pin`] clones the head under the
//!   lock. The clone shares the head's copy-on-write chunks (entity arena,
//!   name indexes, attribute columns, class extents and delta-log chunks),
//!   so it costs O(#chunks) at any window size; either side's first write
//!   to a shared chunk copies that chunk alone. The clone carries the
//!   delta log, so the pinned epoch ([`Database::delta_epoch`] of the
//!   clone) addresses the shared history: a reader at epoch `E` never
//!   observes state newer than `E` until it explicitly re-pins.
//! * **Writers buffer.** A writer mutates its pinned clone locally — every
//!   mutation lands in the clone's own delta log — and publishes with
//!   [`SharedDatabase::commit`], which extracts the write set as
//!   `local.changes_since(base_epoch)` and conflict-checks it against
//!   whatever committed to the shared head after `base_epoch`.
//! * **First committer wins.** If a concurrent commit touched an
//!   overlapping key — the same `(entity, attr)` value, the same
//!   `(entity, class)` membership, or an entity the other side deleted —
//!   the later commit fails with a typed [`CommitConflict`] and the writer
//!   re-pins, replays its intent, and retries. Schema edits are coarse:
//!   any schema change conflicts with any concurrent commit.
//! * **Non-conflicting commits rebase.** A write set that does not overlap
//!   is replayed onto the current head through the ordinary mutators
//!   (entity ids allocated after the base epoch are remapped), so
//!   independent writers make progress without retry loops.
//!
//! Derived-state maintenance (derived-class extents, derived attribute
//! values) is *excluded* from both the conflict check and the replay: the
//! paper keeps derived subclasses stale between commits (§2), every
//! session recomputes them against its own snapshot, and two sessions
//! settling the same predicate must not be made to conflict by it.
//!
//! Durability hangs off the commit path: a [`CommitHook`] installed by the
//! storage layer observes `(head-after-commit, applied changes)` *before*
//! the head is published. If the hook fails, the commit is rejected and
//! the in-memory head is untouched — a crash between commit and WAL fsync
//! can lose the commit, but can never admit a phantom one.
//!
//! The shared delta log's capacity bounds writer staleness: a commit whose
//! base epoch has slid out of the retained window fails with
//! [`CommitConflict::SnapshotTooOld`] and must re-pin. It also bounds one
//! commit: the hook is handed the changes the commit recorded, read back
//! from the log, so a write set or a rebase replay that outgrows the
//! window is refused the same way, before the hook runs, instead of being
//! logged truncated.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::attribute::AttrValue;
use crate::change::{Change, ChangeSet};
use crate::error::CoreError;
use crate::ids::{AttrId, ClassId, EntityId};
use crate::Database;

/// Why a commit was refused. First committer wins: exactly one of two
/// conflicting writers receives one of these; the other's receipt stands.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CommitConflict {
    /// Both sides assigned the same attribute of the same entity.
    Value {
        /// The entity whose value both sides wrote.
        entity: EntityId,
        /// The attribute both sides assigned.
        attr: AttrId,
    },
    /// Both sides changed the same entity's membership in the same class.
    Membership {
        /// The entity whose membership both sides changed.
        entity: EntityId,
        /// The class both sides changed it in.
        class: ClassId,
    },
    /// One side deleted an entity the other side touched.
    Delete {
        /// The deleted entity.
        entity: EntityId,
    },
    /// A schema edit collided with a concurrent commit. Schema edits are
    /// rare and invalidate predicates and indexes wholesale, so any schema
    /// change on either side of a concurrent pair conflicts.
    Schema,
    /// The writer's base epoch has been evicted from the shared delta
    /// window (or belongs to another database line); re-pin and retry.
    ///
    /// Also the answer when the commit itself records more changes than a
    /// window holds: a local write set that outgrew the writer's window, or
    /// a rebase whose replay outgrew the head's window. Either is refused
    /// before the durability hook runs, with the head untouched, so the
    /// hook only ever logs whole commits. A commit that large needs a wider
    /// window ([`Database::set_delta_capacity`]); re-pinning cannot shrink
    /// it, so `Session::transact_with_retry` returns this conflict at once
    /// when the writer's own write set is the one that outgrew its window.
    SnapshotTooOld {
        /// The epoch the writer pinned.
        base: u64,
        /// The oldest epoch the relevant log still addresses.
        oldest: u64,
    },
    /// Replaying the (non-overlapping) write set onto the current head
    /// failed — e.g. a name both sides inserted, or a value referencing an
    /// entity that no longer qualifies. Semantically a conflict.
    Rebase(CoreError),
    /// The durability hook refused the commit; nothing was installed.
    Durability(String),
}

impl fmt::Display for CommitConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitConflict::Value { entity, attr } => write!(
                f,
                "commit conflict: concurrent assignment of attr {attr:?} on entity {entity:?}"
            ),
            CommitConflict::Membership { entity, class } => write!(
                f,
                "commit conflict: concurrent membership change of entity {entity:?} in class {class:?}"
            ),
            CommitConflict::Delete { entity } => write!(
                f,
                "commit conflict: entity {entity:?} was deleted concurrently"
            ),
            CommitConflict::Schema => {
                write!(f, "commit conflict: schema edit raced a concurrent commit")
            }
            CommitConflict::SnapshotTooOld { base, oldest } => write!(
                f,
                "commit conflict: snapshot at epoch {base} is older than the \
                 retained window (oldest {oldest}); re-pin and retry"
            ),
            CommitConflict::Rebase(e) => write!(f, "commit conflict: replay failed: {e}"),
            CommitConflict::Durability(m) => write!(f, "commit rejected by durability hook: {m}"),
        }
    }
}

impl std::error::Error for CommitConflict {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommitConflict::Rebase(e) => Some(e),
            _ => None,
        }
    }
}

impl CommitConflict {
    /// `true` if re-pinning at the current head and replaying the intent
    /// may succeed — every first-committer-wins outcome qualifies, because
    /// the conflicting state is visible after a re-pin. A
    /// [`Durability`](CommitConflict::Durability) refusal is *not*
    /// retryable: the storage layer vetoed the commit and retrying cannot
    /// help until the store is healthy again.
    pub fn is_retryable(&self) -> bool {
        match self {
            CommitConflict::Value { .. }
            | CommitConflict::Membership { .. }
            | CommitConflict::Delete { .. }
            | CommitConflict::Schema
            | CommitConflict::SnapshotTooOld { .. }
            | CommitConflict::Rebase(_) => true,
            CommitConflict::Durability(_) => false,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Stable classification label for telemetry: the conflict-key family
    /// without the keys themselves. Used as a metric suffix
    /// (`core.mvcc.conflict.<kind>`) and in `core.mvcc.commit` journal
    /// events, so the strings are part of the observability contract.
    pub fn kind(&self) -> &'static str {
        match self {
            CommitConflict::Value { .. } => "value",
            CommitConflict::Membership { .. } => "membership",
            CommitConflict::Delete { .. } => "delete",
            CommitConflict::Schema => "schema",
            CommitConflict::SnapshotTooOld { .. } => "snapshot_too_old",
            CommitConflict::Rebase(_) => "rebase",
            CommitConflict::Durability(_) => "durability",
        }
    }
}

/// Bounded exponential backoff with deterministic full jitter, for retry
/// loops over [`CommitConflict`]s (the session layer's
/// `Session::transact_with_retry` is the one such loop).
///
/// The delay before retry `attempt` (0-based) is uniform in
/// `[0, min(cap, base · 2^attempt)]`, drawn from a splitmix64 stream
/// seeded by `seed` — two loops with the same seed sleep identically, so
/// torture schedules stay reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryBackoff {
    /// Retries after the first attempt (0 = try exactly once).
    pub max_retries: u32,
    /// Backoff ceiling for the first retry.
    pub base: Duration,
    /// Hard cap on any single delay.
    pub cap: Duration,
    /// Jitter seed; same seed ⇒ same delays.
    pub seed: u64,
}

impl Default for RetryBackoff {
    fn default() -> RetryBackoff {
        RetryBackoff {
            max_retries: 16,
            base: Duration::from_micros(250),
            cap: Duration::from_millis(20),
            seed: 0x1515_1515,
        }
    }
}

impl RetryBackoff {
    /// A backoff that retries without sleeping (for tests and single-
    /// threaded schedules where real delays only slow the suite down).
    pub fn unslept(max_retries: u32) -> RetryBackoff {
        RetryBackoff {
            max_retries,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        }
    }

    /// The deterministic delay before retry `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(20));
        let ceiling = exp.min(self.cap).as_nanos() as u64;
        if ceiling == 0 {
            return Duration::ZERO;
        }
        let mut z = self
            .seed
            .wrapping_add((u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Duration::from_nanos(z % (ceiling + 1))
    }
}

/// What a successful commit reports back.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CommitReceipt {
    /// The shared head's epoch after this commit.
    pub epoch: u64,
    /// The commit sequence number (1 for the first commit ever applied).
    pub commits: u64,
    /// `true` if the write set was replayed onto concurrent commits (the
    /// committer's local snapshot is now behind the head and should be
    /// re-pinned); `false` on the fast path where the local snapshot *is*
    /// the new head.
    pub rebased: bool,
    /// Number of changes applied to the head (0 for a no-op commit).
    pub changes: usize,
}

/// Observes every commit before it is published, for durability. The hook
/// runs under the shared lock with `db` being the head-to-be and `applied`
/// the exact changes that advanced it past the previous head. Returning
/// `Err` vetoes the commit: the in-memory head stays untouched and the
/// committer receives [`CommitConflict::Durability`].
///
/// The error type is a plain string so `isis-core` stays independent of
/// the storage crate that implements the hook.
pub trait CommitHook: Send {
    /// Make `applied` durable (or refuse).
    fn on_commit(&mut self, db: &Database, applied: &ChangeSet) -> Result<(), String>;

    /// `true` if an earlier partial failure left the hook permanently
    /// refusing commits (disk and memory may have diverged). A poisoned
    /// hook means the handle should be reopened; sessions can ask via
    /// [`SharedDatabase::hook_poisoned`] before pinning a snapshot that
    /// can never publish. Defaults to `false` for hooks without a poison
    /// state.
    fn poisoned(&self) -> bool {
        false
    }
}

struct SharedInner {
    db: Database,
    commits: u64,
    hook: Option<Box<dyn CommitHook>>,
}

/// A shared, concurrently-committable database: the multi-session handle.
/// Cloning the handle is cheap and refers to the same head.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<Mutex<SharedInner>>,
}

impl fmt::Debug for SharedDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("SharedDatabase")
            .field("epoch", &inner.db.delta_epoch())
            .field("commits", &inner.commits)
            .field("hook", &inner.hook.is_some())
            .finish()
    }
}

impl SharedDatabase {
    /// Wraps a database for shared use.
    pub fn new(db: Database) -> SharedDatabase {
        SharedDatabase {
            inner: Arc::new(Mutex::new(SharedInner {
                db,
                commits: 0,
                hook: None,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SharedInner> {
        // The head is only ever replaced whole (never mutated in place
        // under the lock), so a poisoned lock cannot expose a half-applied
        // commit; recover the guard.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins the current head: a clone, delta log included, whose
    /// [`Database::delta_epoch`] is the pinned epoch. The clone is a stable
    /// snapshot — later commits to the shared head never show through. It
    /// shares the head's chunks, shards, class extents and delta-log
    /// chunks instead of copying them, so the lock is held for
    /// O(#chunks) at any window size; the snapshot's first write to an
    /// extent or a chunk copies that one.
    pub fn pin(&self) -> Database {
        self.lock().db.clone()
    }

    /// Runs `f` against the head without cloning (a read "at latest").
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.lock().db)
    }

    /// The head's current epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().db.delta_epoch()
    }

    /// How many commits have been applied through this handle.
    pub fn commits(&self) -> u64 {
        self.lock().commits
    }

    /// Installs (or clears) the durability hook. The storage layer calls
    /// this once when it opens the shared handle.
    pub fn set_commit_hook(&self, hook: Option<Box<dyn CommitHook>>) {
        self.lock().hook = hook;
    }

    /// `true` if the installed durability hook reports itself poisoned
    /// ([`CommitHook::poisoned`]): every commit through this handle will
    /// be refused until the store is reopened. `false` when no hook is
    /// installed.
    pub fn hook_poisoned(&self) -> bool {
        self.lock().hook.as_ref().is_some_and(|h| h.poisoned())
    }

    /// Replaces the head wholesale — the replication resync primitive.
    ///
    /// Existing pinned clones stay valid as snapshots of the *old* line.
    /// The installed head's delta window is emptied and restarted one past
    /// the old head's epoch, so epochs on one handle only grow: a reader
    /// pinned on the old line sees [`SharedDatabase::epoch`] move and
    /// re-pins, and a commit based on the old line fails with
    /// [`CommitConflict::SnapshotTooOld`] instead of being checked against
    /// the new line's changes. The commit hook is kept but **not**
    /// consulted: durability of the installed head is the caller's
    /// responsibility. Counts as one commit; returns the new head epoch.
    pub fn install_head(&self, mut db: Database) -> u64 {
        let mut inner = self.lock();
        db.delta.restart_at(inner.db.delta_epoch() + 1);
        let old = std::mem::replace(&mut inner.db, db);
        inner.commits += 1;
        let epoch = inner.db.delta_epoch();
        drop(inner);
        drop(old);
        epoch
    }

    /// Publishes everything `local` recorded after `base_epoch` (the epoch
    /// it was pinned at, or the epoch of its last successful commit).
    ///
    /// First committer wins: if a commit already advanced the head past
    /// `base_epoch` with an overlapping write set, this returns a
    /// [`CommitConflict`] and the head is untouched. Non-overlapping
    /// concurrent commits are rebased (replayed onto the head); the
    /// receipt's [`CommitReceipt::rebased`] tells the caller to re-pin.
    pub fn commit(
        &self,
        base_epoch: u64,
        local: &Database,
    ) -> Result<CommitReceipt, CommitConflict> {
        let out = self.commit_inner(base_epoch, local);
        let obs = isis_obs::global();
        if obs.enabled() {
            match &out {
                Ok(receipt) => {
                    obs.count("core.mvcc.commits", 1);
                    if receipt.rebased {
                        obs.count("core.mvcc.rebased_commits", 1);
                    } else {
                        obs.count("core.mvcc.fast_commits", 1);
                    }
                    let (epoch, changes, rebased) =
                        (receipt.epoch, receipt.changes, receipt.rebased);
                    obs.event("core.mvcc.commit", || {
                        isis_obs::Json::obj([
                            ("outcome", isis_obs::Json::from("committed")),
                            ("epoch", isis_obs::Json::from(epoch)),
                            ("changes", isis_obs::Json::from(changes)),
                            ("rebased", isis_obs::Json::from(rebased)),
                        ])
                    });
                }
                Err(conflict) => {
                    let kind = conflict.kind();
                    obs.count("core.mvcc.conflicts", 1);
                    obs.count(&format!("core.mvcc.conflict.{kind}"), 1);
                    obs.event("core.mvcc.commit", || {
                        isis_obs::Json::obj([
                            ("outcome", isis_obs::Json::from("conflict")),
                            ("kind", isis_obs::Json::from(kind)),
                            ("base_epoch", isis_obs::Json::from(base_epoch)),
                        ])
                    });
                }
            }
        }
        out
    }

    fn commit_inner(
        &self,
        base_epoch: u64,
        local: &Database,
    ) -> Result<CommitReceipt, CommitConflict> {
        let write_set =
            local
                .changes_since(base_epoch)
                .ok_or_else(|| CommitConflict::SnapshotTooOld {
                    base: base_epoch,
                    oldest: local.delta_log().base_epoch(),
                })?;
        // The fast path installs a clone of `local`; take it before the
        // lock so the lock is held only to check, log and swap. Declared
        // before the guard, so an unused clone is freed after its release.
        let fast_head = (!write_set.is_empty()).then(|| local.clone());
        let mut inner = self.lock();
        let concurrent =
            inner
                .db
                .changes_since(base_epoch)
                .ok_or_else(|| CommitConflict::SnapshotTooOld {
                    base: base_epoch,
                    oldest: inner.db.delta_log().base_epoch(),
                })?;

        if concurrent.is_empty() {
            // Fast path: nobody committed since the pin; the local snapshot
            // becomes the head verbatim.
            let Some(next) = fast_head else {
                return Ok(CommitReceipt {
                    epoch: inner.db.delta_epoch(),
                    commits: inner.commits,
                    rebased: false,
                    changes: 0,
                });
            };
            if let Some(hook) = inner.hook.as_mut() {
                hook.on_commit(local, &write_set)
                    .map_err(CommitConflict::Durability)?;
            }
            let old = std::mem::replace(&mut inner.db, next);
            inner.commits += 1;
            let receipt = CommitReceipt {
                epoch: inner.db.delta_epoch(),
                commits: inner.commits,
                rebased: false,
                changes: write_set.len(),
            };
            // Free the replaced head's private chunks outside the lock.
            drop(inner);
            drop(old);
            return Ok(receipt);
        }

        // Derived-state maintenance never conflicts and is never replayed:
        // each session recomputes it against its own snapshot.
        let w = filter_derived(local, &write_set);
        if w.is_empty() {
            // Pure reader (or only derived-state noise): nothing to
            // publish. The head has moved on, so tell the caller to re-pin.
            return Ok(CommitReceipt {
                epoch: inner.db.delta_epoch(),
                commits: inner.commits,
                rebased: true,
                changes: 0,
            });
        }
        if write_set.has_schema_changes() || concurrent.has_schema_changes() {
            return Err(CommitConflict::Schema);
        }
        let c = filter_derived(&inner.db, &concurrent);
        check_overlap(&w, &c)?;

        // Rebase: replay the write set onto the head through the ordinary
        // mutators, remapping entity ids allocated after the base epoch.
        let mut next = inner.db.clone();
        let mark = next.delta_epoch();
        replay(&mut next, local, &w).map_err(CommitConflict::Rebase)?;
        // The hook logs what the replay recorded; a replay that outgrew the
        // head's window cannot be logged whole, so it is refused.
        let applied = next
            .changes_since(mark)
            .ok_or_else(|| CommitConflict::SnapshotTooOld {
                base: base_epoch,
                oldest: next.delta_log().base_epoch(),
            })?;
        if applied.is_empty() {
            // Replay degenerated to a no-op (e.g. idempotent memberships
            // already present on the head); nothing to publish.
            return Ok(CommitReceipt {
                epoch: inner.db.delta_epoch(),
                commits: inner.commits,
                rebased: true,
                changes: 0,
            });
        }
        if let Some(hook) = inner.hook.as_mut() {
            hook.on_commit(&next, &applied)
                .map_err(CommitConflict::Durability)?;
        }
        let old = std::mem::replace(&mut inner.db, next);
        inner.commits += 1;
        let receipt = CommitReceipt {
            epoch: inner.db.delta_epoch(),
            commits: inner.commits,
            rebased: true,
            changes: applied.len(),
        };
        drop(inner);
        drop(old);
        Ok(receipt)
    }
}

/// Drops derived-class membership changes, derived-attribute value
/// changes, and the values a class leave dropped
/// ([`ChangeSet::leave_drops`]): replaying a plain leave re-derives them,
/// and a derived leave is derived state. `schema` is the side's own
/// database (it knows any classes or attributes that side created).
fn filter_derived(schema: &Database, cs: &ChangeSet) -> Vec<Change> {
    cs.iter()
        .zip(cs.leave_drops(schema))
        .filter(|(ch, dropped)| match ch {
            Change::MembershipAdded { class, .. } | Change::MembershipRemoved { class, .. } => {
                !schema
                    .class(*class)
                    .map(|c| c.is_derived())
                    .unwrap_or(false)
            }
            Change::AttrAssigned { attr, .. } => {
                !dropped && !schema.attr(*attr).map(|a| a.is_derived()).unwrap_or(false)
            }
            _ => true,
        })
        .map(|(ch, _)| ch.clone())
        .collect()
}

/// The conflict keys one side's filtered write set exposes. Entities the
/// side itself inserted are excluded: their ids are line-local (both lines
/// allocate from the same next-id, so equal raw ids past the base epoch
/// name *different* entities) and a concurrent commit cannot have touched
/// them.
struct Keys {
    inserted: HashSet<EntityId>,
    assigns: HashSet<(EntityId, AttrId)>,
    members: HashSet<(EntityId, ClassId)>,
    deletes: HashSet<EntityId>,
    touched: HashSet<EntityId>,
}

fn keys(changes: &[Change]) -> Keys {
    let mut k = Keys {
        inserted: HashSet::new(),
        assigns: HashSet::new(),
        members: HashSet::new(),
        deletes: HashSet::new(),
        touched: HashSet::new(),
    };
    for ch in changes {
        match ch {
            Change::EntityInserted { entity, .. } => {
                k.inserted.insert(*entity);
            }
            Change::EntityDeleted { entity, .. } => {
                if !k.inserted.contains(entity) {
                    k.deletes.insert(*entity);
                    k.touched.insert(*entity);
                }
            }
            Change::EntityRenamed { entity, .. } => {
                if !k.inserted.contains(entity) {
                    k.touched.insert(*entity);
                }
            }
            Change::MembershipAdded { entity, class }
            | Change::MembershipRemoved { entity, class } => {
                if !k.inserted.contains(entity) {
                    k.members.insert((*entity, *class));
                    k.touched.insert(*entity);
                }
            }
            Change::AttrAssigned { entity, attr, .. } => {
                if !k.inserted.contains(entity) {
                    k.assigns.insert((*entity, *attr));
                    k.touched.insert(*entity);
                }
            }
            Change::Schema(_) => {}
        }
    }
    k
}

fn check_overlap(w: &[Change], c: &[Change]) -> Result<(), CommitConflict> {
    let kw = keys(w);
    let kc = keys(c);
    if let Some(&(entity, attr)) = kw.assigns.intersection(&kc.assigns).next() {
        return Err(CommitConflict::Value { entity, attr });
    }
    if let Some(&(entity, class)) = kw.members.intersection(&kc.members).next() {
        return Err(CommitConflict::Membership { entity, class });
    }
    if let Some(&entity) = kw
        .deletes
        .intersection(&kc.touched)
        .chain(kc.deletes.intersection(&kw.touched))
        .next()
    {
        return Err(CommitConflict::Delete { entity });
    }
    Ok(())
}

/// Replays `w` (the filtered write set recorded by `local`) onto `next`
/// through the public mutators. Entity ids minted by `local` after the
/// base epoch are remapped to the ids `next` allocates for them.
fn replay(next: &mut Database, local: &Database, w: &[Change]) -> Result<(), CoreError> {
    // Entities inserted and deleted within the same write set never reach
    // the head at all; entities deleted by the write set are handled by
    // the single delete_entity call (which re-derives the removals and
    // scrubs on the head), so their preceding per-extent entries are
    // skipped.
    let mut inserted: HashSet<EntityId> = HashSet::new();
    let mut deleted: HashSet<EntityId> = HashSet::new();
    for ch in w {
        match ch {
            Change::EntityInserted { entity, .. } => {
                inserted.insert(*entity);
            }
            Change::EntityDeleted { entity, .. } => {
                deleted.insert(*entity);
            }
            _ => {}
        }
    }
    let mut remap: HashMap<EntityId, EntityId> = HashMap::new();
    let map =
        |remap: &HashMap<EntityId, EntityId>, e: EntityId| remap.get(&e).copied().unwrap_or(e);
    for ch in w {
        match ch {
            Change::EntityInserted { entity, base, name } => {
                let rec = local.entities.get(entity.index());
                if let Some(lit) = rec.and_then(|r| r.literal.clone()) {
                    // Literal intern: idempotent on the head, possibly a
                    // different id.
                    let id = next.intern(lit)?;
                    remap.insert(*entity, id);
                } else {
                    if deleted.contains(entity) {
                        // Inserted and deleted in the same commit: never
                        // materialises on the head.
                        continue;
                    }
                    let id = next.insert_entity(*base, name)?;
                    remap.insert(*entity, id);
                }
            }
            Change::EntityDeleted { entity, .. } => {
                if inserted.contains(entity) {
                    continue;
                }
                next.delete_entity(*entity)?;
            }
            Change::EntityRenamed { entity, name } => {
                if deleted.contains(entity) {
                    continue;
                }
                next.rename_entity(map(&remap, *entity), name)?;
            }
            Change::MembershipAdded { entity, class } => {
                if deleted.contains(entity) {
                    continue;
                }
                // Idempotent; cascades to ancestors like the original call.
                next.add_to_class(map(&remap, *entity), *class)?;
            }
            Change::MembershipRemoved { entity, class } => {
                if deleted.contains(entity) {
                    continue;
                }
                next.remove_from_class(map(&remap, *entity), *class)?;
            }
            Change::AttrAssigned {
                entity, attr, new, ..
            } => {
                if deleted.contains(entity) {
                    continue;
                }
                let e = map(&remap, *entity);
                match new {
                    AttrValue::Single(v) if v.is_null() => {
                        next.unassign(e, *attr)?;
                    }
                    AttrValue::Single(v) => {
                        // Naming-attribute assignments redirect to rename
                        // inside assign_single; the EntityRenamed entry
                        // that follows then no-ops.
                        next.assign_single(e, *attr, map(&remap, *v))?;
                    }
                    AttrValue::Multi(s) => {
                        let vals: Vec<EntityId> = s.iter().map(|v| map(&remap, v)).collect();
                        next.assign_multi(e, *attr, vals)?;
                    }
                }
            }
            Change::Schema(_) => {
                // Schema edits conflict before replay is attempted.
                debug_assert!(false, "schema edit reached replay");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (Database, ClassId, AttrId) {
        let mut db = Database::new("mvcc-test");
        let people = db.create_baseclass("PEOPLE").unwrap();
        let ints = db.predefined(crate::literal::BaseKind::Integers);
        let age = db
            .create_attribute(people, "age", ints, crate::attribute::Multiplicity::Single)
            .unwrap();
        db.insert_entity(people, "ann").unwrap();
        db.insert_entity(people, "bob").unwrap();
        (db, people, age)
    }

    #[test]
    fn pinned_reader_is_stable_and_fast_path_commits() {
        let (db, people, _) = seeded();
        let shared = SharedDatabase::new(db);
        let reader = shared.pin();
        let before = reader.class(people).unwrap().members.len();

        let mut writer = shared.pin();
        let base = writer.delta_epoch();
        writer.insert_entity(people, "carol").unwrap();
        let receipt = shared.commit(base, &writer).unwrap();
        assert!(!receipt.rebased);
        assert_eq!(shared.commits(), 1);

        // The pinned reader still sees the old extent; the head sees carol.
        assert_eq!(reader.class(people).unwrap().members.len(), before);
        assert_eq!(
            shared.read(|db| db.class(people).unwrap().members.len()),
            before + 1
        );
    }

    #[test]
    fn conflicting_commits_one_wins() {
        let (db, people, age) = seeded();
        let ann = db.entity_by_name(people, "ann").unwrap();
        let shared = SharedDatabase::new(db);

        let mut w1 = shared.pin();
        let b1 = w1.delta_epoch();
        let mut w2 = shared.pin();
        let b2 = w2.delta_epoch();

        let v1 = w1.int(30);
        w1.assign_single(ann, age, v1).unwrap();
        let v2 = w2.int(40);
        w2.assign_single(ann, age, v2).unwrap();

        shared.commit(b1, &w1).unwrap();
        let err = shared.commit(b2, &w2).unwrap_err();
        assert_eq!(
            err,
            CommitConflict::Value {
                entity: ann,
                attr: age
            }
        );
        // The first committer's value stands.
        let thirty = shared.read(|db| {
            let v = db.attr_value(ann, age).unwrap();
            match v {
                AttrValue::Single(e) => db.literal_of(e).cloned(),
                _ => None,
            }
        });
        assert_eq!(thirty, Some(crate::literal::Literal::Int(30)));
    }

    #[test]
    fn disjoint_commits_rebase_with_id_remap() {
        let (db, people, age) = seeded();
        let shared = SharedDatabase::new(db);

        let mut w1 = shared.pin();
        let b1 = w1.delta_epoch();
        let mut w2 = shared.pin();
        let b2 = w2.delta_epoch();

        // Both insert a new entity: raw ids collide across lines, the
        // rebase must remap.
        let carol = w1.insert_entity(people, "carol").unwrap();
        let v = w1.int(25);
        w1.assign_single(carol, age, v).unwrap();

        let dave = w2.insert_entity(people, "dave").unwrap();
        let v = w2.int(35);
        w2.assign_single(dave, age, v).unwrap();

        shared.commit(b1, &w1).unwrap();
        let receipt = shared.commit(b2, &w2).unwrap();
        assert!(receipt.rebased);
        assert_eq!(shared.commits(), 2);

        shared.read(|db| {
            let carol = db.entity_by_name(people, "carol").unwrap();
            let dave = db.entity_by_name(people, "dave").unwrap();
            assert_ne!(carol, dave);
            let get = |e| match db.attr_value(e, age).unwrap() {
                AttrValue::Single(v) => db.literal_of(v).cloned(),
                _ => None,
            };
            assert_eq!(get(carol), Some(crate::literal::Literal::Int(25)));
            assert_eq!(get(dave), Some(crate::literal::Literal::Int(35)));
            assert!(db.check_consistency().unwrap().is_empty());
        });
    }

    #[test]
    fn delete_vs_touch_conflicts() {
        let (db, people, age) = seeded();
        let ann = db.entity_by_name(people, "ann").unwrap();
        let shared = SharedDatabase::new(db);

        let mut w1 = shared.pin();
        let b1 = w1.delta_epoch();
        let mut w2 = shared.pin();
        let b2 = w2.delta_epoch();

        w1.delete_entity(ann).unwrap();
        let v = w2.int(50);
        w2.assign_single(ann, age, v).unwrap();

        shared.commit(b1, &w1).unwrap();
        assert_eq!(
            shared.commit(b2, &w2).unwrap_err(),
            CommitConflict::Delete { entity: ann }
        );
    }

    #[test]
    fn schema_edit_conflicts_coarsely() {
        let (db, people, _) = seeded();
        let shared = SharedDatabase::new(db);

        let mut w1 = shared.pin();
        let b1 = w1.delta_epoch();
        let mut w2 = shared.pin();
        let b2 = w2.delta_epoch();

        w1.insert_entity(people, "carol").unwrap();
        w2.create_subclass(people, "STAFF").unwrap();

        shared.commit(b1, &w1).unwrap();
        assert_eq!(shared.commit(b2, &w2).unwrap_err(), CommitConflict::Schema);
    }

    #[test]
    fn snapshot_too_old_when_window_slides() {
        let (mut db, people, _) = seeded();
        db.set_delta_capacity(4);
        let shared = SharedDatabase::new(db);

        let mut late = shared.pin();
        let b_late = late.delta_epoch();
        late.insert_entity(people, "zed").unwrap();

        // Other writers flood the shared log past the retained window.
        for i in 0..4 {
            let mut w = shared.pin();
            let b = w.delta_epoch();
            w.insert_entity(people, &format!("p{i}")).unwrap();
            shared.commit(b, &w).unwrap();
        }

        match shared.commit(b_late, &late).unwrap_err() {
            CommitConflict::SnapshotTooOld { base, .. } => assert_eq!(base, b_late),
            other => panic!("expected SnapshotTooOld, got {other:?}"),
        }
    }

    /// Keeps every change set the durability hook is handed.
    #[derive(Clone, Default)]
    struct Logged(Arc<Mutex<Vec<ChangeSet>>>);

    impl CommitHook for Logged {
        fn on_commit(&mut self, _: &Database, applied: &ChangeSet) -> Result<(), String> {
            self.0.lock().unwrap().push(applied.clone());
            Ok(())
        }
    }

    /// Fourteen people whose `friend` a commit points at `x`, committed
    /// after writer `a` pinned; `a` then inserts `y` and deletes `x`, so its
    /// rebase replays the delete's fourteen scrubs on top of its insert.
    fn friends_of_x(capacity: usize) -> (SharedDatabase, Logged, ClassId, EntityId, Database, u64) {
        let mut db = Database::new("friends");
        let people = db.create_baseclass("people").unwrap();
        let friend = db
            .create_attribute(
                people,
                "friend",
                people,
                crate::attribute::Multiplicity::Single,
            )
            .unwrap();
        let x = db.insert_entity(people, "x").unwrap();
        let others: Vec<EntityId> = (0..14)
            .map(|i| db.insert_entity(people, &format!("p{i}")).unwrap())
            .collect();
        db.set_delta_capacity(capacity);
        let shared = SharedDatabase::new(db);
        let hook = Logged::default();
        shared.set_commit_hook(Some(Box::new(hook.clone())));

        let mut a = shared.pin();
        let base_a = a.delta_epoch();
        let mut b = shared.pin();
        let base_b = b.delta_epoch();
        for &p in &others {
            b.assign_single(p, friend, x).unwrap();
        }
        assert!(!shared.commit(base_b, &b).unwrap().rebased);
        a.insert_entity(people, "y").unwrap();
        a.delete_entity(x).unwrap();
        (shared, hook, people, x, a, base_a)
    }

    #[test]
    fn a_rebase_that_outgrows_the_window_is_refused() {
        let (shared, hook, people, x, a, base_a) = friends_of_x(16);
        let epoch = shared.epoch();
        match shared.commit(base_a, &a) {
            Err(CommitConflict::SnapshotTooOld { base, oldest }) => {
                assert_eq!(base, base_a);
                assert!(oldest > base, "oldest {oldest} vs base {base}");
            }
            other => panic!("expected SnapshotTooOld, got {other:?}"),
        }
        // The head is untouched and the hook never saw the refused commit.
        assert_eq!((shared.epoch(), shared.commits()), (epoch, 1));
        shared.read(|db| {
            assert_eq!(db.entity_by_name(people, "x").unwrap(), x);
            assert!(db.entity_by_name(people, "y").is_err());
        });
        assert_eq!(hook.0.lock().unwrap().len(), 1, "only the first commit");
    }

    #[test]
    fn a_rebase_that_fits_hands_the_hook_what_the_head_recorded() {
        let (shared, hook, people, x, a, base_a) = friends_of_x(64);
        let epoch = shared.epoch();
        let receipt = shared.commit(base_a, &a).unwrap();
        assert!(receipt.rebased);
        let recorded = shared.read(|db| {
            assert!(db.entity_by_name(people, "y").is_ok());
            assert!(db.entity(x).is_err());
            db.changes_since(epoch).unwrap()
        });
        assert_eq!(receipt.changes, recorded.len());
        let logged = hook.0.lock().unwrap();
        assert_eq!(logged.len(), 2);
        assert_eq!(logged[1], recorded);
        assert!(recorded
            .iter()
            .any(|c| matches!(c, Change::EntityInserted { name, .. } if name.as_str() == "y")));
        assert!(matches!(
            recorded.iter().last(),
            Some(Change::EntityDeleted { entity, .. }) if *entity == x
        ));
    }

    #[test]
    fn durability_hook_vetoes_without_installing() {
        struct Veto;
        impl CommitHook for Veto {
            fn on_commit(&mut self, _: &Database, _: &ChangeSet) -> Result<(), String> {
                Err("disk on fire".into())
            }
        }
        let (db, people, _) = seeded();
        let shared = SharedDatabase::new(db);
        shared.set_commit_hook(Some(Box::new(Veto)));

        let mut w = shared.pin();
        let b = w.delta_epoch();
        w.insert_entity(people, "carol").unwrap();
        match shared.commit(b, &w).unwrap_err() {
            CommitConflict::Durability(m) => assert!(m.contains("disk on fire")),
            other => panic!("expected Durability, got {other:?}"),
        }
        assert_eq!(shared.commits(), 0);
        assert!(shared.read(|db| db.entity_by_name(people, "carol").is_err()));
    }

    #[test]
    fn retryable_classification_and_deterministic_jitter() {
        assert!(CommitConflict::Schema.is_retryable());
        assert!(CommitConflict::SnapshotTooOld { base: 0, oldest: 1 }.is_retryable());
        assert!(!CommitConflict::Durability("x".into()).is_retryable());

        let b = RetryBackoff::default();
        for attempt in 0..8 {
            let d = b.delay(attempt);
            assert!(d <= b.cap, "delay {d:?} above cap at attempt {attempt}");
            assert_eq!(d, b.delay(attempt), "jitter must be deterministic");
        }
        assert_eq!(RetryBackoff::unslept(4).delay(3), Duration::ZERO);
    }

    #[test]
    fn install_head_replaces_wholesale_and_keeps_hook() {
        struct Veto;
        impl CommitHook for Veto {
            fn on_commit(&mut self, _: &Database, _: &ChangeSet) -> Result<(), String> {
                Err("read-only".into())
            }
            fn poisoned(&self) -> bool {
                false
            }
        }
        let (db, people, _) = seeded();
        let shared = SharedDatabase::new(db);
        shared.set_commit_hook(Some(Box::new(Veto)));
        assert!(!shared.hook_poisoned());

        let old_pin = shared.pin();
        let old_epoch = shared.epoch();
        let mut replacement = Database::new("other");
        replacement.create_baseclass("crew").unwrap();
        let epoch = shared.install_head(replacement);
        assert_eq!(shared.commits(), 1);
        // Epochs on one handle only grow across an install, and a commit
        // based on the old line is too old rather than rebased.
        assert!(
            epoch > old_epoch,
            "epoch {epoch} after install vs {old_epoch}"
        );
        assert_eq!(shared.epoch(), epoch);
        assert!(matches!(
            shared.commit(old_epoch, &old_pin).unwrap_err(),
            CommitConflict::SnapshotTooOld { .. }
        ));
        assert!(shared.read(|db| db.class_by_name("crew").is_ok()));
        // Old pins remain intact snapshots of the previous line.
        assert!(old_pin.entity_by_name(people, "ann").is_ok());
        // The hook survived the swap: commits are still vetoed.
        let mut w = shared.pin();
        let b = w.delta_epoch();
        w.insert_entity(w.class_by_name("crew").unwrap(), "dana")
            .unwrap();
        assert!(matches!(
            shared.commit(b, &w).unwrap_err(),
            CommitConflict::Durability(_)
        ));
    }
}
