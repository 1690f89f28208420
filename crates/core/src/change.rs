//! Structured change notification: every mutation of a [`Database`] is
//! recorded into a bounded [`DeltaLog`] as a sequence of [`Change`] entries,
//! and every mutator that used to return `()` now returns the [`ChangeSet`]
//! it produced.
//!
//! The paper keeps derived subclasses stale between commits (§2); the delta
//! log is what lets the engine do better than the paper without giving up
//! its semantics: consumers (index maintenance, incremental derived-class
//! refresh in `isis-query`/`isis-session`) subscribe by remembering an
//! *epoch* — `Database::delta_epoch` — and later ask for
//! `Database::changes_since(epoch)` to re-evaluate only what a mutation
//! actually touched.
//!
//! Value updates carry exact `(entity, attr, old, new)` transitions, so a
//! consumer can maintain inverted indexes without rescanning; the per-pair
//! sequence of transitions is chained (each `old` equals the previous
//! `new`).

use std::collections::{HashSet, VecDeque};

use crate::attribute::AttrValue;
use crate::ids::{AttrId, ClassId, EntityId, GroupingId};
use crate::Database;

/// A schema-level edit. Consumers generally treat any schema edit as a
/// signal to rebuild derived state from scratch: schema edits are rare and
/// can invalidate predicates, maps and indexes wholesale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaEdit {
    /// A class (baseclass or subclass) was created.
    ClassCreated(ClassId),
    /// A class was renamed.
    ClassRenamed(ClassId),
    /// A class was deleted.
    ClassDeleted(ClassId),
    /// An attribute was created.
    AttrCreated(AttrId),
    /// An attribute was renamed.
    AttrRenamed(AttrId),
    /// An attribute was deleted (values cleared).
    AttrDeleted(AttrId),
    /// The value class of an attribute was respecified (values cleared).
    ValueClassChanged(AttrId),
    /// A grouping was created.
    GroupingCreated(GroupingId),
    /// A grouping was renamed.
    GroupingRenamed(GroupingId),
    /// A grouping was deleted.
    GroupingDeleted(GroupingId),
    /// A secondary parent was added under the multiple-inheritance
    /// extension.
    SecondaryParentAdded {
        /// The class that gained a parent.
        class: ClassId,
        /// The new secondary parent.
        parent: ClassId,
    },
    /// A membership predicate was installed or replaced on a derived
    /// subclass (`commit_membership` with a *different* predicate; plain
    /// refreshes do not re-record this).
    DerivationChanged(ClassId),
    /// A derivation was installed or replaced on an attribute.
    AttrDerivationChanged(AttrId),
    /// The multiple-inheritance extension (§5) was switched on.
    MultipleInheritanceEnabled,
}

/// One recorded mutation step.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// A fresh entity entered `base` (user insert or literal intern).
    EntityInserted {
        /// The new entity.
        entity: EntityId,
        /// Its baseclass.
        base: ClassId,
        /// The name it was inserted under (for literals, the display name).
        /// Recorded so a change stream is self-contained: replaying a
        /// commit onto another database line needs the insert-time name,
        /// which later renames would otherwise erase.
        name: String,
    },
    /// An entity was deleted outright. Membership removals and value scrubs
    /// are recorded separately before this entry.
    EntityDeleted {
        /// The deleted entity.
        entity: EntityId,
        /// The baseclass it belonged to.
        base: ClassId,
    },
    /// An entity was renamed. The naming-attribute value transition is also
    /// recorded as an [`Change::AttrAssigned`] on the baseclass's naming
    /// attribute, so index consumers need no special case.
    EntityRenamed {
        /// The renamed entity.
        entity: EntityId,
        /// The new name (self-contained for replay, like
        /// [`Change::EntityInserted::name`]).
        name: String,
    },
    /// `entity` entered the extent of `class`.
    MembershipAdded {
        /// The entity that gained membership.
        entity: EntityId,
        /// The class it entered.
        class: ClassId,
    },
    /// `entity` left the extent of `class`.
    MembershipRemoved {
        /// The entity that lost membership.
        entity: EntityId,
        /// The class it left.
        class: ClassId,
    },
    /// The stored value of `attr` for `entity` went from `old` to `new`
    /// (assignment, unassignment, scrubbing, or derived materialisation).
    /// Only recorded when `old != new`.
    AttrAssigned {
        /// The entity whose value changed.
        entity: EntityId,
        /// The attribute assigned.
        attr: AttrId,
        /// The previous value (default if never assigned).
        old: AttrValue,
        /// The value now stored.
        new: AttrValue,
    },
    /// A schema edit; see [`SchemaEdit`].
    Schema(SchemaEdit),
}

impl Change {
    /// The attribute whose stored values this change affects, if any.
    pub fn touched_attr(&self) -> Option<AttrId> {
        match self {
            Change::AttrAssigned { attr, .. } => Some(*attr),
            _ => None,
        }
    }

    /// `true` for schema-level edits.
    pub fn is_schema(&self) -> bool {
        matches!(self, Change::Schema(_))
    }
}

/// An ordered batch of changes — what one mutator call (or one
/// `changes_since` window) produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeSet {
    /// The recorded changes, in application order.
    pub changes: Vec<Change>,
}

impl ChangeSet {
    /// An empty change set.
    pub fn new() -> ChangeSet {
        ChangeSet::default()
    }

    /// `true` if no changes were recorded.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of recorded changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Iterates over the changes in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, Change> {
        self.changes.iter()
    }

    /// `true` if any entry is a schema edit (consumers should rebuild).
    pub fn has_schema_changes(&self) -> bool {
        self.changes.iter().any(Change::is_schema)
    }

    /// One flag per change: `true` for a value a class leave dropped, that
    /// is an `AttrAssigned` of an entity that an earlier change of this set
    /// removed from the attribute's owner class (as `schema` records the
    /// owner), no later one re-added, and the set does not delete.
    /// Mutators refuse to assign a non-member, so only
    /// `Database::remove_from_class` records these, and replaying the
    /// removal re-derives them: commit rebase and the store's commit
    /// batches skip them. (A deleted entity's records are left to the
    /// deletion's replay.)
    pub fn leave_drops(&self, schema: &Database) -> Vec<bool> {
        let deleted: HashSet<EntityId> = self
            .changes
            .iter()
            .filter_map(|c| match c {
                Change::EntityDeleted { entity, .. } => Some(*entity),
                _ => None,
            })
            .collect();
        let mut left: HashSet<(EntityId, ClassId)> = HashSet::new();
        self.changes
            .iter()
            .map(|c| match c {
                Change::MembershipRemoved { entity, class } => {
                    left.insert((*entity, *class));
                    false
                }
                Change::MembershipAdded { entity, class } => {
                    left.remove(&(*entity, *class));
                    false
                }
                Change::AttrAssigned { entity, attr, .. } => {
                    !deleted.contains(entity)
                        && schema
                            .attr(*attr)
                            .is_ok_and(|a| left.contains(&(*entity, a.owner)))
                }
                _ => false,
            })
            .collect()
    }

    /// The distinct attributes whose stored values changed, in first-touch
    /// order.
    pub fn touched_attrs(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        for c in &self.changes {
            if let Some(a) = c.touched_attr() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Appends all changes of `other`.
    pub fn merge(&mut self, other: ChangeSet) {
        self.changes.extend(other.changes);
    }
}

impl IntoIterator for ChangeSet {
    type Item = Change;
    type IntoIter = std::vec::IntoIter<Change>;
    fn into_iter(self) -> Self::IntoIter {
        self.changes.into_iter()
    }
}

impl<'a> IntoIterator for &'a ChangeSet {
    type Item = &'a Change;
    type IntoIter = std::slice::Iter<'a, Change>;
    fn into_iter(self) -> Self::IntoIter {
        self.changes.iter()
    }
}

/// Default bound on retained entries; older entries are evicted and
/// consumers whose epoch predates the window fall back to a full rebuild.
pub const DELTA_LOG_DEFAULT_CAPACITY: usize = 1 << 16;

/// Bounded in-memory log of every change applied to a database, addressed
/// by monotonically increasing epochs. Epoch `e` denotes the state after
/// the first `e` changes ever recorded; the log retains a sliding window
/// of the most recent entries.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    /// Epoch of the oldest retained entry.
    base: u64,
    entries: VecDeque<Change>,
    capacity: usize,
}

impl Default for DeltaLog {
    fn default() -> Self {
        DeltaLog {
            base: 0,
            entries: VecDeque::new(),
            capacity: DELTA_LOG_DEFAULT_CAPACITY,
        }
    }
}

impl DeltaLog {
    /// An empty log retaining at most `capacity` entries (a capacity of 0
    /// retains nothing: every consumer always rebuilds).
    pub fn with_capacity(capacity: usize) -> DeltaLog {
        DeltaLog {
            capacity,
            ..DeltaLog::default()
        }
    }

    /// The retention bound: how many entries the sliding window keeps.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the retention bound. Shrinking evicts the oldest entries
    /// immediately (consumers with epochs in the evicted range fall back
    /// to a rebuild); growing simply allows the window to fill further.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
            self.base += 1;
        }
    }

    /// The epoch after the most recent change.
    pub fn epoch(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// The oldest epoch still addressable by [`DeltaLog::since`].
    pub fn base_epoch(&self) -> u64 {
        self.base
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the window and renumbers it to start at `epoch` (the
    /// capacity is kept).
    pub(crate) fn restart_at(&mut self, epoch: u64) {
        self.entries.clear();
        self.base = epoch;
    }

    pub(crate) fn record(&mut self, change: Change) {
        // Evict before appending: appending to a full window first would
        // double the deque's allocation for one entry it drops at once.
        if self.capacity == 0 {
            self.base += 1;
            return;
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.base += 1;
        }
        self.entries.push_back(change);
    }

    /// The changes recorded at or after `epoch`, or `None` if the window
    /// has slid past it (the consumer must rebuild).
    pub fn since(&self, epoch: u64) -> Option<ChangeSet> {
        if epoch < self.base || epoch > self.epoch() {
            return None;
        }
        let skip = (epoch - self.base) as usize;
        Some(ChangeSet {
            changes: self.entries.iter().skip(skip).cloned().collect(),
        })
    }
}

impl Database {
    /// The current delta epoch: remember it, mutate, then ask
    /// [`Database::changes_since`] for everything that happened in between.
    pub fn delta_epoch(&self) -> u64 {
        self.delta.epoch()
    }

    /// The changes recorded at or after `epoch`, or `None` if the log has
    /// evicted that window (or `epoch` is from a different database line,
    /// e.g. after an undo restored an older clone) — rebuild in that case.
    pub fn changes_since(&self, epoch: u64) -> Option<ChangeSet> {
        self.delta.since(epoch)
    }

    /// Read access to the delta log itself.
    pub fn delta_log(&self) -> &DeltaLog {
        &self.delta
    }

    /// The delta log's retention bound.
    pub fn delta_capacity(&self) -> usize {
        self.delta.capacity()
    }

    /// Rebounds the delta log window (see [`DeltaLog::set_capacity`]).
    /// Databases that never use incremental consumers can shrink it;
    /// long-lived interactive sessions with many maintained views can
    /// grow it to avoid rebuild storms.
    pub fn set_delta_capacity(&mut self, capacity: usize) {
        self.delta.set_capacity(capacity);
    }

    pub(crate) fn record_change(&mut self, change: Change) {
        self.delta.record(change);
    }

    pub(crate) fn record_schema(&mut self, edit: SchemaEdit) {
        self.delta.record(Change::Schema(edit));
    }

    /// The suffix of the log recorded since `mark` (taken from
    /// [`Database::delta_epoch`] at the start of a mutator). Falls back to
    /// the whole retained window in the pathological case where a single
    /// mutation overflowed the log capacity.
    pub(crate) fn delta_suffix(&self, mark: u64) -> ChangeSet {
        self.delta.since(mark).unwrap_or_else(|| {
            self.delta
                .since(self.delta.base_epoch())
                .unwrap_or_default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change(i: u32) -> Change {
        Change::MembershipAdded {
            entity: EntityId::from_raw(i),
            class: ClassId::from_raw(0),
        }
    }

    #[test]
    fn epochs_advance_and_windows_slice() {
        let mut log = DeltaLog::default();
        assert_eq!(log.epoch(), 0);
        let mark = log.epoch();
        log.record(change(1));
        log.record(change(2));
        assert_eq!(log.epoch(), 2);
        let cs = log.since(mark).unwrap();
        assert_eq!(cs.len(), 2);
        let cs = log.since(1).unwrap();
        assert_eq!(cs.changes, vec![change(2)]);
        assert!(log.since(2).unwrap().is_empty());
        assert_eq!(log.since(3), None);
    }

    #[test]
    fn capacity_evicts_and_invalidates_old_epochs() {
        let mut log = DeltaLog {
            capacity: 4,
            ..DeltaLog::default()
        };
        for i in 0..10 {
            log.record(change(i));
        }
        assert_eq!(log.epoch(), 10);
        assert_eq!(log.base_epoch(), 6);
        assert_eq!(log.len(), 4);
        assert_eq!(log.since(0), None);
        assert_eq!(log.since(5), None);
        assert_eq!(log.since(6).unwrap().len(), 4);
    }

    #[test]
    fn capacity_is_configurable_and_shrinking_evicts() {
        let mut log = DeltaLog::with_capacity(8);
        assert_eq!(log.capacity(), 8);
        for i in 0..8 {
            log.record(change(i));
        }
        assert_eq!(log.len(), 8);
        log.set_capacity(3);
        assert_eq!(log.len(), 3);
        assert_eq!(log.base_epoch(), 5);
        assert_eq!(log.since(4), None);
        assert_eq!(log.since(5).unwrap().len(), 3);
        log.set_capacity(5);
        log.record(change(8));
        log.record(change(9));
        assert_eq!(log.len(), 5);
        assert_eq!(log.epoch(), 10);
    }

    /// A full window evicts before it records, so its deque never grows
    /// past the window; a zero window keeps nothing but still counts.
    #[test]
    fn a_full_window_does_not_outgrow_its_capacity() {
        let mut log = DeltaLog::with_capacity(8);
        for i in 0..100 {
            log.record(change(i));
        }
        assert_eq!((log.len(), log.base_epoch(), log.epoch()), (8, 92, 100));
        assert!(log.entries.capacity() < 16, "{}", log.entries.capacity());
        let mut none = DeltaLog::with_capacity(0);
        none.record(change(0));
        assert_eq!((none.len(), none.base_epoch(), none.epoch()), (0, 1, 1));
    }

    #[test]
    fn changeset_helpers() {
        let mut cs = ChangeSet::new();
        assert!(cs.is_empty());
        cs.changes.push(Change::AttrAssigned {
            entity: EntityId::from_raw(1),
            attr: AttrId::from_raw(3),
            old: AttrValue::Single(EntityId::NULL),
            new: AttrValue::Single(EntityId::from_raw(2)),
        });
        cs.changes.push(Change::AttrAssigned {
            entity: EntityId::from_raw(2),
            attr: AttrId::from_raw(3),
            old: AttrValue::Single(EntityId::NULL),
            new: AttrValue::Single(EntityId::from_raw(2)),
        });
        cs.changes
            .push(Change::Schema(SchemaEdit::AttrRenamed(AttrId::from_raw(3))));
        assert_eq!(cs.touched_attrs(), vec![AttrId::from_raw(3)]);
        assert!(cs.has_schema_changes());
        assert_eq!(cs.len(), 3);
    }
}
