//! Structured change notification: every mutation of a [`Database`] is
//! recorded into a bounded [`DeltaLog`] as a sequence of [`Change`] entries.
//! The log is the one record of what a mutation changed: mutators return
//! only their result, and a caller that needs the changes remembers
//! [`Database::delta_epoch`] before the call and reads
//! [`Database::changes_since`] after it.
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
use std::sync::Arc;

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

/// An ordered batch of changes: one `changes_since` window of the log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeSet {
    /// The recorded changes, in application order.
    pub changes: Vec<Change>,
}

impl ChangeSet {
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
}

/// Default bound on retained entries; older entries are evicted and
/// consumers whose epoch predates the window fall back to a full rebuild.
pub const DELTA_LOG_DEFAULT_CAPACITY: usize = 1 << 16;

/// Entries per delta-log chunk: a clone shares a full window's 256 chunks
/// instead of copying its 65,536 entries, and the first record after a
/// clone copies at most one chunk.
const LOG_CHUNK: usize = 256;

/// Bounded in-memory log of every change applied to a database, addressed
/// by monotonically increasing epochs. Epoch `e` denotes the state after
/// the first `e` changes ever recorded; the log retains a sliding window
/// of the most recent entries.
///
/// The window is stored in 256-entry `Arc` chunks in the `chunk.rs`
/// idiom, so a clone costs O(#chunks) and shares every chunk.
/// Every chunk but the last is full; entries are evicted one at a time by
/// advancing an offset into the first chunk, which is dropped once all its
/// entries are evicted. The log therefore holds at most `capacity` plus
/// one partly evicted chunk of entries, and a clone keeps alive the
/// chunks it shares.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    /// Epoch of the oldest retained entry.
    base: u64,
    /// The window: `chunks[0][head..]`, then the later chunks whole.
    chunks: VecDeque<Arc<Vec<Change>>>,
    /// Entries of the first chunk already evicted.
    head: usize,
    capacity: usize,
}

impl Default for DeltaLog {
    fn default() -> Self {
        DeltaLog {
            base: 0,
            chunks: VecDeque::new(),
            head: 0,
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
        self.evict(self.len().saturating_sub(capacity));
    }

    /// The epoch after the most recent change.
    pub fn epoch(&self) -> u64 {
        self.base + self.len() as u64
    }

    /// The oldest epoch still addressable by [`DeltaLog::since`].
    pub fn base_epoch(&self) -> u64 {
        self.base
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.chunks.back().map_or(0, |last| {
            (self.chunks.len() - 1) * LOG_CHUNK + last.len() - self.head
        })
    }

    /// `true` if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Empties the window and renumbers it to start at `epoch` (the
    /// capacity is kept).
    pub(crate) fn restart_at(&mut self, epoch: u64) {
        self.chunks.clear();
        self.head = 0;
        self.base = epoch;
    }

    /// Evicts the `n` oldest entries (at most [`DeltaLog::len`]), dropping
    /// every chunk they empty.
    fn evict(&mut self, n: usize) {
        self.base += n as u64;
        self.head += n;
        while let Some(first) = self.chunks.front() {
            if self.head < first.len() {
                break;
            }
            self.head -= first.len();
            self.chunks.pop_front();
        }
    }

    pub(crate) fn record(&mut self, change: Change) {
        // Evict before appending, so a full window never holds more than
        // its capacity plus the evicted head of its first chunk.
        if self.capacity == 0 {
            self.base += 1;
            return;
        }
        self.evict((self.len() + 1).saturating_sub(self.capacity));
        match self.chunks.back_mut() {
            Some(last) if last.len() < LOG_CHUNK => {
                // Copies the chunk first if a clone shares it.
                let last = Arc::make_mut(last);
                if last.len() == last.capacity() {
                    // Grow by doubling, but never past one chunk (a copy
                    // has no spare room, so `push` alone would overshoot).
                    last.reserve_exact(last.len().min(LOG_CHUNK - last.len()));
                }
                last.push(change);
            }
            _ => self.chunks.push_back(Arc::new(vec![change])),
        }
    }

    /// The changes recorded at or after `epoch`, or `None` if the window
    /// has slid past it (the consumer must rebuild). Copies only the
    /// suffix it returns.
    pub fn since(&self, epoch: u64) -> Option<ChangeSet> {
        if epoch < self.base || epoch > self.epoch() {
            return None;
        }
        let start = self.head + (epoch - self.base) as usize;
        let mut changes = Vec::with_capacity((self.epoch() - epoch) as usize);
        let (first, offset) = (start / LOG_CHUNK, start % LOG_CHUNK);
        for (i, chunk) in self.chunks.range(first..).enumerate() {
            changes.extend_from_slice(&chunk[if i == 0 { offset } else { 0 }..]);
        }
        Some(ChangeSet { changes })
    }
}

#[cfg(test)]
impl DeltaLog {
    pub(crate) fn chunks(&self) -> &VecDeque<Arc<Vec<Change>>> {
        &self.chunks
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
    /// grow it to avoid rebuild storms. On a [`SharedDatabase`] head the
    /// window also bounds one commit: a write set, or a rebase replay,
    /// that records more changes than the window holds is refused with
    /// [`CommitConflict::SnapshotTooOld`], so the durability hook only
    /// ever sees whole commits.
    ///
    /// [`SharedDatabase`]: crate::SharedDatabase
    /// [`CommitConflict::SnapshotTooOld`]: crate::CommitConflict::SnapshotTooOld
    pub fn set_delta_capacity(&mut self, capacity: usize) {
        self.delta.set_capacity(capacity);
    }

    pub(crate) fn record_change(&mut self, change: Change) {
        self.delta.record(change);
    }

    pub(crate) fn record_schema(&mut self, edit: SchemaEdit) {
        self.delta.record(Change::Schema(edit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// A full window evicts before it records, so it holds at most its
    /// capacity plus the evicted head of one chunk, and no chunk grows past
    /// [`LOG_CHUNK`] entries, also when a clone made it copy its last
    /// chunk; a zero window keeps nothing but still counts.
    #[test]
    fn a_full_window_does_not_outgrow_its_capacity() {
        for capacity in [8, LOG_CHUNK + 8, 3 * LOG_CHUNK] {
            let mut log = DeltaLog::with_capacity(capacity);
            let mut clones = Vec::new();
            let n = 5 * LOG_CHUNK as u32;
            for i in 0..n {
                log.record(change(i));
                let held: usize = log.chunks.iter().map(|c| c.len()).sum();
                assert!(held < capacity + LOG_CHUNK, "{capacity}: {held}");
                if i.is_multiple_of(100) {
                    clones.push(log.clone());
                }
            }
            let n = u64::from(n);
            let want = (capacity, n - capacity as u64, n);
            assert_eq!((log.len(), log.base_epoch(), log.epoch()), want);
            assert!(log.chunks.iter().all(|c| c.capacity() <= LOG_CHUNK));
        }
        let mut none = DeltaLog::with_capacity(0);
        none.record(change(0));
        assert_eq!((none.len(), none.base_epoch(), none.epoch()), (0, 1, 1));
        assert!(none.chunks.is_empty());
    }

    /// A clone shares every chunk; the original evicting a chunk the clone
    /// still holds, or copying the last chunk to record, leaves the clone
    /// whole.
    #[test]
    fn a_clone_keeps_the_chunks_its_original_evicts() {
        let mut log = DeltaLog::with_capacity(2 * LOG_CHUNK);
        for i in 0..2 * LOG_CHUNK as u32 + 10 {
            log.record(change(i));
        }
        let copy = log.clone();
        assert_eq!(copy.chunks.len(), 3);
        assert!(log
            .chunks
            .iter()
            .zip(&copy.chunks)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        let window = copy.since(copy.base_epoch()).unwrap();
        log.record(change(9999));
        assert!(!Arc::ptr_eq(
            log.chunks.back().unwrap(),
            copy.chunks.back().unwrap()
        ));
        for i in 0..LOG_CHUNK as u32 {
            log.record(change(10_000 + i));
        }
        assert!(!log.chunks.iter().any(|c| Arc::ptr_eq(c, &copy.chunks[0])));
        assert_eq!(copy.since(copy.base_epoch()), Some(window));
        assert_eq!(log.since(log.base_epoch()).unwrap().len(), 2 * LOG_CHUNK);
    }

    /// The window the chunked log replaces: a `VecDeque` of every retained
    /// entry, evicted one at a time.
    #[derive(Debug, Clone)]
    struct Model {
        base: u64,
        entries: VecDeque<Change>,
        capacity: usize,
    }

    impl Model {
        fn epoch(&self) -> u64 {
            self.base + self.entries.len() as u64
        }

        fn evict_to(&mut self, keep: usize) {
            while self.entries.len() > keep {
                self.entries.pop_front();
                self.base += 1;
            }
        }

        fn record(&mut self, change: Change) {
            if self.capacity == 0 {
                self.base += 1;
                return;
            }
            self.evict_to(self.capacity - 1);
            self.entries.push_back(change);
        }

        fn since(&self, epoch: u64) -> Option<Vec<Change>> {
            let skip = epoch.checked_sub(self.base)? as usize;
            (epoch <= self.epoch()).then(|| self.entries.iter().skip(skip).cloned().collect())
        }
    }

    /// A log and its model agree on every epoch, length, capacity and
    /// window, and the chunks keep their shape: non-empty, full but for
    /// the last, never past [`LOG_CHUNK`].
    fn check(log: &DeltaLog, model: &Model) {
        let (base, epoch) = (model.base, model.epoch());
        assert_eq!((log.base_epoch(), log.epoch()), (base, epoch));
        assert_eq!(
            (log.len(), log.is_empty()),
            (model.entries.len(), model.entries.is_empty())
        );
        assert_eq!(log.capacity(), model.capacity);
        let probes = [
            base.saturating_sub(1),
            base,
            (base + epoch) / 2,
            epoch,
            epoch + 1,
        ];
        for e in probes {
            assert_eq!(
                log.since(e).map(|cs| cs.changes),
                model.since(e),
                "since({e})"
            );
        }
        let n = log.chunks.len();
        for (i, c) in log.chunks.iter().enumerate() {
            assert!(!c.is_empty() && c.capacity() <= LOG_CHUNK);
            assert!(i + 1 == n || c.len() == LOG_CHUNK);
        }
        assert!(log
            .chunks
            .front()
            .map_or(log.head == 0, |c| log.head < c.len()));
        let held: usize = log.chunks.iter().map(|c| c.len()).sum();
        assert!(held < model.capacity + LOG_CHUNK, "{held} held");
    }

    /// The capacities the model test runs at: empty, tiny, either side of
    /// one chunk, and four chunks.
    const CAPACITIES: [usize; 7] = [0, 1, 4, LOG_CHUNK - 1, LOG_CHUNK, LOG_CHUNK + 1, 1024];

    /// One step of the model test. `side` picks the log it acts on: the
    /// original (0) or one of its live clones.
    #[derive(Debug, Clone)]
    enum Step {
        Record { side: usize, n: usize },
        SetCapacity { side: usize, capacity: usize },
        RestartAt { side: usize, ahead: u64 },
        Clone { side: usize },
        Drop { side: usize },
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..8, 0usize..4, 1usize..700, 0usize..CAPACITIES.len()).prop_map(|(k, side, n, c)| {
            match k {
                0..=3 => Step::Record { side, n },
                4 => Step::SetCapacity {
                    side,
                    capacity: CAPACITIES[c],
                },
                5 => Step::RestartAt {
                    side,
                    ahead: n as u64 % 3,
                },
                6 => Step::Clone { side },
                _ => Step::Drop { side },
            }
        })
    }

    /// A change that owns heap data every third entry, so a chunk copy
    /// clones strings too.
    fn entry(i: u32) -> Change {
        if i.is_multiple_of(3) {
            Change::EntityInserted {
                entity: EntityId::from_raw(i),
                base: ClassId::from_raw(4),
                name: format!("e{i}"),
            }
        } else {
            change(i)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Records, capacity changes, restarts, clones and drops on any
        /// side leave every log equal to its own `VecDeque` model: a
        /// clone is untouched by what its original records and evicts,
        /// chunks the clone still holds included, and the other way round.
        #[test]
        fn the_chunked_log_matches_a_deque_model(
            capacity in 0usize..CAPACITIES.len(),
            steps in prop::collection::vec(step(), 0..24)
        ) {
            let capacity = CAPACITIES[capacity];
            let mut sides = vec![(
                DeltaLog::with_capacity(capacity),
                Model { base: 0, entries: VecDeque::new(), capacity },
            )];
            let mut next = 0u32;
            for st in steps {
                let k = sides.len();
                match st {
                    Step::Record { side, n } => {
                        let (log, model) = &mut sides[side % k];
                        for _ in 0..n {
                            log.record(entry(next));
                            model.record(entry(next));
                            next += 1;
                        }
                    }
                    Step::SetCapacity { side, capacity } => {
                        let (log, model) = &mut sides[side % k];
                        log.set_capacity(capacity);
                        model.capacity = capacity;
                        model.evict_to(capacity);
                    }
                    Step::RestartAt { side, ahead } => {
                        let (log, model) = &mut sides[side % k];
                        let epoch = model.epoch() + ahead;
                        log.restart_at(epoch);
                        model.entries.clear();
                        model.base = epoch;
                    }
                    Step::Clone { side } => {
                        let (log, model) = &sides[side % k];
                        let copy = (log.clone(), model.clone());
                        prop_assert!(log.chunks.iter().zip(&copy.0.chunks).all(|(a, b)| Arc::ptr_eq(a, b)));
                        if k == 4 {
                            sides.remove(1);
                        }
                        sides.push(copy);
                    }
                    Step::Drop { side } => {
                        if k > 1 {
                            sides.remove(1 + side % (k - 1));
                        }
                    }
                }
                for (log, model) in &sides {
                    check(log, model);
                }
            }
        }
    }

    #[test]
    fn changeset_helpers() {
        let mut cs = ChangeSet::default();
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
