//! Hybrid columnar attribute storage (DESIGN.md §4f).
//!
//! Every [`crate::AttrRecord`] used to key a `HashMap<EntityId, AttrValue>`
//! — one hash probe (and, for multivalued reads, one whole-set clone) per
//! attribute access, which is exactly the operation the predicate
//! evaluator's hot loop repeats per atom per candidate. [`AttrColumn`]
//! replaces it with a hybrid layout:
//!
//! * **dense column** — singlevalued assignments for a well-populated
//!   attribute live in slots indexed directly by the owning entity's raw
//!   id ([`EntityId::NULL`] is the in-column default sentinel). Entity
//!   arena slots are never recycled (tombstones keep ids stable — see
//!   `image.rs`), so the raw id *is* the column slot and a full-extent
//!   scan walks the slots in storage order;
//! * **overflow map** — multivalued assignments, sparse attributes, and
//!   ids beyond the dense frontier keep the compact hash-map layout.
//!
//! Both halves are chunked by raw entity id on 1024-id boundaries (the
//! batched evaluator's run length): raw id `i` lives in chunk `i / 1024`,
//! either as a slot of a fixed 1024-slot dense chunk or as an entry of
//! that chunk's overflow map. Chunks are `Arc`s shared between clones of
//! the column and copied on their first write (`chunk.rs`), so cloning a
//! database clones a column in O(#chunks) and a write copies one chunk.
//!
//! The column is **canonical**: a stored default (`Single(NULL)` or an
//! empty `Multi` set) is removed rather than kept. Defaults are
//! unobservable through [`crate::AttrRecord::value_of`], change recording
//! (`old != new` gating), and the consistency rules (NULL / empty pass
//! every check), so canonicalisation preserves engine semantics exactly
//! while making `len()` mean "entities with a non-default value".
//!
//! Layout is an implementation detail: `PartialEq` compares *logical*
//! content (two columns holding the same `(entity, value)` pairs are equal
//! regardless of dense/sparse state or chunk sharing), and the snapshot
//! codec writes the same sorted `(entity, value)` byte stream as the old
//! map layout.
//!
//! Promotion and demotion are amortised: a sparse column attempts
//! promotion only when its population doubles past the last attempt
//! ([`AttrColumn::DENSE_MIN`], occupancy ≥ span / [`AttrColumn::DENSE_FACTOR`]);
//! a dense column demotes (compacts) back to sparse when deletions drop
//! occupancy below span / [`AttrColumn::SPARSE_FACTOR`]. The 4× hysteresis
//! gap between the two thresholds prevents ping-ponging. The span is the
//! dense frontier, not the chunk-rounded allocation.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::attribute::AttrValue;
use crate::chunk::{CHUNK, CHUNK_BITS};
use crate::ids::EntityId;
use crate::orderedset::OrderedSet;

/// A borrowed view of one stored attribute value — what
/// [`AttrColumn::get`] yields and the evaluator's hot paths consume
/// instead of cloning an [`AttrValue`] per read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// A singlevalued assignment (never [`EntityId::NULL`] when read from
    /// a canonical column).
    Single(EntityId),
    /// A multivalued assignment, borrowed from the column.
    Multi(&'a OrderedSet),
}

impl ValueRef<'_> {
    /// Clones the borrowed view into an owned [`AttrValue`].
    pub fn to_owned(self) -> AttrValue {
        match self {
            ValueRef::Single(e) => AttrValue::Single(e),
            ValueRef::Multi(s) => AttrValue::Multi(s.clone()),
        }
    }
}

/// The process-wide empty set borrowed when a multivalued read finds no
/// stored value.
pub fn empty_set() -> &'static OrderedSet {
    static EMPTY: OnceLock<OrderedSet> = OnceLock::new();
    EMPTY.get_or_init(OrderedSet::new)
}

/// Occupancy snapshot of one column, surfaced through EXPLAIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnStats {
    /// Allocated dense slots (0 = the column is in sparse state).
    pub dense_slots: usize,
    /// Dense slots holding a non-default value.
    pub dense_len: usize,
    /// Entries in the overflow map.
    pub overflow_len: usize,
}

/// One chunk of dense slots.
type DenseChunk = [EntityId; CHUNK];
/// One chunk of overflow entries.
type OverflowChunk = HashMap<EntityId, AttrValue>;

/// Hybrid columnar storage for one attribute's values. See the module
/// docs for the layout and the canonical-content invariant.
#[derive(Debug, Clone, Default)]
pub struct AttrColumn {
    /// Dense singlevalued slots: raw id `i` lives at
    /// `dense[i / CHUNK][i % CHUNK]`; [`EntityId::NULL`] marks an
    /// unassigned slot. Empty in sparse state.
    dense: Vec<Arc<DenseChunk>>,
    /// The dense frontier: ids below it are dense slots. Slots of the
    /// last chunk at or past it stay NULL.
    span: usize,
    /// Non-NULL dense slots.
    dense_len: usize,
    /// Multivalued values, sparse singles, and ids past the dense
    /// frontier: raw id `i` lives in `overflow[i / CHUNK]`. Never holds a
    /// single for an id below the frontier.
    overflow: Vec<Arc<OverflowChunk>>,
    /// Entries across all overflow chunks.
    overflow_len: usize,
    /// Overflow entries that are `Single` (promotion requires all of
    /// them: multivalued values never move into the dense column).
    overflow_singles: usize,
    /// Next overflow population at which promotion is re-attempted
    /// (doubling schedule keeps the attempt scan amortised O(1)).
    promote_at: usize,
}

fn is_default(v: &AttrValue) -> bool {
    match v {
        AttrValue::Single(e) => e.is_null(),
        AttrValue::Multi(s) => s.is_empty(),
    }
}

fn null_chunk() -> Arc<DenseChunk> {
    Arc::new([EntityId::NULL; CHUNK])
}

impl AttrColumn {
    /// Minimum population before a dense column is considered.
    pub const DENSE_MIN: usize = 64;
    /// Promote when `population * DENSE_FACTOR >= span` (≥ 25% occupancy).
    pub const DENSE_FACTOR: usize = 4;
    /// Demote when `population * SPARSE_FACTOR < span` (< 6.25% occupancy).
    pub const SPARSE_FACTOR: usize = 16;

    /// An empty (sparse) column.
    pub fn new() -> AttrColumn {
        AttrColumn {
            promote_at: Self::DENSE_MIN,
            ..AttrColumn::default()
        }
    }

    /// Entities with a stored (non-default) value.
    pub fn len(&self) -> usize {
        self.dense_len + self.overflow_len
    }

    /// `true` when no entity has a non-default value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the column currently uses the dense layout.
    pub fn is_dense(&self) -> bool {
        self.span > 0
    }

    /// Occupancy counters for EXPLAIN.
    pub fn stats(&self) -> ColumnStats {
        ColumnStats {
            dense_slots: self.span,
            dense_len: self.dense_len,
            overflow_len: self.overflow_len,
        }
    }

    /// The dense slot of raw id `i` (`i` below the frontier).
    #[inline]
    fn dense_at(&self, i: usize) -> EntityId {
        self.dense[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }

    /// The dense slot of raw id `i` for writing; copies its chunk first
    /// if a clone shares it.
    fn dense_slot_mut(&mut self, i: usize) -> &mut EntityId {
        &mut Arc::make_mut(&mut self.dense[i >> CHUNK_BITS])[i & (CHUNK - 1)]
    }

    #[inline]
    fn overflow_get(&self, entity: EntityId) -> Option<&AttrValue> {
        self.overflow
            .get(entity.index() >> CHUNK_BITS)?
            .get(&entity)
    }

    /// Stores an overflow entry, copying its chunk first if shared.
    fn overflow_insert(&mut self, entity: EntityId, value: AttrValue) -> Option<AttrValue> {
        let c = entity.index() >> CHUNK_BITS;
        if c >= self.overflow.len() {
            self.overflow.resize(c + 1, Arc::default());
        }
        let old = Arc::make_mut(&mut self.overflow[c]).insert(entity, value);
        if old.is_none() {
            self.overflow_len += 1;
        }
        old
    }

    /// Removes an overflow entry; a chunk without it stays shared.
    fn overflow_remove(&mut self, entity: EntityId) -> Option<AttrValue> {
        let chunk = self.overflow.get_mut(entity.index() >> CHUNK_BITS)?;
        if !chunk.contains_key(&entity) {
            return None;
        }
        self.overflow_len -= 1;
        Arc::make_mut(chunk).remove(&entity)
    }

    /// The stored value for `entity`, borrowed. `None` means the default
    /// (NULL / empty set — never stored; see the module docs).
    #[inline]
    pub fn get(&self, entity: EntityId) -> Option<ValueRef<'_>> {
        let i = entity.index();
        if i < self.span {
            let v = self.dense_at(i);
            return if v.is_null() {
                None
            } else {
                Some(ValueRef::Single(v))
            };
        }
        match self.overflow_get(entity) {
            Some(AttrValue::Single(e)) => Some(ValueRef::Single(*e)),
            Some(AttrValue::Multi(s)) => Some(ValueRef::Multi(s)),
            None => None,
        }
    }

    /// Fast path for batched evaluation over a singlevalued column: the
    /// stored entity, or [`EntityId::NULL`] for the default. A (corrupt)
    /// multivalued entry reads as NULL here — batch consumers go through
    /// [`AttrColumn::get`], which distinguishes the cases.
    #[inline]
    pub fn single_raw(&self, entity: EntityId) -> EntityId {
        let i = entity.index();
        if i < self.span {
            return self.dense_at(i);
        }
        match self.overflow_get(entity) {
            Some(AttrValue::Single(e)) => *e,
            _ => EntityId::NULL,
        }
    }

    /// Stores `value` for `entity`, canonicalising defaults to removal.
    pub fn set(&mut self, entity: EntityId, value: AttrValue) {
        if is_default(&value) {
            self.remove(entity);
            return;
        }
        let i = entity.index();
        match value {
            AttrValue::Single(v) => {
                if i < self.span {
                    let slot = self.dense_slot_mut(i);
                    let was_null = slot.is_null();
                    *slot = v;
                    if was_null {
                        self.dense_len += 1;
                    }
                    return;
                }
                if self.is_dense()
                    && (self.dense_len + self.overflow_len + 1) * Self::DENSE_FACTOR > i
                {
                    // The new id extends the dense frontier without
                    // dropping occupancy below the promotion bar: grow.
                    self.dense.resize_with((i >> CHUNK_BITS) + 1, null_chunk);
                    self.span = i + 1;
                    *self.dense_slot_mut(i) = v;
                    self.dense_len += 1;
                    self.reclaim_overflow();
                    return;
                }
                match self.overflow_insert(entity, AttrValue::Single(v)) {
                    Some(AttrValue::Single(_)) => {}
                    _ => self.overflow_singles += 1,
                }
                self.maybe_promote();
            }
            AttrValue::Multi(s) => {
                if i < self.span && !self.dense_at(i).is_null() {
                    *self.dense_slot_mut(i) = EntityId::NULL;
                    self.dense_len -= 1;
                }
                if let Some(AttrValue::Single(_)) =
                    self.overflow_insert(entity, AttrValue::Multi(s))
                {
                    self.overflow_singles -= 1;
                }
            }
        }
    }

    /// Removes the stored value for `entity`, returning it (owned).
    /// `None` if the entity already held the default.
    pub fn remove(&mut self, entity: EntityId) -> Option<AttrValue> {
        let i = entity.index();
        if i < self.span {
            let v = self.dense_at(i);
            if v.is_null() {
                return None;
            }
            *self.dense_slot_mut(i) = EntityId::NULL;
            self.dense_len -= 1;
            self.maybe_demote();
            return Some(AttrValue::Single(v));
        }
        let old = self.overflow_remove(entity)?;
        if let AttrValue::Single(_) = old {
            self.overflow_singles -= 1;
        }
        Some(old)
    }

    /// In-place access to a multivalued entry, inserting an empty set if
    /// absent. The caller must leave the set non-empty (the canonical
    /// invariant) — `add_value` always inserts. Panics if the entity holds
    /// a singlevalued assignment, mirroring the multiplicity guard in the
    /// mutation layer.
    pub fn multi_entry(&mut self, entity: EntityId) -> &mut OrderedSet {
        let i = entity.index();
        if i < self.span && !self.dense_at(i).is_null() {
            unreachable!("multi_entry on a dense singlevalued slot");
        }
        if self.overflow_get(entity).is_none() {
            self.overflow_insert(entity, AttrValue::Multi(OrderedSet::new()));
        }
        match Arc::make_mut(&mut self.overflow[i >> CHUNK_BITS]).get_mut(&entity) {
            Some(AttrValue::Multi(s)) => s,
            _ => unreachable!("multiplicity checked above"),
        }
    }

    /// Drops every stored value and returns the column to sparse state.
    pub fn clear(&mut self) {
        *self = AttrColumn::new();
    }

    /// Iterates the stored `(entity, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, ValueRef<'_>)> {
        let dense = self
            .dense
            .iter()
            .flat_map(|chunk| chunk.iter())
            .take(self.span)
            .enumerate()
            .filter(|(_, v)| !v.is_null())
            .map(|(i, v)| (EntityId::from_raw(i as u32), ValueRef::Single(*v)));
        let overflow = self
            .overflow
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map(|(e, v)| {
                (
                    *e,
                    match v {
                        AttrValue::Single(x) => ValueRef::Single(*x),
                        AttrValue::Multi(s) => ValueRef::Multi(s),
                    },
                )
            });
        dense.chain(overflow)
    }

    /// The stored pairs sorted by entity id — the deterministic order the
    /// snapshot codec writes.
    pub fn entries_sorted(&self) -> Vec<(EntityId, ValueRef<'_>)> {
        let mut out: Vec<(EntityId, ValueRef<'_>)> = self.iter().collect();
        out.sort_by_key(|(e, _)| *e);
        out
    }

    /// Attempts dense promotion once the overflow population reaches the
    /// doubling schedule: all-single overflow with occupancy ≥ span /
    /// [`Self::DENSE_FACTOR`] rebuilds as a dense column in O(population).
    fn maybe_promote(&mut self) {
        if self.is_dense() || self.overflow_len < self.promote_at {
            return;
        }
        self.promote_at = self.overflow_len * 2;
        if self.overflow_singles != self.overflow_len {
            return; // multivalued entries pin the column sparse
        }
        let span = self
            .overflow
            .iter()
            .flat_map(|chunk| chunk.keys())
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0);
        if self.overflow_len * Self::DENSE_FACTOR < span {
            return;
        }
        let overflow = std::mem::take(&mut self.overflow);
        self.dense = (0..span.div_ceil(CHUNK)).map(|_| null_chunk()).collect();
        self.span = span;
        for (e, v) in overflow.iter().flat_map(|chunk| chunk.iter()) {
            match v {
                AttrValue::Single(x) => *self.dense_slot_mut(e.index()) = *x,
                AttrValue::Multi(_) => unreachable!("overflow_singles covered all entries"),
            }
        }
        self.dense_len = self.overflow_singles;
        self.overflow_singles = 0;
        self.overflow_len = 0;
        self.promote_at = Self::DENSE_MIN;
    }

    /// After the dense frontier grows, pull overflow singles that now fall
    /// inside it back into the column (preserving the "overflow never
    /// holds a single below the frontier" invariant). Multivalued entries
    /// stay in overflow.
    fn reclaim_overflow(&mut self) {
        if self.overflow_len == 0 {
            return;
        }
        let frontier = self.span;
        let inside: Vec<EntityId> = self
            .overflow
            .iter()
            .take(frontier.div_ceil(CHUNK))
            .flat_map(|chunk| chunk.iter())
            .filter(|(e, v)| e.index() < frontier && matches!(v, AttrValue::Single(_)))
            .map(|(e, _)| *e)
            .collect();
        for e in inside {
            if let Some(AttrValue::Single(v)) = self.overflow_remove(e) {
                self.overflow_singles -= 1;
                let slot = self.dense_slot_mut(e.index());
                let was_null = slot.is_null();
                *slot = v;
                if was_null {
                    self.dense_len += 1;
                }
            }
        }
    }

    /// Compacts a dense column back to sparse once deletions drop
    /// occupancy below span / [`Self::SPARSE_FACTOR`].
    fn maybe_demote(&mut self) {
        if self.span < Self::DENSE_MIN * Self::DENSE_FACTOR
            || self.dense_len * Self::SPARSE_FACTOR >= self.span
        {
            return;
        }
        let dense = std::mem::take(&mut self.dense);
        let span = std::mem::take(&mut self.span);
        for (i, v) in dense
            .iter()
            .flat_map(|chunk| chunk.iter())
            .take(span)
            .enumerate()
        {
            if !v.is_null() {
                self.overflow_insert(EntityId::from_raw(i as u32), AttrValue::Single(*v));
                self.overflow_singles += 1;
            }
        }
        self.dense_len = 0;
        self.promote_at = (self.overflow_len * 2).max(Self::DENSE_MIN);
    }
}

#[cfg(test)]
impl AttrColumn {
    /// How many of `later`'s dense and overflow chunks are not the very
    /// chunks `self` holds at the same positions.
    pub(crate) fn unshared_chunks(&self, later: &AttrColumn) -> usize {
        crate::chunk::unshared(&self.dense, &later.dense)
            + crate::chunk::unshared(&self.overflow, &later.overflow)
    }

    /// Dense plus overflow chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.dense.len() + self.overflow.len()
    }
}

/// Logical equality: same stored pairs, layout-independent (a promoted
/// and a sparse column holding the same content compare equal — the
/// snapshot round-trip depends on this).
impl PartialEq for AttrColumn {
    fn eq(&self, other: &AttrColumn) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.iter().all(|(e, v)| other.get(e) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(raw: u32) -> EntityId {
        EntityId::from_raw(raw)
    }

    #[test]
    fn defaults_are_never_stored() {
        let mut c = AttrColumn::new();
        c.set(e(3), AttrValue::Single(EntityId::NULL));
        c.set(e(4), AttrValue::Multi(OrderedSet::new()));
        assert!(c.is_empty());
        c.set(e(3), AttrValue::Single(e(9)));
        assert_eq!(c.len(), 1);
        c.set(e(3), AttrValue::Single(EntityId::NULL));
        assert!(c.is_empty());
        assert_eq!(c.get(e(3)), None);
    }

    #[test]
    fn promotion_and_demotion_round_trip_content() {
        let mut c = AttrColumn::new();
        // Densely populated singles: must promote.
        for i in 0..512u32 {
            c.set(e(i + 1), AttrValue::Single(e(10_000 + i)));
        }
        assert!(c.is_dense(), "512 contiguous singles must go dense");
        assert_eq!(c.len(), 512);
        for i in 0..512u32 {
            assert_eq!(c.get(e(i + 1)), Some(ValueRef::Single(e(10_000 + i))));
        }
        // Delete almost everything: must demote back to sparse.
        for i in 0..500u32 {
            assert!(c.remove(e(i + 1)).is_some());
        }
        assert!(!c.is_dense(), "occupancy collapsed; column must compact");
        assert_eq!(c.len(), 12);
        for i in 500..512u32 {
            assert_eq!(c.get(e(i + 1)), Some(ValueRef::Single(e(10_000 + i))));
        }
    }

    #[test]
    fn sparse_ids_stay_in_overflow() {
        let mut c = AttrColumn::new();
        for i in 0..256u32 {
            c.set(e(i * 1000 + 7), AttrValue::Single(e(1)));
        }
        assert!(!c.is_dense(), "0.1% occupancy must not allocate a column");
        assert_eq!(c.len(), 256);
    }

    #[test]
    fn multivalued_entries_pin_the_column_sparse() {
        let mut c = AttrColumn::new();
        c.set(e(1), AttrValue::Multi([e(5)].into_iter().collect()));
        for i in 2..300u32 {
            c.set(e(i), AttrValue::Single(e(9)));
        }
        assert!(!c.is_dense());
        assert_eq!(
            c.get(e(1)),
            Some(ValueRef::Multi(&[e(5)].into_iter().collect()))
        );
    }

    #[test]
    fn logical_equality_ignores_layout() {
        let mut dense = AttrColumn::new();
        let mut sparse = AttrColumn::new();
        for i in 0..200u32 {
            dense.set(e(i + 1), AttrValue::Single(e(50_000 + i)));
        }
        // Same content inserted far apart first, keeping it sparse longer.
        for i in (0..200u32).rev() {
            sparse.set(e(i + 1), AttrValue::Single(e(50_000 + i)));
        }
        assert_eq!(dense, sparse);
        sparse.set(e(1), AttrValue::Single(e(42)));
        assert_ne!(dense, sparse);
    }

    #[test]
    fn multi_entry_inserts_and_borrows() {
        let mut c = AttrColumn::new();
        c.multi_entry(e(2)).insert(e(7));
        c.multi_entry(e(2)).insert(e(8));
        match c.get(e(2)) {
            Some(ValueRef::Multi(s)) => assert_eq!(s.len(), 2),
            other => panic!("expected multi, got {other:?}"),
        }
    }

    #[test]
    fn single_raw_reads_both_layouts() {
        let mut c = AttrColumn::new();
        c.set(e(3), AttrValue::Single(e(11)));
        assert_eq!(c.single_raw(e(3)), e(11));
        assert_eq!(c.single_raw(e(4)), EntityId::NULL);
        for i in 0..200u32 {
            c.set(e(i + 1), AttrValue::Single(e(11)));
        }
        assert!(c.is_dense());
        assert_eq!(c.single_raw(e(3)), e(11));
        assert_eq!(c.single_raw(e(4)), e(11));
        assert_eq!(c.single_raw(e(10_000)), EntityId::NULL);
    }

    #[test]
    fn chunks_split_on_raw_id_boundaries() {
        let mut c = AttrColumn::new();
        for i in 1..=(3 * CHUNK as u32) {
            c.set(e(i), AttrValue::Single(e(7)));
        }
        assert!(c.is_dense());
        assert_eq!(c.stats().dense_slots, 3 * CHUNK + 1, "span is the frontier");
        assert_eq!(c.dense.len(), 4);
        c.set(
            e(5 * CHUNK as u32 + 3),
            AttrValue::Multi([e(9)].into_iter().collect()),
        );
        assert_eq!(c.overflow.len(), 6, "overflow chunk = raw id / CHUNK");
        assert_eq!(c.get(e(CHUNK as u32)), Some(ValueRef::Single(e(7))));
        assert_eq!(c.get(e(3 * CHUNK as u32 + 1)), None);
        assert_eq!(c.len(), 3 * CHUNK + 1);
        assert_eq!(c.iter().count(), c.len());
    }

    #[test]
    fn clones_share_chunks_until_written() {
        let mut original = AttrColumn::new();
        for i in 1..=(2 * CHUNK as u32) {
            original.set(e(i), AttrValue::Single(e(3)));
        }
        original.set(
            e(4 * CHUNK as u32),
            AttrValue::Multi([e(5)].into_iter().collect()),
        );
        let pristine = original.clone();
        let mut copy = original.clone();
        assert_eq!(original.unshared_chunks(&copy), 0);
        copy.set(e(CHUNK as u32 + 2), AttrValue::Single(e(4)));
        assert_eq!(original.unshared_chunks(&copy), 1);
        copy.multi_entry(e(4 * CHUNK as u32)).insert(e(6));
        assert_eq!(original.unshared_chunks(&copy), 2);
        // Removing an absent entry, or reading, copies nothing.
        assert_eq!(copy.remove(e(3 * CHUNK as u32)), None);
        assert_eq!(copy.get(e(1)), Some(ValueRef::Single(e(3))));
        assert_eq!(original.unshared_chunks(&copy), 2);
        assert_eq!(pristine.unshared_chunks(&original), 0);
        assert_eq!(original, pristine);
        assert_ne!(original, copy);
    }

    #[test]
    fn entries_sorted_is_deterministic() {
        let mut c = AttrColumn::new();
        c.set(e(9), AttrValue::Single(e(1)));
        c.set(e(2), AttrValue::Multi([e(3)].into_iter().collect()));
        c.set(e(5), AttrValue::Single(e(4)));
        let order: Vec<u32> = c.entries_sorted().iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }
}
