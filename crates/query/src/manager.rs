//! Index lifecycle management driven by the core delta log.
//!
//! [`IndexManager`] owns a set of [`AttrIndex`]es and keeps them current by
//! consuming [`ChangeSet`]s instead of rebuilding from scratch: it remembers
//! the database's delta epoch, and on [`IndexManager::refresh`] asks for
//! `changes_since(cursor)` and applies each `(entity, attr, old, new)`
//! transition to the affected posting lists. Full rebuilds happen only when
//! the log window has been evicted (or the database was swapped under us,
//! e.g. by undo), when a schema edit arrives, or for grouping-ranged
//! attributes whose expansion cannot be patched from a raw transition.
//! Each patch and rebuild is counted once, in the registry scope of the
//! [`crate::IndexService`] that owns the manager (`query.index.*`).

use std::collections::HashMap;
use std::sync::Arc;

use isis_core::{
    AttrId, AttrValue, Change, ChangeSet, ClassId, Database, EntityId, OrderedSet, Result,
    SchemaEdit, ValueClass,
};
use isis_obs::{Counter, Registry};

use crate::index::AttrIndex;

/// How index maintenance kept indexes current, counted in the registry
/// scope of a [`crate::IndexService`] and read by its `index_stats`: a
/// snapshot of `query.index.{patches,rebuilds}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Individual posting-list patches applied from deltas.
    pub incremental_updates: usize,
    /// Full single-index rebuilds (schema edits, grouping expansion,
    /// evicted log windows).
    pub rebuilds: usize,
}

/// Owns inverted attribute indexes and applies [`ChangeSet`]s to them
/// incrementally.
#[derive(Debug, Default)]
pub(crate) struct IndexManager {
    indexes: HashMap<AttrId, AttrIndex>,
    /// Owner class of each indexed attribute (membership changes there
    /// add/remove whole owner rows).
    owners: HashMap<AttrId, ClassId>,
    /// For a grouping-ranged indexed attribute, the attribute the grouping
    /// is defined on: transitions of that attribute change the expansion of
    /// every stored index value, forcing a rebuild.
    grouping_bases: HashMap<AttrId, AttrId>,
    cursor: u64,
    patches: Arc<Counter>,
    rebuilds: Arc<Counter>,
}

impl IndexManager {
    /// An empty manager synchronised to the database's current epoch,
    /// counting into `scope`.
    pub fn new(db: &Database, scope: &Registry) -> IndexManager {
        IndexManager {
            indexes: HashMap::new(),
            owners: HashMap::new(),
            grouping_bases: HashMap::new(),
            cursor: db.delta_epoch(),
            patches: scope.counter("query.index.patches"),
            rebuilds: scope.counter("query.index.rebuilds"),
        }
    }

    /// Builds and registers an index for `attr`.
    pub fn add_index(&mut self, db: &Database, attr: AttrId) -> Result<()> {
        let rec = db.attr(attr)?;
        self.owners.insert(attr, rec.owner);
        if let ValueClass::Grouping(g) = rec.value_class {
            self.grouping_bases.insert(attr, db.grouping(g)?.on_attr);
        }
        self.indexes.insert(attr, AttrIndex::build(db, attr)?);
        Ok(())
    }

    /// Access a registered index.
    pub fn index(&self, attr: AttrId) -> Option<&AttrIndex> {
        self.indexes.get(&attr)
    }

    /// The attributes currently indexed.
    pub fn indexed_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.indexes.keys().copied()
    }

    /// The maintenance counts of the manager's scope.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            incremental_updates: self.patches.get() as usize,
            rebuilds: self.rebuilds.get() as usize,
        }
    }

    /// The delta epoch the indexes are synchronised to.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Brings every index up to date with `db`, consuming the delta log
    /// from the manager's cursor. Falls back to full rebuilds when the
    /// window is gone (or the cursor is from another database line).
    pub fn refresh(&mut self, db: &Database) -> Result<()> {
        match db.changes_since(self.cursor) {
            Some(changes) => self.apply(db, &changes),
            None => {
                self.rebuild_all(db)?;
                self.cursor = db.delta_epoch();
                Ok(())
            }
        }
    }

    /// Applies one [`ChangeSet`] to the registered indexes and moves the
    /// cursor to `db`'s delta epoch. The set must describe the transition
    /// from the indexes' current state to `db`'s (as
    /// [`IndexManager::refresh`] guarantees).
    pub fn apply(&mut self, db: &Database, changes: &ChangeSet) -> Result<()> {
        if changes.has_schema_changes() {
            // Schema edits can delete indexed attributes, retarget value
            // classes, or reshape groupings; rebuild wholesale.
            self.drop_dead_and_rebuild(db, changes)?;
        } else {
            for change in changes.iter() {
                match change {
                    Change::AttrAssigned {
                        entity,
                        attr,
                        old,
                        new,
                    } => self.apply_transition(db, *entity, *attr, old, new)?,
                    Change::MembershipAdded { entity, class } => {
                        self.apply_owner_joined(db, *entity, *class)?;
                    }
                    Change::MembershipRemoved { entity, class } => {
                        self.apply_owner_left(*entity, *class);
                    }
                    Change::EntityInserted { .. }
                    | Change::EntityDeleted { .. }
                    | Change::EntityRenamed { .. }
                    | Change::Schema(_) => {}
                }
            }
        }
        self.cursor = db.delta_epoch();
        Ok(())
    }

    /// Rebuilds every grouping-ranged index whose grouping is keyed by
    /// `attr`: a transition of the base attribute re-partitions the
    /// grouping, changing the expansion of every stored index value.
    fn rebuild_dependents(&mut self, db: &Database, attr: AttrId) -> Result<()> {
        let dependents: Vec<AttrId> = self
            .grouping_bases
            .iter()
            .filter(|(_, &base)| base == attr)
            .map(|(&a, _)| a)
            .collect();
        for a in dependents {
            self.indexes.insert(a, AttrIndex::build(db, a)?);
            self.rebuilds.inc();
        }
        Ok(())
    }

    fn apply_transition(
        &mut self,
        db: &Database,
        entity: EntityId,
        attr: AttrId,
        old: &AttrValue,
        new: &AttrValue,
    ) -> Result<()> {
        self.rebuild_dependents(db, attr)?;
        if let Some(idx) = self.indexes.get_mut(&attr) {
            if self.grouping_bases.contains_key(&attr) {
                // Grouping-ranged: the stored transition is in index
                // entities, but postings hold expanded members.
                *idx = AttrIndex::build(db, attr)?;
                self.rebuilds.inc();
            } else {
                idx.update(entity, &old.as_set(), &new.as_set());
                self.patches.inc();
            }
        }
        Ok(())
    }

    fn apply_owner_joined(
        &mut self,
        db: &Database,
        entity: EntityId,
        class: ClassId,
    ) -> Result<()> {
        let attrs: Vec<AttrId> = self
            .owners
            .iter()
            .filter(|(_, &o)| o == class)
            .map(|(&a, _)| a)
            .collect();
        if db.entity(entity).is_err() {
            // The entity was deleted later in the same window; the deletion's
            // own MembershipRemoved/AttrAssigned entries settle the index.
            return Ok(());
        }
        for attr in attrs {
            // (Re)credit any values the entity already carries — it may
            // have kept them across an earlier membership removal.
            let new = db.attr_value_set(entity, attr)?;
            if let Some(idx) = self.indexes.get_mut(&attr) {
                let old = idx.owned_values(entity);
                idx.update(entity, &old, &new);
                self.patches.inc();
            }
        }
        Ok(())
    }

    fn apply_owner_left(&mut self, entity: EntityId, class: ClassId) {
        let attrs: Vec<AttrId> = self
            .owners
            .iter()
            .filter(|(_, &o)| o == class)
            .map(|(&a, _)| a)
            .collect();
        for attr in attrs {
            if let Some(idx) = self.indexes.get_mut(&attr) {
                let old = idx.owned_values(entity);
                if !old.is_empty() {
                    idx.update(entity, &old, &OrderedSet::new());
                    self.patches.inc();
                }
            }
        }
    }

    fn drop_dead_and_rebuild(&mut self, db: &Database, changes: &ChangeSet) -> Result<()> {
        for change in changes.iter() {
            if let Change::Schema(SchemaEdit::AttrDeleted(a) | SchemaEdit::ValueClassChanged(a)) =
                change
            {
                self.indexes.remove(a);
                self.owners.remove(a);
                self.grouping_bases.remove(a);
            }
        }
        self.rebuild_all(db)
    }

    /// Rebuilds every registered index from `db`'s current state, dropping
    /// those whose attribute no longer exists. Leaves the cursor alone.
    fn rebuild_all(&mut self, db: &Database) -> Result<()> {
        let attrs: Vec<AttrId> = self.indexes.keys().copied().collect();
        for attr in attrs {
            if db.attr(attr).is_err() {
                self.indexes.remove(&attr);
                self.owners.remove(&attr);
                self.grouping_bases.remove(&attr);
                continue;
            }
            self.indexes.insert(attr, AttrIndex::build(db, attr)?);
            self.rebuilds.inc();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_sample::instrumental_music;

    fn assert_index_fresh(mgr: &IndexManager, db: &Database, attr: AttrId) {
        let live = AttrIndex::build(db, attr).unwrap();
        let idx = mgr.index(attr).unwrap();
        assert_eq!(idx.distinct_values(), live.distinct_values());
        for v in live.values() {
            let a = idx.owners_of(v).unwrap();
            let b = live.owners_of(v).unwrap();
            assert!(a.set_eq(b), "postings diverge for value {v:?}");
        }
    }

    #[test]
    fn refresh_applies_value_transitions() {
        let mut im = instrumental_music().unwrap();
        let mut mgr = IndexManager::new(&im.db, &Registry::new());
        mgr.add_index(&im.db, im.plays).unwrap();
        mgr.add_index(&im.db, im.family).unwrap();
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        mgr.refresh(&im.db).unwrap();
        assert_index_fresh(&mgr, &im.db, im.plays);
        assert_index_fresh(&mgr, &im.db, im.family);
        assert!(mgr.stats().incremental_updates >= 2);
        assert_eq!(mgr.stats().rebuilds, 0);
    }

    #[test]
    fn refresh_handles_inserts_and_deletes() {
        let mut im = instrumental_music().unwrap();
        let mut mgr = IndexManager::new(&im.db, &Registry::new());
        mgr.add_index(&im.db, im.plays).unwrap();
        let newbie = im.db.insert_entity(im.musicians, "Newbie").unwrap();
        im.db.add_value(newbie, im.plays, im.viola).unwrap();
        let dave = im.db.entity_by_name(im.musicians, "Dave").unwrap();
        im.db.delete_entity(dave).unwrap();
        mgr.refresh(&im.db).unwrap();
        assert_index_fresh(&mgr, &im.db, im.plays);
    }

    #[test]
    fn schema_change_triggers_rebuild() {
        let mut im = instrumental_music().unwrap();
        let mut mgr = IndexManager::new(&im.db, &Registry::new());
        mgr.add_index(&im.db, im.plays).unwrap();
        im.db.create_baseclass("venues").unwrap();
        mgr.refresh(&im.db).unwrap();
        assert!(mgr.stats().rebuilds >= 1);
        assert_index_fresh(&mgr, &im.db, im.plays);
    }

    #[test]
    fn stale_cursor_falls_back_to_rebuild() {
        let mut im = instrumental_music().unwrap();
        let mut mgr = IndexManager::new(&im.db, &Registry::new());
        mgr.add_index(&im.db, im.plays).unwrap();
        // Simulate an undo: replace the database with an older clone whose
        // delta log is behind the cursor.
        let old = im.db.clone();
        im.db.add_value(im.edith, im.plays, im.piano).unwrap();
        mgr.refresh(&im.db).unwrap();
        let restored = old;
        // cursor is now ahead of restored's epoch → None → rebuild.
        mgr.refresh(&restored).unwrap();
        assert_index_fresh(&mgr, &restored, im.plays);
    }

    #[test]
    fn grouping_rekeyed_mid_drain_keeps_ranged_index_fresh() {
        use isis_core::Multiplicity;
        let mut im = instrumental_music().unwrap();
        // sections: music_groups → by_family sets; its index postings hold
        // the *expanded* members of each named family set.
        let sections = im
            .db
            .create_attribute(
                im.music_groups,
                "sections",
                im.by_family,
                Multiplicity::Multi,
            )
            .unwrap();
        im.db
            .assign_multi(im.labelle, sections, [im.stringed, im.keyboard])
            .unwrap();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        im.db.assign_multi(fling, sections, [im.brass]).unwrap();
        let mut mgr = IndexManager::new(&im.db, &Registry::new());
        mgr.add_index(&im.db, sections).unwrap();
        mgr.add_index(&im.db, im.family).unwrap();
        // One window interleaving a sections edit, the grouping re-key
        // (flute leaves brass for woodwind, re-partitioning by_family and
        // thus the expansion of every sections value), and another edit.
        im.db
            .assign_multi(fling, sections, [im.percussion])
            .unwrap();
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        im.db
            .assign_multi(im.labelle, sections, [im.brass, im.keyboard])
            .unwrap();
        mgr.refresh(&im.db).unwrap();
        assert_index_fresh(&mgr, &im.db, sections);
        assert_index_fresh(&mgr, &im.db, im.family);
        assert!(
            mgr.stats().rebuilds >= 1,
            "base-attr move must rebuild the dependent ranged index"
        );
        // The stale-range smoking gun: flute must no longer be credited to
        // owners whose sections still name brass.
        let idx = mgr.index(sections).unwrap();
        if let Some(owners) = idx.owners_of(im.flute) {
            assert!(!owners.is_empty())
        }
        let live = AttrIndex::build(&im.db, sections).unwrap();
        assert_eq!(
            idx.owners_of(im.flute).map(|s| s.len()),
            live.owners_of(im.flute).map(|s| s.len())
        );
    }

    #[test]
    fn deleted_attr_index_is_dropped() {
        let mut im = instrumental_music().unwrap();
        let mut mgr = IndexManager::new(&im.db, &Registry::new());
        mgr.add_index(&im.db, im.popular).unwrap();
        im.db.delete_attr(im.popular).unwrap();
        mgr.refresh(&im.db).unwrap();
        assert!(mgr.index(im.popular).is_none());
    }
}
