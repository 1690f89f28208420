//! Data-level modification operations: inserting, deleting and updating
//! entities, class membership, and attribute assignment (§2).
//!
//! "We allow arbitrary modifications of the data and/or the schema … as long
//! as the data remains consistent with the schema." Each operation here
//! either preserves consistency (cascading membership, scrubbing dangling
//! values) or is refused.

use std::collections::HashMap;

use crate::attribute::{AttrValue, Multiplicity, ValueClass};
use crate::change::Change;
use crate::column::ValueRef;
use crate::entity::EntityRecord;
use crate::error::{CoreError, Result};
use crate::grouping::GroupingSet;
use crate::ids::{AttrId, ClassId, EntityId, GroupingId};
use crate::orderedset::OrderedSet;
use crate::Database;

impl Database {
    /// Creates a new entity named `name` in the user baseclass `base`.
    ///
    /// "We can insert an entity in a class, provided we also insert it in
    /// its parent and specify a value for its naming attribute."
    pub fn insert_entity(&mut self, base: ClassId, name: &str) -> Result<EntityId> {
        let rec = self.class(base)?;
        if !rec.is_base() {
            return Err(CoreError::Inconsistent(format!(
                "{} is not a baseclass; insert into the baseclass and add_to_class",
                rec.name
            )));
        }
        if rec.is_predefined() {
            return Err(CoreError::Predefined);
        }
        if name.is_empty() {
            return Err(CoreError::InvalidLiteral("empty entity name".into()));
        }
        if self.entity_names.contains_key(&(base, name.to_string())) {
            return Err(CoreError::DuplicateEntityName {
                base,
                name: name.into(),
            });
        }
        // The name is a STRING entity ("entity names are determined by a
        // special singlevalued naming attribute"); intern it so the naming
        // attribute always resolves when used in maps.
        self.intern(crate::literal::Literal::Str(name.to_string()))?;
        let id = EntityId::from_raw(self.entities.len() as u32);
        self.entities.push(EntityRecord::user(name, base));
        self.entity_names.insert((base, name.to_string()), id);
        self.extent_mut(base).insert(id);
        self.record_change(Change::EntityInserted {
            entity: id,
            base,
            name: name.to_string(),
        });
        self.record_change(Change::MembershipAdded {
            entity: id,
            class: base,
        });
        Ok(id)
    }

    /// Adds an existing entity to a subclass, cascading the insertion into
    /// every (primary and secondary) ancestor so that each subclass stays a
    /// subset of its parent.
    ///
    /// Direct insertion into a derived subclass is refused — its membership
    /// is defined by its predicate (§2). (Cascaded insertion *through* a
    /// derived ancestor is permitted: derivation predicates "do not (at
    /// present) form part of the consistency requirements".)
    ///
    /// Records one [`Change::MembershipAdded`] per class the entity
    /// entered (nothing if it was already a member everywhere).
    pub fn add_to_class(&mut self, entity: EntityId, class: ClassId) -> Result<()> {
        if self.class(class)?.is_derived() {
            return Err(CoreError::DerivedClass(class));
        }
        self.add_to_class_unchecked(entity, class)
    }

    /// Membership insertion bypassing the derived-class guard, for derived-
    /// class *maintainers* (code that re-evaluates a predicate and installs
    /// the result, e.g. incremental maintenance in `isis-query`). Regular
    /// callers should use [`Database::add_to_class`].
    pub fn force_membership(&mut self, entity: EntityId, class: ClassId) -> Result<()> {
        self.add_to_class_unchecked(entity, class)
    }

    /// Membership insertion without the derived-class guard; used by the
    /// predicate evaluator when it materialises a derived subclass, and by
    /// cascades.
    pub(crate) fn add_to_class_unchecked(
        &mut self,
        entity: EntityId,
        class: ClassId,
    ) -> Result<()> {
        let erec = self.entity(entity)?;
        let crec = self.class(class)?;
        if erec.base != crec.base {
            return Err(CoreError::NotAMember {
                entity,
                class: crec.base,
            });
        }
        if self.classes[class.index()].members.contains(entity) {
            return Ok(());
        }
        self.extent_mut(class).insert(entity);
        self.record_change(Change::MembershipAdded { entity, class });
        for p in self.class(class)?.all_parents().collect::<Vec<_>>() {
            self.add_to_class_unchecked(entity, p)?;
        }
        Ok(())
    }

    /// Removes an entity from a subclass, cascading the removal down through
    /// every descendant (subset consistency), dropping the values it carried
    /// for attributes those classes own (only members carry them, §2), and
    /// scrubbing any attribute values that drew on the classes it left.
    ///
    /// Records the memberships lost and the values dropped or scrubbed.
    pub fn remove_from_class(&mut self, entity: EntityId, class: ClassId) -> Result<()> {
        let crec = self.class(class)?;
        if crec.is_base() {
            return Err(CoreError::Inconsistent(
                "removing from a baseclass deletes the entity; use delete_entity".into(),
            ));
        }
        self.entity(entity)?;
        let mut left = Vec::new();
        self.remove_from_class_rec(entity, class, &mut left)?;
        // Replays of a removal re-derive these drops, so commit rebase and
        // WAL batches skip them ([`ChangeSet::leave_drops`]).
        for a in 0..self.attrs.len() {
            if self.attrs[a].alive && left.contains(&self.attrs[a].owner) {
                self.drop_value(entity, AttrId::from_raw(a as u32));
            }
        }
        self.scrub_values(entity, &left)
    }

    /// Removes the value `entity` carries for `attr`, recording the
    /// transition to the attribute's default.
    fn drop_value(&mut self, entity: EntityId, attr: AttrId) {
        let rec = &mut self.attrs[attr.index()];
        if let Some(old) = rec.values.remove(entity) {
            let new = rec.default_value();
            if old != new {
                self.record_change(Change::AttrAssigned {
                    entity,
                    attr,
                    old,
                    new,
                });
            }
        }
    }

    fn remove_from_class_rec(
        &mut self,
        entity: EntityId,
        class: ClassId,
        left: &mut Vec<ClassId>,
    ) -> Result<()> {
        if !self.classes[class.index()].members.contains(entity) {
            return Ok(());
        }
        self.extent_mut(class).remove(entity);
        self.record_change(Change::MembershipRemoved { entity, class });
        left.push(class);
        // Cascade into subclasses (primary children) …
        for child in self.class(class)?.children.clone() {
            self.remove_from_class_rec(entity, child, left)?;
        }
        // … and into classes that list `class` as a secondary parent.
        let secondary: Vec<ClassId> = self
            .classes()
            .filter(|(_, c)| c.extra_parents.contains(&class))
            .map(|(id, _)| id)
            .collect();
        for c in secondary {
            self.remove_from_class_rec(entity, c, left)?;
        }
        Ok(())
    }

    /// Deletes an entity outright: removes it from every class extent, every
    /// attribute value that references it, and every value it carries.
    /// Interned literals are immutable and cannot be deleted.
    ///
    /// Records one membership removal per extent the entity occupied, one
    /// value transition per dropped or scrubbed assignment, then the final
    /// [`Change::EntityDeleted`].
    pub fn delete_entity(&mut self, entity: EntityId) -> Result<()> {
        let rec = self.entity(entity)?;
        if rec.is_literal() {
            return Err(CoreError::LiteralEntity(entity));
        }
        let base = rec.base;
        let name = rec.name.clone();
        // Only the extents that hold the entity are written (and so copied
        // if a clone shares them).
        for c in self.descendants(base)? {
            if self.classes[c.index()].members.contains(entity) {
                self.extent_mut(c).remove(entity);
                self.record_change(Change::MembershipRemoved { entity, class: c });
            }
        }
        // Scrub both the values the entity carried and references to it.
        for a in 0..self.attrs.len() {
            if !self.attrs[a].alive {
                continue;
            }
            let attr = AttrId::from_raw(a as u32);
            self.drop_value(entity, attr);
            self.scrub_attr_references(attr, entity);
        }
        self.entity_names.remove(&(base, name));
        self.entity_mut(entity)?.alive = false;
        self.record_change(Change::EntityDeleted { entity, base });
        Ok(())
    }

    /// After `entity` left the classes in `left`, remove references to it
    /// from attributes whose value class is one of those classes (or a
    /// grouping indexed by one of them).
    fn scrub_values(&mut self, entity: EntityId, left: &[ClassId]) -> Result<()> {
        let affected: Vec<AttrId> = self
            .attrs()
            .filter(|(_, a)| match a.value_class {
                ValueClass::Class(c) => left.contains(&c),
                ValueClass::Grouping(g) => self
                    .grouping(g)
                    .and_then(|gr| self.attr(gr.on_attr))
                    .map(|ar| match ar.value_class {
                        ValueClass::Class(c) => left.contains(&c),
                        ValueClass::Grouping(_) => false,
                    })
                    .unwrap_or(false),
            })
            .map(|(id, _)| id)
            .collect();
        for a in affected {
            self.scrub_attr_references(a, entity);
        }
        Ok(())
    }

    fn scrub_attr_references(&mut self, attr: AttrId, entity: EntityId) {
        let rec = &mut self.attrs[attr.index()];
        // Collect the hits first (the column cannot be mutated mid-scan),
        // then rewrite each through the canonicalising column API: a
        // scrubbed single becomes the default (entry removed), a scrubbed
        // multi keeps its remaining members.
        let hits: Vec<(EntityId, AttrValue)> = rec
            .values
            .iter()
            .filter(|(_, v)| match v {
                crate::column::ValueRef::Single(e) => *e == entity,
                crate::column::ValueRef::Multi(s) => s.contains(entity),
            })
            .map(|(owner, v)| (owner, v.to_owned()))
            .collect();
        let mut scrubbed: Vec<(EntityId, AttrValue, AttrValue)> = Vec::new();
        for (owner, old) in hits {
            let new = match &old {
                AttrValue::Single(_) => AttrValue::Single(EntityId::NULL),
                AttrValue::Multi(s) => {
                    let mut s = s.clone();
                    s.remove(entity);
                    AttrValue::Multi(s)
                }
            };
            rec.values.set(owner, new.clone());
            scrubbed.push((owner, old, new));
        }
        for (owner, old, new) in scrubbed {
            self.record_change(Change::AttrAssigned {
                entity: owner,
                attr,
                old,
                new,
            });
        }
    }

    /// Renames an entity (assigning its naming attribute). Names must stay
    /// unique within the baseclass; literals are immutable.
    ///
    /// Records the naming-attribute value transition (old string entity →
    /// new string entity), so index consumers see renames as ordinary
    /// assignments, then [`Change::EntityRenamed`]. Renaming an entity to
    /// its own name records nothing.
    pub fn rename_entity(&mut self, entity: EntityId, name: &str) -> Result<()> {
        let rec = self.entity(entity)?;
        if rec.is_literal() {
            return Err(CoreError::LiteralEntity(entity));
        }
        if name.is_empty() {
            return Err(CoreError::InvalidLiteral("empty entity name".into()));
        }
        let base = rec.base;
        let old = rec.name.clone();
        if old == name {
            return Ok(());
        }
        if self.entity_names.contains_key(&(base, name.to_string())) {
            return Err(CoreError::DuplicateEntityName {
                base,
                name: name.into(),
            });
        }
        let new_str = self.intern(crate::literal::Literal::Str(name.to_string()))?;
        let strings = self.predefined(crate::literal::BaseKind::Strings);
        let old_str = self
            .entity_names
            .get(&(strings, old.clone()))
            .copied()
            .unwrap_or(EntityId::NULL);
        self.entity_names.remove(&(base, old));
        self.entity_names.insert((base, name.to_string()), entity);
        self.entity_mut(entity)?.name = name.to_string();
        let naming = self.naming_attr(base)?;
        self.record_change(Change::AttrAssigned {
            entity,
            attr: naming,
            old: AttrValue::Single(old_str),
            new: AttrValue::Single(new_str),
        });
        self.record_change(Change::EntityRenamed {
            entity,
            name: name.to_string(),
        });
        Ok(())
    }

    fn check_value_membership(&self, attr: AttrId, value: EntityId) -> Result<()> {
        if value.is_null() {
            return Ok(());
        }
        self.entity(value)?;
        let ok = match self.attr(attr)?.value_class {
            ValueClass::Class(c) => self.class(c)?.members.contains(value),
            // A grouping-ranged attribute stores *index* entities: each value
            // names one of the grouping's sets (a member of the grouping).
            ValueClass::Grouping(g) => {
                let idx_class = self.grouping_index_class(g)?;
                self.class(idx_class)?.members.contains(value)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(CoreError::ValueNotInValueClass { attr, value })
        }
    }

    /// The class whose entities index the sets of grouping `g` (the value
    /// class `V` of the attribute the grouping is on).
    pub fn grouping_index_class(&self, g: GroupingId) -> Result<ClassId> {
        let gr = self.grouping(g)?;
        match self.attr(gr.on_attr)?.value_class {
            ValueClass::Class(c) => Ok(c),
            ValueClass::Grouping(_) => Err(CoreError::Inconsistent(
                "grouping defined on a grouping-ranged attribute".into(),
            )),
        }
    }

    fn check_assignable(&self, entity: EntityId, attr: AttrId) -> Result<()> {
        let owner = self.attr(attr)?.owner;
        if !self.class(owner)?.members.contains(entity) {
            return Err(CoreError::NotAMember {
                entity,
                class: owner,
            });
        }
        if self.attr(attr)?.is_derived() {
            // Derived attribute values are computed, not assigned; but the
            // engine materialises them through this same path internally.
            // External assignment is allowed only to non-derived attributes.
            return Err(CoreError::Inconsistent(
                "attribute is derived; use refresh_derived_attr".into(),
            ));
        }
        Ok(())
    }

    /// Records the `old → new` transition of `attr` on `entity`, unless the
    /// value did not actually change.
    fn record_assignment(&mut self, entity: EntityId, attr: AttrId, old: AttrValue) {
        let new = self
            .attr(attr)
            .map(|rec| rec.value_of(entity))
            .unwrap_or(AttrValue::Single(EntityId::NULL));
        if old != new {
            self.record_change(Change::AttrAssigned {
                entity,
                attr,
                old,
                new,
            });
        }
    }

    /// Assigns a single value to an attribute for `entity` ("(re)assign att.
    /// value"). On a multivalued attribute this installs a singleton set.
    /// Assigning the naming attribute renames the entity.
    ///
    /// Records the `(entity, attr, old, new)` transition (nothing if the
    /// value was unchanged).
    pub fn assign_single(&mut self, entity: EntityId, attr: AttrId, value: EntityId) -> Result<()> {
        if self.attr(attr)?.naming {
            let name = self.entity(value)?.name.clone();
            return self.rename_entity(entity, &name);
        }
        self.check_assignable(entity, attr)?;
        self.check_value_membership(attr, value)?;
        let rec = self.attr(attr)?;
        let old = rec.value_of(entity);
        let v = match rec.multiplicity {
            Multiplicity::Single => AttrValue::Single(value),
            Multiplicity::Multi => AttrValue::Multi(if value.is_null() {
                OrderedSet::new()
            } else {
                [value].into_iter().collect()
            }),
        };
        self.attr_mut(attr)?.values.set(entity, v);
        self.record_assignment(entity, attr, old);
        Ok(())
    }

    /// Assigns a set of values to a multivalued attribute for `entity`.
    pub fn assign_multi(
        &mut self,
        entity: EntityId,
        attr: AttrId,
        values: impl IntoIterator<Item = EntityId>,
    ) -> Result<()> {
        self.check_assignable(entity, attr)?;
        if self.attr(attr)?.multiplicity == Multiplicity::Single {
            return Err(CoreError::SingleValuedAttr(attr));
        }
        let set: OrderedSet = values.into_iter().collect();
        for v in set.iter() {
            self.check_value_membership(attr, v)?;
        }
        let old = self.attr(attr)?.value_of(entity);
        self.attr_mut(attr)?
            .values
            .set(entity, AttrValue::Multi(set));
        self.record_assignment(entity, attr, old);
        Ok(())
    }

    /// Adds one value to a multivalued attribute without replacing the set.
    pub fn add_value(&mut self, entity: EntityId, attr: AttrId, value: EntityId) -> Result<()> {
        self.check_assignable(entity, attr)?;
        if self.attr(attr)?.multiplicity == Multiplicity::Single {
            return Err(CoreError::SingleValuedAttr(attr));
        }
        self.check_value_membership(attr, value)?;
        let old = self.attr(attr)?.value_of(entity);
        let rec = self.attr_mut(attr)?;
        rec.values.multi_entry(entity).insert(value);
        self.record_assignment(entity, attr, old);
        Ok(())
    }

    /// Resets an attribute to its default (null / empty set) for `entity`.
    pub fn unassign(&mut self, entity: EntityId, attr: AttrId) -> Result<()> {
        self.check_assignable(entity, attr)?;
        let old = self.attr(attr)?.value_of(entity);
        self.attr_mut(attr)?.values.remove(entity);
        self.record_assignment(entity, attr, old);
        Ok(())
    }

    /// The stored (or default) value of `attr` for `entity`. The naming
    /// attribute reads back the entity's name.
    pub fn attr_value(&self, entity: EntityId, attr: AttrId) -> Result<AttrValue> {
        let rec = self.attr(attr)?;
        if rec.naming {
            // Naming reads through to the entity record.
            let name = self.entity(entity)?.name.clone();
            let id = self
                .entity_names
                .get(&(self.predefined(crate::literal::BaseKind::Strings), name))
                .copied();
            return Ok(AttrValue::Single(id.unwrap_or(EntityId::NULL)));
        }
        let owner = rec.owner;
        if !self.class(owner)?.members.contains(entity) {
            return Err(CoreError::NotAMember {
                entity,
                class: owner,
            });
        }
        Ok(rec.value_of(entity))
    }

    /// The value of `attr` for `entity` as a set of entities, expanding
    /// grouping-ranged attributes into the union of the named sets (the
    /// `B: S ↔ parent(G)` reading of §2).
    pub fn attr_value_set(&self, entity: EntityId, attr: AttrId) -> Result<OrderedSet> {
        let rec = self.attr(attr)?;
        if rec.naming {
            // The name string as an interned entity, if it has been interned.
            let raw = self.attr_value(entity, attr)?;
            return Ok(raw.as_set());
        }
        let raw = self.attr_value(entity, attr)?.as_set();
        match rec.value_class {
            ValueClass::Class(_) => Ok(raw),
            ValueClass::Grouping(g) => {
                let mut out = OrderedSet::new();
                for set in self.grouping_sets_named(g, &raw)? {
                    out.extend_from(&set);
                }
                Ok(out)
            }
        }
    }

    /// The members of a class.
    pub fn members(&self, class: ClassId) -> Result<&OrderedSet> {
        Ok(&self.class(class)?.members)
    }

    /// Computes the family of sets of grouping `g` (§2): one set per index
    /// entity, ordered by the index class's extent order.
    ///
    /// For groupings indexed by a *user* class every extent member yields a
    /// set (possibly empty); for groupings indexed by a predefined baseclass
    /// (conceptually infinite) only non-empty sets are produced, in the
    /// order their values are first seen.
    pub fn grouping_sets(&self, g: GroupingId) -> Result<Vec<GroupingSet>> {
        Ok(self
            .grouping_family(g, |set: &mut OrderedSet, x| {
                set.insert(x);
            })?
            .into_iter()
            .map(|(index, members)| GroupingSet { index, members })
            .collect())
    }

    /// The `(index, size)` of every set of grouping `g`, in
    /// [`Database::grouping_sets`] order, counted in one read-only pass over
    /// the parent without building any set (what a grouping page shows).
    pub fn grouping_sizes(&self, g: GroupingId) -> Result<Vec<(EntityId, usize)>> {
        self.grouping_family(g, |n: &mut usize, _| *n += 1)
    }

    /// The sets of grouping `g` named by `indices`, one per index in their
    /// order (empty where an index names no set), each in parent-extent
    /// order, from one pass over the parent.
    pub fn grouping_sets_named(
        &self,
        g: GroupingId,
        indices: &OrderedSet,
    ) -> Result<Vec<OrderedSet>> {
        let mut sets = vec![OrderedSet::new(); indices.len()];
        if indices.is_empty() {
            return Ok(sets);
        }
        let slot: HashMap<EntityId, usize> = indices.iter().zip(0..).collect();
        self.grouping_pass(g, |x, e| {
            if let Some(&i) = slot.get(&e) {
                sets[i].insert(x);
            }
        })?;
        Ok(sets)
    }

    /// Grouping `g`'s family in [`Database::grouping_sets`] order, folding
    /// each set's members into a `T` with `add`.
    fn grouping_family<T: Default>(
        &self,
        g: GroupingId,
        mut add: impl FnMut(&mut T, EntityId),
    ) -> Result<Vec<(EntityId, T)>> {
        let idx_class = self.class(self.grouping_index_class(g)?)?;
        let mut family: Vec<(EntityId, T)> = Vec::new();
        let mut slot: HashMap<EntityId, usize> = HashMap::new();
        if !idx_class.is_predefined() {
            for idx in idx_class.members.iter() {
                slot.insert(idx, family.len());
                family.push((idx, T::default()));
            }
        }
        self.grouping_pass(g, |x, e| {
            let i = *slot.entry(e).or_insert_with(|| {
                family.push((e, T::default()));
                family.len() - 1
            });
            add(&mut family[i].1, x);
        })?;
        Ok(family)
    }

    /// Visits `(x, e)` for each member `x` of grouping `g`'s parent, in
    /// extent order, and each value `e` of the grouped attribute, read as
    /// `attr_value(x, attr)?.as_set()` reads it but borrowed from the column.
    fn grouping_pass(
        &self,
        g: GroupingId,
        mut visit: impl FnMut(EntityId, EntityId),
    ) -> Result<()> {
        let gr = self.grouping(g)?;
        let rec = self.attr(gr.on_attr)?;
        let parent = &self.class(gr.parent)?.members;
        if rec.naming {
            // Naming reads through to the entity record.
            for x in parent.iter() {
                for e in self.attr_value(x, gr.on_attr)?.as_set().iter() {
                    visit(x, e);
                }
            }
            return Ok(());
        }
        let owner = &self.class(rec.owner)?.members;
        for x in parent.iter() {
            if !owner.contains(x) {
                return Err(CoreError::NotAMember {
                    entity: x,
                    class: rec.owner,
                });
            }
            match rec.value_ref(x) {
                ValueRef::Single(e) if e.is_null() => {}
                ValueRef::Single(e) => visit(x, e),
                ValueRef::Multi(s) => s.iter().for_each(|e| visit(x, e)),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::BaseKind;

    struct Fixture {
        db: Database,
        musicians: ClassId,
        instruments: ClassId,
        plays: AttrId,
        union: AttrId,
        soloists: ClassId,
    }

    fn fixture() -> Fixture {
        let mut db = Database::new("t");
        let musicians = db.create_baseclass("musicians").unwrap();
        let instruments = db.create_baseclass("instruments").unwrap();
        let yn = db.predefined(BaseKind::Booleans);
        let plays = db
            .create_attribute(musicians, "plays", instruments, Multiplicity::Multi)
            .unwrap();
        let union = db
            .create_attribute(musicians, "union", yn, Multiplicity::Single)
            .unwrap();
        let soloists = db.create_subclass(musicians, "soloists").unwrap();
        Fixture {
            db,
            musicians,
            instruments,
            plays,
            union,
            soloists,
        }
    }

    #[test]
    fn insert_entity_into_baseclass_only() {
        let mut f = fixture();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        assert!(f.db.members(f.musicians).unwrap().contains(edith));
        assert!(f.db.insert_entity(f.soloists, "Bob").is_err());
        assert!(f
            .db
            .insert_entity(f.db.predefined(BaseKind::Integers), "7")
            .is_err());
        // Duplicate names within a baseclass are refused …
        assert!(f.db.insert_entity(f.musicians, "Edith").is_err());
        // … but the same name in a different baseclass is fine.
        assert!(f.db.insert_entity(f.instruments, "Edith").is_ok());
    }

    #[test]
    fn add_to_class_cascades_up() {
        let mut f = fixture();
        let sub = f.db.create_subclass(f.soloists, "star_soloists").unwrap();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        f.db.add_to_class(edith, sub).unwrap();
        assert!(f.db.members(sub).unwrap().contains(edith));
        assert!(f.db.members(f.soloists).unwrap().contains(edith));
        assert!(f.db.members(f.musicians).unwrap().contains(edith));
    }

    #[test]
    fn add_to_class_wrong_base_rejected() {
        let mut f = fixture();
        let oboe = f.db.insert_entity(f.instruments, "oboe").unwrap();
        assert!(matches!(
            f.db.add_to_class(oboe, f.soloists).unwrap_err(),
            CoreError::NotAMember { .. }
        ));
    }

    #[test]
    fn remove_from_class_cascades_down() {
        let mut f = fixture();
        let sub = f.db.create_subclass(f.soloists, "star_soloists").unwrap();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        f.db.add_to_class(edith, sub).unwrap();
        f.db.remove_from_class(edith, f.soloists).unwrap();
        assert!(!f.db.members(f.soloists).unwrap().contains(edith));
        assert!(!f.db.members(sub).unwrap().contains(edith));
        assert!(f.db.members(f.musicians).unwrap().contains(edith));
        // Removing from a baseclass is refused.
        assert!(f.db.remove_from_class(edith, f.musicians).is_err());
    }

    #[test]
    fn leaving_a_subclass_drops_the_values_it_owns() {
        let mut f = fixture();
        let sub = f.db.create_subclass(f.soloists, "star_soloists").unwrap();
        let fee =
            f.db.create_attribute(f.soloists, "fee", f.instruments, Multiplicity::Single)
                .unwrap();
        let encores =
            f.db.create_attribute(sub, "encores", f.instruments, Multiplicity::Multi)
                .unwrap();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        let viola = f.db.insert_entity(f.instruments, "viola").unwrap();
        f.db.add_to_class(edith, sub).unwrap();
        f.db.assign_single(edith, fee, viola).unwrap();
        f.db.assign_multi(edith, encores, [viola]).unwrap();
        f.db.assign_multi(edith, f.plays, [viola]).unwrap();

        let mark = f.db.delta_epoch();
        f.db.remove_from_class(edith, f.soloists).unwrap();
        assert!(f.db.attr(fee).unwrap().values.get(edith).is_none());
        assert!(f.db.attr(encores).unwrap().values.get(edith).is_none());
        // The baseclass's own attribute survives the leave.
        assert_eq!(
            f.db.attr_value_set(edith, f.plays).unwrap().as_slice(),
            &[viola]
        );
        assert_eq!(f.db.check_consistency().unwrap(), vec![]);
        // One drop record per owned value, and `leave_drops` flags exactly
        // those: after a rejoin, an assignment is an assignment again.
        f.db.add_to_class(edith, sub).unwrap();
        f.db.assign_single(edith, fee, viola).unwrap();
        let window = f.db.changes_since(mark).unwrap();
        let flagged: Vec<(AttrId, bool)> = window
            .iter()
            .zip(window.leave_drops(&f.db))
            .filter_map(|(c, dropped)| match c {
                Change::AttrAssigned { attr, .. } => Some((*attr, dropped)),
                _ => None,
            })
            .collect();
        assert_eq!(
            flagged,
            [(fee, true), (encores, true), (fee, false)],
            "{window:?}"
        );
    }

    /// The delta log is the one record of a mutation: what each call
    /// recorded is the log's window since the epoch taken before it.
    #[test]
    fn each_mutator_records_its_changes_in_the_log() {
        let mut f = fixture();
        let star = f.db.create_subclass(f.soloists, "star_soloists").unwrap();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        let viola = f.db.insert_entity(f.instruments, "viola").unwrap();
        let yes = f.db.boolean(true);
        fn recorded(
            db: &mut Database,
            call: impl FnOnce(&mut Database) -> Result<()>,
        ) -> Vec<Change> {
            let mark = db.delta_epoch();
            call(db).unwrap();
            db.changes_since(mark).unwrap().changes
        }

        // Re-assigning a value the entity already holds records nothing.
        let union = |db: &mut Database| db.assign_single(edith, f.union, yes);
        let plays = |db: &mut Database| db.assign_multi(edith, f.plays, [viola]);
        assert_eq!(recorded(&mut f.db, union).len(), 1);
        assert_eq!(recorded(&mut f.db, union), []);
        assert_eq!(recorded(&mut f.db, plays).len(), 1);
        assert_eq!(recorded(&mut f.db, plays), []);

        // Renaming to its own name records nothing; a rename ends with the
        // naming attribute's transition, then `EntityRenamed`.
        assert_eq!(
            recorded(&mut f.db, |db| db.rename_entity(edith, "Edith")),
            []
        );
        let naming = f.db.naming_attr(f.musicians).unwrap();
        let rename = recorded(&mut f.db, |db| db.rename_entity(edith, "Edie"));
        assert!(
            matches!(
                &rename[rename.len() - 2..],
                [
                    Change::AttrAssigned { entity, attr, .. },
                    Change::EntityRenamed { entity: renamed, name },
                ] if *entity == edith && *attr == naming && *renamed == edith && name == "Edie"
            ),
            "{rename:?}"
        );

        // Entering a sub-subclass records one `MembershipAdded` per class
        // entered; entering it again records nothing.
        assert_eq!(
            recorded(&mut f.db, |db| db.add_to_class(edith, star)),
            [
                Change::MembershipAdded {
                    entity: edith,
                    class: star
                },
                Change::MembershipAdded {
                    entity: edith,
                    class: f.soloists
                },
            ]
        );
        assert_eq!(recorded(&mut f.db, |db| db.add_to_class(edith, star)), []);

        // A delete records its membership removals first and the
        // `EntityDeleted` last, with the value drops in between.
        let delete = recorded(&mut f.db, |db| db.delete_entity(edith));
        let removed = delete
            .iter()
            .take_while(
                |c| matches!(c, Change::MembershipRemoved { entity, .. } if *entity == edith),
            )
            .count();
        assert_eq!(removed, 3, "{delete:?}");
        assert!(delete[removed..delete.len() - 1]
            .iter()
            .all(|c| matches!(c, Change::AttrAssigned { entity, .. } if *entity == edith)));
        assert_eq!(
            delete.last(),
            Some(&Change::EntityDeleted {
                entity: edith,
                base: f.musicians
            })
        );
    }

    #[test]
    fn assignment_validates_membership_and_value_class() {
        let mut f = fixture();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        let viola = f.db.insert_entity(f.instruments, "viola").unwrap();
        f.db.assign_multi(edith, f.plays, [viola]).unwrap();
        assert_eq!(
            f.db.attr_value_set(edith, f.plays).unwrap().as_slice(),
            &[viola]
        );
        // A musician is not in the value class of plays.
        let bob = f.db.insert_entity(f.musicians, "Bob").unwrap();
        assert!(matches!(
            f.db.assign_multi(edith, f.plays, [bob]).unwrap_err(),
            CoreError::ValueNotInValueClass { .. }
        ));
        // The value target must be a member of the attribute's owner.
        assert!(matches!(
            f.db.assign_multi(viola, f.plays, [viola]).unwrap_err(),
            CoreError::NotAMember { .. }
        ));
        // Boolean attribute takes interned YES/NO.
        let yes = f.db.boolean(true);
        f.db.assign_single(edith, f.union, yes).unwrap();
        assert_eq!(
            f.db.attr_value(edith, f.union).unwrap(),
            AttrValue::Single(yes)
        );
    }

    #[test]
    fn single_vs_multi_discipline() {
        let mut f = fixture();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        let viola = f.db.insert_entity(f.instruments, "viola").unwrap();
        // assign_multi on a singlevalued attribute is refused.
        let yes = f.db.boolean(true);
        assert_eq!(
            f.db.assign_multi(edith, f.union, [yes]).unwrap_err(),
            CoreError::SingleValuedAttr(f.union)
        );
        // assign_single on a multivalued attribute installs a singleton.
        f.db.assign_single(edith, f.plays, viola).unwrap();
        assert_eq!(
            f.db.attr_value(edith, f.plays).unwrap(),
            AttrValue::Multi([viola].into_iter().collect())
        );
        // add_value accumulates.
        let violin = f.db.insert_entity(f.instruments, "violin").unwrap();
        f.db.add_value(edith, f.plays, violin).unwrap();
        assert_eq!(
            f.db.attr_value_set(edith, f.plays).unwrap().as_slice(),
            &[viola, violin]
        );
        // unassign restores the default.
        f.db.unassign(edith, f.plays).unwrap();
        assert!(f.db.attr_value_set(edith, f.plays).unwrap().is_empty());
    }

    #[test]
    fn defaults_are_null_and_empty() {
        let mut f = fixture();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        assert_eq!(
            f.db.attr_value(edith, f.union).unwrap(),
            AttrValue::Single(EntityId::NULL)
        );
        assert!(f.db.attr_value_set(edith, f.plays).unwrap().is_empty());
    }

    #[test]
    fn inherited_attr_assignable_on_subclass_member() {
        let mut f = fixture();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        f.db.add_to_class(edith, f.soloists).unwrap();
        let viola = f.db.insert_entity(f.instruments, "viola").unwrap();
        // plays is owned by musicians; Edith (a soloist) can be assigned it.
        f.db.assign_multi(edith, f.plays, [viola]).unwrap();
        assert!(f.db.attr_value_set(edith, f.plays).unwrap().contains(viola));
    }

    #[test]
    fn delete_entity_scrubs_references() {
        let mut f = fixture();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        let viola = f.db.insert_entity(f.instruments, "viola").unwrap();
        f.db.assign_multi(edith, f.plays, [viola]).unwrap();
        f.db.delete_entity(viola).unwrap();
        assert!(f.db.entity(viola).is_err());
        assert!(f.db.attr_value_set(edith, f.plays).unwrap().is_empty());
        // The freed name can be reused.
        assert!(f.db.insert_entity(f.instruments, "viola").is_ok());
        // Literals cannot be deleted.
        let four = f.db.int(4);
        assert_eq!(
            f.db.delete_entity(four).unwrap_err(),
            CoreError::LiteralEntity(four)
        );
    }

    #[test]
    fn removal_from_value_subclass_scrubs_attr_values() {
        let mut f = fixture();
        // An attribute whose value class is a *subclass* of instruments.
        let strings = f.db.create_subclass(f.instruments, "stringed").unwrap();
        let fav =
            f.db.create_attribute(f.musicians, "favourite", strings, Multiplicity::Single)
                .unwrap();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        let viola = f.db.insert_entity(f.instruments, "viola").unwrap();
        f.db.add_to_class(viola, strings).unwrap();
        f.db.assign_single(edith, fav, viola).unwrap();
        // Viola leaves `stringed`; the favourite value must not dangle.
        f.db.remove_from_class(viola, strings).unwrap();
        assert_eq!(
            f.db.attr_value(edith, fav).unwrap(),
            AttrValue::Single(EntityId::NULL)
        );
    }

    #[test]
    fn rename_entity_updates_index() {
        let mut f = fixture();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        f.db.rename_entity(edith, "Edith Smith").unwrap();
        assert_eq!(f.db.entity_name(edith).unwrap(), "Edith Smith");
        assert!(f.db.entity_by_name(f.musicians, "Edith").is_err());
        assert_eq!(
            f.db.entity_by_name(f.musicians, "Edith Smith").unwrap(),
            edith
        );
        // Renaming onto an existing name is refused.
        let bob = f.db.insert_entity(f.musicians, "Bob").unwrap();
        assert!(f.db.rename_entity(bob, "Edith Smith").is_err());
        // Renaming an interned literal is refused.
        let four = f.db.int(4);
        assert!(f.db.rename_entity(four, "five").is_err());
    }

    #[test]
    fn grouping_sets_partition_by_attribute() {
        let mut f = fixture();
        let families = f.db.create_baseclass("families").unwrap();
        let family =
            f.db.create_attribute(f.instruments, "family", families, Multiplicity::Single)
                .unwrap();
        let by_family =
            f.db.create_grouping(f.instruments, "by_family", family)
                .unwrap();
        let brass = f.db.insert_entity(families, "brass").unwrap();
        let wood = f.db.insert_entity(families, "woodwind").unwrap();
        let flute = f.db.insert_entity(f.instruments, "flute").unwrap();
        let oboe = f.db.insert_entity(f.instruments, "oboe").unwrap();
        let tuba = f.db.insert_entity(f.instruments, "tuba").unwrap();
        f.db.assign_single(flute, family, wood).unwrap();
        f.db.assign_single(oboe, family, wood).unwrap();
        f.db.assign_single(tuba, family, brass).unwrap();
        let sets = f.db.grouping_sets(by_family).unwrap();
        // Ordered by the families extent (brass first), empty sets included.
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].index, brass);
        assert_eq!(sets[0].members.as_slice(), &[tuba]);
        assert_eq!(sets[1].index, wood);
        assert_eq!(sets[1].members.as_slice(), &[flute, oboe]);
        assert_eq!(
            f.db.grouping_sizes(by_family).unwrap(),
            vec![(brass, 1), (wood, 2)]
        );
        // Named sets come back in the order asked for; an index naming no
        // set gets the empty set.
        let named =
            f.db.grouping_sets_named(by_family, &[wood, flute, brass].into_iter().collect())
                .unwrap();
        let named: Vec<&[EntityId]> = named.iter().map(OrderedSet::as_slice).collect();
        assert_eq!(named, vec![&[flute, oboe][..], &[], &[tuba]]);
    }

    #[test]
    fn grouping_on_boolean_attr_shows_nonempty_only() {
        let mut f = fixture();
        let work_status =
            f.db.create_grouping(f.musicians, "work_status", f.union)
                .unwrap();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        let yes = f.db.boolean(true);
        f.db.boolean(false); // interned but unused by any musician
        f.db.assign_single(edith, f.union, yes).unwrap();
        let sets = f.db.grouping_sets(work_status).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].index, yes);
        assert_eq!(sets[0].members.as_slice(), &[edith]);
    }

    #[test]
    fn grouping_ranged_attribute_stores_index_and_expands() {
        let mut f = fixture();
        let families = f.db.create_baseclass("families").unwrap();
        let family =
            f.db.create_attribute(f.instruments, "family", families, Multiplicity::Single)
                .unwrap();
        let by_family =
            f.db.create_grouping(f.instruments, "by_family", family)
                .unwrap();
        // music_groups.includes: musicians → grouping by_family, i.e. each
        // value names a family's instrument set.
        let groups = f.db.create_baseclass("music_groups").unwrap();
        let includes =
            f.db.create_attribute(groups, "includes", by_family, Multiplicity::Multi)
                .unwrap();
        let wood = f.db.insert_entity(families, "woodwind").unwrap();
        let flute = f.db.insert_entity(f.instruments, "flute").unwrap();
        f.db.assign_single(flute, family, wood).unwrap();
        let q = f.db.insert_entity(groups, "quartet1").unwrap();
        // The stored value is the *index* entity (the family)…
        f.db.assign_multi(q, includes, [wood]).unwrap();
        // …and expansion yields the set's members (instruments).
        assert_eq!(
            f.db.attr_value_set(q, includes).unwrap().as_slice(),
            &[flute]
        );
        // A non-index entity is rejected.
        assert!(f.db.assign_multi(q, includes, [flute]).is_err());
    }

    #[test]
    fn direct_insert_into_derived_class_refused() {
        let mut f = fixture();
        let derived =
            f.db.create_derived_subclass(f.musicians, "quartet_players")
                .unwrap();
        let edith = f.db.insert_entity(f.musicians, "Edith").unwrap();
        assert_eq!(
            f.db.add_to_class(edith, derived).unwrap_err(),
            CoreError::DerivedClass(derived)
        );
    }
}
