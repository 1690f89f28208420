//! Schema-level modification operations: creating, renaming and deleting
//! classes, attributes and groupings (§2, §3.2).

use std::sync::Arc;

use crate::attribute::{AttrRecord, Multiplicity, ValueClass};
use crate::change::SchemaEdit;
use crate::class::{ClassKind, ClassRecord};
use crate::error::{CoreError, Result};
use crate::fillpattern::FillPattern;
use crate::grouping::GroupingRecord;
use crate::ids::{AttrId, ClassId, GroupingId};
use crate::Database;

impl Database {
    fn next_fill(&mut self) -> FillPattern {
        let f = FillPattern::nth(self.fill_counter);
        self.fill_counter += 1;
        f
    }

    fn check_schema_name(&self, name: &str) -> Result<()> {
        if name.is_empty() {
            return Err(CoreError::InvalidLiteral("empty name".into()));
        }
        if self.schema_name_taken(name) {
            return Err(CoreError::DuplicateName(name.into()));
        }
        Ok(())
    }

    /// Creates a user baseclass. A naming attribute into STRINGS is added
    /// automatically as its first attribute.
    pub fn create_baseclass(&mut self, name: &str) -> Result<ClassId> {
        self.check_schema_name(name)?;
        let id = ClassId::from_raw(self.classes.len() as u32);
        let fill = self.next_fill();
        self.classes.push(ClassRecord {
            name: name.to_string(),
            parent: None,
            base: id,
            kind: ClassKind::Base(None),
            fill,
            own_attrs: Vec::new(),
            children: Vec::new(),
            groupings: Vec::new(),
            members: Arc::default(),
            extra_parents: Vec::new(),
            alive: true,
        });
        let naming = self.push_naming_attr(id);
        self.record_schema(SchemaEdit::ClassCreated(id));
        self.record_schema(SchemaEdit::AttrCreated(naming));
        Ok(id)
    }

    fn push_subclass(&mut self, parent: ClassId, name: &str, kind: ClassKind) -> Result<ClassId> {
        self.check_schema_name(name)?;
        let base = self.class(parent)?.base;
        let id = ClassId::from_raw(self.classes.len() as u32);
        let fill = self.next_fill();
        self.classes.push(ClassRecord {
            name: name.to_string(),
            parent: Some(parent),
            base,
            kind,
            fill,
            own_attrs: Vec::new(),
            children: Vec::new(),
            groupings: Vec::new(),
            members: Arc::default(),
            extra_parents: Vec::new(),
            alive: true,
        });
        self.classes[parent.index()].children.push(id);
        self.record_schema(SchemaEdit::ClassCreated(id));
        Ok(id)
    }

    /// Creates an enumerated (hand-picked) subclass of `parent`, initially
    /// empty. This is the *create subclass* / *make subclass* menu command.
    pub fn create_subclass(&mut self, parent: ClassId, name: &str) -> Result<ClassId> {
        self.push_subclass(parent, name, ClassKind::Enumerated)
    }

    /// Creates a derived subclass of `parent` with an initially-empty
    /// predicate (always true, so the class is empty until a predicate is
    /// committed — the worksheet flow of §4.2). Use
    /// [`Database::commit_membership`] to install and evaluate a predicate.
    pub fn create_derived_subclass(&mut self, parent: ClassId, name: &str) -> Result<ClassId> {
        self.push_subclass(
            parent,
            name,
            ClassKind::Derived(crate::predicate::Predicate::always_false()),
        )
    }

    /// Renames a class ((re)name menu command).
    pub fn rename_class(&mut self, class: ClassId, name: &str) -> Result<()> {
        if self.class(class)?.is_predefined() {
            return Err(CoreError::Predefined);
        }
        if self.class(class)?.name == name {
            return Ok(());
        }
        self.check_schema_name(name)?;
        self.class_mut(class)?.name = name.to_string();
        self.record_schema(SchemaEdit::ClassRenamed(class));
        Ok(())
    }

    /// Renames a grouping.
    pub fn rename_grouping(&mut self, grouping: GroupingId, name: &str) -> Result<()> {
        if self.grouping(grouping)?.name == name {
            return Ok(());
        }
        self.check_schema_name(name)?;
        self.groupings[grouping.index()].name = name.to_string();
        self.record_schema(SchemaEdit::GroupingRenamed(grouping));
        Ok(())
    }

    /// Deletes a class. Refused while the class "is the parent of some other
    /// class or the value class of some attribute" (§2), has groupings, or
    /// is predefined. The class's own attributes are deleted with it.
    pub fn delete_class(&mut self, class: ClassId) -> Result<()> {
        let rec = self.class(class)?;
        if rec.is_predefined() {
            return Err(CoreError::Predefined);
        }
        if !rec.children.is_empty() || !rec.groupings.is_empty() {
            return Err(CoreError::ClassInUse(class));
        }
        if self.attrs().any(|(a, r)| {
            r.value_class == ValueClass::Class(class)
                && r.owner != class
                && self.attrs[a.index()].alive
        }) {
            return Err(CoreError::ClassInUse(class));
        }
        if self
            .classes()
            .any(|(c, r)| c != class && r.extra_parents.contains(&class))
        {
            return Err(CoreError::ClassInUse(class));
        }
        // Baseclass deletion also deletes its entities.
        if self.class(class)?.is_base() {
            let members: Vec<_> = self.class(class)?.members.iter().collect();
            for e in members {
                self.delete_entity(e)?;
            }
        }
        let own: Vec<AttrId> = self.class(class)?.own_attrs.clone();
        for a in own {
            self.attrs[a.index()].alive = false;
            self.attrs[a.index()].values.clear();
            self.record_schema(SchemaEdit::AttrDeleted(a));
        }
        if let Some(p) = self.class(class)?.parent {
            self.classes[p.index()].children.retain(|&c| c != class);
        }
        let rec = &mut self.classes[class.index()];
        rec.alive = false;
        // An empty extent of its own: a clone keeps the old one.
        rec.members = Arc::default();
        rec.own_attrs.clear();
        self.record_schema(SchemaEdit::ClassDeleted(class));
        Ok(())
    }

    /// Creates an attribute on `class` drawing values from `value_class`.
    ///
    /// The name must not collide with any attribute visible on `class` or
    /// owned by any of its descendants (which would shadow inheritance).
    pub fn create_attribute(
        &mut self,
        class: ClassId,
        name: &str,
        value_class: impl Into<ValueClassSpec>,
        multiplicity: Multiplicity,
    ) -> Result<AttrId> {
        if name.is_empty() {
            return Err(CoreError::InvalidLiteral("empty attribute name".into()));
        }
        let value_class = match value_class.into() {
            ValueClassSpec::Class(c) => {
                self.class(c)?;
                ValueClass::Class(c)
            }
            ValueClassSpec::Grouping(g) => {
                self.grouping(g)?;
                ValueClass::Grouping(g)
            }
        };
        self.class(class)?;
        // No collision with visible attributes here …
        for a in self.visible_attrs(class)? {
            if self.attr(a)?.name == name {
                return Err(CoreError::DuplicateName(name.into()));
            }
        }
        // … nor with attributes owned anywhere below (they would collide on
        // the descendant's attribute section).
        for c in self.descendants(class)? {
            for &a in &self.class(c)?.own_attrs {
                if self.attrs[a.index()].alive && self.attrs[a.index()].name == name {
                    return Err(CoreError::DuplicateName(name.into()));
                }
            }
        }
        let id = AttrId::from_raw(self.attrs.len() as u32);
        self.attrs.push(AttrRecord {
            name: name.to_string(),
            owner: class,
            value_class,
            multiplicity,
            naming: false,
            derivation: None,
            values: crate::column::AttrColumn::new(),
            alive: true,
        });
        self.classes[class.index()].own_attrs.push(id);
        self.record_schema(SchemaEdit::AttrCreated(id));
        Ok(id)
    }

    /// Renames an attribute. Naming attributes may be renamed (the paper's
    /// *musicians* baseclass names its entities with *stage_name*), but not
    /// deleted or retargeted.
    pub fn rename_attr(&mut self, attr: AttrId, name: &str) -> Result<()> {
        let rec = self.attr(attr)?;
        if rec.naming && self.class(rec.owner)?.is_predefined() {
            return Err(CoreError::Predefined);
        }
        let owner = rec.owner;
        for a in self.visible_attrs(owner)? {
            if a != attr && self.attr(a)?.name == name {
                return Err(CoreError::DuplicateName(name.into()));
            }
        }
        if self.attr(attr)?.name == name {
            return Ok(());
        }
        self.attr_mut(attr)?.name = name.to_string();
        self.record_schema(SchemaEdit::AttrRenamed(attr));
        Ok(())
    }

    /// (Re)specifies the value class of an attribute ((re)specify value
    /// class menu command). Existing values are cleared, since they were
    /// validated against the old value class.
    pub fn respecify_value_class(
        &mut self,
        attr: AttrId,
        value_class: impl Into<ValueClassSpec>,
    ) -> Result<()> {
        if self.attr(attr)?.naming {
            return Err(CoreError::Predefined);
        }
        let vc = match value_class.into() {
            ValueClassSpec::Class(c) => {
                self.class(c)?;
                ValueClass::Class(c)
            }
            ValueClassSpec::Grouping(g) => {
                self.grouping(g)?;
                ValueClass::Grouping(g)
            }
        };
        let rec = self.attr_mut(attr)?;
        rec.value_class = vc;
        rec.values.clear();
        self.record_schema(SchemaEdit::ValueClassChanged(attr));
        Ok(())
    }

    /// Deletes an attribute. Refused for naming attributes and for
    /// attributes some grouping is defined on.
    pub fn delete_attr(&mut self, attr: AttrId) -> Result<()> {
        if self.attr(attr)?.naming {
            return Err(CoreError::Predefined);
        }
        if self.groupings().any(|(_, g)| g.on_attr == attr) {
            return Err(CoreError::Inconsistent(
                "attribute has a grouping defined on it".into(),
            ));
        }
        let owner = self.attr(attr)?.owner;
        self.classes[owner.index()].own_attrs.retain(|&a| a != attr);
        let rec = &mut self.attrs[attr.index()];
        rec.alive = false;
        rec.values.clear();
        self.record_schema(SchemaEdit::AttrDeleted(attr));
        Ok(())
    }

    /// Creates a grouping of `parent` on attribute `attr` ("in ISIS a
    /// grouping is only allowed on common values of an attribute", §1.2).
    /// The attribute must be visible on `parent` and must range over a
    /// class, not over another grouping.
    pub fn create_grouping(
        &mut self,
        parent: ClassId,
        name: &str,
        attr: AttrId,
    ) -> Result<GroupingId> {
        self.check_schema_name(name)?;
        if !self.attr_visible_on(attr, parent)? {
            return Err(CoreError::AttrNotOnClass {
                attr,
                class: parent,
            });
        }
        if matches!(self.attr(attr)?.value_class, ValueClass::Grouping(_)) {
            return Err(CoreError::Inconsistent(
                "cannot group on a grouping-ranged attribute".into(),
            ));
        }
        let id = GroupingId::from_raw(self.groupings.len() as u32);
        let fill = self.next_fill();
        self.groupings.push(GroupingRecord {
            name: name.to_string(),
            parent,
            on_attr: attr,
            fill,
            alive: true,
        });
        self.classes[parent.index()].groupings.push(id);
        self.record_schema(SchemaEdit::GroupingCreated(id));
        Ok(id)
    }

    /// Deletes a grouping. Refused while it is the value class of an
    /// attribute.
    pub fn delete_grouping(&mut self, grouping: GroupingId) -> Result<()> {
        self.grouping(grouping)?;
        if self
            .attrs()
            .any(|(_, a)| a.value_class == ValueClass::Grouping(grouping))
        {
            return Err(CoreError::GroupingInUse(grouping));
        }
        let parent = self.grouping(grouping)?.parent;
        self.classes[parent.index()]
            .groupings
            .retain(|&g| g != grouping);
        self.groupings[grouping.index()].alive = false;
        self.record_schema(SchemaEdit::GroupingDeleted(grouping));
        Ok(())
    }

    /// All classes at or below `class` in the forest (preorder).
    pub fn descendants(&self, class: ClassId) -> Result<Vec<ClassId>> {
        self.class(class)?;
        let mut out = Vec::new();
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            out.push(c);
            for &child in self.class(c)?.children.iter().rev() {
                stack.push(child);
            }
        }
        Ok(out)
    }

    /// Adds a secondary parent under the multiple-inheritance extension.
    ///
    /// Requirements: the extension is enabled; both classes share a
    /// baseclass; no inheritance cycle; every current member of `class` is
    /// already a member of `parent`; and no attribute-name conflicts arise.
    pub fn add_secondary_parent(&mut self, class: ClassId, parent: ClassId) -> Result<()> {
        if !self.multi_inheritance {
            return Err(CoreError::MultipleInheritance(
                "enable_multiple_inheritance() has not been called".into(),
            ));
        }
        if class == parent {
            return Err(CoreError::MultipleInheritance(
                "class cannot parent itself".into(),
            ));
        }
        let (cb, pb) = (self.class(class)?.base, self.class(parent)?.base);
        if cb != pb {
            return Err(CoreError::MultipleInheritance(
                "secondary parent must share the baseclass".into(),
            ));
        }
        if self.class(class)?.extra_parents.contains(&parent) {
            return Ok(());
        }
        // No cycles: parent must not already (transitively) inherit from class.
        if self.inherits_from(parent, class)? {
            return Err(CoreError::MultipleInheritance("inheritance cycle".into()));
        }
        // Membership constraint C ⊆ parent.
        let members: Vec<_> = self.class(class)?.members.iter().collect();
        for e in &members {
            if !self.class(parent)?.members.contains(*e) {
                return Err(CoreError::NotAMember {
                    entity: *e,
                    class: parent,
                });
            }
        }
        // Attribute-name conflicts between the existing visible set and the
        // new parent's visible set are rejected up front. An attribute
        // inherited through *both* parents from a common ancestor is the
        // same attribute, not a conflict — only distinct attributes sharing
        // a name clash.
        let existing: std::collections::HashMap<String, AttrId> = self
            .visible_attrs(class)?
            .into_iter()
            .map(|a| self.attr(a).map(|r| (r.name.clone(), a)))
            .collect::<Result<_>>()?;
        for a in self.visible_attrs(parent)? {
            let rec = self.attr(a)?;
            if rec.naming {
                continue;
            }
            if let Some(&other) = existing.get(&rec.name) {
                if other != a {
                    return Err(CoreError::MultipleInheritance(format!(
                        "attribute name conflict: {:?}",
                        rec.name
                    )));
                }
            }
        }
        self.class_mut(class)?.extra_parents.push(parent);
        self.record_schema(SchemaEdit::SecondaryParentAdded { class, parent });
        Ok(())
    }

    /// `true` if `class` inherits (primary or secondary, transitively) from
    /// `ancestor`.
    pub fn inherits_from(&self, class: ClassId, ancestor: ClassId) -> Result<bool> {
        if class == ancestor {
            return Ok(true);
        }
        let rec = self.class(class)?;
        for p in rec.all_parents().collect::<Vec<_>>() {
            if self.inherits_from(p, ancestor)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Value-class specification accepted by attribute-creation APIs; lets call
/// sites pass a `ClassId` or `GroupingId` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueClassSpec {
    /// Range over a class.
    Class(ClassId),
    /// Range over a grouping.
    Grouping(GroupingId),
}

impl From<ClassId> for ValueClassSpec {
    fn from(c: ClassId) -> Self {
        ValueClassSpec::Class(c)
    }
}

impl From<GroupingId> for ValueClassSpec {
    fn from(g: GroupingId) -> Self {
        ValueClassSpec::Grouping(g)
    }
}

impl From<ValueClass> for ValueClassSpec {
    fn from(v: ValueClass) -> Self {
        match v {
            ValueClass::Class(c) => ValueClassSpec::Class(c),
            ValueClass::Grouping(g) => ValueClassSpec::Grouping(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::BaseKind;

    fn db() -> Database {
        Database::new("t")
    }

    #[test]
    fn create_baseclass_with_naming_attr() {
        let mut d = db();
        let musicians = d.create_baseclass("musicians").unwrap();
        let rec = d.class(musicians).unwrap();
        assert!(rec.is_base());
        assert!(!rec.is_predefined());
        assert_eq!(rec.own_attrs.len(), 1);
        let naming = d.naming_attr(musicians).unwrap();
        assert!(d.attr(naming).unwrap().naming);
        assert_eq!(d.attr(naming).unwrap().name, "name");
    }

    #[test]
    fn duplicate_schema_names_rejected() {
        let mut d = db();
        d.create_baseclass("musicians").unwrap();
        assert_eq!(
            d.create_baseclass("musicians").unwrap_err(),
            CoreError::DuplicateName("musicians".into())
        );
        assert!(d.create_baseclass("STRINGS").is_err());
    }

    #[test]
    fn subclass_links_into_forest() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let s = d.create_subclass(m, "soloists").unwrap();
        assert_eq!(d.class(s).unwrap().parent, Some(m));
        assert_eq!(d.class(s).unwrap().base, m);
        assert_eq!(d.class(m).unwrap().children, vec![s]);
        assert_eq!(d.ancestry(s).unwrap(), vec![m, s]);
    }

    #[test]
    fn attribute_inheritance_order() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let yn = d.predefined(BaseKind::Booleans);
        let union = d
            .create_attribute(m, "union", yn, Multiplicity::Single)
            .unwrap();
        let s = d.create_subclass(m, "play_strings").unwrap();
        let ingroup = d
            .create_attribute(s, "in_group", yn, Multiplicity::Single)
            .unwrap();
        let visible = d.visible_attrs(s).unwrap();
        // naming first (inherited), then union (inherited), then own.
        assert_eq!(visible, vec![d.naming_attr(m).unwrap(), union, ingroup]);
        // The parent does not see the child's attribute.
        assert!(!d.attr_visible_on(ingroup, m).unwrap());
        assert!(d.attr_visible_on(union, s).unwrap());
    }

    #[test]
    fn attr_name_collisions_rejected_up_and_down() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let s = d.create_subclass(m, "soloists").unwrap();
        let strings = d.predefined(BaseKind::Strings);
        d.create_attribute(s, "agent", strings, Multiplicity::Single)
            .unwrap();
        // Same name on the subclass again: collides with visible.
        assert!(d
            .create_attribute(s, "agent", strings, Multiplicity::Single)
            .is_err());
        // Same name on the parent: would shadow the descendant's attribute.
        assert!(d
            .create_attribute(m, "agent", strings, Multiplicity::Single)
            .is_err());
        // "name" collides with the inherited naming attribute.
        assert!(d
            .create_attribute(s, "name", strings, Multiplicity::Single)
            .is_err());
    }

    #[test]
    fn delete_class_rules() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let i = d.create_baseclass("instruments").unwrap();
        let s = d.create_subclass(m, "soloists").unwrap();
        // Parent of s: refused.
        assert_eq!(d.delete_class(m).unwrap_err(), CoreError::ClassInUse(m));
        // Value class of an attribute: refused.
        d.create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        assert_eq!(d.delete_class(i).unwrap_err(), CoreError::ClassInUse(i));
        // Leaf subclass deletes fine.
        d.delete_class(s).unwrap();
        assert!(d.class(s).is_err());
        assert!(d.class(m).unwrap().children.is_empty());
        // Predefined baseclasses never delete.
        assert_eq!(
            d.delete_class(d.predefined(BaseKind::Strings)).unwrap_err(),
            CoreError::Predefined
        );
    }

    #[test]
    fn grouping_requires_visible_attr() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let i = d.create_baseclass("instruments").unwrap();
        let plays = d
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let g = d.create_grouping(m, "by_instrument", plays).unwrap();
        assert_eq!(d.grouping(g).unwrap().parent, m);
        // An attribute of instruments is not visible on musicians.
        let fam = d.create_baseclass("families").unwrap();
        let family = d
            .create_attribute(i, "family", fam, Multiplicity::Single)
            .unwrap();
        assert!(d.create_grouping(m, "bad", family).is_err());
        // A grouping on the subclass can use the inherited attribute.
        let s = d.create_subclass(m, "soloists").unwrap();
        assert!(d.create_grouping(s, "solo_by_instrument", plays).is_ok());
    }

    #[test]
    fn grouping_deletion_blocked_while_value_class() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let i = d.create_baseclass("instruments").unwrap();
        let plays = d
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let g = d.create_grouping(m, "by_instrument", plays).unwrap();
        let mg = d.create_baseclass("music_groups").unwrap();
        let a = d
            .create_attribute(mg, "section", g, Multiplicity::Single)
            .unwrap();
        assert_eq!(
            d.delete_grouping(g).unwrap_err(),
            CoreError::GroupingInUse(g)
        );
        d.delete_attr(a).unwrap();
        d.delete_grouping(g).unwrap();
        assert!(d.grouping(g).is_err());
    }

    #[test]
    fn delete_attr_rules() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let i = d.create_baseclass("instruments").unwrap();
        let plays = d
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let naming = d.naming_attr(m).unwrap();
        assert_eq!(d.delete_attr(naming).unwrap_err(), CoreError::Predefined);
        d.create_grouping(m, "by_instrument", plays).unwrap();
        assert!(d.delete_attr(plays).is_err());
        let g = d.grouping_by_name("by_instrument").unwrap();
        d.delete_grouping(g).unwrap();
        d.delete_attr(plays).unwrap();
        assert!(d.attr(plays).is_err());
        assert!(!d.visible_attrs(m).unwrap().contains(&plays));
    }

    #[test]
    fn rename_rules() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        d.rename_class(m, "players").unwrap();
        assert_eq!(d.class(m).unwrap().name, "players");
        // Renaming to itself is a no-op, not a duplicate.
        d.rename_class(m, "players").unwrap();
        let i = d.create_baseclass("instruments").unwrap();
        assert!(d.rename_class(i, "players").is_err());
        assert!(d
            .rename_class(d.predefined(BaseKind::Integers), "ints")
            .is_err());
    }

    #[test]
    fn multiple_inheritance_gated() {
        let mut d = db();
        let m = d.create_baseclass("musicians").unwrap();
        let a = d.create_subclass(m, "a").unwrap();
        let b = d.create_subclass(m, "b").unwrap();
        assert!(matches!(
            d.add_secondary_parent(a, b).unwrap_err(),
            CoreError::MultipleInheritance(_)
        ));
        d.enable_multiple_inheritance();
        d.add_secondary_parent(a, b).unwrap();
        assert_eq!(d.class(a).unwrap().extra_parents, vec![b]);
        // Idempotent.
        d.add_secondary_parent(a, b).unwrap();
        assert_eq!(d.class(a).unwrap().extra_parents, vec![b]);
        // Cycles refused.
        assert!(d.add_secondary_parent(b, a).is_err());
    }

    #[test]
    fn multiple_inheritance_attr_union() {
        let mut d = db();
        d.enable_multiple_inheritance();
        let m = d.create_baseclass("musicians").unwrap();
        let yn = d.predefined(BaseKind::Booleans);
        let a = d.create_subclass(m, "a").unwrap();
        let b = d.create_subclass(m, "b").unwrap();
        let fa = d
            .create_attribute(a, "fa", yn, Multiplicity::Single)
            .unwrap();
        let fb = d
            .create_attribute(b, "fb", yn, Multiplicity::Single)
            .unwrap();
        d.add_secondary_parent(a, b).unwrap();
        let vis = d.visible_attrs(a).unwrap();
        assert!(vis.contains(&fa) && vis.contains(&fb));
        // Conflicting attribute names across parents are refused.
        let c = d.create_subclass(m, "c").unwrap();
        d.create_attribute(c, "fa", yn, Multiplicity::Single)
            .unwrap();
        assert!(matches!(
            d.add_secondary_parent(c, a).unwrap_err(),
            CoreError::MultipleInheritance(_)
        ));
    }

    #[test]
    fn descendants_preorder() {
        let mut d = db();
        let m = d.create_baseclass("m").unwrap();
        let a = d.create_subclass(m, "a").unwrap();
        let b = d.create_subclass(m, "b").unwrap();
        let aa = d.create_subclass(a, "aa").unwrap();
        assert_eq!(d.descendants(m).unwrap(), vec![m, a, aa, b]);
    }

    #[test]
    fn respecify_value_class_clears_values() {
        let mut d = db();
        let m = d.create_baseclass("m").unwrap();
        let i = d.create_baseclass("i").unwrap();
        let f = d.create_baseclass("f").unwrap();
        let plays = d
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let e = d.insert_entity(m, "edith").unwrap();
        let v = d.insert_entity(i, "viola").unwrap();
        d.assign_multi(e, plays, [v]).unwrap();
        d.respecify_value_class(plays, f).unwrap();
        assert!(d.attr(plays).unwrap().values.is_empty());
        assert_eq!(d.attr(plays).unwrap().value_class, ValueClass::Class(f));
    }
}
