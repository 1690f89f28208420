//! Whole-database consistency checking (§2).
//!
//! "Data is consistent with the schema in the sense that each entity is in
//! one baseclass only, each subclass is a subset of its parent, a
//! singlevalued attribute defines a function, and each grouping is
//! completely determined from its parent class and an attribute."
//!
//! Mutating operations preserve these invariants; [`Database::check_consistency`]
//! re-verifies them from first principles, for tests, recovery audits, and
//! property-based fuzzing.

use std::fmt;

use crate::attribute::{Multiplicity, ValueClass};
use crate::error::Result;
use crate::ids::{AttrId, ClassId, EntityId};
use crate::Database;

/// One detected violation of the §2 consistency rules.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An entity appears in the extent of a class outside its baseclass tree.
    EntityOutsideBaseclass {
        /// The offending entity.
        entity: EntityId,
        /// The class whose extent contains it.
        class: ClassId,
    },
    /// A subclass member is missing from a (primary or secondary) parent.
    SubclassNotSubset {
        /// The subclass.
        class: ClassId,
        /// The parent lacking the member.
        parent: ClassId,
        /// The member violating `C ⊆ parent(C)`.
        entity: EntityId,
    },
    /// A stored attribute value refers outside the attribute's value class.
    ValueOutsideValueClass {
        /// The attribute.
        attr: AttrId,
        /// The entity carrying the value.
        entity: EntityId,
        /// The out-of-class value.
        value: EntityId,
    },
    /// An attribute value is stored for a non-member of the owner class.
    ValueForNonMember {
        /// The attribute.
        attr: AttrId,
        /// The non-member entity.
        entity: EntityId,
    },
    /// A singlevalued attribute stores a set.
    SingleValuedStoresSet {
        /// The attribute.
        attr: AttrId,
        /// The entity with the set value.
        entity: EntityId,
    },
    /// The inheritance forest has a structural defect (cycle, bad link).
    ForestDefect(String),
    /// A dangling reference from the schema (dead class/attr/grouping).
    DanglingReference(String),
    /// An entity name index entry is stale or duplicated.
    NameIndexDefect(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::EntityOutsideBaseclass { entity, class } => {
                write!(
                    f,
                    "entity {entity} is in class {class} outside its baseclass tree"
                )
            }
            Violation::SubclassNotSubset {
                class,
                parent,
                entity,
            } => {
                write!(
                    f,
                    "class {class} has member {entity} missing from parent {parent}"
                )
            }
            Violation::ValueOutsideValueClass {
                attr,
                entity,
                value,
            } => {
                write!(
                    f,
                    "attr {attr} of {entity} holds {value} outside its value class"
                )
            }
            Violation::ValueForNonMember { attr, entity } => {
                write!(f, "attr {attr} stores a value for non-member {entity}")
            }
            Violation::SingleValuedStoresSet { attr, entity } => {
                write!(f, "singlevalued attr {attr} stores a set for {entity}")
            }
            Violation::ForestDefect(m) => write!(f, "forest defect: {m}"),
            Violation::DanglingReference(m) => write!(f, "dangling reference: {m}"),
            Violation::NameIndexDefect(m) => write!(f, "name index defect: {m}"),
        }
    }
}

impl Database {
    /// Re-verifies every §2 consistency rule from scratch, returning all
    /// violations found (empty means the database is consistent).
    pub fn check_consistency(&self) -> Result<Vec<Violation>> {
        let obs = isis_obs::global();
        let _span = obs.span("core.consistency.check");
        let mut v = Vec::new();
        self.check_forest(&mut v)?;
        self.check_extents(&mut v)?;
        self.check_attr_values(&mut v)?;
        self.check_name_index(&mut v)?;
        obs.count("core.consistency.checks", 1);
        obs.count("core.consistency.violations", v.len() as u64);
        Ok(v)
    }

    /// `true` if no consistency violations exist.
    pub fn is_consistent(&self) -> Result<bool> {
        Ok(self.check_consistency()?.is_empty())
    }

    fn check_forest(&self, v: &mut Vec<Violation>) -> Result<()> {
        for (id, rec) in self.classes() {
            match rec.parent {
                None => {
                    if rec.base != id {
                        v.push(Violation::ForestDefect(format!(
                            "baseclass {id} has base link {}",
                            rec.base
                        )));
                    }
                }
                Some(p) => match self.class(p) {
                    Ok(prec) => {
                        if !prec.children.contains(&id) {
                            v.push(Violation::ForestDefect(format!(
                                "{p} does not list child {id}"
                            )));
                        }
                        if prec.base != rec.base {
                            v.push(Violation::ForestDefect(format!(
                                "{id} and parent {p} disagree on baseclass"
                            )));
                        }
                    }
                    Err(_) => v.push(Violation::DanglingReference(format!(
                        "class {id} has dead parent {p}"
                    ))),
                },
            }
            // Ancestry terminates (no cycles).
            if self.ancestry(id).is_err() {
                v.push(Violation::ForestDefect(format!("cycle through {id}")));
            }
            for &child in &rec.children {
                match self.class(child) {
                    Ok(c) if c.parent == Some(id) => {}
                    Ok(_) => v.push(Violation::ForestDefect(format!(
                        "{id} lists {child} whose parent differs"
                    ))),
                    Err(_) => v.push(Violation::DanglingReference(format!(
                        "class {id} lists dead child {child}"
                    ))),
                }
            }
            for &g in &rec.groupings {
                match self.grouping(g) {
                    Ok(gr) if gr.parent == id => {}
                    Ok(_) => v.push(Violation::ForestDefect(format!(
                        "{id} lists grouping {g} with different parent"
                    ))),
                    Err(_) => v.push(Violation::DanglingReference(format!(
                        "class {id} lists dead grouping {g}"
                    ))),
                }
            }
            for &a in &rec.own_attrs {
                match self.attr(a) {
                    Ok(ar) if ar.owner == id => {}
                    Ok(_) => v.push(Violation::DanglingReference(format!(
                        "{id} lists attr {a} owned elsewhere"
                    ))),
                    Err(_) => v.push(Violation::DanglingReference(format!(
                        "class {id} lists dead attr {a}"
                    ))),
                }
            }
        }
        for (gid, g) in self.groupings() {
            if self.class(g.parent).is_err() {
                v.push(Violation::DanglingReference(format!(
                    "grouping {gid} has dead parent {}",
                    g.parent
                )));
            }
            match self.attr(g.on_attr) {
                Ok(_) => {
                    if !self.attr_visible_on(g.on_attr, g.parent).unwrap_or(false) {
                        v.push(Violation::DanglingReference(format!(
                            "grouping {gid} is on attr {} not visible on its parent",
                            g.on_attr
                        )));
                    }
                }
                Err(_) => v.push(Violation::DanglingReference(format!(
                    "grouping {gid} is on dead attr {}",
                    g.on_attr
                ))),
            }
        }
        Ok(())
    }

    fn check_extents(&self, v: &mut Vec<Violation>) -> Result<()> {
        for (cid, rec) in self.classes() {
            for e in rec.members.iter() {
                match self.entity(e) {
                    Ok(er) => {
                        // Rule 1: one baseclass only — membership stays
                        // inside the entity's baseclass tree.
                        if er.base != rec.base {
                            v.push(Violation::EntityOutsideBaseclass {
                                entity: e,
                                class: cid,
                            });
                        }
                    }
                    Err(_) => v.push(Violation::DanglingReference(format!(
                        "class {cid} extent holds dead entity {e}"
                    ))),
                }
                // Rule 2: C ⊆ parent(C), for every parent.
                for p in rec.all_parents().collect::<Vec<_>>() {
                    if let Ok(prec) = self.class(p) {
                        if !prec.members.contains(e) {
                            v.push(Violation::SubclassNotSubset {
                                class: cid,
                                parent: p,
                                entity: e,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_attr_values(&self, v: &mut Vec<Violation>) -> Result<()> {
        for (aid, rec) in self.attrs() {
            let owner_members = match self.class(rec.owner) {
                Ok(c) => &c.members,
                Err(_) => {
                    v.push(Violation::DanglingReference(format!(
                        "attr {aid} has dead owner {}",
                        rec.owner
                    )));
                    continue;
                }
            };
            for (e, val) in rec.values.iter() {
                if !owner_members.contains(e) {
                    v.push(Violation::ValueForNonMember {
                        attr: aid,
                        entity: e,
                    });
                }
                // Rule 3: singlevalued attributes define functions.
                if rec.multiplicity == Multiplicity::Single {
                    if let crate::column::ValueRef::Multi(_) = val {
                        v.push(Violation::SingleValuedStoresSet {
                            attr: aid,
                            entity: e,
                        });
                    }
                }
                // Rule 4: values lie in the value class.
                let value_ok = |value: EntityId| -> bool {
                    if value.is_null() {
                        return true;
                    }
                    match rec.value_class {
                        ValueClass::Class(c) => self
                            .class(c)
                            .map(|cr| cr.members.contains(value))
                            .unwrap_or(false),
                        ValueClass::Grouping(g) => self
                            .grouping_index_class(g)
                            .and_then(|ic| self.class(ic))
                            .map(|cr| cr.members.contains(value))
                            .unwrap_or(false),
                    }
                };
                match val {
                    crate::column::ValueRef::Single(x) => {
                        if !value_ok(x) {
                            v.push(Violation::ValueOutsideValueClass {
                                attr: aid,
                                entity: e,
                                value: x,
                            });
                        }
                    }
                    crate::column::ValueRef::Multi(s) => {
                        for x in s.iter() {
                            if !value_ok(x) {
                                v.push(Violation::ValueOutsideValueClass {
                                    attr: aid,
                                    entity: e,
                                    value: x,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_name_index(&self, v: &mut Vec<Violation>) -> Result<()> {
        for ((base, name), &id) in self.entity_names.iter() {
            match self.entity(id) {
                Ok(er) => {
                    if er.base != *base || &er.name != name {
                        v.push(Violation::NameIndexDefect(format!(
                            "index entry ({base}, {name:?}) points at mismatched entity {id}"
                        )));
                    }
                }
                Err(_) => v.push(Violation::NameIndexDefect(format!(
                    "index entry ({base}, {name:?}) points at dead entity {id}"
                ))),
            }
        }
        for (id, er) in self.entities() {
            if er.alive && self.entity_names.get(&(er.base, er.name.clone())) != Some(&id) {
                v.push(Violation::NameIndexDefect(format!(
                    "entity {id} ({:?}) missing from the name index",
                    er.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::BaseKind;
    use std::sync::Arc;

    #[test]
    fn fresh_database_is_consistent() {
        let db = Database::new("t");
        assert!(db.is_consistent().unwrap());
    }

    #[test]
    fn built_up_database_is_consistent() {
        let mut db = Database::new("t");
        let m = db.create_baseclass("musicians").unwrap();
        let i = db.create_baseclass("instruments").unwrap();
        let plays = db
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let yn = db.predefined(BaseKind::Booleans);
        let union = db
            .create_attribute(m, "union", yn, Multiplicity::Single)
            .unwrap();
        db.create_grouping(m, "by_instrument", plays).unwrap();
        let s = db.create_subclass(m, "soloists").unwrap();
        let edith = db.insert_entity(m, "Edith").unwrap();
        let viola = db.insert_entity(i, "viola").unwrap();
        db.add_to_class(edith, s).unwrap();
        db.assign_multi(edith, plays, [viola]).unwrap();
        let yes = db.boolean(true);
        db.assign_single(edith, union, yes).unwrap();
        assert_eq!(db.check_consistency().unwrap(), Vec::new());
        // Deleting things keeps it consistent.
        db.delete_entity(viola).unwrap();
        db.remove_from_class(edith, s).unwrap();
        db.delete_class(s).unwrap();
        assert_eq!(db.check_consistency().unwrap(), Vec::new());
    }

    #[test]
    fn corruption_is_detected() {
        let mut db = Database::new("t");
        let m = db.create_baseclass("musicians").unwrap();
        let s = db.create_subclass(m, "soloists").unwrap();
        let edith = db.insert_entity(m, "Edith").unwrap();
        // Corrupt: force Edith into soloists without the parent link…
        Arc::make_mut(&mut db.classes[s.index()].members).insert(edith);
        Arc::make_mut(&mut db.classes[m.index()].members).remove(edith);
        let v = db.check_consistency().unwrap();
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::SubclassNotSubset { .. })));
    }

    #[test]
    fn dangling_value_detected() {
        let mut db = Database::new("t");
        let m = db.create_baseclass("musicians").unwrap();
        let i = db.create_baseclass("instruments").unwrap();
        let plays = db
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let edith = db.insert_entity(m, "Edith").unwrap();
        let viola = db.insert_entity(i, "viola").unwrap();
        db.assign_multi(edith, plays, [viola]).unwrap();
        // Corrupt: remove viola from instruments behind the engine's back.
        Arc::make_mut(&mut db.classes[i.index()].members).remove(viola);
        let v = db.check_consistency().unwrap();
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ValueOutsideValueClass { .. })));
    }

    #[test]
    fn single_storing_set_detected() {
        let mut db = Database::new("t");
        let m = db.create_baseclass("musicians").unwrap();
        let yn = db.predefined(BaseKind::Booleans);
        let union = db
            .create_attribute(m, "union", yn, Multiplicity::Single)
            .unwrap();
        let edith = db.insert_entity(m, "Edith").unwrap();
        let yes = db.boolean(true);
        db.attrs[union.index()]
            .values
            .set(edith, crate::AttrValue::Multi([yes].into_iter().collect()));
        let v = db.check_consistency().unwrap();
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::SingleValuedStoresSet { .. })));
    }

    #[test]
    fn violations_display() {
        let v = Violation::ForestDefect("boom".into());
        assert!(v.to_string().contains("boom"));
    }
}
