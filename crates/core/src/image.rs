//! A plain-data image of a database, for persistence.
//!
//! `isis-store` serialises databases without reaching into engine
//! internals: [`Database::to_image`] exports the full state (including
//! tombstoned slots, so ids stay stable across save/load) and
//! [`Database::from_image`] reconstructs a database, rebuilding the derived
//! indexes (literal interning table, entity-name index) and verifying
//! consistency.

use crate::attribute::AttrRecord;
use crate::chunk::ShardedMap;
use crate::class::ClassRecord;
use crate::entity::EntityRecord;
use crate::error::{CoreError, Result};
use crate::grouping::GroupingRecord;
use crate::ids::{ClassId, EntityId};
use crate::Database;

/// The complete persistent state of a database.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseImage {
    /// Database name.
    pub name: String,
    /// Class arena, including dead slots.
    pub classes: Vec<ClassRecord>,
    /// Attribute arena, including dead slots.
    pub attrs: Vec<AttrRecord>,
    /// Grouping arena, including dead slots.
    pub groupings: Vec<GroupingRecord>,
    /// Entity arena, including dead slots (slot 0 is the null entity).
    pub entities: Vec<EntityRecord>,
    /// Fill-pattern allocation counter.
    pub fill_counter: u32,
    /// Whether the multiple-inheritance extension is enabled.
    pub multi_inheritance: bool,
    /// Integrity constraints, including dead slots.
    pub constraints: Vec<crate::constraint::ConstraintRecord>,
}

impl Database {
    /// Exports the full state of the database.
    pub fn to_image(&self) -> DatabaseImage {
        let mut entities = Vec::with_capacity(self.entities.len());
        entities.extend(self.entities.iter().cloned());
        DatabaseImage {
            name: self.name.clone(),
            classes: self.classes.clone(),
            attrs: self.attrs.clone(),
            groupings: self.groupings.clone(),
            entities,
            fill_counter: self.fill_counter,
            multi_inheritance: self.multi_inheritance,
            constraints: self.constraints.clone(),
        }
    }

    /// Reconstructs a database from an image, rebuilding the literal and
    /// name indexes and checking consistency. Rejects images whose data
    /// violates the §2 rules.
    pub fn from_image(image: DatabaseImage) -> Result<Database> {
        let mut literal_index = ShardedMap::default();
        let mut entity_names = ShardedMap::default();
        for (i, e) in image.entities.iter().enumerate() {
            if i == 0 || !e.alive {
                continue;
            }
            let id = EntityId::from_raw(i as u32);
            if let Some(lit) = &e.literal {
                literal_index.insert(lit.intern_key(), id);
            }
            if entity_names.insert((e.base, e.name.clone()), id).is_some() {
                return Err(CoreError::DuplicateEntityName {
                    base: e.base,
                    name: e.name.clone(),
                });
            }
        }
        // Entity slot 0 must exist (the null entity).
        if image.entities.is_empty() {
            return Err(CoreError::Inconsistent(
                "image has no null entity slot".into(),
            ));
        }
        let db = Database {
            name: image.name,
            classes: image.classes,
            attrs: image.attrs,
            groupings: image.groupings,
            entities: image.entities.into_iter().collect(),
            literal_index,
            entity_names,
            fill_counter: image.fill_counter,
            multi_inheritance: image.multi_inheritance,
            constraints: image.constraints,
            delta: crate::change::DeltaLog::default(),
        };
        // The four predefined baseclasses must be present at their slots.
        for kind in crate::literal::BaseKind::ALL {
            let id = db.predefined(kind);
            let rec = db.class(id)?;
            if rec.kind.predefined() != Some(kind) {
                return Err(CoreError::Inconsistent(format!(
                    "slot {id} does not hold predefined baseclass {kind}"
                )));
            }
        }
        let violations = db.check_consistency()?;
        if let Some(v) = violations.first() {
            return Err(CoreError::Inconsistent(format!(
                "image fails consistency: {v} ({} violations)",
                violations.len()
            )));
        }
        Ok(db)
    }
}

/// Classes listed with their ids (helper for encoders that need stable
/// iteration including dead slots).
pub fn class_slots(image: &DatabaseImage) -> impl Iterator<Item = (ClassId, &ClassRecord)> {
    image
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| (ClassId::from_raw(i as u32), c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Multiplicity;
    use std::sync::Arc;

    fn sample() -> Database {
        let mut db = Database::new("img");
        let m = db.create_baseclass("musicians").unwrap();
        let i = db.create_baseclass("instruments").unwrap();
        let plays = db
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let s = db.create_subclass(m, "soloists").unwrap();
        let e = db.insert_entity(m, "Edith").unwrap();
        let v = db.insert_entity(i, "viola").unwrap();
        db.add_to_class(e, s).unwrap();
        db.assign_multi(e, plays, [v]).unwrap();
        db.int(4);
        // Leave a tombstone behind.
        let dead = db.insert_entity(i, "kazoo").unwrap();
        db.delete_entity(dead).unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample();
        let img = db.to_image();
        let back = Database::from_image(img.clone()).unwrap();
        assert_eq!(back.to_image(), img);
        assert!(back.is_consistent().unwrap());
        // Ids still resolve identically.
        let m = back.class_by_name("musicians").unwrap();
        assert_eq!(m, db.class_by_name("musicians").unwrap());
        let e = back.entity_by_name(m, "Edith").unwrap();
        assert_eq!(back.entity_name(e).unwrap(), "Edith");
        // Interning still dedups after reload.
        let mut back = back;
        let four_again = back.int(4);
        assert_eq!(
            db.literal_of(four_again).cloned(),
            back.literal_of(four_again).cloned()
        );
    }

    #[test]
    fn tombstones_keep_ids_stable() {
        let db = sample();
        let img = db.to_image();
        let back = Database::from_image(img).unwrap();
        // A fresh insert allocates past the tombstone, not into it.
        let mut back = back;
        let i = back.class_by_name("instruments").unwrap();
        let fresh = back.insert_entity(i, "ocarina").unwrap();
        // The dead slot is never reused (the name string interns first, so
        // the fresh id lands past the old arena length).
        assert!(fresh.raw() as usize >= db.to_image().entities.len());
    }

    #[test]
    fn corrupted_image_rejected() {
        let db = sample();
        let mut img = db.to_image();
        // Sever a subclass membership invariant.
        let m = db.class_by_name("musicians").unwrap();
        let e = db.entity_by_name(m, "Edith").unwrap();
        Arc::make_mut(&mut img.classes[m.index()].members).remove(e);
        assert!(matches!(
            Database::from_image(img).unwrap_err(),
            CoreError::Inconsistent(_)
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let db = sample();
        let mut img = db.to_image();
        let m = db.class_by_name("musicians").unwrap();
        // Forge a second Edith.
        img.entities
            .push(crate::entity::EntityRecord::user("Edith", m));
        Arc::make_mut(&mut img.classes[m.index()].members)
            .insert(EntityId::from_raw((img.entities.len() - 1) as u32));
        assert!(Database::from_image(img).is_err());
    }

    #[test]
    fn empty_image_rejected() {
        let img = DatabaseImage {
            name: "x".into(),
            classes: vec![],
            attrs: vec![],
            groupings: vec![],
            entities: vec![],
            fill_counter: 0,
            multi_inheritance: false,
            constraints: vec![],
        };
        assert!(Database::from_image(img).is_err());
    }
}
