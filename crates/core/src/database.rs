//! The database: a schema (inheritance forest + semantic network) together
//! with data consistent with it (§2).

use crate::attribute::{AttrRecord, Multiplicity, ValueClass};
use crate::chunk::{ChunkedVec, ShardedMap};
use crate::class::{ClassKind, ClassRecord};
use crate::entity::EntityRecord;
use crate::error::{CoreError, Result};
use crate::fillpattern::FillPattern;
use crate::grouping::GroupingRecord;
use crate::ids::{AttrId, ClassId, EntityId, GroupingId, SchemaNode};
use crate::literal::{BaseKind, Literal, LiteralKey};
use crate::orderedset::OrderedSet;

/// An ISIS database: classes, attributes, groupings, and entities, with the
/// consistency rules of §2 enforced on every modification.
///
/// `Database` is a single-writer, in-memory structure (matching the paper's
/// one-workstation model); persistence lives in the `isis-store` crate.
/// Cloning is cheap: the entity arena, the name indexes and the attribute
/// columns are copy-on-write chunks shared between clones (`chunk.rs`).
///
/// ```
/// use isis_core::{Atom, Clause, CompareOp, Database, Map, Multiplicity, Predicate, Rhs};
///
/// let mut db = Database::new("demo");
/// let people = db.create_baseclass("people")?;
/// let ints = db.predefined(isis_core::BaseKind::Integers);
/// let age = db.create_attribute(people, "age", ints, Multiplicity::Single)?;
///
/// let ada = db.insert_entity(people, "Ada")?;
/// let n36 = db.int(36);
/// db.assign_single(ada, age, n36)?;
///
/// // A query is a derived subclass: age > 30.
/// let n30 = db.int(30);
/// let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
///     Map::single(age),
///     CompareOp::Gt,
///     Rhs::constant(ints, [n30]),
/// )])]);
/// let adults = db.create_derived_subclass(people, "over_thirty")?;
/// assert_eq!(db.commit_membership(adults, pred)?, 1);
/// assert!(db.members(adults)?.contains(ada));
/// assert!(db.is_consistent()?);
/// # Ok::<(), isis_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    /// The database name ("Instrumental_Music", "entertainment", …).
    pub name: String,
    pub(crate) classes: Vec<ClassRecord>,
    pub(crate) attrs: Vec<AttrRecord>,
    pub(crate) groupings: Vec<GroupingRecord>,
    pub(crate) entities: ChunkedVec<EntityRecord>,
    /// Interned literal entities of the predefined baseclasses.
    pub(crate) literal_index: ShardedMap<LiteralKey, EntityId>,
    /// Entity name → id, per baseclass (names are unique within a baseclass).
    pub(crate) entity_names: ShardedMap<(ClassId, String), EntityId>,
    /// Number of classes+groupings ever created; drives fill assignment.
    pub(crate) fill_counter: u32,
    /// Whether the multiple-inheritance extension (§5) is enabled.
    pub(crate) multi_inheritance: bool,
    /// Integrity constraints (§5 extension), including dead slots.
    pub(crate) constraints: Vec<crate::constraint::ConstraintRecord>,
    /// Log of structural changes, consumed by incremental maintainers.
    /// Not persisted in images: a load is a rebuild boundary.
    pub(crate) delta: crate::change::DeltaLog,
}

impl Database {
    /// Creates an empty database containing only the four predefined
    /// baseclasses and their naming attributes, plus the null entity.
    pub fn new(name: impl Into<String>) -> Database {
        let mut db = Database {
            name: name.into(),
            classes: Vec::new(),
            attrs: Vec::new(),
            groupings: Vec::new(),
            entities: ChunkedVec::default(),
            literal_index: ShardedMap::default(),
            entity_names: ShardedMap::default(),
            fill_counter: 0,
            multi_inheritance: false,
            constraints: Vec::new(),
            delta: crate::change::DeltaLog::default(),
        };
        // Entity slot 0 is the null entity; it is "a member of every class"
        // conceptually but appears in no extent.
        db.entities.push(EntityRecord {
            name: "(null)".into(),
            base: ClassId::from_raw(0),
            literal: None,
            alive: true,
        });
        for kind in BaseKind::ALL {
            let id = ClassId::from_raw(db.classes.len() as u32);
            let fill = FillPattern::nth(db.fill_counter);
            db.fill_counter += 1;
            db.classes.push(ClassRecord {
                name: kind.name().to_string(),
                parent: None,
                base: id,
                kind: ClassKind::Base(Some(kind)),
                fill,
                own_attrs: Vec::new(),
                children: Vec::new(),
                groupings: Vec::new(),
                members: OrderedSet::new(),
                extra_parents: Vec::new(),
                alive: true,
            });
        }
        // Every baseclass gets a naming attribute into STRINGS.
        for kind in BaseKind::ALL {
            let class = db.predefined(kind);
            db.push_naming_attr(class);
        }
        db
    }

    pub(crate) fn push_naming_attr(&mut self, class: ClassId) -> AttrId {
        let id = AttrId::from_raw(self.attrs.len() as u32);
        self.attrs.push(AttrRecord {
            name: "name".into(),
            owner: class,
            value_class: ValueClass::Class(self.predefined(BaseKind::Strings)),
            multiplicity: Multiplicity::Single,
            naming: true,
            derivation: None,
            values: crate::column::AttrColumn::new(),
            alive: true,
        });
        self.classes[class.index()].own_attrs.push(id);
        id
    }

    /// The id of a predefined baseclass.
    pub fn predefined(&self, kind: BaseKind) -> ClassId {
        // Allocation order in `new` matches BaseKind::ALL.
        let idx = BaseKind::ALL.iter().position(|k| *k == kind).unwrap();
        ClassId::from_raw(idx as u32)
    }

    /// Enables the multiple-inheritance extension (§5: "the system is
    /// currently being extended to handle multiple parent inheritance").
    pub fn enable_multiple_inheritance(&mut self) {
        if !self.multi_inheritance {
            self.multi_inheritance = true;
            self.record_schema(crate::change::SchemaEdit::MultipleInheritanceEnabled);
        }
    }

    /// `true` if the multiple-inheritance extension is enabled.
    pub fn multiple_inheritance_enabled(&self) -> bool {
        self.multi_inheritance
    }

    pub(crate) fn constraint_arena(&self) -> &[crate::constraint::ConstraintRecord] {
        &self.constraints
    }

    pub(crate) fn constraint_arena_mut(&mut self) -> &mut Vec<crate::constraint::ConstraintRecord> {
        &mut self.constraints
    }

    // ------------------------------------------------------------------
    // Record access
    // ------------------------------------------------------------------

    /// The record of a live class.
    pub fn class(&self, id: ClassId) -> Result<&ClassRecord> {
        self.classes
            .get(id.index())
            .filter(|c| c.alive)
            .ok_or(CoreError::NoSuchClass(id))
    }

    pub(crate) fn class_mut(&mut self, id: ClassId) -> Result<&mut ClassRecord> {
        self.classes
            .get_mut(id.index())
            .filter(|c| c.alive)
            .ok_or(CoreError::NoSuchClass(id))
    }

    /// The record of a live attribute.
    pub fn attr(&self, id: AttrId) -> Result<&AttrRecord> {
        self.attrs
            .get(id.index())
            .filter(|a| a.alive)
            .ok_or(CoreError::NoSuchAttr(id))
    }

    pub(crate) fn attr_mut(&mut self, id: AttrId) -> Result<&mut AttrRecord> {
        self.attrs
            .get_mut(id.index())
            .filter(|a| a.alive)
            .ok_or(CoreError::NoSuchAttr(id))
    }

    /// The record of a live grouping.
    pub fn grouping(&self, id: GroupingId) -> Result<&GroupingRecord> {
        self.groupings
            .get(id.index())
            .filter(|g| g.alive)
            .ok_or(CoreError::NoSuchGrouping(id))
    }

    /// The record of a live entity.
    pub fn entity(&self, id: EntityId) -> Result<&EntityRecord> {
        self.entities
            .get(id.index())
            .filter(|e| e.alive)
            .ok_or(CoreError::NoSuchEntity(id))
    }

    /// The record of a live entity, for writing (copies its arena chunk if
    /// a clone shares it).
    pub(crate) fn entity_mut(&mut self, id: EntityId) -> Result<&mut EntityRecord> {
        self.entity(id)?;
        self.entities
            .get_mut(id.index())
            .ok_or(CoreError::NoSuchEntity(id))
    }

    /// Iterates all live classes with their ids.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &ClassRecord)> {
        self.classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive)
            .map(|(i, c)| (ClassId::from_raw(i as u32), c))
    }

    /// Iterates all live attributes with their ids.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &AttrRecord)> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.alive)
            .map(|(i, a)| (AttrId::from_raw(i as u32), a))
    }

    /// Iterates all live groupings with their ids.
    pub fn groupings(&self) -> impl Iterator<Item = (GroupingId, &GroupingRecord)> {
        self.groupings
            .iter()
            .enumerate()
            .filter(|(_, g)| g.alive)
            .map(|(i, g)| (GroupingId::from_raw(i as u32), g))
    }

    /// Iterates all live entities with their ids (excluding the null entity).
    pub fn entities(&self) -> impl Iterator<Item = (EntityId, &EntityRecord)> {
        self.entities
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, e)| e.alive)
            .map(|(i, e)| (EntityId::from_raw(i as u32), e))
    }

    /// Total number of live entities (excluding the null entity).
    pub fn entity_count(&self) -> usize {
        self.entities.iter().skip(1).filter(|e| e.alive).count()
    }

    // ------------------------------------------------------------------
    // Name resolution
    // ------------------------------------------------------------------

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Result<ClassId> {
        self.classes()
            .find(|(_, c)| c.name == name)
            .map(|(id, _)| id)
            .ok_or_else(|| CoreError::NameNotFound(name.into()))
    }

    /// Finds a grouping by name.
    pub fn grouping_by_name(&self, name: &str) -> Result<GroupingId> {
        self.groupings()
            .find(|(_, g)| g.name == name)
            .map(|(id, _)| id)
            .ok_or_else(|| CoreError::NameNotFound(name.into()))
    }

    /// Finds a schema node (class or grouping) by name.
    pub fn node_by_name(&self, name: &str) -> Result<SchemaNode> {
        self.class_by_name(name)
            .map(SchemaNode::Class)
            .or_else(|_| self.grouping_by_name(name).map(SchemaNode::Grouping))
    }

    /// Finds an attribute visible on `class` (own or inherited) by name.
    pub fn attr_by_name(&self, class: ClassId, name: &str) -> Result<AttrId> {
        for a in self.visible_attrs(class)? {
            if self.attr(a)?.name == name {
                return Ok(a);
            }
        }
        Err(CoreError::NameNotFound(format!(
            "attribute {name:?} on class {}",
            self.class(class)?.name
        )))
    }

    /// Finds an entity of baseclass `base` by name.
    pub fn entity_by_name(&self, base: ClassId, name: &str) -> Result<EntityId> {
        self.entity_names
            .get(&(base, name.to_string()))
            .copied()
            .ok_or_else(|| CoreError::NameNotFound(name.into()))
    }

    /// The display name of a schema node.
    pub fn node_name(&self, node: SchemaNode) -> Result<&str> {
        match node {
            SchemaNode::Class(c) => Ok(&self.class(c)?.name),
            SchemaNode::Grouping(g) => Ok(&self.grouping(g)?.name),
        }
    }

    /// `true` if some live class or grouping already carries `name`.
    pub(crate) fn schema_name_taken(&self, name: &str) -> bool {
        self.classes().any(|(_, c)| c.name == name) || self.groupings().any(|(_, g)| g.name == name)
    }

    // ------------------------------------------------------------------
    // Inheritance
    // ------------------------------------------------------------------

    /// The chain of classes from the baseclass root down to `class`
    /// (inclusive), following primary parents.
    pub fn ancestry(&self, class: ClassId) -> Result<Vec<ClassId>> {
        let mut chain = Vec::new();
        let mut cur = Some(class);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.class(c)?.parent;
            if chain.len() > self.classes.len() {
                return Err(CoreError::Inconsistent("parent cycle detected".into()));
            }
        }
        chain.reverse();
        Ok(chain)
    }

    /// All attributes *visible* on `class`: inherited ones first (from the
    /// baseclass down), then own attributes — the order in which the data
    /// level displays them. With multiple inheritance enabled, secondary
    /// parents' attributes follow the primary chain.
    pub fn visible_attrs(&self, class: ClassId) -> Result<Vec<AttrId>> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in self.ancestry(class)? {
            self.collect_attrs_of(c, &mut out, &mut seen)?;
        }
        Ok(out)
    }

    fn collect_attrs_of(
        &self,
        class: ClassId,
        out: &mut Vec<AttrId>,
        seen: &mut std::collections::HashSet<AttrId>,
    ) -> Result<()> {
        let rec = self.class(class)?;
        // Secondary parents contribute their full visible sets first.
        for p in rec.extra_parents.clone() {
            for a in self.visible_attrs(p)? {
                if seen.insert(a) {
                    out.push(a);
                }
            }
        }
        for &a in &rec.own_attrs {
            if self.attrs[a.index()].alive && seen.insert(a) {
                out.push(a);
            }
        }
        Ok(())
    }

    /// `true` if attribute `attr` is defined (directly or by inheritance) on
    /// `class`.
    pub fn attr_visible_on(&self, attr: AttrId, class: ClassId) -> Result<bool> {
        Ok(self.visible_attrs(class)?.contains(&attr))
    }

    /// The naming attribute of the baseclass of `class`.
    pub fn naming_attr(&self, class: ClassId) -> Result<AttrId> {
        let base = self.class(class)?.base;
        self.class(base)?
            .own_attrs
            .first()
            .copied()
            .ok_or_else(|| CoreError::Inconsistent("baseclass without naming attribute".into()))
    }

    /// `true` if `descendant` equals `ancestor` or lies below it in the
    /// forest (following primary parents).
    pub fn is_descendant(&self, descendant: ClassId, ancestor: ClassId) -> Result<bool> {
        Ok(self.ancestry(descendant)?.contains(&ancestor))
    }

    // ------------------------------------------------------------------
    // Literals
    // ------------------------------------------------------------------

    /// Interns a literal into its predefined baseclass, returning the entity
    /// that represents it. Idempotent.
    pub fn intern(&mut self, lit: impl Into<Literal>) -> Result<EntityId> {
        let lit = lit.into();
        if let Literal::Real(r) = &lit {
            if r.is_nan() {
                return Err(CoreError::InvalidLiteral("NaN is not a valid REAL".into()));
            }
        }
        let key = lit.intern_key();
        if let Some(&id) = self.literal_index.get(&key) {
            return Ok(id);
        }
        let base = self.predefined(lit.base_kind());
        let id = EntityId::from_raw(self.entities.len() as u32);
        let name = lit.display_name();
        let kind = lit.base_kind();
        self.entities.push(EntityRecord::literal(lit, base));
        self.literal_index.insert(key, id);
        self.entity_names.insert((base, name.clone()), id);
        self.classes[base.index()].members.insert(id);
        self.record_change(crate::change::Change::EntityInserted {
            entity: id,
            base,
            name: name.clone(),
        });
        self.record_change(crate::change::Change::MembershipAdded {
            entity: id,
            class: base,
        });
        // The literal's display name is itself a STRING entity (every
        // entity's naming attribute must resolve to a STRING member).
        if kind != BaseKind::Strings {
            self.intern(Literal::Str(name))?;
        }
        Ok(id)
    }

    /// The entity an already-interned literal resolves to, without
    /// mutating. Lets read paths resolve literal tokens against a pinned
    /// snapshot before falling back to [`Database::intern`].
    pub fn find_literal(&self, lit: impl Into<Literal>) -> Option<EntityId> {
        self.literal_index.get(&lit.into().intern_key()).copied()
    }

    /// Interns an integer (convenience).
    pub fn int(&mut self, v: i64) -> EntityId {
        self.intern(Literal::Int(v))
            .expect("integers always intern")
    }

    /// Interns a string (convenience).
    pub fn str(&mut self, v: &str) -> EntityId {
        self.intern(Literal::Str(v.into()))
            .expect("strings always intern")
    }

    /// Interns a boolean (convenience).
    pub fn boolean(&mut self, v: bool) -> EntityId {
        self.intern(Literal::Bool(v))
            .expect("booleans always intern")
    }

    /// Interns a real.
    pub fn real(&mut self, v: f64) -> Result<EntityId> {
        self.intern(Literal::real(v)?)
    }

    /// The literal behind an entity, if it is an interned literal.
    pub fn literal_of(&self, e: EntityId) -> Option<&Literal> {
        self.entities
            .get(e.index())
            .and_then(|r| r.literal.as_ref())
    }

    /// The display name of an entity (the null entity displays as `(null)`).
    pub fn entity_name(&self, e: EntityId) -> Result<&str> {
        Ok(&self.entity(e)?.name)
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new("untitled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{unshared, CHUNK};

    #[test]
    fn new_db_has_four_predefined_baseclasses() {
        let db = Database::new("t");
        assert_eq!(db.classes().count(), 4);
        for kind in BaseKind::ALL {
            let id = db.predefined(kind);
            let rec = db.class(id).unwrap();
            assert_eq!(rec.name, kind.name());
            assert!(rec.is_base());
            assert!(rec.is_predefined());
            // Naming attribute present and first.
            let naming = db.naming_attr(id).unwrap();
            assert!(db.attr(naming).unwrap().naming);
        }
    }

    #[test]
    fn null_entity_exists_but_is_in_no_extent() {
        let db = Database::new("t");
        assert!(db.entity(EntityId::NULL).is_ok());
        for (_, c) in db.classes() {
            assert!(!c.members.contains(EntityId::NULL));
        }
    }

    #[test]
    fn interning_is_idempotent() {
        let mut db = Database::new("t");
        let a = db.int(4);
        let b = db.int(4);
        let c = db.int(5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let ints = db.predefined(BaseKind::Integers);
        assert!(db.class(ints).unwrap().members.contains(a));
        assert_eq!(db.entity_name(a).unwrap(), "4");
    }

    #[test]
    fn interning_separates_baseclasses() {
        let mut db = Database::new("t");
        let i = db.int(4);
        let s = db.str("4");
        assert_ne!(i, s);
        assert_eq!(
            db.entity(i).unwrap().base,
            db.predefined(BaseKind::Integers)
        );
        assert_eq!(db.entity(s).unwrap().base, db.predefined(BaseKind::Strings));
    }

    #[test]
    fn nan_interning_fails() {
        let mut db = Database::new("t");
        assert!(db.real(f64::NAN).is_err());
        assert!(db.real(3.25).is_ok());
    }

    #[test]
    fn bool_entities() {
        let mut db = Database::new("t");
        let yes = db.boolean(true);
        let no = db.boolean(false);
        assert_ne!(yes, no);
        assert_eq!(db.entity_name(yes).unwrap(), "YES");
        assert_eq!(db.entity_name(no).unwrap(), "NO");
    }

    #[test]
    fn lookup_by_name() {
        let db = Database::new("t");
        assert!(db.class_by_name("STRINGS").is_ok());
        assert!(db.class_by_name("nope").is_err());
        assert!(db.node_by_name("YES/NO").is_ok());
    }

    /// `people` × 3000 with a dense `age` column: the arena and the column
    /// span several chunks.
    fn chunked() -> (Database, ClassId, AttrId) {
        let mut db = Database::new("chunks");
        let people = db.create_baseclass("people").unwrap();
        let ints = db.predefined(BaseKind::Integers);
        let age = db
            .create_attribute(people, "age", ints, Multiplicity::Single)
            .unwrap();
        let ids: Vec<EntityId> = (0..3000)
            .map(|i| db.insert_entity(people, &format!("p{i}")).unwrap())
            .collect();
        let forty = db.int(40);
        for &e in &ids {
            db.assign_single(e, age, forty).unwrap();
        }
        db.int(41);
        assert!(db.entities.chunks().len() > 3);
        assert!(db.attrs[age.index()].values.chunk_count() > 3);
        (db, people, age)
    }

    /// Chunks and shards of `later` that are not the very ones `db` holds,
    /// per structure: (arena, entity names, literal index, columns).
    fn unshared_parts(db: &Database, later: &Database) -> (usize, usize, usize, Vec<usize>) {
        (
            unshared(db.entities.chunks(), later.entities.chunks()),
            unshared(db.entity_names.shards(), later.entity_names.shards()),
            unshared(db.literal_index.shards(), later.literal_index.shards()),
            db.attrs
                .iter()
                .zip(&later.attrs)
                .map(|(a, b)| a.values.unshared_chunks(&b.values))
                .collect(),
        )
    }

    #[test]
    fn clone_shares_every_chunk_and_shard() {
        let (db, _, _) = chunked();
        let copy = db.clone();
        let (arena, names, literals, columns) = unshared_parts(&db, &copy);
        assert_eq!((arena, names, literals), (0, 0, 0));
        assert!(columns.iter().all(|&n| n == 0), "{columns:?}");
    }

    #[test]
    fn assign_single_unshares_one_column_chunk() {
        let (db, people, age) = chunked();
        let pristine = db.clone();
        let mut copy = db.clone();
        let p = copy.entity_by_name(people, "p1500").unwrap();
        let n = copy.find_literal(crate::Literal::Int(41)).unwrap();
        copy.assign_single(p, age, n).unwrap();
        let (arena, names, literals, columns) = unshared_parts(&db, &copy);
        assert_eq!((arena, names, literals), (0, 0, 0));
        for (i, n) in columns.into_iter().enumerate() {
            assert_eq!(n, usize::from(i == age.index()), "column {i}");
        }
        // The original's chunks never move.
        let (arena, names, literals, columns) = unshared_parts(&pristine, &db);
        assert_eq!((arena, names, literals), (0, 0, 0));
        assert!(columns.iter().all(|&n| n == 0));
        assert_ne!(db.attr_value(p, age), copy.attr_value(p, age));
    }

    #[test]
    fn insert_entity_unshares_one_chunk_and_one_shard_per_map() {
        let (db, people, _) = chunked();
        let pristine = db.clone();
        let mut copy = db.clone();
        // A fresh name whose STRING literal and entity-name keys share a
        // shard, so the insert writes exactly one shard of each map.
        let strings = db.predefined(BaseKind::Strings);
        let shard = ShardedMap::<(ClassId, String), EntityId>::shard_index;
        let name = (0..)
            .map(|i| format!("new{i}"))
            .find(|n| shard(&(strings, n.clone())) == shard(&(people, n.clone())))
            .unwrap();
        assert!(
            db.entities.len() % CHUNK < CHUNK - 1,
            "the literal and the entity both land in the last arena chunk"
        );
        copy.insert_entity(people, &name).unwrap();
        let (arena, names, literals, columns) = unshared_parts(&db, &copy);
        assert_eq!((arena, names, literals), (1, 1, 1));
        assert!(columns.iter().all(|&n| n == 0), "{columns:?}");
        let (arena, names, literals, columns) = unshared_parts(&pristine, &db);
        assert_eq!((arena, names, literals), (0, 0, 0));
        assert!(columns.iter().all(|&n| n == 0));
        assert!(db.entity_by_name(people, &name).is_err());
        assert!(copy.is_consistent().unwrap());
    }

    #[test]
    fn dead_ids_error() {
        let db = Database::new("t");
        assert_eq!(
            db.class(ClassId::from_raw(99)).unwrap_err(),
            CoreError::NoSuchClass(ClassId::from_raw(99))
        );
        assert!(db.attr(AttrId::from_raw(99)).is_err());
        assert!(db.grouping(GroupingId::from_raw(0)).is_err());
        assert!(db.entity(EntityId::from_raw(99)).is_err());
    }
}
