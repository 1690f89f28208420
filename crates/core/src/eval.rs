//! Predicate evaluation and derived-class/attribute materialisation (§2).
//!
//! Maps are evaluated set-at-a-time; atoms compare the resulting entity
//! sets; predicates combine atoms in DNF or CNF. A derived subclass is
//! (re)materialised by *commit* — exactly the worksheet's commit button,
//! "which causes evaluation of the predicate" (§4.2).

use crate::atom::{Atom, Rhs};
use crate::attribute::{AttrValue, Multiplicity, ValueClass};
use crate::class::ClassKind;
use crate::error::{CoreError, Result};
use crate::ids::{AttrId, ClassId, EntityId};
use crate::literal::Literal;
use crate::map::{Map, MapTrace};
use crate::op::{CompareOp, Operator};
use crate::orderedset::OrderedSet;
use crate::predicate::{AttrDerivation, NormalForm, Predicate};
use crate::Database;

impl Database {
    // ------------------------------------------------------------------
    // Maps
    // ------------------------------------------------------------------

    /// Type-checks `map` against the schema starting from `start`,
    /// returning the stack of classes each prefix reaches (§3.2's worksheet
    /// class stack). Attributes stepping into a grouping continue from the
    /// grouping's parent class.
    pub fn trace_map(&self, start: ClassId, map: &Map) -> Result<MapTrace> {
        let mut classes = vec![start];
        let mut multivalued = false;
        let mut cur = start;
        for &step in map.steps() {
            if !self.attr_visible_on(step, cur)? {
                return Err(CoreError::InvalidMapStep {
                    attr: step,
                    class: cur,
                });
            }
            let rec = self.attr(step)?;
            if rec.multiplicity == Multiplicity::Multi {
                multivalued = true;
            }
            cur = match rec.value_class {
                ValueClass::Class(c) => c,
                ValueClass::Grouping(g) => {
                    multivalued = true; // expands to the set's members
                    self.grouping(g)?.parent
                }
            };
            classes.push(cur);
        }
        Ok(MapTrace {
            classes,
            multivalued,
        })
    }

    /// Evaluates `map` over a set of starting entities, unioning results
    /// across every step ("x₁ = x, e = xₙ₊₁, and xᵢ₊₁ ∈ Aᵢ(xᵢ)").
    ///
    /// Class-ranged non-naming steps read the attribute column by
    /// reference (no per-entity set clone); naming and grouping-ranged
    /// steps synthesise their value sets through
    /// [`Database::attr_value_set`] as before.
    pub fn eval_map(
        &self,
        start: impl IntoIterator<Item = EntityId>,
        map: &Map,
    ) -> Result<OrderedSet> {
        let mut cur: OrderedSet = start.into_iter().collect();
        for &step in map.steps() {
            let mut next = OrderedSet::new();
            let rec = self.attr(step)?;
            if rec.naming || matches!(rec.value_class, ValueClass::Grouping(_)) {
                for e in cur.iter() {
                    next.extend_from(&self.attr_value_set(e, step)?);
                }
            } else {
                let members = &self.class(rec.owner)?.members;
                for e in cur.iter() {
                    if !members.contains(e) {
                        return Err(CoreError::NotAMember {
                            entity: e,
                            class: rec.owner,
                        });
                    }
                    match rec.values.get(e) {
                        Some(crate::column::ValueRef::Single(v)) if !v.is_null() => {
                            next.insert(v);
                        }
                        Some(crate::column::ValueRef::Multi(s)) => next.extend_from(s),
                        _ => {}
                    }
                }
            }
            cur = next;
        }
        Ok(cur)
    }

    // ------------------------------------------------------------------
    // Atoms
    // ------------------------------------------------------------------

    /// Evaluates one atom for candidate entity `e`, with `source` bound to
    /// `x` when evaluating a derived-attribute predicate.
    pub fn eval_atom(&self, e: EntityId, atom: &Atom, source: Option<EntityId>) -> Result<bool> {
        let lhs = self.eval_map([e], &atom.lhs)?;
        let rhs = match &atom.rhs {
            Rhs::SelfMap(m) => self.eval_map([e], m)?,
            Rhs::Constant { anchors, map, .. } => self.eval_map(anchors.iter(), map)?,
            Rhs::SourceMap(m) => {
                let x = source.ok_or_else(|| {
                    CoreError::Inconsistent(
                        "atom references the source entity x outside a derived-attribute predicate"
                            .into(),
                    )
                })?;
                self.eval_map([x], m)?
            }
        };
        self.eval_prepared_atom(&lhs, atom.op, &rhs)
    }

    /// Compares two pre-evaluated atom images under `op`, applying the
    /// operator's negation — the comparison kernel shared by the
    /// per-candidate interpreter ([`Database::eval_atom`]) and isis-query's
    /// compiled predicate programs, which materialise `lhs` / `rhs` through
    /// hoisted constants and memoised map slots before delegating here.
    pub fn eval_prepared_atom(
        &self,
        lhs: &OrderedSet,
        op: Operator,
        rhs: &OrderedSet,
    ) -> Result<bool> {
        let raw = self.compare_sets(lhs, op.op, rhs)?;
        Ok(op.finish(raw))
    }

    /// Applies a comparison operator to two entity sets.
    pub fn compare_sets(&self, lhs: &OrderedSet, op: CompareOp, rhs: &OrderedSet) -> Result<bool> {
        Ok(match op {
            CompareOp::SetEq => lhs.set_eq(rhs),
            CompareOp::Subset => lhs.is_subset(rhs),
            CompareOp::Superset => rhs.is_subset(lhs),
            CompareOp::ProperSubset => lhs.is_subset(rhs) && !lhs.set_eq(rhs),
            CompareOp::ProperSuperset => rhs.is_subset(lhs) && !lhs.set_eq(rhs),
            CompareOp::Match => lhs.intersects(rhs),
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                ordering_holds(op, self.order_singletons(lhs, rhs)?)
            }
        })
    }

    /// Orders two singleton sets of literal entities by [`order_literals`].
    fn order_singletons(&self, lhs: &OrderedSet, rhs: &OrderedSet) -> Result<std::cmp::Ordering> {
        let (Some(a), Some(b)) = (lhs.as_singleton(), rhs.as_singleton()) else {
            return Err(CoreError::NotComparable(
                "ordering operators require singleton sets".into(),
            ));
        };
        match (self.literal_of(a), self.literal_of(b)) {
            (Some(la), Some(lb)) => order_literals(la, lb),
            _ => Err(CoreError::NotComparable(
                "ordering operators compare literal entities only".into(),
            )),
        }
    }

    /// [`Database::compare_sets`] for a left-hand side of at most one value
    /// — the empty set when `v` is NULL (an unassigned cell), `{v}`
    /// otherwise — or `None` wherever `compare_sets` would fail.
    pub fn compare_value(&self, v: EntityId, op: CompareOp, rhs: &OrderedSet) -> Option<bool> {
        self.value_test(op, rhs).test(v)
    }

    /// [`Database::compare_value`] against `rhs`, prepared once for many
    /// values: an ordering operator looks the constant's literal up here
    /// instead of once per value. The batch body of isis-query's compiled
    /// programs streams single-valued column cells through it, ordering
    /// operators included, and hands a candidate it cannot decide to the
    /// per-candidate path.
    pub fn value_test<'a>(&'a self, op: CompareOp, rhs: &'a OrderedSet) -> ValueTest<'a> {
        let key = rhs
            .as_singleton()
            .filter(|_| op.is_ordering())
            .and_then(|w| self.literal_of(w));
        ValueTest {
            db: self,
            op,
            rhs,
            key,
        }
    }

    // ------------------------------------------------------------------
    // Predicates
    // ------------------------------------------------------------------

    /// Evaluates a whole predicate for candidate `e` (with optional source
    /// `x`), honouring the DNF/CNF reading of the clause layout.
    pub fn eval_predicate_for(
        &self,
        e: EntityId,
        pred: &Predicate,
        source: Option<EntityId>,
    ) -> Result<bool> {
        match pred.form {
            NormalForm::Dnf => {
                // OR of clauses; each clause an AND of atoms.
                for clause in &pred.clauses {
                    let mut all = true;
                    for atom in &clause.atoms {
                        if !self.eval_atom(e, atom, source)? {
                            all = false;
                            break;
                        }
                    }
                    if all {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            NormalForm::Cnf => {
                // AND of clauses; each clause an OR of atoms.
                for clause in &pred.clauses {
                    let mut any = false;
                    for atom in &clause.atoms {
                        if self.eval_atom(e, atom, source)? {
                            any = true;
                            break;
                        }
                    }
                    if !any {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }

    /// Type-checks a predicate whose candidates range over `value_class`
    /// (with source-entity atoms allowed iff `source_class` is given).
    pub fn validate_predicate(
        &self,
        value_class: ClassId,
        source_class: Option<ClassId>,
        pred: &Predicate,
    ) -> Result<()> {
        for atom in pred.atoms() {
            self.trace_map(value_class, &atom.lhs)?;
            match &atom.rhs {
                Rhs::SelfMap(m) => {
                    self.trace_map(value_class, m)?;
                }
                Rhs::Constant {
                    class,
                    anchors,
                    map,
                } => {
                    for a in anchors.iter() {
                        if !self.class(*class)?.members.contains(a) {
                            return Err(CoreError::NotAMember {
                                entity: a,
                                class: *class,
                            });
                        }
                    }
                    self.trace_map(*class, map)?;
                }
                Rhs::SourceMap(m) => match source_class {
                    Some(c) => {
                        self.trace_map(c, m)?;
                    }
                    None => {
                        return Err(CoreError::Inconsistent(
                            "source-entity atom in a subclass predicate".into(),
                        ))
                    }
                },
            }
        }
        Ok(())
    }

    /// The set `{ e ∈ parent | P(e) }` without modifying the database.
    pub fn evaluate_derived_members(
        &self,
        parent: ClassId,
        pred: &Predicate,
    ) -> Result<OrderedSet> {
        self.validate_predicate(parent, None, pred)?;
        let mut out = OrderedSet::new();
        for e in self.class(parent)?.members.iter().collect::<Vec<_>>() {
            if self.eval_predicate_for(e, pred, None)? {
                out.insert(e);
            }
        }
        Ok(out)
    }

    /// Installs `pred` as the membership predicate of a derived subclass and
    /// evaluates it (the worksheet's *commit*). Returns the new member
    /// count. Entities leaving the class cascade out of its descendants.
    pub fn commit_membership(&mut self, class: ClassId, pred: Predicate) -> Result<usize> {
        let rec = self.class(class)?;
        let parent = match (rec.parent, &rec.kind) {
            (Some(p), ClassKind::Derived(_)) => p,
            (Some(p), ClassKind::Enumerated) => p,
            _ => {
                return Err(CoreError::Inconsistent(
                    "commit_membership applies to subclasses".into(),
                ))
            }
        };
        let new_members = self.evaluate_derived_members(parent, &pred)?;
        self.install_members(class, &new_members)?;
        let n = new_members.len();
        // A *new* predicate is a schema edit; a plain refresh (same
        // predicate re-committed) only produces membership changes.
        if self.class(class)?.kind.predicate() != Some(&pred) {
            self.record_schema(crate::change::SchemaEdit::DerivationChanged(class));
        }
        self.class_mut(class)?.kind = ClassKind::Derived(pred);
        Ok(n)
    }

    /// Makes `new_members` the extent of subclass `class`, recording every
    /// write: current members absent from `new_members` leave first, in
    /// extent order, cascading out of the descendants; then the members of
    /// `new_members` not yet in the class join, in `new_members` order.
    ///
    /// This is the membership install of [`Database::commit_membership`],
    /// shared with maintainers that evaluate the predicate elsewhere (the
    /// session's full refresh in isis-session), so both record the same
    /// writes in the same order.
    pub fn install_members(&mut self, class: ClassId, new_members: &OrderedSet) -> Result<()> {
        let old_members: Vec<EntityId> = self.class(class)?.members.iter().collect();
        for e in old_members {
            if !new_members.contains(e) {
                self.remove_from_class(e, class)?;
            }
        }
        for e in new_members.iter() {
            self.add_to_class_unchecked(e, class)?;
        }
        Ok(())
    }

    /// Re-evaluates the stored predicate of a derived subclass (derivations
    /// are not kept consistent automatically; see §2).
    pub fn refresh_derived_class(&mut self, class: ClassId) -> Result<usize> {
        let pred = self
            .class(class)?
            .kind
            .predicate()
            .cloned()
            .ok_or(CoreError::DerivedClass(class))?;
        self.commit_membership(class, pred)
    }

    // ------------------------------------------------------------------
    // Derived attributes
    // ------------------------------------------------------------------

    /// Installs a derivation on an attribute and materialises its values
    /// for every current member of the owner ("(re)define derivation" +
    /// commit, §4.2). Returns the number of entities whose value was set.
    pub fn commit_derivation(&mut self, attr: AttrId, derivation: AttrDerivation) -> Result<usize> {
        let rec = self.attr(attr)?;
        if rec.naming {
            return Err(CoreError::Predefined);
        }
        let owner = rec.owner;
        let multiplicity = rec.multiplicity;
        let value_class = match rec.value_class {
            ValueClass::Class(c) => c,
            ValueClass::Grouping(_) => {
                return Err(CoreError::Inconsistent(
                    "derivations onto grouping-ranged attributes are not supported".into(),
                ))
            }
        };
        // Static checks.
        match &derivation {
            AttrDerivation::Assign(map) => {
                let trace = self.trace_map(owner, map)?;
                // Every produced entity must land in the value class; this
                // holds structurally when the map terminates at or below it.
                if !self.is_descendant(trace.terminal(), value_class)? {
                    return Err(CoreError::Inconsistent(format!(
                        "derivation map terminates in {} which is not within value class {}",
                        self.class(trace.terminal())?.name,
                        self.class(value_class)?.name
                    )));
                }
            }
            AttrDerivation::Predicate(p) => {
                self.validate_predicate(value_class, Some(owner), p)?;
            }
        }
        let members: Vec<EntityId> = self.class(owner)?.members.iter().collect();
        let mut n = 0;
        for x in &members {
            let set = match &derivation {
                AttrDerivation::Assign(map) => self.eval_map([*x], map)?,
                AttrDerivation::Predicate(p) => {
                    let mut out = OrderedSet::new();
                    for e in self.class(value_class)?.members.iter() {
                        if self.eval_predicate_for(e, p, Some(*x))? {
                            out.insert(e);
                        }
                    }
                    out
                }
            };
            let value = match multiplicity {
                Multiplicity::Multi => AttrValue::Multi(set),
                Multiplicity::Single => match set.len() {
                    0 => AttrValue::Single(EntityId::NULL),
                    1 => AttrValue::Single(set.as_slice()[0]),
                    _ => {
                        return Err(CoreError::SingleValuedAttr(attr));
                    }
                },
            };
            let old = self.attrs[attr.index()].value_of(*x);
            if old != value {
                self.record_change(crate::change::Change::AttrAssigned {
                    entity: *x,
                    attr,
                    old,
                    new: value.clone(),
                });
            }
            self.attrs[attr.index()].values.set(*x, value);
            n += 1;
        }
        if self.attr(attr)?.derivation.as_ref() != Some(&derivation) {
            self.record_schema(crate::change::SchemaEdit::AttrDerivationChanged(attr));
        }
        self.attr_mut(attr)?.derivation = Some(derivation);
        Ok(n)
    }

    /// Re-materialises a derived attribute from its stored derivation.
    pub fn refresh_derived_attr(&mut self, attr: AttrId) -> Result<usize> {
        let derivation = self
            .attr(attr)?
            .derivation
            .clone()
            .ok_or_else(|| CoreError::Inconsistent("attribute has no derivation".into()))?;
        self.commit_derivation(attr, derivation)
    }
}

/// A constant prepared by [`Database::value_test`] for comparing many
/// single values against it.
#[derive(Clone, Copy)]
pub struct ValueTest<'a> {
    db: &'a Database,
    op: CompareOp,
    rhs: &'a OrderedSet,
    /// For an ordering operator, the literal of a one-literal constant;
    /// without one every ordering test fails.
    key: Option<&'a Literal>,
}

impl ValueTest<'_> {
    /// [`Database::compare_sets`] of `lhs` against the prepared constant,
    /// or `None` where it fails.
    pub fn test_set(&self, lhs: &OrderedSet) -> Option<bool> {
        self.db.compare_sets(lhs, self.op, self.rhs).ok()
    }

    /// [`Database::compare_value`] of `v` against the prepared constant.
    pub fn test(&self, v: EntityId) -> Option<bool> {
        if !self.op.is_ordering() {
            return compare_single(v, self.op, self.rhs);
        }
        if v.is_null() {
            return None;
        }
        let ord = order_literals(self.db.literal_of(v)?, self.key?).ok()?;
        Some(ordering_holds(self.op, ord))
    }
}

/// The ordering rule: INTEGERS and REALS compare numerically (mixed kinds
/// allowed), STRINGS lexicographically; anything else is not comparable.
fn order_literals(a: &Literal, b: &Literal) -> Result<std::cmp::Ordering> {
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        return x
            .partial_cmp(&y)
            .ok_or_else(|| CoreError::NotComparable("incomparable reals".into()));
    }
    match (a, b) {
        (Literal::Str(x), Literal::Str(y)) => Ok(x.cmp(y)),
        _ => Err(CoreError::NotComparable(format!(
            "cannot order {a} against {b}"
        ))),
    }
}

/// Whether `ord`, the order of the left operand against the right,
/// satisfies the ordering operator `op`.
fn ordering_holds(op: CompareOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CompareOp::Lt => ord.is_lt(),
        CompareOp::Le => ord.is_le(),
        CompareOp::Gt => ord.is_gt(),
        CompareOp::Ge => ord.is_ge(),
        _ => unreachable!("{op:?} is not an ordering operator"),
    }
}

/// Compares a single-valued column cell against a pre-materialised rhs
/// image — [`Database::compare_sets`] specialised to a left-hand side
/// that is either the empty set (`v` is NULL, i.e. the slot is
/// unassigned) or the singleton `{v}`.
///
/// Returns `None` for ordering operators: those need the literal table
/// and can fail, so they go through [`ValueTest::test`].
///
/// A one-element rhs, the usual constant, is decided by equality with its
/// member; only a larger rhs is hash-probed.
pub(crate) fn compare_single(v: EntityId, op: CompareOp, rhs: &OrderedSet) -> Option<bool> {
    let null = v.is_null();
    let only = rhs.as_singleton();
    let holds = || only.map_or_else(|| rhs.contains(v), |w| w == v);
    Some(match op {
        CompareOp::SetEq => {
            if null {
                rhs.is_empty()
            } else {
                only == Some(v)
            }
        }
        CompareOp::Subset => null || holds(),
        CompareOp::Superset => {
            if null {
                rhs.is_empty()
            } else {
                rhs.is_empty() || only == Some(v)
            }
        }
        CompareOp::ProperSubset => {
            if null {
                !rhs.is_empty()
            } else {
                rhs.len() > 1 && rhs.contains(v)
            }
        }
        CompareOp::ProperSuperset => !null && rhs.is_empty(),
        CompareOp::Match => !null && holds(),
        CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::literal::BaseKind;
    use crate::predicate::Clause;

    /// A miniature Instrumental_Music: musicians play instruments, each
    /// instrument has a family, music groups have members and a size.
    struct Mini {
        db: Database,
        musicians: ClassId,
        instruments: ClassId,
        families: ClassId,
        groups: ClassId,
        plays: AttrId,
        family: AttrId,
        members_attr: AttrId,
        size: AttrId,
        edith: EntityId,
        bob: EntityId,
        carol: EntityId,
        viola: EntityId,
        piano: EntityId,
        flute: EntityId,
        #[allow(dead_code)]
        strings_fam: EntityId,
        #[allow(dead_code)]
        keyboard_fam: EntityId,
        q1: EntityId,
        q2: EntityId,
    }

    fn mini() -> Mini {
        let mut db = Database::new("mini");
        let musicians = db.create_baseclass("musicians").unwrap();
        let instruments = db.create_baseclass("instruments").unwrap();
        let families = db.create_baseclass("families").unwrap();
        let groups = db.create_baseclass("music_groups").unwrap();
        let ints = db.predefined(BaseKind::Integers);
        let plays = db
            .create_attribute(musicians, "plays", instruments, Multiplicity::Multi)
            .unwrap();
        let family = db
            .create_attribute(instruments, "family", families, Multiplicity::Single)
            .unwrap();
        let members_attr = db
            .create_attribute(groups, "members", musicians, Multiplicity::Multi)
            .unwrap();
        let size = db
            .create_attribute(groups, "size", ints, Multiplicity::Single)
            .unwrap();
        let strings_fam = db.insert_entity(families, "stringed").unwrap();
        let keyboard_fam = db.insert_entity(families, "keyboard").unwrap();
        let viola = db.insert_entity(instruments, "viola").unwrap();
        let piano = db.insert_entity(instruments, "piano").unwrap();
        let flute = db.insert_entity(instruments, "flute").unwrap();
        db.assign_single(viola, family, strings_fam).unwrap();
        db.assign_single(piano, family, keyboard_fam).unwrap();
        let edith = db.insert_entity(musicians, "Edith").unwrap();
        let bob = db.insert_entity(musicians, "Bob").unwrap();
        let carol = db.insert_entity(musicians, "Carol").unwrap();
        db.assign_multi(edith, plays, [viola]).unwrap();
        db.assign_multi(bob, plays, [piano]).unwrap();
        db.assign_multi(carol, plays, [piano, viola]).unwrap();
        let q1 = db.insert_entity(groups, "Quartetto").unwrap();
        let q2 = db.insert_entity(groups, "Duo").unwrap();
        let four = db.int(4);
        let two = db.int(2);
        db.assign_single(q1, size, four).unwrap();
        db.assign_single(q2, size, two).unwrap();
        db.assign_multi(q1, members_attr, [edith, bob, carol])
            .unwrap();
        db.assign_multi(q2, members_attr, [edith]).unwrap();
        Mini {
            db,
            musicians,
            instruments,
            families,
            groups,
            plays,
            family,
            members_attr,
            size,
            edith,
            bob,
            carol,
            viola,
            piano,
            flute,
            strings_fam,
            keyboard_fam,
            q1,
            q2,
        }
    }

    #[test]
    fn trace_map_stacks_classes() {
        let m = mini();
        let map = Map::new(vec![m.members_attr, m.plays, m.family]);
        let t = m.db.trace_map(m.groups, &map).unwrap();
        assert_eq!(
            t.classes,
            vec![m.groups, m.musicians, m.instruments, m.families]
        );
        assert_eq!(t.terminal(), m.families);
        assert!(t.multivalued);
        // Identity map.
        let t0 = m.db.trace_map(m.groups, &Map::identity()).unwrap();
        assert_eq!(t0.classes, vec![m.groups]);
        assert!(!t0.multivalued);
        // Invalid step.
        assert!(matches!(
            m.db.trace_map(m.groups, &Map::single(m.family))
                .unwrap_err(),
            CoreError::InvalidMapStep { .. }
        ));
    }

    #[test]
    fn eval_map_unions_across_steps() {
        let m = mini();
        // members plays: all instruments played in the quartet.
        let map = Map::new(vec![m.members_attr, m.plays]);
        let out = m.db.eval_map([m.q1], &map).unwrap();
        assert!(out.contains(m.viola) && out.contains(m.piano));
        assert!(!out.contains(m.flute));
        // Identity map.
        let id = m.db.eval_map([m.q1], &Map::identity()).unwrap();
        assert_eq!(id.as_slice(), &[m.q1]);
    }

    #[test]
    fn eval_map_through_singlevalued_skips_null() {
        let m = mini();
        // flute has no family assigned → empty, not {null}.
        let out = m.db.eval_map([m.flute], &Map::single(m.family)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn compare_ops_table() {
        let m = mini();
        let a: OrderedSet = [m.viola].into_iter().collect();
        let ab: OrderedSet = [m.viola, m.piano].into_iter().collect();
        let c: OrderedSet = [m.flute].into_iter().collect();
        let db = &m.db;
        assert!(db.compare_sets(&a, CompareOp::Subset, &ab).unwrap());
        assert!(db.compare_sets(&a, CompareOp::ProperSubset, &ab).unwrap());
        assert!(!db.compare_sets(&ab, CompareOp::ProperSubset, &ab).unwrap());
        assert!(db.compare_sets(&ab, CompareOp::Superset, &a).unwrap());
        assert!(db.compare_sets(&ab, CompareOp::ProperSuperset, &a).unwrap());
        assert!(db.compare_sets(&ab, CompareOp::Match, &a).unwrap());
        assert!(!db.compare_sets(&ab, CompareOp::Match, &c).unwrap());
        assert!(db.compare_sets(&ab, CompareOp::SetEq, &ab).unwrap());
        assert!(!db.compare_sets(&a, CompareOp::SetEq, &ab).unwrap());
    }

    #[test]
    fn ordering_ops_on_literals() {
        let mut m = mini();
        let two: OrderedSet = [m.db.int(2)].into_iter().collect();
        let four: OrderedSet = [m.db.int(4)].into_iter().collect();
        let half: OrderedSet = [m.db.real(2.5).unwrap()].into_iter().collect();
        let db = &m.db;
        assert!(db.compare_sets(&two, CompareOp::Lt, &four).unwrap());
        assert!(db.compare_sets(&four, CompareOp::Ge, &four).unwrap());
        // Mixed int/real ordering works.
        assert!(db.compare_sets(&two, CompareOp::Lt, &half).unwrap());
        assert!(db.compare_sets(&half, CompareOp::Lt, &four).unwrap());
        // Strings order lexicographically.
        let mut m2 = mini();
        let a: OrderedSet = [m2.db.str("alto")].into_iter().collect();
        let b: OrderedSet = [m2.db.str("bass")].into_iter().collect();
        assert!(m2.db.compare_sets(&a, CompareOp::Lt, &b).unwrap());
        // Non-singletons and non-literals error.
        let both: OrderedSet = [m.viola, m.piano].into_iter().collect();
        assert!(db.compare_sets(&both, CompareOp::Lt, &four).is_err());
        let ent: OrderedSet = [m.viola].into_iter().collect();
        assert!(db.compare_sets(&ent, CompareOp::Lt, &four).is_err());
    }

    /// The paper's quartets query: size = {4} AND plays of some member ⊇
    /// {piano} — here phrased over music_groups directly.
    fn quartets_predicate(m: &mut Mini) -> Predicate {
        let four = m.db.int(4);
        let ints = m.db.predefined(BaseKind::Integers);
        let size_atom = Atom::new(
            Map::single(m.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [four]),
        );
        let piano_atom = Atom::new(
            Map::new(vec![m.members_attr, m.plays]),
            CompareOp::Superset,
            Rhs::constant(m.instruments, [m.piano]),
        );
        Predicate::cnf(vec![
            Clause::new(vec![piano_atom]),
            Clause::new(vec![size_atom]),
        ])
    }

    #[test]
    fn quartets_query_selects_q1_only() {
        let mut m = mini();
        let pred = quartets_predicate(&mut m);
        let sel = m.db.evaluate_derived_members(m.groups, &pred).unwrap();
        assert_eq!(sel.as_slice(), &[m.q1]);
    }

    #[test]
    fn commit_membership_materialises_and_refreshes() {
        let mut m = mini();
        let pred = quartets_predicate(&mut m);
        let quartets = m.db.create_derived_subclass(m.groups, "quartets").unwrap();
        let n = m.db.commit_membership(quartets, pred).unwrap();
        assert_eq!(n, 1);
        assert!(m.db.members(quartets).unwrap().contains(m.q1));
        assert!(!m.db.members(quartets).unwrap().contains(m.q2));
        // Change the data so q2 qualifies, then refresh.
        let four = m.db.int(4);
        m.db.assign_single(m.q2, m.size, four).unwrap();
        m.db.assign_multi(m.q2, m.members_attr, [m.bob]).unwrap();
        assert!(!m.db.members(quartets).unwrap().contains(m.q2)); // stale
        let n2 = m.db.refresh_derived_class(quartets).unwrap();
        assert_eq!(n2, 2);
        assert!(m.db.members(quartets).unwrap().contains(m.q2));
        // Make q1 fail and refresh: it must leave.
        let two = m.db.int(2);
        m.db.assign_single(m.q1, m.size, two).unwrap();
        m.db.refresh_derived_class(quartets).unwrap();
        assert!(!m.db.members(quartets).unwrap().contains(m.q1));
    }

    #[test]
    fn dnf_vs_cnf_semantics() {
        let mut m = mini();
        let four = m.db.int(4);
        let two = m.db.int(2);
        let ints = m.db.predefined(BaseKind::Integers);
        let is4 = Atom::new(
            Map::single(m.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [four]),
        );
        let is2 = Atom::new(
            Map::single(m.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [two]),
        );
        // DNF (4) OR (2): both groups qualify.
        let dnf = Predicate::dnf(vec![
            Clause::new(vec![is4.clone()]),
            Clause::new(vec![is2.clone()]),
        ]);
        assert_eq!(
            m.db.evaluate_derived_members(m.groups, &dnf).unwrap().len(),
            2
        );
        // Same layout read as CNF (4) AND (2): none qualify.
        let mut cnf = dnf.clone();
        cnf.switch_and_or();
        assert_eq!(
            m.db.evaluate_derived_members(m.groups, &cnf).unwrap().len(),
            0
        );
        // One clause with both atoms: DNF-AND none, CNF-OR both.
        let one = Predicate::dnf(vec![Clause::new(vec![is4, is2])]);
        assert_eq!(
            m.db.evaluate_derived_members(m.groups, &one).unwrap().len(),
            0
        );
        let mut one_cnf = one.clone();
        one_cnf.switch_and_or();
        assert_eq!(
            m.db.evaluate_derived_members(m.groups, &one_cnf)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn negated_operator() {
        let mut m = mini();
        let four = m.db.int(4);
        let ints = m.db.predefined(BaseKind::Integers);
        let atom = Atom::new(
            Map::single(m.size),
            crate::op::Operator::negated(CompareOp::SetEq),
            Rhs::constant(ints, [four]),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let sel = m.db.evaluate_derived_members(m.groups, &pred).unwrap();
        assert_eq!(sel.as_slice(), &[m.q2]);
    }

    #[test]
    fn self_map_atom_form_a() {
        let m = mini();
        // Instruments whose own family set equals the family of viola —
        // i.e. stringed instruments, via form (b) on the rhs with a map.
        let atom = Atom::new(
            Map::single(m.family),
            CompareOp::SetEq,
            Rhs::Constant {
                class: m.instruments,
                anchors: [m.viola].into_iter().collect(),
                map: Map::single(m.family),
            },
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let sel = m.db.evaluate_derived_members(m.instruments, &pred).unwrap();
        assert_eq!(sel.as_slice(), &[m.viola]);
        // Form (a): identity(e) = identity(e) is trivially true.
        let triv = Atom::new(
            Map::identity(),
            CompareOp::SetEq,
            Rhs::SelfMap(Map::identity()),
        );
        let all =
            m.db.evaluate_derived_members(
                m.instruments,
                &Predicate::dnf(vec![Clause::new(vec![triv])]),
            )
            .unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn source_atom_rejected_in_subclass_predicate() {
        let m = mini();
        let atom = Atom::new(
            Map::identity(),
            CompareOp::Match,
            Rhs::SourceMap(Map::single(m.plays)),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        assert!(m.db.evaluate_derived_members(m.musicians, &pred).is_err());
    }

    #[test]
    fn derived_attribute_assign_form() {
        let mut m = mini();
        // all_inst: music_groups → instruments, derived by the hand
        // operator over the map `members plays` (Figure 10).
        let all_inst =
            m.db.create_attribute(m.groups, "all_inst", m.instruments, Multiplicity::Multi)
                .unwrap();
        let n =
            m.db.commit_derivation(
                all_inst,
                AttrDerivation::Assign(Map::new(vec![m.members_attr, m.plays])),
            )
            .unwrap();
        assert_eq!(n, 2);
        let v = m.db.attr_value_set(m.q1, all_inst).unwrap();
        assert!(v.contains(m.viola) && v.contains(m.piano));
        assert_eq!(
            m.db.attr_value_set(m.q2, all_inst).unwrap().as_slice(),
            &[m.viola]
        );
        // External assignment to a derived attribute is refused.
        assert!(m.db.assign_multi(m.q1, all_inst, [m.flute]).is_err());
        // Refresh follows data changes.
        m.db.assign_multi(m.edith, m.plays, [m.flute]).unwrap();
        m.db.refresh_derived_attr(all_inst).unwrap();
        assert!(m
            .db
            .attr_value_set(m.q2, all_inst)
            .unwrap()
            .contains(m.flute));
    }

    #[test]
    fn derived_attribute_predicate_form_with_source() {
        let mut m = mini();
        // colleagues: musicians → musicians, e is a colleague of x iff some
        // group's members include both (approximated here: e plays an
        // instrument x also plays) — exercises form (c).
        let colleagues =
            m.db.create_attribute(m.musicians, "similar", m.musicians, Multiplicity::Multi)
                .unwrap();
        let atom = Atom::new(
            Map::single(m.plays),
            CompareOp::Match,
            Rhs::SourceMap(Map::single(m.plays)),
        );
        let deriv = AttrDerivation::Predicate(Predicate::dnf(vec![Clause::new(vec![atom])]));
        m.db.commit_derivation(colleagues, deriv).unwrap();
        let sim = m.db.attr_value_set(m.edith, colleagues).unwrap();
        // Edith plays viola; Carol plays viola+piano; Bob only piano.
        assert!(sim.contains(m.edith));
        assert!(sim.contains(m.carol));
        assert!(!sim.contains(m.bob));
    }

    #[test]
    fn derived_single_attribute_cardinality_checked() {
        let mut m = mini();
        let fam_of_plays =
            m.db.create_attribute(m.musicians, "fam1", m.families, Multiplicity::Single)
                .unwrap();
        // Edith plays only viola → single family works.
        // Carol plays piano+viola → two families → must error.
        let deriv = AttrDerivation::Assign(Map::new(vec![m.plays, m.family]));
        assert_eq!(
            m.db.commit_derivation(fam_of_plays, deriv).unwrap_err(),
            CoreError::SingleValuedAttr(fam_of_plays)
        );
    }

    #[test]
    fn derivation_map_terminal_must_lie_in_value_class() {
        let mut m = mini();
        let bad =
            m.db.create_attribute(m.groups, "bad", m.families, Multiplicity::Multi)
                .unwrap();
        // members plays terminates in instruments, not families.
        let deriv = AttrDerivation::Assign(Map::new(vec![m.members_attr, m.plays]));
        assert!(m.db.commit_derivation(bad, deriv).is_err());
    }

    #[test]
    fn naming_attribute_usable_in_maps() {
        let mut m = mini();
        // Select the musician named "Edith" by comparing the naming map to
        // a string constant.
        let naming = m.db.naming_attr(m.musicians).unwrap();
        let edith_str = m.db.str("Edith");
        let strings = m.db.predefined(BaseKind::Strings);
        let atom = Atom::new(
            Map::single(naming),
            CompareOp::SetEq,
            Rhs::constant(strings, [edith_str]),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let sel = m.db.evaluate_derived_members(m.musicians, &pred).unwrap();
        assert_eq!(sel.as_slice(), &[m.edith]);
    }

    #[test]
    fn commit_membership_on_enumerated_subclass_converts_it() {
        let mut m = mini();
        let sub = m.db.create_subclass(m.groups, "somegroups").unwrap();
        let pred = quartets_predicate(&mut m);
        m.db.commit_membership(sub, pred).unwrap();
        assert!(m.db.class(sub).unwrap().is_derived());
        assert!(m.db.members(sub).unwrap().contains(m.q1));
    }

    /// `compare_single` must agree with `compare_sets` for every
    /// operator on every lhs shape it claims to handle: lhs = ∅ (NULL
    /// cell) and lhs = {v}, against rhs sets of size 0, 1, and 2, with
    /// and without v ∈ rhs. Ordering operators must refuse. Its ordering
    /// counterpart `compare_value` must answer exactly where
    /// `compare_sets` does, with the same result.
    #[test]
    fn compare_single_matches_compare_sets_exhaustively() {
        let mut db = Database::new("kernel");
        let v = EntityId::from_raw(7);
        let w = EntityId::from_raw(8);
        let u = EntityId::from_raw(9);
        let rhs_shapes: Vec<OrderedSet> = vec![
            OrderedSet::new(),
            [v].into_iter().collect(),
            [w].into_iter().collect(),
            [v, w].into_iter().collect(),
            [w, u].into_iter().collect(),
        ];
        let ops = [
            CompareOp::SetEq,
            CompareOp::Subset,
            CompareOp::Superset,
            CompareOp::ProperSubset,
            CompareOp::ProperSuperset,
            CompareOp::Match,
        ];
        for cell in [EntityId::NULL, v] {
            let lhs: OrderedSet = if cell.is_null() {
                OrderedSet::new()
            } else {
                [cell].into_iter().collect()
            };
            for rhs in &rhs_shapes {
                for op in ops {
                    let want = db.compare_sets(&lhs, op, rhs).unwrap();
                    assert_eq!(
                        compare_single(cell, op, rhs),
                        Some(want),
                        "cell={cell:?} op={op:?} rhs={rhs:?}"
                    );
                }
                for op in [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge] {
                    assert_eq!(compare_single(cell, op, rhs), None);
                }
            }
        }

        let values = [
            EntityId::NULL,
            v,
            db.int(3),
            db.int(7),
            db.real(3.0).unwrap(),
            db.real(-0.5).unwrap(),
            db.str("alto"),
            db.str("bass"),
            db.boolean(true),
        ];
        let mut rhs_shapes: Vec<OrderedSet> =
            vec![OrderedSet::new(), values[2..4].iter().copied().collect()];
        rhs_shapes.extend(values[1..].iter().map(|&x| [x].into_iter().collect()));
        let ops = [
            CompareOp::SetEq,
            CompareOp::Subset,
            CompareOp::Superset,
            CompareOp::ProperSubset,
            CompareOp::ProperSuperset,
            CompareOp::Match,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        for cell in values {
            let lhs: OrderedSet = Some(cell).filter(|c| !c.is_null()).into_iter().collect();
            for rhs in &rhs_shapes {
                for op in ops {
                    assert_eq!(
                        db.compare_value(cell, op, rhs),
                        db.compare_sets(&lhs, op, rhs).ok(),
                        "cell={cell:?} op={op:?} rhs={rhs:?}"
                    );
                }
            }
        }
    }
}
