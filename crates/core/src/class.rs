//! Class records.

use std::sync::Arc;

use crate::fillpattern::FillPattern;
use crate::ids::{AttrId, ClassId, GroupingId};
use crate::literal::BaseKind;
use crate::orderedset::OrderedSet;
use crate::predicate::Predicate;

/// How a class's membership is determined.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassKind {
    /// A baseclass: a root of the inheritance forest. The four predefined
    /// baseclasses carry their [`BaseKind`]; user baseclasses carry `None`.
    Base(Option<BaseKind>),
    /// A subclass whose members are enumerated by hand (the paper's
    /// "user-defined" subclasses, e.g. *soloists* and *edith_plays*).
    Enumerated,
    /// A derived subclass: membership is defined by a predicate over the
    /// parent class and (re)materialised on commit.
    Derived(Predicate),
}

impl ClassKind {
    /// `true` for baseclasses.
    pub fn is_base(&self) -> bool {
        matches!(self, ClassKind::Base(_))
    }

    /// The predefined kind, if this is one of the four standard baseclasses.
    pub fn predefined(&self) -> Option<BaseKind> {
        match self {
            ClassKind::Base(k) => *k,
            _ => None,
        }
    }

    /// The defining predicate, for derived subclasses.
    pub fn predicate(&self) -> Option<&Predicate> {
        match self {
            ClassKind::Derived(p) => Some(p),
            _ => None,
        }
    }
}

/// A stored class: "a named set of entities" (§2).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRecord {
    /// The class name, unique among classes and groupings in the schema.
    pub name: String,
    /// `parent(C)` for subclasses; `None` for baseclasses.
    pub parent: Option<ClassId>,
    /// The root of this class's inheritance tree (itself for baseclasses).
    pub base: ClassId,
    /// How membership is determined.
    pub kind: ClassKind,
    /// The characteristic fill pattern assigned at creation.
    pub fill: FillPattern,
    /// Attributes *owned* by this class (not inherited ones), in creation
    /// order. The first attribute of a baseclass is its naming attribute.
    pub own_attrs: Vec<AttrId>,
    /// Direct subclasses, in creation order (forest children).
    pub children: Vec<ClassId>,
    /// Groupings whose parent is this class, in creation order.
    pub groupings: Vec<GroupingId>,
    /// The extent: members in insertion order. For the predefined
    /// baseclasses this holds the interned literals used so far. Shared
    /// copy-on-write between database clones: the first write to an
    /// extent another clone still holds copies that one extent.
    pub members: Arc<OrderedSet>,
    /// Secondary parents, used only when the multiple-inheritance extension
    /// is enabled (§5 future work). Always empty in single-parent mode.
    pub extra_parents: Vec<ClassId>,
    /// Tombstone flag.
    pub alive: bool,
}

impl ClassRecord {
    /// `true` for baseclasses (roots of the forest).
    pub fn is_base(&self) -> bool {
        self.parent.is_none()
    }

    /// `true` for the four predefined baseclasses.
    pub fn is_predefined(&self) -> bool {
        self.kind.predefined().is_some()
    }

    /// `true` for derived (predicate-defined) subclasses.
    pub fn is_derived(&self) -> bool {
        matches!(self.kind, ClassKind::Derived(_))
    }

    /// All parents: the primary parent plus any secondary parents.
    pub fn all_parents(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.parent
            .into_iter()
            .chain(self.extra_parents.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: ClassKind, parent: Option<ClassId>) -> ClassRecord {
        ClassRecord {
            name: "t".into(),
            parent,
            base: ClassId::from_raw(0),
            kind,
            fill: FillPattern::nth(0),
            own_attrs: vec![],
            children: vec![],
            groupings: vec![],
            members: Arc::default(),
            extra_parents: vec![],
            alive: true,
        }
    }

    #[test]
    fn base_classification() {
        let b = record(ClassKind::Base(Some(BaseKind::Integers)), None);
        assert!(b.is_base());
        assert!(b.is_predefined());
        assert!(!b.is_derived());

        let user_base = record(ClassKind::Base(None), None);
        assert!(user_base.is_base());
        assert!(!user_base.is_predefined());
    }

    #[test]
    fn derived_classification() {
        let d = record(
            ClassKind::Derived(Predicate::always_true()),
            Some(ClassId::from_raw(0)),
        );
        assert!(d.is_derived());
        assert!(d.kind.predicate().is_some());
        assert!(!d.is_base());
    }

    #[test]
    fn all_parents_includes_secondary() {
        let mut c = record(ClassKind::Enumerated, Some(ClassId::from_raw(1)));
        c.extra_parents.push(ClassId::from_raw(2));
        let ps: Vec<_> = c.all_parents().collect();
        assert_eq!(ps, vec![ClassId::from_raw(1), ClassId::from_raw(2)]);
    }
}
