//! Session state: the two-level structure of Diagram 1.
//!
//! "The state of ISIS consists of a *schema selection* (the class,
//! attribute, or grouping being examined) and a *data selection*. Schema
//! selection can be changed at both levels as part of navigating through
//! the schema. Data selection can be changed at the data level. When one
//! switches levels temporarily to select a constant or create a
//! user-defined subclass, neither the schema selection nor the data
//! selection are changed upon returning from the temporary visit."

use isis_core::{AttrId, ClassId, Map, NormalForm, Operator, Rhs, SchemaNode};
use isis_views::PageSpec;

/// When derived subclasses and derived attributes are re-evaluated.
///
/// The paper leaves derivations stale between commits (§2); the delta log
/// in `isis-core` lets the session do better without re-evaluating from
/// scratch, so the old `auto_refresh` boolean became a policy. Policies
/// are ordered by eagerness: each refreshes wherever the ones before it do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum RefreshPolicy {
    /// Never refresh automatically; the user issues an explicit *refresh*
    /// (the paper's behaviour, and the default).
    #[default]
    Manual,
    /// Refresh when a worksheet predicate or derivation is committed.
    OnCommit,
    /// Refresh after every data modification.
    Immediate,
}

/// The schema selection: a class, an attribute, or a grouping (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// A class is selected.
    Class(ClassId),
    /// An attribute is selected.
    Attr(AttrId),
    /// A grouping is selected.
    Grouping(isis_core::GroupingId),
}

impl Selection {
    /// The selection as a schema node, if it is a class or grouping.
    pub fn as_node(self) -> Option<SchemaNode> {
        match self {
            Selection::Class(c) => Some(SchemaNode::Class(c)),
            Selection::Grouping(g) => Some(SchemaNode::Grouping(g)),
            Selection::Attr(_) => None,
        }
    }
}

impl From<SchemaNode> for Selection {
    fn from(node: SchemaNode) -> Selection {
        match node {
            SchemaNode::Class(c) => Selection::Class(c),
            SchemaNode::Grouping(g) => Selection::Grouping(g),
        }
    }
}

/// Which view the session is showing (the boxes of Diagram 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Schema level: the inheritance forest.
    Forest,
    /// Schema level: the semantic network.
    Network,
    /// Schema level: the predicate worksheet.
    Worksheet,
    /// The data level.
    Data,
    /// A *temporary visit* to the data level to pick a constant for the
    /// worksheet (the loop arrow of Diagram 1). The saved page stack and
    /// selections are untouched; this carries its own page.
    ConstantPick {
        /// The class whose entities are being offered.
        class: ClassId,
        /// The temporary page (with its own transient selection).
        page: PageSpec,
    },
}

/// What the open worksheet defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsTarget {
    /// (Re)defining the membership of a subclass.
    Membership(ClassId),
    /// (Re)defining the derivation of an attribute.
    Derivation(AttrId),
    /// Defining an integrity constraint over a class (the §5 extension:
    /// constraints are specified "in a similar graphical way" — on the
    /// same worksheet).
    Constraint {
        /// The constraint's name.
        name: String,
        /// For-all or forbidden reading.
        kind: isis_core::ConstraintKind,
    },
}

/// An atom under construction or constructed, tagged A, B, C, … as in
/// Figure 9.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomDraft {
    /// The display tag ('A'…).
    pub tag: char,
    /// The left-hand-side map from the candidate entity.
    pub lhs: Map,
    /// The chosen operator.
    pub op: Option<Operator>,
    /// The chosen right-hand side.
    pub rhs: Option<Rhs>,
    /// The clause window (0-based) the atom is placed in, if placed.
    pub placed: Option<usize>,
}

impl AtomDraft {
    /// A fresh, empty draft.
    pub fn new(tag: char) -> AtomDraft {
        AtomDraft {
            tag,
            lhs: Map::identity(),
            op: None,
            rhs: None,
            placed: None,
        }
    }

    /// `true` when lhs/op/rhs are all specified.
    pub fn complete(&self) -> bool {
        self.op.is_some() && self.rhs.is_some()
    }
}

/// The open worksheet.
#[derive(Debug, Clone, PartialEq)]
pub struct WorksheetState {
    /// What is being defined.
    pub target: WsTarget,
    /// The class candidates range over (the parent class for membership;
    /// the attribute's value class for a derivation predicate).
    pub candidate_class: ClassId,
    /// For derivations: the class the source entity `x` belongs to.
    pub source_class: Option<ClassId>,
    /// DNF/CNF reading of the clause windows.
    pub form: NormalForm,
    /// All atom drafts, in tag order.
    pub atoms: Vec<AtomDraft>,
    /// Index of the atom currently being edited.
    pub editing: Option<usize>,
    /// The hand-operator assignment map (derivations only, Figure 10).
    pub hand: Option<Map>,
}

impl WorksheetState {
    /// Opens a worksheet.
    pub fn new(target: WsTarget, candidate_class: ClassId, source_class: Option<ClassId>) -> Self {
        WorksheetState {
            target,
            candidate_class,
            source_class,
            form: NormalForm::Dnf,
            atoms: Vec::new(),
            editing: None,
            hand: None,
        }
    }

    /// The next free atom tag, or `None` once `A`–`Z` are all taken (the
    /// worksheet's `edit` addresses atoms by these letters).
    pub fn next_tag(&self) -> Option<char> {
        (b'A'..=b'Z').nth(self.atoms.len()).map(char::from)
    }

    /// The atom currently being edited.
    pub fn editing_atom(&mut self) -> Option<&mut AtomDraft> {
        self.editing.and_then(|i| self.atoms.get_mut(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_projection() {
        let c = Selection::Class(ClassId::from_raw(1));
        assert_eq!(c.as_node(), Some(SchemaNode::Class(ClassId::from_raw(1))));
        assert_eq!(Selection::Attr(AttrId::from_raw(2)).as_node(), None);
    }

    #[test]
    fn atom_draft_completeness() {
        let mut a = AtomDraft::new('A');
        assert!(!a.complete());
        a.op = Some(isis_core::CompareOp::SetEq.into());
        assert!(!a.complete());
        a.rhs = Some(Rhs::SelfMap(Map::identity()));
        assert!(a.complete());
    }

    #[test]
    fn worksheet_tags_advance() {
        let mut ws = WorksheetState::new(
            WsTarget::Membership(ClassId::from_raw(1)),
            ClassId::from_raw(0),
            None,
        );
        assert_eq!(ws.next_tag(), Some('A'));
        ws.atoms.push(AtomDraft::new('A'));
        assert_eq!(ws.next_tag(), Some('B'));
        ws.editing = Some(0);
        assert!(ws.editing_atom().is_some());
    }
}
