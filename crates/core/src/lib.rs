//! # isis-core
//!
//! The semantic data model engine behind ISIS (*ISIS: Interface for a
//! Semantic Information System*, SIGMOD 1985) — a modified subset of the
//! Semantic Data Model (SDM) chosen by the paper to be "relationally
//! complete and useful":
//!
//! * **Entities** with unique names, partitioned into disjoint
//!   **baseclasses** (plus the predefined STRINGS / INTEGERS / REALS /
//!   YES-NO baseclasses);
//! * **Classes** in a single-parent **inheritance forest** (with the
//!   paper's §5 multiple-inheritance extension available behind
//!   [`Database::enable_multiple_inheritance`]);
//! * single- and multi-valued **attributes** with value classes, forming
//!   the **semantic network**; attributes may range over groupings;
//! * **groupings** of a class on common values of an attribute;
//! * **maps** (attribute compositions), **predicates** over maps in
//!   DNF/CNF, and **derived subclasses / derived attributes** — the
//!   paper's query mechanism, with "the full power of relational algebra";
//! * **consistency**: every modification preserves the §2 integrity rules,
//!   re-checkable from scratch via [`Database::check_consistency`].
//!
//! The crate is deliberately free of I/O and rendering: persistence lives
//! in `isis-store`, pictures in `isis-views`, interaction in
//! `isis-session`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod attribute;
pub mod change;
mod chunk;
pub mod class;
pub mod column;
pub mod consistency;
pub mod constraint;
mod data_ops;
mod database;
pub mod entity;
pub mod error;
mod eval;
pub mod fillpattern;
pub mod forest;
pub mod grouping;
pub mod ids;
pub mod image;
pub mod literal;
pub mod map;
pub mod mvcc;
pub mod network;
pub mod op;
pub mod orderedset;
pub mod predicate;
mod schema_ops;

pub use atom::{Atom, Rhs};
pub use attribute::{AttrRecord, AttrValue, Multiplicity, ValueClass};
pub use change::{Change, ChangeSet, DeltaLog, SchemaEdit};
pub use class::{ClassKind, ClassRecord};
pub use column::{AttrColumn, ColumnStats, ValueRef};
pub use consistency::Violation;
pub use constraint::{ConstraintId, ConstraintKind, ConstraintRecord, ConstraintReport};
pub use database::Database;
pub use entity::EntityRecord;
pub use error::{CoreError, Result};
pub use eval::ValueTest;
pub use fillpattern::FillPattern;
pub use forest::{ForestNode, ForestTree};
pub use grouping::{GroupingRecord, GroupingSet};
pub use ids::{AttrId, ClassId, EntityId, GroupingId, SchemaNode};
pub use image::DatabaseImage;
pub use literal::{BaseKind, Literal};
pub use map::{Map, MapTrace};
pub use mvcc::{CommitConflict, CommitHook, CommitReceipt, RetryBackoff, SharedDatabase};
pub use network::NetworkArc;
pub use op::{CompareOp, Operator};
pub use orderedset::OrderedSet;
pub use predicate::{AttrDerivation, Clause, NormalForm, Predicate};
pub use schema_ops::ValueClassSpec;
