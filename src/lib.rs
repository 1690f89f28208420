//! # isis
//!
//! A full reproduction of *ISIS: Interface for a Semantic Information
//! System* (Goldman, Goldman, Kanellakis, Zdonik — SIGMOD 1985): a semantic
//! data model database engine with an integrated schema/data browser and a
//! graphical query language, simulated headlessly with deterministic
//! ASCII/SVG rendering.
//!
//! This facade crate re-exports the subsystem crates and hosts the examples
//! and integration tests:
//!
//! * [`core`] — the SDM-subset data model engine;
//! * [`query`] — relational algebra engine, predicate compiler
//!   (the relational-completeness witness), QBE baseline, indexes,
//!   incremental maintenance, optimizer;
//! * [`store`] — snapshots + write-ahead log persistence;
//! * [`views`] — the four paper views and the renderers;
//! * [`session`] — the Diagram-1 interaction engine;
//! * [`sample`] — the §4.1 Instrumental_Music database and
//!   synthetic workloads;
//! * [`holiday`] — the §4.2 session script that regenerates Figures 1–12;
//! * [`obs`] — structured tracing, metrics, and machine-readable run
//!   reports across the query/refresh/storage pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use isis_core as core;
pub use isis_obs as obs;
pub use isis_query as query;
pub use isis_sample as sample;
pub use isis_session as session;
pub use isis_store as store;
pub use isis_views as views;

pub mod holiday;
pub mod repl;

/// The most commonly used items, for `use isis::prelude::*`.
pub mod prelude {
    pub use isis_core::{
        Atom, AttrDerivation, AttrId, BaseKind, Change, ChangeSet, ClassId, Clause, CompareOp,
        CoreError, Database, DeltaLog, EntityId, GroupingId, Literal, Map, Multiplicity,
        NormalForm, Operator, OrderedSet, Predicate, RetryBackoff, Rhs, SchemaEdit, SchemaNode,
    };
    pub use isis_query::{
        DerivedMaintainer, DerivedState, ExtentChange, IndexService, QbeQuery, QueryStats,
    };
    pub use isis_session::{
        Command, CommitConflict, CommitReceipt, RefreshPolicy, Script, Session, SessionBuilder,
        SharedDatabase,
    };
    pub use isis_store::{
        FaultMode, FaultVfs, FsckReport, LoggedDatabase, RecoveryReport, Replica, ReplicaStatus,
        ReplicationLog, ShipCursor, Shipment, StoreDir, SyncPolicy,
    };
    pub use isis_views::{render, Scene};
}
