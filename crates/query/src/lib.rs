//! # isis-query
//!
//! Query processing for the ISIS reproduction, beyond the per-candidate
//! evaluator built into `isis-core`:
//!
//! * [`relmodel`] — a minimal relational model and the standard relational
//!   encoding of an ISIS database;
//! * [`algebra`] — a relationally-complete algebra (σ, π, ×, ∪, −, plus
//!   hash equijoin) with an evaluator;
//! * [`compile`] — compiles ISIS predicates into algebra plans, making the
//!   paper's "full power of relational algebra" claim machine-checkable;
//! * [`qbe`] — a Query-by-Example baseline, the paper's §1.1 comparator;
//! * [`index`] — inverted attribute indexes (groupings made operational);
//! * [`incremental`] — [`DerivedState`], the one refresh path for derived
//!   subclasses: incremental maintenance by inverse map traversal, fed by
//!   the core delta log, with a full refresh as its fallback;
//! * [`service`] — the shared [`IndexService`]: one index set kept current
//!   from the core delta log, serving the evaluator, the cost model, and
//!   derived-class maintenance, with an index-pruning access-path planner
//!   and observable [`QueryStats`];
//! * [`optimizer`] — the atom cost model: per-atom cost and
//!   index-informed selectivity estimates;
//! * [`program`] — compiled predicate programs: constant hoisting,
//!   shared-map memoization, and barrier-respecting atom reordering, the
//!   artifact every query and delta evaluation shares;
//! * [`parallel`] — [`EvalPool`], the one runner of compiled programs over
//!   candidate lists: serial at width 1, otherwise chunked over a
//!   lazily-spawned persistent worker pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod cache;
pub mod compile;
pub mod error;
pub mod explain;
pub mod incremental;
pub mod index;
pub mod optimizer;
pub mod parallel;
pub mod program;
pub mod qbe;
pub mod relmodel;
pub mod service;

pub use algebra::{eval_cached, Condition, Operand, RaExpr, ScalarOracle};
pub use cache::{predicate_fingerprint, CacheOutcome, ProgramCache, ProgramCacheStats};
pub use compile::{
    compile_and_eval, compile_attr_derivation, compile_map, compile_subclass_predicate, eval_plan,
};
pub use error::QueryError;
pub use explain::{AtomPlan, ColumnStat, ExplainRecord};
pub use incremental::{DerivedMaintainer, DerivedState, ExtentChange};
pub use index::AttrIndex;
pub use optimizer::{estimate_atom, AtomEstimate};
pub use parallel::{chunk_decision, EvalPool};
pub use program::{MemoTable, PredicateProgram, BATCH_ROWS};
pub use qbe::{Cell, ConditionEntry, QbeQuery, TemplateRow};
pub use relmodel::{encode_database, Relation, RelationalDb};
pub use service::{AccessPath, IndexService, IndexStats, QueryStats};
