//! The shared index service behind the query path.
//!
//! The paper's predicate worksheet makes queries first-class derived
//! subclasses, so query answering and derived-class maintenance are two
//! consumers of the same attribute structure. [`IndexService`] is that
//! structure made shared: one set of inverted attribute indexes, kept
//! current from the core delta log, read by
//!
//! * the predicate evaluator ([`IndexService::evaluate`]),
//! * the cost model ([`crate::estimate_atom`] consults the service for
//!   selectivity statistics when a program orders its atoms), and
//! * [`crate::DerivedMaintainer`]s, which walk the same indexes backwards
//!   to find the candidates a change can affect.
//!
//! The service is the only owner and writer of its postings. It remembers
//! the delta epoch they describe (its cursor), and [`IndexService::refresh`]
//! and [`IndexService::apply`] patch them from the `(entity, attr, old,
//! new)` transitions the log recorded since. It rebuilds an index only when
//! the log window is gone (or the database was swapped for another line),
//! on a schema edit, and for a grouping-ranged attribute, whose expanded
//! postings a raw transition cannot patch. Each patch and rebuild counts
//! once in the service's scope (`query.index.*`, read as [`IndexStats`]).
//!
//! A query prunes through the postings only while they describe the
//! database: at any other epoch [`IndexService::evaluate`] plans no pool
//! and runs its program over the whole parent extent, so its answer never
//! depends on whether a refresh is pending.
//!
//! It owns the [`EvalPool`] that runs every compiled program over its
//! candidates; the pool's width is the service's only thread count.
//!
//! The service also hosts the *access-path planner*: for each atom it
//! chooses between an index probe (the posting lists of every step of the
//! atom's map, walked back from its anchors), a grouping-range scan
//! (reading the sets of a §2 grouping defined on a one-step atom's
//! attribute), and a sequential scan, and counts each decision once, in
//! the [`isis_obs::Registry`] scope the service was built in
//! (`query.service.*`; its program cache counts `query.program.cache_*`
//! and its index maintenance `query.index.*` into the same scope). A
//! session builds every service in the one scope it keeps, so the counts
//! survive each rebuild; [`IndexService::new`] counts privately.
//! [`QueryStats`] is the read-side snapshot of the planner's counts, which
//! the REPL `stats` and `health` commands print from the session's scope.
//! [`IndexService::evaluate`] also runs under a `query.service.evaluate`
//! span, so `trace dump` sees the query path (DESIGN.md §5c).
//!
//! **Snapshot consistency under MVCC (DESIGN.md §6).** A service indexes
//! exactly one database *line*: its delta cursor is an epoch on the
//! database it was built from, and epochs are line-local. Under a
//! `SharedDatabase` every session's pinned snapshot is its own line, so a
//! service built over a pinned snapshot keeps answering from that snapshot
//! no matter what other sessions commit to the shared head — queries are
//! repeatable for as long as the pin is held. When a session moves lines
//! (a pull, or a commit that was rebased onto concurrent commits), the
//! old cursor is meaningless on the new line; `Session` handles this by
//! discarding the service and rebuilding it against the fresh pin, exactly
//! as it does for a database swap via load/undo.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use isis_obs::{Counter, Registry};

use isis_core::{
    Atom, AttrId, AttrValue, Change, ChangeSet, ClassId, CompareOp, Database, EntityId, GroupingId,
    NormalForm, OrderedSet, Predicate, Result, Rhs, SchemaEdit, ValueClass,
};

use crate::cache::{CachedPlan, ProgramCache, DEFAULT_PROGRAM_CACHE_CAPACITY};
use crate::error::QueryError;
use crate::index::{walk_back, AttrIndex};
use crate::parallel::EvalPool;
use crate::program::PredicateProgram;

/// How index maintenance kept a service's postings current, counted in
/// its registry scope and read by [`IndexService::index_stats`]: a
/// snapshot of `query.index.{patches,rebuilds}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Individual posting-list patches applied from deltas.
    pub incremental_updates: usize,
    /// Full single-index rebuilds (schema edits, grouping expansion,
    /// evicted log windows).
    pub rebuilds: usize,
}

/// The access-path decisions counted in a service's registry scope, read
/// by [`IndexService::query_stats`]: a snapshot of `query.service.*`.
///
/// Maintenance-side counters (posting patches, rebuilds) are
/// [`IndexStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Predicates evaluated through [`IndexService::evaluate`].
    pub queries: u64,
    /// Atoms answered from a maintained index posting list.
    pub index_probes: u64,
    /// Atoms answered by reading a grouping's sets instead of an index.
    pub grouping_scans: u64,
    /// Predicates that fell back to scanning the whole parent extent.
    pub seq_scans: u64,
    /// Atoms of indexable shape that found no maintained index (planner
    /// misses; a persistent count here suggests an index worth adding).
    pub index_misses: u64,
}

/// The physical access path the planner picks for one atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Walk the maintained indexes of every step of the atom's map back
    /// from its anchors; carries the map's first step, whose postings
    /// yield the candidates (a one-step map is a single probe).
    IndexProbe(AttrId),
    /// Read the sets of this grouping (defined on the atom's attribute).
    GroupingRange(GroupingId),
    /// No physical structure applies; evaluate against the parent extent.
    SeqScan,
}

/// One maintained set of attribute indexes shared by every query-path
/// consumer. See the module docs for the ownership model; DESIGN.md
/// documents the staleness contract.
#[derive(Debug, Default)]
pub struct IndexService {
    indexes: HashMap<AttrId, AttrIndex>,
    /// Owner class of each indexed attribute (membership changes there
    /// add/remove whole owner rows).
    owners: HashMap<AttrId, ClassId>,
    /// For a grouping-ranged indexed attribute, the attribute the grouping
    /// is defined on: transitions of that attribute change the expansion of
    /// every stored index value, forcing a rebuild.
    grouping_bases: HashMap<AttrId, AttrId>,
    /// The delta epoch the postings describe.
    cursor: u64,
    /// Maintenance and planner counters, resolved once from the service's
    /// scope so a bump is one relaxed atomic add.
    patches: Arc<Counter>,
    rebuilds: Arc<Counter>,
    queries: Arc<Counter>,
    index_probes: Arc<Counter>,
    grouping_scans: Arc<Counter>,
    seq_scans: Arc<Counter>,
    index_misses: Arc<Counter>,
    rows_scanned: Arc<Counter>,
    rows_returned: Arc<Counter>,
    /// Lazily-spawned persistent worker pool, reused across queries by
    /// [`IndexService::evaluate`] and across refresh rounds by
    /// [`crate::DerivedMaintainer::settle_with`]; width 1 (the default)
    /// evaluates serially. Sized from `SessionBuilder::eval_threads`.
    eval_pool: EvalPool,
    /// Compiled programs keyed by (parent, source, predicate fingerprint),
    /// revalidated against the delta epoch on every lookup — repeat
    /// queries skip validation/reordering/hoisting entirely. Dies with the
    /// service, which dies on every line switch, so entries can never leak
    /// across database lines through this path; its counts live on in the
    /// service's scope.
    programs: ProgramCache,
    /// Per-class extent position maps (entity → storage-order index),
    /// revalidated against the delta epoch. They let a pruned pool much
    /// smaller than its extent be put back into extent order in
    /// O(|pool| log |pool|) instead of the O(|extent|) scan-and-filter the
    /// 1e6-entity scaling harness exposed as the dominant per-query cost.
    extent_order: RefCell<HashMap<ClassId, ExtentOrder>>,
}

/// One cached extent position map (see [`IndexService::ordered_candidates`]).
#[derive(Debug, Default)]
struct ExtentOrder {
    epoch: u64,
    pos: HashMap<EntityId, u32>,
}

/// How much smaller than its extent a pruned pool must be before the
/// position-map path beats the straight extent scan. Below this ratio the
/// scan's cache-friendly linear pass wins.
const ORDER_MAP_FACTOR: usize = 8;

/// Largest candidate list worth pinning in a [`CachedPlan`]. Bigger lists
/// are recomputed per query: per-candidate evaluation dominates at that
/// size anyway, and pinning them would let a handful of broad predicates
/// hold megabytes in the program cache.
pub(crate) const MAX_PLAN_CANDIDATES: usize = 4096;

/// What one evaluation through [`IndexService::evaluate`] decided and
/// cost — the raw capture EXPLAIN and the slow-query log are built from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EvalCapture {
    /// The cached access plan was still valid and reused as-is.
    pub(crate) plan_reused: bool,
    /// The (re)computed plan qualified for pinning in the cache.
    pub(crate) pinned: bool,
    /// Pruned pool size (`None` = sequential scan: no prunable atom, or a
    /// service behind its database).
    pub(crate) pool_len: Option<usize>,
    /// Extent-ordered candidates the program evaluated: 0 when the walk
    /// was the answer.
    pub(crate) scanned: u64,
    pub(crate) returned: u64,
    pub(crate) plan_ns: u64,
    pub(crate) eval_ns: u64,
    /// How the answer was produced: `"walk"` when the exact index walk
    /// was the answer and the program ran over no row, `"batch"` when the
    /// program streamed attribute columns in
    /// [`crate::program::BATCH_ROWS`]-candidate runs, `"scalar"` when it
    /// interpreted every candidate.
    pub(crate) eval_mode: &'static str,
}

impl IndexService {
    /// An empty service synchronised to the database's current delta
    /// epoch, counting into a private scope.
    pub fn new(db: &Database) -> IndexService {
        IndexService::in_scope(db, &Registry::new())
    }

    /// [`IndexService::new`], but the planner, the program cache and index
    /// maintenance count into `scope`: the registry a session keeps across
    /// the services its refreshes build.
    pub fn in_scope(db: &Database, scope: &Registry) -> IndexService {
        IndexService {
            cursor: db.delta_epoch(),
            patches: scope.counter("query.index.patches"),
            rebuilds: scope.counter("query.index.rebuilds"),
            queries: scope.counter("query.service.queries"),
            index_probes: scope.counter("query.service.index_probes"),
            grouping_scans: scope.counter("query.service.grouping_scans"),
            seq_scans: scope.counter("query.service.seq_scans"),
            index_misses: scope.counter("query.service.index_misses"),
            rows_scanned: scope.counter("query.service.rows_scanned"),
            rows_returned: scope.counter("query.service.rows_returned"),
            programs: ProgramCache::in_scope(DEFAULT_PROGRAM_CACHE_CAPACITY, scope),
            ..IndexService::default()
        }
    }

    /// Builds and registers an index for `attr` unless one already exists.
    /// Returns `true` if an index was built.
    pub fn ensure_index(&mut self, db: &Database, attr: AttrId) -> Result<bool> {
        if self.indexes.contains_key(&attr) {
            return Ok(false);
        }
        let rec = db.attr(attr)?;
        self.owners.insert(attr, rec.owner);
        if let ValueClass::Grouping(g) = rec.value_class {
            self.grouping_bases.insert(attr, db.grouping(g)?.on_attr);
        }
        self.indexes.insert(attr, AttrIndex::build(db, attr)?);
        Ok(true)
    }

    /// Access a registered index.
    pub fn index(&self, attr: AttrId) -> Option<&AttrIndex> {
        self.indexes.get(&attr)
    }

    /// The attributes currently indexed.
    pub fn indexed_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.indexes.keys().copied()
    }

    /// The delta epoch the indexes are synchronised to.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The size of the spawned persistent pool, or `None` while no
    /// parallel query has needed one yet.
    pub fn eval_pool_threads(&self) -> Option<usize> {
        self.eval_pool.spawned_threads()
    }

    /// The service's persistent worker pool, shared by queries and
    /// settles. Resize it with [`EvalPool::set_threads`]; the threads
    /// themselves spawn lazily, on the first candidate list large enough
    /// to split.
    pub fn eval_pool(&self) -> &EvalPool {
        &self.eval_pool
    }

    /// The service's compiled-program cache (see [`ProgramCache`] for the
    /// lifetime/invalidation contract).
    pub fn program_cache(&self) -> &ProgramCache {
        &self.programs
    }

    /// Filters `pool` down to members of `parent` **in extent (storage)
    /// order** — exactly the order `Database::evaluate_derived_members`
    /// produces. With no pool the whole extent is returned. A pool much
    /// smaller than its extent is ordered through a cached position map
    /// (rebuilt whenever the delta epoch has moved) rather than by
    /// scanning the extent, so a repeat navigation query over a 1e6-entity
    /// class pays for its handful of candidates, not for the extent.
    pub fn ordered_candidates(
        &self,
        db: &Database,
        parent: ClassId,
        pool: Option<&OrderedSet>,
    ) -> Result<Vec<EntityId>> {
        let members = db.members(parent)?;
        let Some(pool) = pool else {
            return Ok(members.iter().collect());
        };
        if pool.len().saturating_mul(ORDER_MAP_FACTOR) >= members.len() {
            return Ok(members.iter().filter(|e| pool.contains(*e)).collect());
        }
        let mut cache = self.extent_order.borrow_mut();
        let entry = cache.entry(parent).or_default();
        let epoch = db.delta_epoch();
        if entry.epoch != epoch || entry.pos.len() != members.len() {
            entry.pos = members.iter().zip(0u32..).collect();
            entry.epoch = epoch;
            isis_obs::global().count("query.service.order_rebuilds", 1);
        }
        let mut picked: Vec<(u32, EntityId)> = pool
            .iter()
            .filter_map(|e| entry.pos.get(&e).map(|&i| (i, e)))
            .collect();
        picked.sort_unstable_by_key(|&(i, _)| i);
        Ok(picked.into_iter().map(|(_, e)| e).collect())
    }

    /// Produces (pool size, extent-ordered candidate list, plan reused) for
    /// `pred` over `parent`, reusing the [`CachedPlan`] in `plan` when it
    /// was pinned at `db`'s epoch, so a repeat navigation query re-pays
    /// neither the posting-list intersections nor the ordering. It plans
    /// only while the postings describe `db`: behind its database the
    /// service plans no pool, pins no plan and reuses none, and hands back
    /// the borrowed parent extent, as it does for an unprunable predicate.
    /// An oversized pool is never pinned, but recomputed and returned
    /// owned.
    pub(crate) fn plan_candidates<'a>(
        &self,
        db: &'a Database,
        parent: ClassId,
        pred: &Predicate,
        plan: &'a mut Option<CachedPlan>,
    ) -> Result<(Option<usize>, Cow<'a, [EntityId]>, bool)> {
        let epoch = db.delta_epoch();
        // Postings behind the database may miss a member that now
        // qualifies: there only the whole extent is a safe candidate list.
        let in_sync = self.cursor == epoch;
        let reused = in_sync && matches!(plan, Some(p) if p.epoch == epoch);
        if !reused {
            let pool = if in_sync {
                self.candidate_pool(db, pred)?
            } else {
                None
            };
            let Some(pool) = pool else {
                // A scan of the borrowed extent has no plan worth pinning.
                *plan = None;
                return Ok((None, Cow::Borrowed(db.members(parent)?.as_slice()), false));
            };
            let candidates = self.ordered_candidates(db, parent, Some(&pool))?;
            if candidates.len() > MAX_PLAN_CANDIDATES {
                // An oversized pool is an explicit pin rejection — a cost
                // cliff worth counting (the plan is recomputed per query).
                isis_obs::global().count("query.service.plan_pin_rejections", 1);
                *plan = None;
                return Ok((Some(pool.len()), Cow::Owned(candidates), false));
            }
            *plan = Some(CachedPlan {
                epoch,
                pool_len: Some(pool.len()),
                candidates,
            });
        }
        let p = plan.as_ref().expect("plan was just installed or validated");
        Ok((p.pool_len, Cow::Borrowed(p.candidates.as_slice()), reused))
    }

    /// Brings every index up to date with `db` by consuming the delta log
    /// from the service's cursor. Falls back to full rebuilds when the
    /// window is gone (or the cursor is from another database line).
    pub fn refresh(&mut self, db: &Database) -> Result<()> {
        let _span = isis_obs::global().span("query.index.refresh");
        match db.changes_since(self.cursor) {
            Some(changes) => self.patch(db, &changes),
            None => {
                self.rebuild_all(db)?;
                self.cursor = db.delta_epoch();
                Ok(())
            }
        }
    }

    /// Applies one explicit [`ChangeSet`] window and moves the cursor to
    /// `db`'s delta epoch. The set must describe the transition from the
    /// indexes' current state to `db`'s, as when a [`crate::DerivedState`]
    /// delta round drains `db.changes_since(cursor)` once and feeds every
    /// consumer the same window.
    pub fn apply(&mut self, db: &Database, changes: &ChangeSet) -> Result<()> {
        let _span = isis_obs::global().span("query.index.apply");
        self.patch(db, changes)
    }

    /// The body of [`IndexService::refresh`] and [`IndexService::apply`]:
    /// patches the postings through `changes` (rebuilding wholesale on a
    /// schema edit) and moves the cursor to `db`'s epoch.
    fn patch(&mut self, db: &Database, changes: &ChangeSet) -> Result<()> {
        if changes.has_schema_changes() {
            // Schema edits can delete indexed attributes, retarget value
            // classes, or reshape groupings; rebuild wholesale.
            for change in changes.iter() {
                if let Change::Schema(
                    SchemaEdit::AttrDeleted(a) | SchemaEdit::ValueClassChanged(a),
                ) = change
                {
                    self.drop_index(*a);
                }
            }
            self.rebuild_all(db)?;
        } else {
            for change in changes.iter() {
                match change {
                    Change::AttrAssigned {
                        entity,
                        attr,
                        old,
                        new,
                    } => self.apply_transition(db, *entity, *attr, old, new)?,
                    Change::MembershipAdded { entity, class } => {
                        self.apply_owner_joined(db, *entity, *class)?;
                    }
                    Change::MembershipRemoved { entity, class } => {
                        self.apply_owner_left(*entity, *class);
                    }
                    Change::EntityInserted { .. }
                    | Change::EntityDeleted { .. }
                    | Change::EntityRenamed { .. }
                    | Change::Schema(_) => {}
                }
            }
        }
        self.cursor = db.delta_epoch();
        Ok(())
    }

    /// Rebuilds every grouping-ranged index whose grouping is keyed by
    /// `attr`: a transition of the base attribute re-partitions the
    /// grouping, changing the expansion of every stored index value.
    fn rebuild_dependents(&mut self, db: &Database, attr: AttrId) -> Result<()> {
        let dependents: Vec<AttrId> = self
            .grouping_bases
            .iter()
            .filter(|(_, &base)| base == attr)
            .map(|(&a, _)| a)
            .collect();
        for a in dependents {
            self.indexes.insert(a, AttrIndex::build(db, a)?);
            self.rebuilds.inc();
        }
        Ok(())
    }

    fn apply_transition(
        &mut self,
        db: &Database,
        entity: EntityId,
        attr: AttrId,
        old: &AttrValue,
        new: &AttrValue,
    ) -> Result<()> {
        self.rebuild_dependents(db, attr)?;
        if let Some(idx) = self.indexes.get_mut(&attr) {
            if self.grouping_bases.contains_key(&attr) {
                // Grouping-ranged: the stored transition is in index
                // entities, but postings hold expanded members.
                *idx = AttrIndex::build(db, attr)?;
                self.rebuilds.inc();
            } else {
                idx.update(entity, &old.as_set(), &new.as_set());
                self.patches.inc();
            }
        }
        Ok(())
    }

    /// The indexed attributes owned by `class`.
    fn owned_by(&self, class: ClassId) -> Vec<AttrId> {
        self.owners
            .iter()
            .filter(|(_, &o)| o == class)
            .map(|(&a, _)| a)
            .collect()
    }

    fn apply_owner_joined(
        &mut self,
        db: &Database,
        entity: EntityId,
        class: ClassId,
    ) -> Result<()> {
        if db.entity(entity).is_err() {
            // The entity was deleted later in the same window; the deletion's
            // own MembershipRemoved/AttrAssigned entries settle the index.
            return Ok(());
        }
        for attr in self.owned_by(class) {
            // (Re)credit any values the entity already carries — it may
            // have kept them across an earlier membership removal.
            let new = db.attr_value_set(entity, attr)?;
            if let Some(idx) = self.indexes.get_mut(&attr) {
                let old = idx.owned_values(entity);
                idx.update(entity, &old, &new);
                self.patches.inc();
            }
        }
        Ok(())
    }

    fn apply_owner_left(&mut self, entity: EntityId, class: ClassId) {
        for attr in self.owned_by(class) {
            if let Some(idx) = self.indexes.get_mut(&attr) {
                let old = idx.owned_values(entity);
                if !old.is_empty() {
                    idx.update(entity, &old, &OrderedSet::new());
                    self.patches.inc();
                }
            }
        }
    }

    /// Forgets the index of `attr` and what the service knew about it.
    fn drop_index(&mut self, attr: AttrId) {
        self.indexes.remove(&attr);
        self.owners.remove(&attr);
        self.grouping_bases.remove(&attr);
    }

    /// Rebuilds every registered index from `db`'s current state, dropping
    /// those whose attribute no longer exists. Leaves the cursor alone.
    fn rebuild_all(&mut self, db: &Database) -> Result<()> {
        let attrs: Vec<AttrId> = self.indexes.keys().copied().collect();
        for attr in attrs {
            if db.attr(attr).is_err() {
                self.drop_index(attr);
                continue;
            }
            self.indexes.insert(attr, AttrIndex::build(db, attr)?);
            self.rebuilds.inc();
        }
        Ok(())
    }

    /// Maintenance counters (posting patches, rebuilds) of the service's
    /// scope.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            incremental_updates: self.patches.get() as usize,
            rebuilds: self.rebuilds.get() as usize,
        }
    }

    /// Planner counters (probes, grouping scans, seq scans, misses) of the
    /// service's scope: this service alone for [`IndexService::new`], every
    /// service of the session for one its refresh built.
    pub fn query_stats(&self) -> QueryStats {
        QueryStats {
            queries: self.queries.get(),
            index_probes: self.index_probes.get(),
            grouping_scans: self.grouping_scans.get(),
            seq_scans: self.seq_scans.get(),
            index_misses: self.index_misses.get(),
        }
    }

    /// `true` when the atom has indexable shape — a non-negated `~` / `⊇` /
    /// `=` from a map of one or more steps against a plain constant set.
    pub(crate) fn atom_shape(atom: &Atom) -> bool {
        !atom.op.negated
            && !atom.lhs.is_identity()
            && matches!(
                atom.op.op,
                CompareOp::Match | CompareOp::Superset | CompareOp::SetEq
            )
            && matches!(&atom.rhs, Rhs::Constant { map, .. } if map.is_identity())
    }

    /// `true` if the atom can be answered from registered indexes: every
    /// step of its map has one.
    pub fn indexable(&self, atom: &Atom) -> bool {
        Self::atom_shape(atom)
            && atom
                .lhs
                .steps()
                .iter()
                .all(|&a| self.indexes.contains_key(&a))
    }

    /// Chooses the access path for one atom: maintained indexes on every
    /// step of its map win; for a one-step map, a grouping defined on the
    /// attribute (covering the attribute's whole owner extent) is the
    /// fallback; otherwise sequential scan. Counts a planner miss when the
    /// shape was indexable but some step has no index.
    pub fn plan_atom(&self, db: &Database, atom: &Atom) -> AccessPath {
        self.plan_atom_inner(db, atom, true)
    }

    /// [`IndexService::plan_atom`] without the planner-miss counting —
    /// EXPLAIN and the slow-query log describe atoms through this so a
    /// description never perturbs the counters the record reports on.
    pub(crate) fn peek_atom_path(&self, db: &Database, atom: &Atom) -> AccessPath {
        self.plan_atom_inner(db, atom, false)
    }

    fn plan_atom_inner(&self, db: &Database, atom: &Atom, count: bool) -> AccessPath {
        if !Self::atom_shape(atom) {
            return AccessPath::SeqScan;
        }
        let steps = atom.lhs.steps();
        if self.indexable(atom) {
            return AccessPath::IndexProbe(steps[0]);
        }
        if count {
            self.index_misses.inc();
        }
        if let [attr] = *steps {
            if let Ok(rec) = db.attr(attr) {
                // Only a grouping of the attribute's own owner class covers
                // every candidate that can carry the attribute.
                if let Some((g, _)) = db
                    .groupings()
                    .find(|(_, gr)| gr.on_attr == attr && gr.parent == rec.owner)
                {
                    return AccessPath::GroupingRange(g);
                }
            }
        }
        AccessPath::SeqScan
    }

    /// The candidate set an atom admits under its chosen access path (a
    /// superset of the exact answer for `=`; exact for `~` and `⊇`).
    /// `None` means no pruning is possible for this atom. `count` bumps
    /// the planner counters for the path taken.
    fn atom_candidates(
        &self,
        db: &Database,
        atom: &Atom,
        count: bool,
    ) -> Result<Option<OrderedSet>> {
        let anchors = match &atom.rhs {
            Rhs::Constant { anchors, .. } => anchors,
            _ => return Ok(None),
        };
        let (out, path_count) = match self.plan_atom_inner(db, atom, count) {
            AccessPath::IndexProbe(_) => {
                // Each anchor's walk is the set of owners whose map image
                // holds it; the planner saw an index on every step.
                let walks: Option<Vec<OrderedSet>> = anchors
                    .iter()
                    .map(|a| walk_back(self, atom.lhs.steps(), [a].into_iter().collect()))
                    .collect();
                (
                    walks.and_then(|w| Self::combine(atom.op.op, w)),
                    &self.index_probes,
                )
            }
            AccessPath::GroupingRange(g) => {
                let lists = db.grouping_sets_named(g, anchors)?;
                (Self::combine(atom.op.op, lists), &self.grouping_scans)
            }
            AccessPath::SeqScan => return Ok(None),
        };
        if out.is_some() && count {
            path_count.inc();
        }
        Ok(out)
    }

    /// `true` when the planner `pooled` `pred`'s candidates by an index
    /// walk that is the answer itself, so the program need not run over
    /// them (DESIGN.md §4d): `pred` is one clause of one non-negated `~` or
    /// `⊇` atom against an identity-map constant, every step of its map
    /// plans as an [`AccessPath::IndexProbe`], and the service's cursor is
    /// `db`'s epoch. Postings hold the expanded values map evaluation
    /// reads, `~` unions the per-anchor walks and `⊇` intersects them, and
    /// such an atom cannot fail for a member of the parent, so the walk
    /// restricted to the parent extent is exact. The cursor guard keeps
    /// the program where the postings may be stale-wide: in a full refresh
    /// after an install (a query behind its database pools nothing).
    fn walk_is_answer(&self, db: &Database, pred: &Predicate, pooled: bool) -> bool {
        if !pooled {
            return false;
        }
        let [clause] = pred.clauses.as_slice() else {
            return false;
        };
        let [atom] = clause.atoms.as_slice() else {
            return false;
        };
        matches!(atom.op.op, CompareOp::Match | CompareOp::Superset)
            && self.indexable(atom)
            && self.cursor == db.delta_epoch()
    }

    /// Combines per-anchor owner sets, one per anchor in anchor order,
    /// under the atom's operator: union for `~` (some anchor present),
    /// rarest-first intersection for `⊇`/`=` (every anchor present).
    fn combine(op: CompareOp, mut lists: Vec<OrderedSet>) -> Option<OrderedSet> {
        match op {
            CompareOp::Match => {
                let mut lists = lists.into_iter();
                let mut out = lists.next().unwrap_or_default();
                for s in lists {
                    out.extend_from(&s);
                }
                Some(out)
            }
            CompareOp::Superset | CompareOp::SetEq => {
                // No anchors: everything qualifies; no pruning to gain.
                lists.sort_by_key(OrderedSet::len);
                let mut lists = lists.into_iter();
                let mut out = lists.next()?;
                for s in lists {
                    out = out.iter().filter(|e| s.contains(*e)).collect();
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Estimated truth probability of a shape-indexable atom, derived from
    /// grouping-set sizes when no index exists. Feeds the cost model's
    /// selectivity model for attributes that are grouped but not indexed.
    pub fn grouping_selectivity(&self, db: &Database, atom: &Atom) -> Option<f64> {
        if !Self::atom_shape(atom) {
            return None;
        }
        // Estimation is advisory: describe the path without touching the
        // planner-miss counters, so cost estimation (and EXPLAIN, which
        // re-estimates every atom) stays stats-neutral. Misses are counted
        // where the plan is *acted on*, in candidate pruning.
        let g = match self.peek_atom_path(db, atom) {
            AccessPath::GroupingRange(g) => g,
            _ => return None,
        };
        let anchors = match &atom.rhs {
            Rhs::Constant { anchors, .. } => anchors,
            _ => return None,
        };
        let parent = db.grouping(g).ok()?.parent;
        let total = db.members(parent).ok()?.len();
        if total == 0 {
            return None;
        }
        let sizes = db.grouping_sizes(g).ok()?;
        let frac = |a: EntityId| {
            sizes
                .iter()
                .find(|&&(index, _)| index == a)
                .map_or(0.0, |&(_, n)| n as f64)
                / total as f64
        };
        match atom.op.op {
            CompareOp::Match => Some(anchors.iter().map(frac).sum::<f64>().min(1.0)),
            CompareOp::Superset | CompareOp::SetEq => Some(anchors.iter().map(frac).product()),
            _ => None,
        }
    }

    /// The pruned candidate pool for a whole predicate, or `None` when no
    /// clause structure admits pruning. A CNF clause of exactly one
    /// prunable atom intersects the pool; a DNF where *every* clause has a
    /// prunable atom unions per-clause pools.
    ///
    /// Pruning never hides an error. Ordering atoms are the one fallible
    /// comparison, so only atoms every candidate meets before any ordering
    /// atom may prune: in a DNF, the atoms ahead of their clause's first
    /// ordering atom; in a CNF, the one-atom clauses ahead of the first
    /// clause that holds one. A candidate left out then short-circuits to
    /// `false` before reaching an ordering atom, over the whole extent too,
    /// so the pruned and the unpruned evaluation fail on the same first
    /// candidate with the same error.
    pub fn candidate_pool(&self, db: &Database, pred: &Predicate) -> Result<Option<OrderedSet>> {
        self.pool_for(db, pred, true)
    }

    /// [`IndexService::candidate_pool`], bumping the planner counters iff
    /// `count`.
    fn pool_for(&self, db: &Database, pred: &Predicate, count: bool) -> Result<Option<OrderedSet>> {
        let mut pool: Option<OrderedSet> = None;
        match pred.form {
            NormalForm::Cnf => {
                for clause in &pred.clauses {
                    if clause.atoms.iter().any(|a| a.op.op.is_ordering()) {
                        break;
                    }
                    if clause.atoms.len() == 1 {
                        if let Some(c) = self.atom_candidates(db, &clause.atoms[0], count)? {
                            pool = Some(match pool {
                                None => c,
                                Some(p) => p.iter().filter(|e| c.contains(*e)).collect(),
                            });
                        }
                    }
                }
            }
            NormalForm::Dnf => {
                let mut union = OrderedSet::new();
                let mut all_prunable = !pred.clauses.is_empty();
                'clauses: for clause in &pred.clauses {
                    let ahead = clause.atoms.iter().take_while(|a| !a.op.op.is_ordering());
                    for atom in ahead {
                        if let Some(c) = self.atom_candidates(db, atom, count)? {
                            union.extend_from(&c);
                            continue 'clauses;
                        }
                    }
                    all_prunable = false;
                    break;
                }
                if all_prunable {
                    pool = Some(union);
                }
            }
        }
        Ok(pool)
    }

    /// Evaluates a whole DNF/CNF predicate over `parent`, pruning the
    /// candidate pool through the planned access paths. Semantically
    /// identical to [`Database::evaluate_derived_members`] at any epoch:
    /// while the postings are behind `db` (a refresh is pending), the
    /// program runs over the whole parent extent, counted as one
    /// sequential scan.
    ///
    /// When observability is enabled and the evaluation runs at least the
    /// slow-query threshold ([`isis_obs::Obs::slow_threshold_ns`]), its
    /// explain record is journaled as a `query.service.slow` event. With
    /// observability off the extra cost is one atomic load — no clock is
    /// read and nothing is captured, and the result is byte-identical
    /// either way.
    pub fn evaluate(
        &self,
        db: &Database,
        parent: ClassId,
        pred: &Predicate,
    ) -> Result<OrderedSet, QueryError> {
        let obs = isis_obs::global();
        if !obs.enabled() || obs.slow_threshold_ns() == 0 {
            return self.evaluate_captured(db, parent, pred, None);
        }
        let t = Instant::now();
        let mut cap = EvalCapture::default();
        let out = self.evaluate_captured(db, parent, pred, Some(&mut cap))?;
        let total_ns = t.elapsed().as_nanos() as u64;
        if total_ns >= obs.slow_threshold_ns() {
            let record = self.build_explain(db, parent, pred, &cap, total_ns);
            obs.count("query.service.slow_queries", 1);
            obs.event("query.service.slow", || record.to_json());
        }
        Ok(out)
    }

    /// The evaluation body shared by [`IndexService::evaluate`] and
    /// [`IndexService::explain`]. With `cap` set, plan/eval phases are
    /// timed and the planner's decisions written into the capture; with
    /// `cap` unset no clock is read beyond the usual span.
    pub(crate) fn evaluate_captured(
        &self,
        db: &Database,
        parent: ClassId,
        pred: &Predicate,
        cap: Option<&mut EvalCapture>,
    ) -> Result<OrderedSet, QueryError> {
        let obs = isis_obs::global();
        let mut span = obs.span("query.service.evaluate");
        // The cache validates/reorders/hoists once per predicate shape
        // (revalidating against the delta epoch), and carries the access
        // plan alongside; a repeat query pays only the residual filter
        // below, running the compiled program over the cached candidate
        // list instead of re-planning and re-interpreting per candidate.
        self.programs
            .with_plan(db, parent, None, pred, Some(self), |prog, plan| {
                self.queries.inc();
                let timed = cap.is_some();
                let batch = prog.batch_compatible();
                let t_plan = if timed { Some(Instant::now()) } else { None };
                let (pool_len, candidates, plan_reused) =
                    self.plan_candidates(db, parent, pred, plan)?;
                let plan_ns = t_plan.map_or(0, |t| t.elapsed().as_nanos() as u64);
                if pool_len.is_none() {
                    self.seq_scans.inc();
                }
                span.field("pool", || pool_len.map_or(isis_obs::Json::Null, Into::into));
                let walk = self.walk_is_answer(db, pred, pool_len.is_some());
                // The rows the program evaluated: none when the walk is
                // the answer.
                let scanned = if walk { 0 } else { candidates.len() as u64 };
                // Mirrors the install condition in plan_candidates (the
                // plan slot itself is borrowed by the candidate list here).
                let pinned = pool_len.is_some() && candidates.len() <= MAX_PLAN_CANDIDATES;
                let t_eval = if timed { Some(Instant::now()) } else { None };
                let out = if walk {
                    OrderedSet::from_distinct(candidates.into_owned())
                } else {
                    self.eval_pool.evaluate(db, prog, &candidates, None)?
                };
                let eval_ns = t_eval.map_or(0, |t| t.elapsed().as_nanos() as u64);
                self.rows_scanned.add(scanned);
                self.rows_returned.add(out.len() as u64);
                span.field("scanned", || scanned.into());
                span.field("returned", || out.len().into());
                if let Some(c) = cap {
                    *c = EvalCapture {
                        plan_reused,
                        pinned,
                        pool_len,
                        scanned,
                        returned: out.len() as u64,
                        plan_ns,
                        eval_ns,
                        eval_mode: match (walk, batch) {
                            (true, _) => "walk",
                            (false, true) => "batch",
                            (false, false) => "scalar",
                        },
                    };
                }
                Ok(out)
            })
    }

    /// Evaluates `prog`, compiled from `pred` over `parent`, through the
    /// planner and the pool, an exact walk included, but records nothing:
    /// no [`QueryStats`], no program-cache entry, no slow-query event. The
    /// derived-class refresh settles through this
    /// ([`crate::DerivedMaintainer::recompute`]). Unlike a query it prunes
    /// behind its database too: the full refresh drains only after its
    /// last install, and an install leaves postings that hold a superset
    /// of the true ones (DESIGN.md §4c), which the program re-checks.
    pub(crate) fn evaluate_program(
        &self,
        db: &Database,
        parent: ClassId,
        pred: &Predicate,
        prog: &PredicateProgram,
    ) -> Result<OrderedSet, QueryError> {
        let Some(pool) = self.pool_for(db, pred, false)? else {
            // An unprunable predicate runs over the borrowed extent.
            return self
                .eval_pool
                .evaluate(db, prog, db.members(parent)?.as_slice(), None);
        };
        let candidates = self.ordered_candidates(db, parent, Some(&pool))?;
        if self.walk_is_answer(db, pred, true) {
            return Ok(OrderedSet::from_distinct(candidates));
        }
        self.eval_pool.evaluate(db, prog, &candidates, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::{Clause, Map};
    use isis_sample::{instrumental_music, quartets_predicate};

    fn match_atom(attr: AttrId, class: ClassId, anchor: EntityId) -> Atom {
        Atom::new(
            Map::single(attr),
            CompareOp::Match,
            Rhs::constant(class, [anchor]),
        )
    }

    /// The service's postings match a fresh build of `attr`'s index.
    fn assert_index_fresh(svc: &IndexService, db: &Database, attr: AttrId) {
        let live = AttrIndex::build(db, attr).unwrap();
        let idx = svc.index(attr).unwrap();
        assert_eq!(idx.distinct_values(), live.distinct_values());
        for v in live.values() {
            let a = idx.owners_of(v).unwrap();
            let b = live.owners_of(v).unwrap();
            assert!(a.set_eq(b), "postings diverge for value {v:?}");
        }
    }

    #[test]
    fn refresh_applies_value_transitions() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        svc.ensure_index(&im.db, im.family).unwrap();
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        svc.refresh(&im.db).unwrap();
        assert_index_fresh(&svc, &im.db, im.plays);
        assert_index_fresh(&svc, &im.db, im.family);
        assert!(svc.index_stats().incremental_updates >= 2);
        assert_eq!(svc.index_stats().rebuilds, 0);
    }

    #[test]
    fn refresh_handles_inserts_and_deletes() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let newbie = im.db.insert_entity(im.musicians, "Newbie").unwrap();
        im.db.add_value(newbie, im.plays, im.viola).unwrap();
        let dave = im.db.entity_by_name(im.musicians, "Dave").unwrap();
        im.db.delete_entity(dave).unwrap();
        svc.refresh(&im.db).unwrap();
        assert_index_fresh(&svc, &im.db, im.plays);
    }

    #[test]
    fn schema_change_triggers_rebuild() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        im.db.create_baseclass("venues").unwrap();
        svc.refresh(&im.db).unwrap();
        assert!(svc.index_stats().rebuilds >= 1);
        assert_index_fresh(&svc, &im.db, im.plays);
    }

    #[test]
    fn stale_cursor_falls_back_to_rebuild() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        // Simulate an undo: replace the database with an older clone whose
        // delta log is behind the cursor.
        let old = im.db.clone();
        im.db.add_value(im.edith, im.plays, im.piano).unwrap();
        svc.refresh(&im.db).unwrap();
        let restored = old;
        // cursor is now ahead of restored's epoch → None → rebuild.
        svc.refresh(&restored).unwrap();
        assert_index_fresh(&svc, &restored, im.plays);
    }

    #[test]
    fn grouping_rekeyed_mid_drain_keeps_ranged_index_fresh() {
        use isis_core::Multiplicity;
        let mut im = instrumental_music().unwrap();
        // sections: music_groups → by_family sets; its index postings hold
        // the *expanded* members of each named family set.
        let sections = im
            .db
            .create_attribute(
                im.music_groups,
                "sections",
                im.by_family,
                Multiplicity::Multi,
            )
            .unwrap();
        im.db
            .assign_multi(im.labelle, sections, [im.stringed, im.keyboard])
            .unwrap();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        im.db.assign_multi(fling, sections, [im.brass]).unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, sections).unwrap();
        svc.ensure_index(&im.db, im.family).unwrap();
        // One window interleaving a sections edit, the grouping re-key
        // (flute leaves brass for woodwind, re-partitioning by_family and
        // thus the expansion of every sections value), and another edit.
        im.db
            .assign_multi(fling, sections, [im.percussion])
            .unwrap();
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        im.db
            .assign_multi(im.labelle, sections, [im.brass, im.keyboard])
            .unwrap();
        svc.refresh(&im.db).unwrap();
        assert_index_fresh(&svc, &im.db, sections);
        assert_index_fresh(&svc, &im.db, im.family);
        assert!(
            svc.index_stats().rebuilds >= 1,
            "base-attr move must rebuild the dependent ranged index"
        );
        // The stale-range smoking gun: flute must no longer be credited to
        // owners whose sections still name brass.
        let idx = svc.index(sections).unwrap();
        if let Some(owners) = idx.owners_of(im.flute) {
            assert!(!owners.is_empty())
        }
        let live = AttrIndex::build(&im.db, sections).unwrap();
        assert_eq!(
            idx.owners_of(im.flute).map(|s| s.len()),
            live.owners_of(im.flute).map(|s| s.len())
        );
    }

    #[test]
    fn deleted_attr_index_is_dropped() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.popular).unwrap();
        im.db.delete_attr(im.popular).unwrap();
        svc.refresh(&im.db).unwrap();
        assert!(svc.index(im.popular).is_none());
    }

    /// One edit behind its database, the service's postings miss Gil, the
    /// new pianist: it plans no pool, scans the extent and answers as the
    /// oracle, and EXPLAIN says why on every row. A refresh brings the
    /// probe back.
    #[test]
    fn a_service_behind_its_database_answers_as_the_oracle() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let pred = Predicate::dnf(vec![Clause::new(vec![match_atom(
            im.plays,
            im.instruments,
            im.piano,
        )])]);
        let want = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert_eq!(want.len(), 4);
        assert!(want.contains(gil));
        let got = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        let (got, record) = svc.explain(&im.db, im.musicians, &pred).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(record.pool_len, None);
        assert!(!record.atoms.is_empty());
        for row in &record.atoms {
            assert_eq!(row.path, "seq scan");
            assert!(row.why.contains("behind its database"), "{}", row.why);
        }
        let stats = svc.query_stats();
        assert_eq!(
            (stats.queries, stats.seq_scans, stats.index_probes),
            (2, 2, 0)
        );
        svc.refresh(&im.db).unwrap();
        let got = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(svc.query_stats().index_probes, stats.index_probes + 1);
    }

    #[test]
    fn planner_probes_available_index() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let atom = match_atom(im.plays, im.instruments, im.piano);
        assert_eq!(
            svc.plan_atom(&im.db, &atom),
            AccessPath::IndexProbe(im.plays)
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let got = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let want = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert!(got.set_eq(&want));
        let stats = svc.query_stats();
        assert_eq!(stats.queries, 1);
        assert!(stats.index_probes >= 1, "index available → must probe");
        assert_eq!(stats.seq_scans, 0, "pruned query must not seq-scan");
        let _ = quartets_predicate(&mut im);
    }

    #[test]
    fn planner_falls_back_to_grouping_range_then_scan() {
        let mut im = instrumental_music().unwrap();
        let svc = IndexService::new(&im.db);
        // No index on family, but by_family is a grouping on it.
        let atom = match_atom(im.family, im.families, im.stringed);
        assert_eq!(
            svc.plan_atom(&im.db, &atom),
            AccessPath::GroupingRange(im.by_family)
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let got = svc.evaluate(&im.db, im.instruments, &pred).unwrap();
        let want = im
            .db
            .evaluate_derived_members(im.instruments, &pred)
            .unwrap();
        assert!(got.set_eq(&want));
        let stats = svc.query_stats();
        assert!(stats.grouping_scans >= 1);
        assert!(stats.index_misses >= 1, "shape was indexable, no index");
        assert_eq!(stats.index_probes, 0);

        // No index and no grouping on popular → sequential scan.
        let yes = im.db.boolean(true);
        let booleans = im.db.predefined(isis_core::BaseKind::Booleans);
        let atom = match_atom(im.popular, booleans, yes);
        assert_eq!(svc.plan_atom(&im.db, &atom), AccessPath::SeqScan);
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let got = svc.evaluate(&im.db, im.instruments, &pred).unwrap();
        let want = im
            .db
            .evaluate_derived_members(im.instruments, &pred)
            .unwrap();
        assert!(got.set_eq(&want));
        let stats = svc.query_stats();
        assert!(stats.seq_scans >= 1);
        assert_eq!(stats.index_probes, 0);
    }

    #[test]
    fn grouping_range_scan_agrees_on_superset() {
        let mut im = instrumental_music().unwrap();
        let svc = IndexService::new(&im.db);
        // work_status groups musicians on union: probe YES via the grouping.
        let yes = im.db.boolean(true);
        let booleans = im.db.predefined(isis_core::BaseKind::Booleans);
        let atom = Atom::new(
            Map::single(im.union_attr),
            CompareOp::Superset,
            Rhs::constant(booleans, [yes]),
        );
        assert_eq!(
            svc.plan_atom(&im.db, &atom),
            AccessPath::GroupingRange(im.work_status)
        );
        let pred = Predicate::cnf(vec![Clause::new(vec![atom])]);
        let got = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let want = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert!(got.set_eq(&want));
        assert!(!got.is_empty());
    }

    #[test]
    fn shared_drain_keeps_queries_fresh() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        svc.refresh(&im.db).unwrap();
        let atom = match_atom(im.plays, im.instruments, im.piano);
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let got = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        assert!(got.contains(gil));
        let want = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert!(got.set_eq(&want));
        assert_eq!(svc.index_stats().rebuilds, 0, "point update must patch");
    }

    #[test]
    fn pruning_never_hides_an_ordering_error() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.members).unwrap();
        // Brass Attack has no Edith and, unsized, fails `size < {5}`.
        let brass = im
            .db
            .entity_by_name(im.music_groups, "Brass Attack")
            .unwrap();
        assert!(!im
            .db
            .attr_value_set(brass, im.members)
            .unwrap()
            .contains(im.edith));
        im.db.unassign(brass, im.size).unwrap();
        svc.refresh(&im.db).unwrap();
        let five = im.db.int(5);
        let ints = im.db.predefined(isis_core::BaseKind::Integers);
        let barrier = Atom::new(
            Map::single(im.size),
            CompareOp::Lt,
            Rhs::constant(ints, [five]),
        );
        let edith = match_atom(im.members, im.musicians, im.edith);
        let clause = |atoms: &[&Atom]| Clause::new(atoms.iter().map(|a| (*a).clone()).collect());
        // Every candidate meets the barrier first: no pruning, same error.
        for pred in [
            Predicate::dnf(vec![clause(&[&barrier, &edith])]),
            Predicate::cnf(vec![clause(&[&barrier]), clause(&[&edith])]),
        ] {
            let want = im.db.evaluate_derived_members(im.music_groups, &pred);
            assert!(want.is_err(), "{pred}");
            let got = svc.evaluate(&im.db, im.music_groups, &pred);
            assert_eq!(got, want.map_err(QueryError::Core), "{pred}");
        }
        assert_eq!(svc.query_stats().index_probes, 0);
        // Behind the barrier the atom prunes: the groups it leaves out
        // short-circuit before `size < {5}`, here as over the extent.
        let pred = Predicate::dnf(vec![clause(&[&edith, &barrier])]);
        let want = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap();
        let got = svc.evaluate(&im.db, im.music_groups, &pred).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(svc.query_stats().index_probes, 1);
    }

    #[test]
    fn a_walk_behind_an_ordering_barrier_does_not_prune() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.members).unwrap();
        svc.ensure_index(&im.db, im.plays).unwrap();
        let brass = im
            .db
            .entity_by_name(im.music_groups, "Brass Attack")
            .unwrap();
        im.db.unassign(brass, im.size).unwrap();
        svc.refresh(&im.db).unwrap();
        let five = im.db.int(5);
        let ints = im.db.predefined(isis_core::BaseKind::Integers);
        let barrier = Atom::new(
            Map::single(im.size),
            CompareOp::Lt,
            Rhs::constant(ints, [five]),
        );
        let pianists = Atom::new(
            Map::new(vec![im.members, im.plays]),
            CompareOp::Superset,
            Rhs::constant(im.instruments, [im.piano]),
        );
        let clause = |atoms: &[&Atom]| Clause::new(atoms.iter().map(|a| (*a).clone()).collect());
        for pred in [
            Predicate::dnf(vec![clause(&[&barrier, &pianists])]),
            Predicate::cnf(vec![clause(&[&barrier]), clause(&[&pianists])]),
        ] {
            let want = im.db.evaluate_derived_members(im.music_groups, &pred);
            assert!(want.is_err(), "{pred}");
            let got = svc.evaluate(&im.db, im.music_groups, &pred);
            assert_eq!(got, want.map_err(QueryError::Core), "{pred}");
        }
        assert_eq!(svc.query_stats().index_probes, 0);
        // Ahead of the barrier the walk prunes, and answers as the oracle.
        let pred = Predicate::dnf(vec![clause(&[&pianists, &barrier])]);
        let want = im.db.evaluate_derived_members(im.music_groups, &pred);
        let got = svc.evaluate(&im.db, im.music_groups, &pred);
        assert_eq!(got, want.map_err(QueryError::Core));
        assert_eq!(svc.query_stats().index_probes, 1);
    }

    #[test]
    fn a_two_anchor_walk_matches_the_oracle() {
        let im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.members).unwrap();
        svc.ensure_index(&im.db, im.plays).unwrap();
        for op in [CompareOp::Superset, CompareOp::Match, CompareOp::SetEq] {
            let atom = Atom::new(
                Map::new(vec![im.members, im.plays]),
                op,
                Rhs::constant(im.instruments, [im.viola, im.piano]),
            );
            assert_eq!(
                svc.plan_atom(&im.db, &atom),
                AccessPath::IndexProbe(im.members)
            );
            let pred = Predicate::cnf(vec![Clause::new(vec![atom])]);
            let got = svc.evaluate(&im.db, im.music_groups, &pred).unwrap();
            let want = im
                .db
                .evaluate_derived_members(im.music_groups, &pred)
                .unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "{pred}");
            if op == CompareOp::Superset {
                assert!(!got.is_empty(), "LaBelle has a violist and a pianist");
            }
        }
        let stats = svc.query_stats();
        assert_eq!((stats.index_probes, stats.seq_scans), (3, 0));
    }

    /// A `~` with no anchors holds for no one: its walk pools nothing,
    /// and that empty pool is its answer. A `⊇` with no anchors holds for
    /// everyone and pools nothing to prune with, so it scans and runs the
    /// program.
    #[test]
    fn zero_anchor_walks_answer_as_the_oracle() {
        let im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.members).unwrap();
        svc.ensure_index(&im.db, im.plays).unwrap();
        let groups = im.db.members(im.music_groups).unwrap().len();
        for (op, mode, returned) in [
            (CompareOp::Match, "walk", 0),
            (CompareOp::Superset, "scalar", groups),
        ] {
            let atom = Atom::new(
                Map::new(vec![im.members, im.plays]),
                op,
                Rhs::constant(im.instruments, []),
            );
            let pred = Predicate::cnf(vec![Clause::new(vec![atom])]);
            let want = im
                .db
                .evaluate_derived_members(im.music_groups, &pred)
                .unwrap();
            let got = svc.evaluate(&im.db, im.music_groups, &pred).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "{pred}");
            let (_, record) = svc.explain(&im.db, im.music_groups, &pred).unwrap();
            assert_eq!(record.eval_mode, mode, "{pred}");
            assert_eq!(record.returned as usize, returned, "{pred}");
        }
    }

    #[test]
    fn a_map_with_an_unindexed_step_seq_scans_and_counts_a_miss() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let pred = quartets_predicate(&mut im);
        let pianists = &pred.clauses[0].atoms[0];
        assert_eq!(svc.peek_atom_path(&im.db, pianists), AccessPath::SeqScan);
        assert_eq!(svc.query_stats().index_misses, 0, "a peek counts nothing");
        let only = Predicate::cnf(vec![pred.clauses[0].clone()]);
        let got = svc.evaluate(&im.db, im.music_groups, &only).unwrap();
        let want = im
            .db
            .evaluate_derived_members(im.music_groups, &only)
            .unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        let stats = svc.query_stats();
        assert_eq!(
            (stats.index_probes, stats.seq_scans, stats.index_misses),
            (0, 1, 1)
        );
    }

    #[test]
    fn grouping_selectivity_matches_set_sizes() {
        let im = instrumental_music().unwrap();
        let svc = IndexService::new(&im.db);
        let atom = match_atom(im.family, im.families, im.stringed);
        // 5 of 12 instruments are stringed at seed state.
        let sel = svc.grouping_selectivity(&im.db, &atom).unwrap();
        assert!((sel - 5.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn pinned_service_is_repeatable_under_shared_commits() {
        let im = instrumental_music().unwrap();
        let shared = isis_core::SharedDatabase::new(im.db);
        let pinned = shared.pin();
        let mut svc = IndexService::new(&pinned);
        svc.ensure_index(&pinned, im.plays).unwrap();
        let atom = match_atom(im.plays, im.instruments, im.piano);
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let before = svc.evaluate(&pinned, im.musicians, &pred).unwrap();

        // A concurrent session commits a new piano player to the head.
        let mut w = shared.pin();
        let base = w.delta_epoch();
        let zed = w.insert_entity(im.musicians, "Zed").unwrap();
        w.add_value(zed, im.plays, im.piano).unwrap();
        shared.commit(base, &w).unwrap();

        // The pinned line is untouched: refresh is a no-op and the answer
        // is bit-identical — repeatable reads for as long as the pin lives.
        svc.refresh(&pinned).unwrap();
        let after = svc.evaluate(&pinned, im.musicians, &pred).unwrap();
        assert_eq!(before, after, "pinned service must not see the commit");

        // A service built over a *fresh* pin sees the committed state.
        let fresh = shared.pin();
        let mut svc2 = IndexService::new(&fresh);
        svc2.ensure_index(&fresh, im.plays).unwrap();
        let head = svc2.evaluate(&fresh, im.musicians, &pred).unwrap();
        assert_eq!(head.len(), before.len() + 1);
        assert!(head.contains(fresh.entity_by_name(im.musicians, "Zed").unwrap()));
    }

    #[test]
    fn repeat_queries_reuse_cached_plan() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let atom = match_atom(im.plays, im.instruments, im.piano);
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let first = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let probes = svc.query_stats().index_probes;
        let second = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        assert_eq!(first.as_slice(), second.as_slice());
        assert_eq!(
            svc.query_stats().index_probes,
            probes,
            "a repeat query at the same epoch/cursor must reuse the cached plan"
        );
        // A data edit moves the epoch; after a refresh the plan is
        // recomputed and the answer reflects the new pianist.
        let zed = im.db.insert_entity(im.musicians, "PlanProbe").unwrap();
        im.db.add_value(zed, im.plays, im.piano).unwrap();
        svc.refresh(&im.db).unwrap();
        let third = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        assert!(
            svc.query_stats().index_probes > probes,
            "a moved epoch must force a re-plan"
        );
        assert!(third.contains(zed));
        assert_eq!(third.len(), first.len() + 1);
    }

    #[test]
    fn ordered_candidates_matches_extent_scan_on_every_path() {
        let mut s = isis_sample::synthetic_music(isis_sample::Scale::of(400), 7).unwrap();
        let svc = IndexService::new(&s.db);
        let extent = s.db.members(s.musicians).unwrap().clone();

        // No pool: the whole extent, in order.
        let all = svc.ordered_candidates(&s.db, s.musicians, None).unwrap();
        assert_eq!(all, extent.iter().collect::<Vec<_>>());

        // A pool small enough for the position-map path (every 13th
        // member, deliberately inserted in reverse) must come back in
        // extent order, identical to the linear scan-and-filter.
        let small: OrderedSet = extent
            .as_slice()
            .iter()
            .copied()
            .step_by(13)
            .rev()
            .collect();
        assert!(small.len() * ORDER_MAP_FACTOR < extent.len());
        let want: Vec<EntityId> = extent.iter().filter(|e| small.contains(*e)).collect();
        let got = svc
            .ordered_candidates(&s.db, s.musicians, Some(&small))
            .unwrap();
        assert_eq!(got, want, "position-map path must preserve extent order");

        // A large pool takes the scan path; same contract.
        let large: OrderedSet = extent.as_slice().iter().copied().step_by(2).rev().collect();
        assert!(large.len() * ORDER_MAP_FACTOR >= extent.len());
        let want: Vec<EntityId> = extent.iter().filter(|e| large.contains(*e)).collect();
        let got = svc
            .ordered_candidates(&s.db, s.musicians, Some(&large))
            .unwrap();
        assert_eq!(got, want);

        // Pool members outside the extent are dropped, not returned.
        let foreign: OrderedSet = [s.instrument_ids[0], extent.iter().next().unwrap()]
            .into_iter()
            .collect();
        let got = svc
            .ordered_candidates(&s.db, s.musicians, Some(&foreign))
            .unwrap();
        assert_eq!(got, vec![extent.iter().next().unwrap()]);

        // After a mutation moves the epoch, the cached map is rebuilt and
        // reflects the new extent.
        let newcomer = s.db.insert_entity(s.musicians, "order_probe").unwrap();
        let mut probe = small.clone();
        probe.insert(newcomer);
        let got = svc
            .ordered_candidates(&s.db, s.musicians, Some(&probe))
            .unwrap();
        assert_eq!(
            got.last().copied(),
            Some(newcomer),
            "rebuilt map must place the new entity last in extent order"
        );
    }
}
