//! Incremental maintenance of derived subclasses.
//!
//! The paper leaves derived classes stale under data modification ("the
//! predicates of derived subclasses … do not (at present) form part of the
//! consistency requirements", §2) and the session refreshes them only on
//! commit. This module implements the natural extension: after a change to
//! attribute `A` of some entities, recompute the predicate *only for the
//! candidates the change can affect* — found by locating `A` inside the
//! predicate's maps and walking the prefix steps backwards through inverted
//! indexes.
//!
//! [`DerivedState`] is the one refresh path: it owns the [`IndexService`],
//! whose cursor is the delta epoch the derived state is synchronised to,
//! and one [`DerivedMaintainer`] per derived subclass. A maintainer owns no
//! postings; it walks the service's. Queries read the same service between
//! refreshes, also while edits are pending: a service behind its database
//! prunes nothing, so no query needs the state advanced before a refresh
//! takes the window.

use std::cell::RefCell;
use std::collections::HashMap;

use isis_obs::Registry;

use isis_core::{
    AttrDerivation, AttrId, Change, ChangeSet, ClassId, Database, EntityId, Map, OrderedSet,
    Predicate, Result, Rhs, ValueClass,
};

use crate::error::QueryError;
use crate::index::walk_back;
use crate::parallel::EvalPool;
use crate::program::PredicateProgram;
use crate::service::IndexService;

/// Maintains one derived subclass incrementally over the postings of an
/// [`IndexService`] it is handed. [`DerivedState`] drives each maintainer
/// through [`collect_affected`] (before and after a round's one drain) and
/// [`settle_with`] in its delta rounds, and through [`recompute`] in its
/// full refresh.
///
/// [`collect_affected`]: DerivedMaintainer::collect_affected
/// [`settle_with`]: DerivedMaintainer::settle_with
/// [`recompute`]: DerivedMaintainer::recompute
#[derive(Debug)]
pub struct DerivedMaintainer {
    class: ClassId,
    parent: ClassId,
    pred: Predicate,
    /// Every attribute any map of the predicate uses.
    used: Vec<AttrId>,
    /// base attribute → grouping-ranged used attributes keyed by it. A
    /// transition of the base re-partitions the grouping and silently
    /// changes the expansion of every stored value of the dependents.
    grouping_bases: HashMap<AttrId, Vec<AttrId>>,
    /// The predicate compiled once and shared by every re-evaluation
    /// ([`settle_with`], [`recompute`]); mapped constant images are
    /// re-hoisted lazily when the delta epoch moves (`RefCell`: settle
    /// takes `&self`).
    ///
    /// [`settle_with`]: DerivedMaintainer::settle_with
    /// [`recompute`]: DerivedMaintainer::recompute
    program: RefCell<PredicateProgram>,
}

impl DerivedMaintainer {
    /// Creates a maintainer for a committed derived subclass by compiling
    /// its stored predicate. Builds no postings.
    pub fn new(db: &Database, class: ClassId) -> Result<Self> {
        let rec = db.class(class)?;
        let parent = rec
            .parent
            .ok_or(isis_core::CoreError::DerivedClass(class))?;
        let pred = rec
            .kind
            .predicate()
            .cloned()
            .ok_or(isis_core::CoreError::DerivedClass(class))?;
        // Compiling validates first, so a predicate that no longer fits the
        // schema fails with the error `Database::refresh_derived_class`
        // reports for it.
        let program = RefCell::new(PredicateProgram::compile(db, parent, &pred)?);
        let used = Self::attrs_used(&pred);
        let grouping_bases = Self::find_grouping_bases(db, &used)?;
        Ok(DerivedMaintainer {
            class,
            parent,
            pred,
            used,
            grouping_bases,
            program,
        })
    }

    /// The derived class being maintained.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The attributes the predicate's maps traverse — the indexes a shared
    /// service must hold for this maintainer.
    pub fn used_attrs(&self) -> &[AttrId] {
        &self.used
    }

    fn find_grouping_bases(db: &Database, used: &[AttrId]) -> Result<HashMap<AttrId, Vec<AttrId>>> {
        let mut out: HashMap<AttrId, Vec<AttrId>> = HashMap::new();
        for &a in used {
            if let ValueClass::Grouping(g) = db.attr(a)?.value_class {
                out.entry(db.grouping(g)?.on_attr).or_default().push(a);
            }
        }
        Ok(out)
    }

    fn attrs_used(pred: &Predicate) -> Vec<AttrId> {
        let mut out = Vec::new();
        let mut push_map = |m: &Map| {
            for &a in m.steps() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        };
        for atom in pred.atoms() {
            push_map(&atom.lhs);
            match &atom.rhs {
                Rhs::SelfMap(m) | Rhs::SourceMap(m) => push_map(m),
                Rhs::Constant { map, .. } => push_map(map),
            }
        }
        out
    }

    /// `true` if the predicate mentions `attr` in any map.
    pub fn depends_on(&self, attr: AttrId) -> bool {
        self.used.contains(&attr)
    }

    /// Candidates (members of the parent class) whose predicate result may
    /// change after attribute `attr` of the `owners` entities was modified,
    /// walked through the postings of `indexes`.
    ///
    /// For every occurrence of `attr` at position *i* of a candidate-side
    /// map, the owners are walked backwards through the *i* prefix steps
    /// via the inverted indexes; survivors that are parent members are
    /// affected. A prefix step without an index leaves the walk unbounded,
    /// and a mapped constant whose map uses `attr` moves an image every
    /// candidate is compared against: either way the whole parent extent
    /// is affected.
    pub fn affected_candidates(
        &self,
        db: &Database,
        indexes: &IndexService,
        attr: AttrId,
        owners: &OrderedSet,
    ) -> Result<OrderedSet> {
        let parent_members = db.members(self.parent)?;
        let mut affected = OrderedSet::new();
        if !self.depends_on(attr) {
            return Ok(affected);
        }
        for atom in self.pred.atoms() {
            if let Rhs::Constant { map, .. } = &atom.rhs {
                if map.steps().contains(&attr) {
                    return Ok(parent_members.clone());
                }
            }
            self.walk_back(
                &atom.lhs,
                indexes,
                attr,
                owners,
                parent_members,
                &mut affected,
            );
            if let Rhs::SelfMap(m) = &atom.rhs {
                self.walk_back(m, indexes, attr, owners, parent_members, &mut affected);
            }
        }
        Ok(affected)
    }

    fn walk_back(
        &self,
        map: &Map,
        indexes: &IndexService,
        attr: AttrId,
        owners: &OrderedSet,
        parent_members: &OrderedSet,
        affected: &mut OrderedSet,
    ) {
        let steps = map.steps();
        for (i, &step) in steps.iter().enumerate() {
            if step != attr {
                continue;
            }
            let Some(reached) = walk_back(indexes, &steps[..i], owners.clone()) else {
                // No index to bound the blast radius: conservatively
                // re-evaluate the whole parent extent.
                affected.extend_from(parent_members);
                return;
            };
            for e in reached.iter() {
                if parent_members.contains(e) {
                    affected.insert(e);
                }
            }
        }
    }

    /// Candidates affected by a transition of `base`, the attribute some
    /// used grouping-ranged attribute is keyed by: the re-partition can
    /// change the expansion of *any* stored value of the dependents, so
    /// every owner currently holding a value is walked back. Empty when
    /// `base` keys no used grouping.
    fn base_shift_affected(
        &self,
        db: &Database,
        indexes: &IndexService,
        base: AttrId,
    ) -> Result<OrderedSet> {
        let mut affected = OrderedSet::new();
        let Some(dependents) = self.grouping_bases.get(&base) else {
            return Ok(affected);
        };
        for &x in dependents {
            match indexes.index(x) {
                Some(idx) => {
                    let owners = idx.all_owners();
                    affected.extend_from(&self.affected_candidates(db, indexes, x, &owners)?);
                }
                // No index to bound the blast radius: conservatively
                // re-evaluate the whole parent extent.
                None => affected.extend_from(db.members(self.parent)?),
            }
        }
        Ok(affected)
    }

    /// Collects every candidate a change window can affect, walking the
    /// given `indexes` (which must still describe the *start* of the
    /// window; call again after the index drain for the end state).
    /// Read-only: does not touch indexes or membership.
    pub fn collect_affected(
        &self,
        db: &Database,
        indexes: &IndexService,
        changes: &ChangeSet,
    ) -> Result<OrderedSet> {
        let _span = isis_obs::global().span("query.incremental.collect");
        let mut affected = OrderedSet::new();
        for change in changes.iter() {
            match change {
                Change::AttrAssigned { entity, attr, .. } => {
                    if self.depends_on(*attr) {
                        let owners: OrderedSet = [*entity].into_iter().collect();
                        affected
                            .extend_from(&self.affected_candidates(db, indexes, *attr, &owners)?);
                    }
                    affected.extend_from(&self.base_shift_affected(db, indexes, *attr)?);
                }
                Change::MembershipAdded { entity, class }
                | Change::MembershipRemoved { entity, class } => {
                    // Echoes of our own membership writes land here too;
                    // they re-evaluate to a no-op.
                    if *class == self.parent {
                        affected.insert(*entity);
                    }
                }
                Change::EntityInserted { .. }
                | Change::EntityDeleted { .. }
                | Change::EntityRenamed { .. }
                | Change::Schema(_) => {}
            }
        }
        Ok(affected)
    }

    /// Re-evaluates the predicate for the `affected` candidates and adds /
    /// removes membership as needed, evaluating through `pool` — over its
    /// workers when it is wider than one and the affected set is large
    /// enough to chunk ([`DerivedState`] hands in its service's pool, so
    /// refresh rounds and queries share workers). Returns
    /// `(added, removed)`.
    ///
    /// Two phases: every live affected candidate is evaluated first (no
    /// writes), then membership writes run serially in affected order, so
    /// the serial and pooled paths produce identical memberships, identical
    /// write order, and identical no-writes-on-error behaviour. Like
    /// `Database::refresh_derived_class`, phase 2 installs what phase 1
    /// evaluated, although a leave drops the values the class owns and
    /// scrubs references to the leaver. Worker panics surface as
    /// [`QueryError::WorkerPanic`].
    pub fn settle_with(
        &self,
        db: &mut Database,
        affected: &OrderedSet,
        pool: &EvalPool,
    ) -> Result<(usize, usize), QueryError> {
        let obs = isis_obs::global();
        let _span = obs.span("query.incremental.settle");
        obs.count("query.incremental.candidates", affected.len() as u64);
        // One compiled program serves every candidate; mapped constant
        // images are re-hoisted once here if data changed since the last
        // settle (membership writes can't invalidate them).
        let mut prog = self.program.borrow_mut();
        prog.ensure_fresh(db)?;
        // Phase 1: evaluate. Deleted-later-in-the-window entities are
        // skipped (extents already scrubbed); candidates outside the parent
        // evaluate to "should not be a member" without running the program.
        let candidates: Vec<EntityId> = affected.iter().filter(|&e| db.entity(e).is_ok()).collect();
        let parent_members = db.members(self.parent)?;
        let eval_list: Vec<EntityId> = candidates
            .iter()
            .copied()
            .filter(|&e| parent_members.contains(e))
            .collect();
        let survivors = pool.evaluate(db, &prog, &eval_list, None)?;
        // Phase 2: write, serially, in affected order.
        let mut added = 0;
        let mut removed = 0;
        for &e in &candidates {
            let should = survivors.contains(e);
            let is = db.members(self.class)?.contains(e);
            if should && !is {
                db.force_membership(e, self.class)?;
                added += 1;
            } else if !should && is {
                db.remove_from_class(e, self.class)?;
                removed += 1;
            }
        }
        obs.count("query.incremental.added", added as u64);
        obs.count("query.incremental.removed", removed as u64);
        if added + removed > 0 {
            obs.event("query.incremental.settle", || {
                isis_obs::Json::obj([
                    ("class", isis_obs::Json::from(self.class.raw() as u64)),
                    ("affected", isis_obs::Json::from(affected.len())),
                    ("added", isis_obs::Json::from(added)),
                    ("removed", isis_obs::Json::from(removed)),
                ])
            });
        }
        Ok((added, removed))
    }

    /// Re-evaluates the whole parent extent and installs the result the
    /// way [`Database::refresh_derived_class`] does, returning the new
    /// member count: the same writes in the same order, and on a failing
    /// evaluation the same error with nothing written. The candidates are
    /// pruned through `service`'s planner and evaluated on its pool, whose
    /// postings must describe `db` as it is now.
    ///
    /// This is maintenance, not a user query: it leaves the planner and
    /// program-cache counts of the service's scope, its program cache and
    /// the slow-query log untouched.
    pub fn recompute(
        &self,
        db: &mut Database,
        service: &IndexService,
    ) -> Result<usize, QueryError> {
        let _span = isis_obs::global().span("query.incremental.recompute");
        // Validated again, as `refresh_derived_class` does: an install
        // since the compile may have moved a constant's anchor.
        db.validate_predicate(self.parent, None, &self.pred)?;
        let members = {
            let mut prog = self.program.borrow_mut();
            prog.ensure_fresh(db)?;
            service.evaluate_program(db, self.parent, &self.pred, &prog)?
        };
        db.install_members(self.class, &members)?;
        Ok(members.len())
    }
}

/// How many delta rounds a refresh runs before it settles with a full
/// pass. Maintenance writes (membership changes, derived-attribute values)
/// are themselves recorded, so a refresh drains the log in rounds until it
/// runs dry; the bound guards against pathological predicate interactions.
const MAX_ROUNDS: usize = 8;

/// The derived state of one database line: the shared [`IndexService`]
/// read by the maintainers and by ad-hoc queries, and one
/// [`DerivedMaintainer`] per derived subclass. The service's cursor is the
/// delta-log epoch the derived classes were settled at; only
/// [`DerivedState::refresh`] advances the service, so the two never part.
///
/// ```
/// use isis_query::{DerivedState, ExtentChange};
///
/// let mut im = isis_sample::instrumental_music().unwrap();
/// let pred = isis_sample::quartets_predicate(&mut im);
/// let quartets = im.db.create_derived_subclass(im.music_groups, "quartets")?;
/// im.db.commit_membership(quartets, pred)?;
/// // The services of full refreshes count into one scope.
/// let scope = isis_obs::Registry::new();
/// // The first refresh is full; later ones drain the delta log.
/// let state = DerivedState::refresh(None, &mut im.db, 1, &scope, &mut Vec::new())?;
/// let gil = im.db.entity_by_name(im.musicians, "Gil")?;
/// im.db.add_value(gil, im.plays, im.piano)?; // String Fling qualifies
/// let mut changed = Vec::new();
/// let state = DerivedState::refresh(Some(state), &mut im.db, 1, &scope, &mut changed)?;
/// assert!(changed.contains(&ExtentChange::Delta { class: quartets, added: 1, removed: 0 }));
/// assert!(state.in_sync(&im.db));
/// # Ok::<(), isis_query::QueryError>(())
/// ```
#[derive(Debug)]
pub struct DerivedState {
    service: IndexService,
    maintainers: Vec<DerivedMaintainer>,
}

/// What a refresh did to one derived subclass's extent, in the order it
/// settled the classes. A delta round reports the classes whose extent
/// changed; the full refresh reports every class it re-evaluated, so a
/// `Full` entry also tells that the refresh was full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentChange {
    /// A delta round settled the class's affected candidates.
    Delta {
        /// The derived subclass.
        class: ClassId,
        /// Members that joined.
        added: usize,
        /// Members that left.
        removed: usize,
    },
    /// The full refresh re-evaluated the class over its parent extent.
    Full {
        /// The derived subclass.
        class: ClassId,
        /// Member count before.
        before: usize,
        /// Member count after.
        after: usize,
    },
}

impl DerivedState {
    /// Brings every derived subclass and derived attribute of `db` up to
    /// date, and returns the state the next refresh continues from.
    ///
    /// While `state` exists and the delta log since its cursor holds only
    /// data edits, *delta rounds* re-settle just the candidates each window
    /// can affect. Otherwise the *full refresh* builds a new service, with
    /// `eval_threads` workers and counting into `scope`, and re-settles
    /// every derived subclass. That happens on the first refresh, on an
    /// evicted window, on a schema edit, or when the drain does not quiesce
    /// within 8 rounds.
    ///
    /// A failed refresh consumes `state`, so the next one is full and no
    /// window is skipped. Each [`ExtentChange`] is pushed onto `changed` as
    /// its class settles, also when a later step fails.
    pub fn refresh(
        state: Option<DerivedState>,
        db: &mut Database,
        eval_threads: usize,
        scope: &Registry,
        changed: &mut Vec<ExtentChange>,
    ) -> Result<DerivedState, QueryError> {
        let obs = isis_obs::global();
        let _span = obs.span("session.refresh.drain");
        let Some(mut state) = state else {
            return DerivedState::full(db, eval_threads, scope, changed);
        };
        for _ in 0..MAX_ROUNDS {
            let cs = match db.changes_since(state.service.cursor()) {
                Some(cs) if !cs.has_schema_changes() => cs,
                _ => return DerivedState::full(db, eval_threads, scope, changed),
            };
            if cs.is_empty() {
                return Ok(state);
            }
            obs.count("session.refresh.rounds", 1);
            state.apply_round(db, &cs, changed)?;
        }
        DerivedState::full(db, eval_threads, scope, changed)
    }

    /// `true` when nothing was recorded in `db` since the last refresh (the
    /// service's cursor is the log's current epoch), so the service's
    /// postings describe it as it is now and may prune its queries.
    pub fn in_sync(&self, db: &Database) -> bool {
        self.service.cursor() == db.delta_epoch()
    }

    /// The shared index service.
    pub fn service(&self) -> &IndexService {
        &self.service
    }

    /// One delta round, with a single shared index drain: every maintainer
    /// first collects its affected candidates against the *pre-state*
    /// indexes, the service consumes the window once, the maintainers
    /// re-collect against the post-state indexes and settle, and finally
    /// the derived attributes the window touches are refreshed.
    fn apply_round(
        &mut self,
        db: &mut Database,
        cs: &ChangeSet,
        changed: &mut Vec<ExtentChange>,
    ) -> Result<(), QueryError> {
        let obs = isis_obs::global();
        let mut round = obs.span("session.refresh.round");
        round.field("changes", || cs.len().into());
        round.field("maintainers", || self.maintainers.len().into());
        // Pre-state: the shared indexes still reflect the old attribute
        // values, so walk-backs find candidates that *used to* reach a
        // changed entity.
        let mut affected: Vec<OrderedSet> = Vec::with_capacity(self.maintainers.len());
        {
            let _collect = obs.span("session.refresh.collect");
            for m in &self.maintainers {
                affected.push(m.collect_affected(db, &self.service, cs)?);
            }
        }
        // The one drain: both the maintainers and the ad-hoc query planner
        // read from these indexes afterwards.
        {
            let _apply = obs.span("session.refresh.apply");
            self.service.apply(db, cs)?;
        }
        // Post-state: candidates that *now* reach a changed entity.
        {
            let _collect = obs.span("session.refresh.collect");
            for (m, aff) in self.maintainers.iter().zip(affected.iter_mut()) {
                aff.extend_from(&m.collect_affected(db, &self.service, cs)?);
            }
        }
        {
            let _settle = obs.span("session.refresh.settle");
            // Affected sets settle through the service's worker pool — the
            // same one queries use — so a session configured for parallel
            // evaluation splits large sets across its workers.
            for (m, aff) in self.maintainers.iter().zip(&affected) {
                let (added, removed) = m.settle_with(db, aff, self.service.eval_pool())?;
                if added + removed > 0 {
                    changed.push(ExtentChange::Delta {
                        class: m.class(),
                        added,
                        removed,
                    });
                }
            }
        }
        let touched = cs.touched_attrs();
        let membership_classes: Vec<ClassId> =
            cs.iter()
                .filter_map(|c| match c {
                    Change::MembershipAdded { class, .. }
                    | Change::MembershipRemoved { class, .. } => Some(*class),
                    _ => None,
                })
                .collect();
        let derived_attrs: Vec<(AttrId, AttrDerivation)> = db
            .attrs()
            .filter_map(|(id, a)| a.derivation.clone().map(|d| (id, d)))
            .collect();
        for (attr, derivation) in derived_attrs {
            let deps = derivation_attrs(&derivation);
            let rec = db.attr(attr)?;
            let owner = rec.owner;
            let value_class = match rec.value_class {
                ValueClass::Class(c) => Some(c),
                ValueClass::Grouping(_) => None,
            };
            let affected = touched.iter().any(|a| *a != attr && deps.contains(a))
                || membership_classes
                    .iter()
                    .any(|c| *c == owner || Some(*c) == value_class);
            if affected {
                db.refresh_derived_attr(attr)?;
            }
        }
        Ok(())
    }

    /// The full refresh: re-evaluates every derived subclass and derived
    /// attribute on one new index service and builds the maintainers.
    ///
    /// Classes settle in id order, as `Database::refresh_derived_class`
    /// would take them, and record the same writes. Each maintainer is
    /// compiled at its class's turn, so a predicate is validated against
    /// the extents the classes before it installed, and its candidates are
    /// pruned through the service. The installs' writes drain once, at the
    /// end: an install only removes values (leavers drop what the class
    /// owns, references to them are scrubbed), so postings it left behind
    /// can only widen a later class's candidates, and the program re-checks
    /// every candidate against the database.
    fn full(
        db: &mut Database,
        eval_threads: usize,
        scope: &Registry,
        changed: &mut Vec<ExtentChange>,
    ) -> Result<DerivedState, QueryError> {
        let obs = isis_obs::global();
        let _span = obs.span("session.refresh.full");
        obs.count("session.refresh.fulls", 1);
        let derived_classes: Vec<ClassId> = db
            .classes()
            .filter(|(_, c)| c.is_derived())
            .map(|(id, _)| id)
            .collect();
        let mut service = IndexService::in_scope(db, scope);
        service.eval_pool().set_threads(eval_threads);
        let mut maintainers = Vec::with_capacity(derived_classes.len());
        for class in derived_classes {
            let m = DerivedMaintainer::new(db, class)?;
            for &attr in m.used_attrs() {
                service.ensure_index(db, attr)?;
            }
            let before = db.members(class)?.len();
            let after = m.recompute(db, &service)?;
            changed.push(ExtentChange::Full {
                class,
                before,
                after,
            });
            maintainers.push(m);
        }
        let derived_attrs: Vec<AttrId> = db
            .attrs()
            .filter(|(_, a)| a.is_derived())
            .map(|(id, _)| id)
            .collect();
        for a in derived_attrs {
            db.refresh_derived_attr(a)?;
        }
        service.refresh(db)?;
        Ok(DerivedState {
            service,
            maintainers,
        })
    }
}

/// The attributes a derivation's maps mention: its value-level dependency
/// set, as [`DerivedMaintainer::used_attrs`] is for a membership predicate.
fn derivation_attrs(d: &AttrDerivation) -> Vec<AttrId> {
    match d {
        AttrDerivation::Assign(m) => m.steps().to_vec(),
        AttrDerivation::Predicate(p) => DerivedMaintainer::attrs_used(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_sample::{instrumental_music, quartets_predicate, InstrumentalMusic};

    /// The sample with the quartets subclass committed.
    fn with_quartets() -> (InstrumentalMusic, ClassId, Predicate) {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred.clone()).unwrap();
        (im, quartets, pred)
    }

    /// One refresh of `state`: the state it leaves and what it changed.
    fn refresh(
        state: Option<DerivedState>,
        db: &mut Database,
    ) -> (DerivedState, Vec<ExtentChange>) {
        let mut changed = Vec::new();
        let state = DerivedState::refresh(state, db, 1, &Registry::new(), &mut changed).unwrap();
        (state, changed)
    }

    /// `(added, removed)` over the delta rounds that settled `class`;
    /// panics if the refresh was full.
    fn delta(changed: &[ExtentChange], class: ClassId) -> (usize, usize) {
        changed.iter().fold((0, 0), |(a, r), c| match *c {
            ExtentChange::Delta {
                class: k,
                added,
                removed,
            } if k == class => (a + added, r + removed),
            ExtentChange::Delta { .. } => (a, r),
            ExtentChange::Full { .. } => panic!("the refresh was full: {changed:?}"),
        })
    }

    /// The class holds exactly what its predicate selects.
    fn assert_settled(db: &Database, class: ClassId, parent: ClassId, pred: &Predicate) {
        let want = db.evaluate_derived_members(parent, pred).unwrap();
        assert!(db.members(class).unwrap().set_eq(&want));
    }

    /// A service holding the postings of every attribute `maint` walks.
    fn service_for(db: &Database, maint: &DerivedMaintainer) -> IndexService {
        let mut service = IndexService::new(db);
        for &attr in maint.used_attrs() {
            service.ensure_index(db, attr).unwrap();
        }
        service
    }

    #[test]
    fn delta_rounds_track_membership_changes() {
        let (mut im, quartets, _) = with_quartets();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        assert!(maint.depends_on(im.size));
        assert!(maint.depends_on(im.members));
        assert!(maint.depends_on(im.plays));
        assert!(!maint.depends_on(im.family));
        let (state, _) = refresh(None, &mut im.db);

        // Give String Fling a pianist: Gil learns piano.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let (state, changed) = refresh(Some(state), &mut im.db);
        assert_eq!(delta(&changed, quartets), (1, 0));
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        assert!(im.db.members(quartets).unwrap().contains(fling));

        // Shrink LaBelle Musique: it must leave.
        let cur = im.db.attr_value_set(im.labelle, im.members).unwrap();
        let without: Vec<_> = cur.iter().filter(|e| *e != im.edith).collect();
        im.db.assign_multi(im.labelle, im.members, without).unwrap();
        let three = im.db.int(3);
        im.db.assign_single(im.labelle, im.size, three).unwrap();
        let (_, changed) = refresh(Some(state), &mut im.db);
        assert_eq!(delta(&changed, quartets), (0, 1));
        assert!(!im.db.members(quartets).unwrap().contains(im.labelle));
    }

    #[test]
    fn incremental_agrees_with_full_recompute() {
        let (mut im, quartets, pred) = with_quartets();
        let (state, _) = refresh(None, &mut im.db);
        let hana = im.db.entity_by_name(im.musicians, "Hana").unwrap();
        let trio = im
            .db
            .entity_by_name(im.music_groups, "Trio Grande")
            .unwrap();
        let dave = im.db.entity_by_name(im.musicians, "Dave").unwrap();
        let four = im.db.int(4);
        // 1. Trio Grande grows to four members (already has pianists).
        let mut members = im.db.attr_value_set(trio, im.members).unwrap();
        members.insert(dave);
        im.db
            .assign_multi(trio, im.members, members.iter())
            .unwrap();
        im.db.assign_single(trio, im.size, four).unwrap();
        let (state, changed) = refresh(Some(state), &mut im.db);
        assert_eq!(delta(&changed, quartets), (1, 0));
        // 2. Hana stops playing piano (affects Trio via members plays map).
        let guitar = im.db.entity_by_name(im.instruments, "guitar").unwrap();
        im.db.assign_multi(hana, im.plays, [guitar]).unwrap();
        let (_, changed) = refresh(Some(state), &mut im.db);
        assert_eq!(delta(&changed, quartets), (0, 0));
        assert_settled(&im.db, quartets, im.music_groups, &pred);
        // Trio Grande still qualifies through Fiona's piano.
        assert!(im.db.members(quartets).unwrap().contains(trio));
    }

    #[test]
    fn unrelated_attr_changes_touch_nothing() {
        let (im, quartets, _) = with_quartets();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let indexes = service_for(&im.db, &maint);
        // A family reassignment is invisible to the quartets predicate.
        let owners: OrderedSet = [im.flute].into_iter().collect();
        let affected = maint
            .affected_candidates(&im.db, &indexes, im.family, &owners)
            .unwrap();
        assert!(affected.is_empty());
        // And a popular-flag change likewise.
        let affected = maint
            .affected_candidates(&im.db, &indexes, im.popular, &owners)
            .unwrap();
        assert!(affected.is_empty());
    }

    #[test]
    fn plays_change_affects_only_groups_reaching_the_musician() {
        let (im, quartets, _) = with_quartets();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let indexes = service_for(&im.db, &maint);
        // Dave is in String Fling only.
        let dave = im.db.entity_by_name(im.musicians, "Dave").unwrap();
        let owners: OrderedSet = [dave].into_iter().collect();
        let affected = maint
            .affected_candidates(&im.db, &indexes, im.plays, &owners)
            .unwrap();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        assert_eq!(affected.as_slice(), &[fling]);
    }

    #[test]
    fn walk_back_without_a_step_index_affects_the_whole_parent() {
        let (mut im, quartets, _) = with_quartets();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        // Gil learns piano: String Fling must join.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let owners: OrderedSet = [gil].into_iter().collect();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        let indexed = service_for(&im.db, &maint);
        let walked = maint
            .affected_candidates(&im.db, &indexed, im.plays, &owners)
            .unwrap();
        assert_eq!(walked.len(), 2);
        assert!(walked.contains(fling));
        // `members·plays` has no `members` index to walk back through: the
        // candidates are unbounded, not empty.
        let bare = IndexService::new(&im.db);
        let unbounded = maint
            .affected_candidates(&im.db, &bare, im.plays, &owners)
            .unwrap();
        assert_eq!(
            unbounded.as_slice(),
            im.db.members(im.music_groups).unwrap().as_slice()
        );
        let collected = maint
            .collect_affected(&im.db, &bare, &im.db.changes_since(0).unwrap())
            .unwrap();
        assert!(collected.contains(fling));
    }

    #[test]
    fn a_change_under_a_mapped_constant_reevaluates_the_parent() {
        use isis_core::{Atom, Clause, CompareOp};
        let mut im = instrumental_music().unwrap();
        // edith_mates: musicians who share an instrument with Edith.
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            CompareOp::Match,
            Rhs::Constant {
                class: im.musicians,
                anchors: [im.edith].into_iter().collect(),
                map: Map::single(im.plays),
            },
        )])]);
        let mates = im
            .db
            .create_derived_subclass(im.musicians, "edith_mates")
            .unwrap();
        im.db.commit_membership(mates, pred.clone()).unwrap();
        assert_eq!(im.db.members(mates).unwrap().len(), 3);
        let (state, _) = refresh(None, &mut im.db);
        // Edith learns the oboe: its players join through the moved image,
        // though none of their own values changed.
        im.db.add_value(im.edith, im.plays, im.oboe).unwrap();
        let (_, changed) = refresh(Some(state), &mut im.db);
        assert_eq!(delta(&changed, mates), (2, 0));
        assert_settled(&im.db, mates, im.musicians, &pred);
        assert_eq!(im.db.members(mates).unwrap().len(), 5);
    }

    #[test]
    fn recompute_installs_what_refresh_derived_class_installs() {
        let (mut im, quartets, _) = with_quartets();
        // Stale the class both ways: String Fling qualifies, LaBelle no
        // longer does.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let three = im.db.int(3);
        im.db.assign_single(im.labelle, im.size, three).unwrap();
        let mut twin = im.db.clone();
        let mark = im.db.delta_epoch();

        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let service = service_for(&im.db, &maint);
        let n = maint.recompute(&mut im.db, &service).unwrap();
        let want = twin.refresh_derived_class(quartets).unwrap();
        assert_eq!(n, want);
        assert_eq!(
            im.db.members(quartets).unwrap().as_slice(),
            twin.members(quartets).unwrap().as_slice()
        );
        let writes = twin.changes_since(mark).unwrap();
        assert!(writes.len() >= 2, "one member leaves, one joins");
        assert_eq!(im.db.changes_since(mark).unwrap(), writes);
        assert_eq!(
            service.query_stats(),
            crate::QueryStats::default(),
            "a refresh settle is not a user query"
        );
    }

    #[test]
    fn a_delta_round_consumes_the_delta_log() {
        let (mut im, quartets, pred) = with_quartets();
        let (state, _) = refresh(None, &mut im.db);

        // Gil learns piano → String Fling becomes a quartet.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        // A brand-new qualifying group appears, member by member.
        let g = im.db.insert_entity(im.music_groups, "New Four").unwrap();
        let four = im.db.int(4);
        im.db.assign_single(g, im.size, four).unwrap();
        let kurt = im.db.entity_by_name(im.musicians, "Kurt").unwrap();
        let amy = im.db.entity_by_name(im.musicians, "Amy").unwrap();
        let bob = im.db.entity_by_name(im.musicians, "Bob").unwrap();
        let carol = im.db.entity_by_name(im.musicians, "Carol").unwrap();
        im.db
            .assign_multi(g, im.members, [kurt, amy, bob, carol])
            .unwrap();
        // And LaBelle Musique shrinks to a trio.
        let cur = im.db.attr_value_set(im.labelle, im.members).unwrap();
        let without: Vec<_> = cur.iter().filter(|e| *e != im.edith).collect();
        im.db.assign_multi(im.labelle, im.members, without).unwrap();
        let three = im.db.int(3);
        im.db.assign_single(im.labelle, im.size, three).unwrap();

        let (state, changed) = refresh(Some(state), &mut im.db);
        let (added, removed) = delta(&changed, quartets);
        assert!(added >= 2, "String Fling and New Four must join");
        assert!(removed >= 1, "LaBelle must leave");
        assert_settled(&im.db, quartets, im.music_groups, &pred);
        assert!(state.in_sync(&im.db));
        assert_eq!(state.service().cursor(), im.db.delta_epoch());
    }

    #[test]
    fn a_delta_round_handles_entity_deletion() {
        let (mut im, quartets, pred) = with_quartets();
        let (state, _) = refresh(None, &mut im.db);
        // Deleting a quartet member's pianist can disqualify the group.
        let member_of_quartet = im
            .db
            .members(quartets)
            .unwrap()
            .iter()
            .next()
            .expect("seed data has a quartet");
        im.db.delete_entity(member_of_quartet).unwrap();
        let (_, changed) = refresh(Some(state), &mut im.db);
        delta(&changed, quartets);
        assert_settled(&im.db, quartets, im.music_groups, &pred);
    }

    #[test]
    fn a_schema_edit_takes_the_full_refresh() {
        let (mut im, quartets, pred) = with_quartets();
        let (state, _) = refresh(None, &mut im.db);
        im.db.create_baseclass("venues").unwrap();
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let (_, changed) = refresh(Some(state), &mut im.db);
        // String Fling joins.
        assert!(
            changed.iter().any(|c| matches!(*c,
                ExtentChange::Full { class, before, after } if class == quartets && after == before + 1)),
            "{changed:?}"
        );
        assert_settled(&im.db, quartets, im.music_groups, &pred);
    }

    #[test]
    fn grouping_rekey_mid_drain_updates_derived_membership() {
        use isis_core::{Atom, Clause, CompareOp, Multiplicity};
        let mut im = instrumental_music().unwrap();
        // sections: music_groups → by_family sets. The predicate asks which
        // groups' sections *expand* to a set containing the flute.
        let sections = im
            .db
            .create_attribute(
                im.music_groups,
                "sections",
                im.by_family,
                Multiplicity::Multi,
            )
            .unwrap();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        im.db.assign_multi(fling, sections, [im.brass]).unwrap();
        im.db
            .assign_multi(im.labelle, sections, [im.woodwind])
            .unwrap();
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(sections),
            CompareOp::Match,
            Rhs::constant(im.instruments, [im.flute]),
        )])]);
        let flute_groups = im
            .db
            .create_derived_subclass(im.music_groups, "flute_groups")
            .unwrap();
        im.db.commit_membership(flute_groups, pred.clone()).unwrap();
        // flute starts mis-filed under brass → String Fling qualifies.
        assert!(im.db.members(flute_groups).unwrap().contains(fling));
        assert!(!im.db.members(flute_groups).unwrap().contains(im.labelle));
        let (state, _) = refresh(None, &mut im.db);
        // Mid-drain re-key: the §4.2 correction moves flute to woodwind,
        // re-partitioning by_family and silently re-aiming every stored
        // sections value — without any transition of `sections` itself.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap(); // unrelated noise
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        let (_, changed) = refresh(Some(state), &mut im.db);
        assert_eq!(
            delta(&changed, flute_groups),
            (1, 1),
            "re-key must swap the member"
        );
        let got = im.db.members(flute_groups).unwrap();
        assert!(got.contains(im.labelle), "woodwind sections now hold flute");
        assert!(!got.contains(fling), "brass sections lost the flute");
        assert_settled(&im.db, flute_groups, im.music_groups, &pred);
    }

    #[test]
    fn a_group_joining_the_parent_is_evaluated() {
        let (mut im, quartets, _) = with_quartets();
        let (state, _) = refresh(None, &mut im.db);
        // A brand-new qualifying group appears.
        let g = im.db.insert_entity(im.music_groups, "New Four").unwrap();
        let four = im.db.int(4);
        im.db.assign_single(g, im.size, four).unwrap();
        let kurt = im.db.entity_by_name(im.musicians, "Kurt").unwrap();
        let amy = im.db.entity_by_name(im.musicians, "Amy").unwrap();
        let bob = im.db.entity_by_name(im.musicians, "Bob").unwrap();
        let carol = im.db.entity_by_name(im.musicians, "Carol").unwrap();
        im.db
            .assign_multi(g, im.members, [kurt, amy, bob, carol])
            .unwrap();
        let (_, changed) = refresh(Some(state), &mut im.db);
        assert_eq!(delta(&changed, quartets), (1, 0));
        assert!(im.db.members(quartets).unwrap().contains(g));
    }
}
