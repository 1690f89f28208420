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
//! A maintainer owns no postings. Every entry point that walks or patches
//! inverted indexes takes them from its caller: the session hands in its
//! one [`crate::IndexService`], standalone callers an [`IndexManager`] they
//! build where they take their epoch mark.

use std::cell::RefCell;
use std::collections::HashMap;

use isis_core::{
    AttrId, Change, ChangeSet, ClassId, Database, EntityId, Map, OrderedSet, Predicate, Result,
    Rhs, ValueClass,
};

use crate::error::QueryError;
use crate::index::{walk_back, IndexLookup};
use crate::manager::IndexManager;
use crate::parallel::EvalPool;
use crate::program::{MemoTable, PredicateProgram};
use crate::service::IndexService;

/// Maintains one derived subclass incrementally.
///
/// Two modes of operation, both over caller-owned postings:
///
/// * **standalone** — the caller builds an [`IndexManager`] over the
///   predicate's attributes ([`build_indexes`]) where it takes its epoch
///   mark, so the postings describe the start of the window; then
///   [`apply_changes`] / [`apply_attr_change`] patch those postings and
///   settle membership;
/// * **shared** — a coordinator (the session) owns one
///   [`crate::IndexService`] for every consumer, drains the delta log once
///   per round, and drives each maintainer through
///   [`collect_affected`](DerivedMaintainer::collect_affected) (before and
///   after the shared drain) and [`settle_with`]. Its full refresh
///   re-evaluates each class through [`recompute`].
///
/// [`build_indexes`]: DerivedMaintainer::build_indexes
/// [`apply_changes`]: DerivedMaintainer::apply_changes
/// [`apply_attr_change`]: DerivedMaintainer::apply_attr_change
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
    /// The predicate compiled once per (re)build and shared by every
    /// re-evaluation ([`settle`], [`recompute`],
    /// [`apply_membership_change`]); mapped constant images are re-hoisted
    /// lazily when the delta epoch moves (`RefCell`: settle takes `&self`).
    ///
    /// [`settle`]: DerivedMaintainer::settle
    /// [`recompute`]: DerivedMaintainer::recompute
    /// [`apply_membership_change`]: DerivedMaintainer::apply_membership_change
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

    /// Postings for every attribute the predicate uses, describing `db` as
    /// it is now. A standalone caller builds them where it takes its epoch
    /// mark, so they describe the start of the window it later hands to
    /// [`DerivedMaintainer::apply_changes`]; postings built later would
    /// describe the window's end, and walk-backs through them would miss
    /// the candidates that used to reach a changed entity.
    pub fn build_indexes(&self, db: &Database) -> Result<IndexManager> {
        let mut indexes = IndexManager::new(db);
        for &attr in &self.used {
            indexes.add_index(db, attr)?;
        }
        Ok(indexes)
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
    /// walked through the caller's `indexes`.
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
        indexes: &dyn IndexLookup,
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
        indexes: &dyn IndexLookup,
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
        indexes: &dyn IndexLookup,
        base: AttrId,
    ) -> Result<OrderedSet> {
        let mut affected = OrderedSet::new();
        let Some(dependents) = self.grouping_bases.get(&base) else {
            return Ok(affected);
        };
        for &x in dependents {
            match indexes.index_for(x) {
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

    /// Notifies the maintainer that attribute `attr` of the `owners`
    /// entities changed: patches the affected postings of `indexes` (built
    /// before the change), re-evaluates the predicate for affected
    /// candidates only, and adds / removes membership as needed. Returns
    /// `(added, removed)` counts.
    pub fn apply_attr_change(
        &self,
        db: &mut Database,
        indexes: &mut IndexManager,
        attr: AttrId,
        owners: &OrderedSet,
    ) -> Result<(usize, usize)> {
        // Affected candidates are computed against the *old* index state
        // first, then again against the new one: an owner that left a
        // posting list must still trigger re-evaluation of the candidates
        // that used to reach it. A change to a grouping's base attribute
        // additionally touches every owner of the dependent ranged indexes.
        let mut affected = self.affected_candidates(db, &*indexes, attr, owners)?;
        affected.extend_from(&self.base_shift_affected(db, &*indexes, attr)?);
        indexes.refresh_owners(db, attr, owners)?;
        affected.extend_from(&self.affected_candidates(db, &*indexes, attr, owners)?);
        affected.extend_from(&self.base_shift_affected(db, &*indexes, attr)?);
        self.settle(db, &affected)
    }

    /// Collects every candidate a change window can affect, walking the
    /// given `indexes` (which must still describe the *start* of the
    /// window; call again after the index drain for the end state).
    /// Read-only: does not touch indexes or membership.
    pub fn collect_affected(
        &self,
        db: &Database,
        indexes: &dyn IndexLookup,
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
    /// removes membership as needed. Returns `(added, removed)` counts.
    ///
    /// Serial convenience wrapper over
    /// [`settle_with`](DerivedMaintainer::settle_with) on a width-1 pool,
    /// for standalone callers; the session passes the shared service's
    /// pool instead.
    pub fn settle(&self, db: &mut Database, affected: &OrderedSet) -> Result<(usize, usize)> {
        self.settle_with(db, affected, &EvalPool::default())
            .map_err(|e| match e {
                QueryError::Core(c) => c,
                // A width-1 pool never crosses a worker, so a panic error
                // is unreachable; fold any other variant into a core
                // report rather than dropping it.
                other => isis_core::CoreError::Inconsistent(other.to_string()),
            })
    }

    /// Re-evaluates the predicate for the `affected` candidates and adds /
    /// removes membership as needed, evaluating through `pool` — over its
    /// workers when it is wider than one and the affected set is large
    /// enough to chunk (the session hands in the [`crate::IndexService`]'s
    /// pool so refresh rounds and queries share workers). Returns
    /// `(added, removed)`.
    ///
    /// Two phases: every live affected candidate is evaluated first (no
    /// writes), then membership writes run serially in affected order, so
    /// the serial and pooled paths produce identical memberships, identical
    /// write order, and identical no-writes-on-error behaviour. Membership
    /// writes can't change attribute values or parent extents, so the
    /// phase-1 results stay valid through phase 2. Worker panics surface as
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
            obs.flight_event("query.incremental.settle", || {
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

    /// Consumes a [`ChangeSet`] from the core delta log, re-evaluating the
    /// predicate only for candidates the recorded changes can affect.
    /// Returns `(added, removed)` membership counts. Falls back to
    /// [`DerivedMaintainer::rebuild`] when the set contains schema edits.
    ///
    /// The set must describe the transition from the state the maintainer
    /// last saw to `db`'s current state (e.g. `db.changes_since(epoch)`),
    /// and `indexes` must describe the window's start: build them where
    /// the epoch mark is taken ([`DerivedMaintainer::build_indexes`]). The
    /// window is drained into them here.
    pub fn apply_changes(
        &mut self,
        db: &mut Database,
        indexes: &mut IndexManager,
        changes: &ChangeSet,
    ) -> Result<(usize, usize)> {
        if changes.has_schema_changes() {
            return self.rebuild(db, indexes);
        }
        // Candidates reached through the *old* postings (an owner leaving a
        // posting list must still re-evaluate whoever used to reach it) …
        let mut affected = self.collect_affected(db, &*indexes, changes)?;
        // … then drain the window into the postings …
        indexes.apply(db, changes)?;
        // … and collect again through the new postings.
        affected.extend_from(&self.collect_affected(db, &*indexes, changes)?);
        self.settle(db, &affected)
    }

    /// Full fallback: re-reads the stored predicate (a schema edit may have
    /// replaced it), re-evaluates the whole parent extent via
    /// [`Database::refresh_derived_class`], and rebuilds the caller's
    /// `indexes` from `db`'s current state: every index whose attribute
    /// survives, plus one for each attribute the predicate now uses.
    pub fn rebuild(
        &mut self,
        db: &mut Database,
        indexes: &mut IndexManager,
    ) -> Result<(usize, usize)> {
        let obs = isis_obs::global();
        let _span = obs.span("query.incremental.rebuild");
        obs.count("query.incremental.rebuilds", 1);
        let rec = db.class(self.class)?;
        self.parent = rec
            .parent
            .ok_or(isis_core::CoreError::DerivedClass(self.class))?;
        self.pred = rec
            .kind
            .predicate()
            .cloned()
            .ok_or(isis_core::CoreError::DerivedClass(self.class))?;
        let before = db.members(self.class)?.clone();
        db.refresh_derived_class(self.class)?;
        let after = db.members(self.class)?;
        let added = after.iter().filter(|e| !before.contains(*e)).count();
        let removed = before.iter().filter(|e| !after.contains(*e)).count();
        self.used = Self::attrs_used(&self.pred);
        self.grouping_bases = Self::find_grouping_bases(db, &self.used)?;
        indexes.rebuild_all(db)?;
        for &attr in &self.used {
            if indexes.index(attr).is_none() {
                indexes.add_index(db, attr)?;
            }
        }
        indexes.set_cursor(db.delta_epoch());
        // A schema edit may have replaced the predicate: recompile.
        *self.program.borrow_mut() = PredicateProgram::compile(db, self.parent, &self.pred)?;
        Ok((added, removed))
    }

    /// Re-evaluates the whole parent extent and installs the result the
    /// way [`Database::refresh_derived_class`] does, returning the new
    /// member count: the same writes in the same order, and on a failing
    /// evaluation the same error with nothing written. The candidates are
    /// pruned through `service`'s planner and evaluated on its pool, whose
    /// postings must describe `db` as it is now.
    ///
    /// This is maintenance, not a user query: it leaves the service's
    /// [`crate::QueryStats`], program cache and slow-query log untouched.
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

    /// Handles an entity joining or leaving the *parent* class: the entity
    /// itself is (re)evaluated.
    pub fn apply_membership_change(
        &mut self,
        db: &mut Database,
        entity: EntityId,
    ) -> Result<(usize, usize)> {
        let mut added = 0;
        let mut removed = 0;
        let in_parent = db.members(self.parent)?.contains(entity);
        let is = db.members(self.class)?.contains(entity);
        let mut prog = self.program.borrow_mut();
        prog.ensure_fresh(db)?;
        let mut memo = MemoTable::new(&prog);
        let should = in_parent && prog.eval_for(db, entity, None, &mut memo)?;
        if should && !is {
            db.force_membership(entity, self.class)?;
            added += 1;
        } else if !should && is {
            db.remove_from_class(entity, self.class)?;
            removed += 1;
        }
        Ok((added, removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_sample::{instrumental_music, quartets_predicate};

    #[test]
    fn maintainer_tracks_membership_changes() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred).unwrap();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let mut indexes = maint.build_indexes(&im.db).unwrap();
        assert!(maint.depends_on(im.size));
        assert!(maint.depends_on(im.members));
        assert!(maint.depends_on(im.plays));
        assert!(!maint.depends_on(im.family));

        // Give String Fling a pianist: Gil learns piano.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let owners: OrderedSet = [gil].into_iter().collect();
        let (added, removed) = maint
            .apply_attr_change(&mut im.db, &mut indexes, im.plays, &owners)
            .unwrap();
        assert_eq!((added, removed), (1, 0));
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        assert!(im.db.members(quartets).unwrap().contains(fling));

        // Shrink LaBelle Musique: it must leave.
        let edith = im.edith;
        let labelle = im.labelle;
        let cur = im.db.attr_value_set(labelle, im.members).unwrap();
        let without: Vec<_> = cur.iter().filter(|e| *e != edith).collect();
        im.db.assign_multi(labelle, im.members, without).unwrap();
        let three = im.db.int(3);
        im.db.assign_single(labelle, im.size, three).unwrap();
        let owners: OrderedSet = [labelle].into_iter().collect();
        maint
            .apply_attr_change(&mut im.db, &mut indexes, im.members, &owners)
            .unwrap();
        let (_, removed) = maint
            .apply_attr_change(&mut im.db, &mut indexes, im.size, &owners)
            .unwrap();
        assert!(!im.db.members(quartets).unwrap().contains(labelle));
        // Removal happened in one of the two notifications.
        let _ = removed;
    }

    #[test]
    fn incremental_agrees_with_full_recompute() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred.clone()).unwrap();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let mut indexes = maint.build_indexes(&im.db).unwrap();
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
        let owners: OrderedSet = [trio].into_iter().collect();
        maint
            .apply_attr_change(&mut im.db, &mut indexes, im.members, &owners)
            .unwrap();
        maint
            .apply_attr_change(&mut im.db, &mut indexes, im.size, &owners)
            .unwrap();
        // 2. Hana stops playing piano (affects Trio via members plays map).
        let guitar = im.db.entity_by_name(im.instruments, "guitar").unwrap();
        im.db.assign_multi(hana, im.plays, [guitar]).unwrap();
        let owners: OrderedSet = [hana].into_iter().collect();
        maint
            .apply_attr_change(&mut im.db, &mut indexes, im.plays, &owners)
            .unwrap();
        let mut a: Vec<EntityId> = im.db.members(quartets).unwrap().iter().collect();
        a.sort();
        let mut b: Vec<EntityId> = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap()
            .iter()
            .collect();
        b.sort();
        assert_eq!(a, b);
        // Trio Grande still qualifies through Fiona's piano.
        assert!(im.db.members(quartets).unwrap().contains(trio));
    }

    #[test]
    fn unrelated_attr_changes_touch_nothing() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred).unwrap();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let indexes = maint.build_indexes(&im.db).unwrap();
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
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred).unwrap();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let indexes = maint.build_indexes(&im.db).unwrap();
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
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred).unwrap();
        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        // Gil learns piano: String Fling must join.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let owners: OrderedSet = [gil].into_iter().collect();
        let fling = im
            .db
            .entity_by_name(im.music_groups, "String Fling")
            .unwrap();
        let indexed = maint.build_indexes(&im.db).unwrap();
        let walked = maint
            .affected_candidates(&im.db, &indexed, im.plays, &owners)
            .unwrap();
        assert_eq!(walked.len(), 2);
        assert!(walked.contains(fling));
        // `members·plays` has no `members` index to walk back through: the
        // candidates are unbounded, not empty.
        let bare = crate::IndexService::new(&im.db);
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
        let mut maint = DerivedMaintainer::new(&im.db, mates).unwrap();
        let mut indexes = maint.build_indexes(&im.db).unwrap();
        let mark = im.db.delta_epoch();
        // Edith learns the oboe: its players join through the moved image,
        // though none of their own values changed.
        im.db.add_value(im.edith, im.plays, im.oboe).unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        maint
            .apply_changes(&mut im.db, &mut indexes, &changes)
            .unwrap();
        let want = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert_eq!(want.len(), 5);
        assert!(im.db.members(mates).unwrap().set_eq(&want));
    }

    #[test]
    fn recompute_installs_what_refresh_derived_class_installs() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred).unwrap();
        // Stale the class both ways: String Fling qualifies, LaBelle no
        // longer does.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let three = im.db.int(3);
        im.db.assign_single(im.labelle, im.size, three).unwrap();
        let mut twin = im.db.clone();
        let mark = im.db.delta_epoch();

        let maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let mut service = crate::IndexService::new(&im.db);
        for &attr in maint.used_attrs() {
            service.ensure_index(&im.db, attr).unwrap();
        }
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
    fn apply_changes_consumes_the_delta_log() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred.clone()).unwrap();
        let mut maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let mut indexes = maint.build_indexes(&im.db).unwrap();
        let mark = im.db.delta_epoch();

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

        let changes = im.db.changes_since(mark).unwrap();
        let (added, removed) = maint
            .apply_changes(&mut im.db, &mut indexes, &changes)
            .unwrap();
        assert!(added >= 2, "String Fling and New Four must join");
        assert!(removed >= 1, "LaBelle must leave");
        let mut got: Vec<EntityId> = im.db.members(quartets).unwrap().iter().collect();
        got.sort();
        let mut want: Vec<EntityId> = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap()
            .iter()
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn apply_changes_handles_entity_deletion() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred.clone()).unwrap();
        let mut maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let mut indexes = maint.build_indexes(&im.db).unwrap();
        let mark = im.db.delta_epoch();
        // Deleting a quartet member's pianist can disqualify the group.
        let member_of_quartet = im
            .db
            .members(quartets)
            .unwrap()
            .iter()
            .next()
            .expect("seed data has a quartet");
        im.db.delete_entity(member_of_quartet).unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        maint
            .apply_changes(&mut im.db, &mut indexes, &changes)
            .unwrap();
        let mut got: Vec<EntityId> = im.db.members(quartets).unwrap().iter().collect();
        got.sort();
        let mut want: Vec<EntityId> = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap()
            .iter()
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn apply_changes_rebuilds_on_schema_edit() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred.clone()).unwrap();
        let mut maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
        let mut indexes = maint.build_indexes(&im.db).unwrap();
        let mark = im.db.delta_epoch();
        im.db.create_baseclass("venues").unwrap();
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        assert!(changes.has_schema_changes());
        maint
            .apply_changes(&mut im.db, &mut indexes, &changes)
            .unwrap();
        let mut got: Vec<EntityId> = im.db.members(quartets).unwrap().iter().collect();
        got.sort();
        let mut want: Vec<EntityId> = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap()
            .iter()
            .collect();
        want.sort();
        assert_eq!(got, want);
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
        let mut maint = DerivedMaintainer::new(&im.db, flute_groups).unwrap();
        let mut indexes = maint.build_indexes(&im.db).unwrap();
        let mark = im.db.delta_epoch();
        // Mid-drain re-key: the §4.2 correction moves flute to woodwind,
        // re-partitioning by_family and silently re-aiming every stored
        // sections value — without any transition of `sections` itself.
        let gil = im.db.entity_by_name(im.musicians, "Gil").unwrap();
        im.db.add_value(gil, im.plays, im.piano).unwrap(); // unrelated noise
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        let changes = im.db.changes_since(mark).unwrap();
        let (added, removed) = maint
            .apply_changes(&mut im.db, &mut indexes, &changes)
            .unwrap();
        assert_eq!((added, removed), (1, 1), "re-key must swap the member");
        let got = im.db.members(flute_groups).unwrap();
        assert!(got.contains(im.labelle), "woodwind sections now hold flute");
        assert!(!got.contains(fling), "brass sections lost the flute");
        let want = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap();
        assert!(got.set_eq(&want));
    }

    #[test]
    fn membership_change_reevaluates_entity() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred).unwrap();
        let mut maint = DerivedMaintainer::new(&im.db, quartets).unwrap();
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
        let (added, _) = maint.apply_membership_change(&mut im.db, g).unwrap();
        assert_eq!(added, 1);
        assert!(im.db.members(quartets).unwrap().contains(g));
    }
}
