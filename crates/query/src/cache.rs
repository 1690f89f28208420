//! The compiled-program cache (DESIGN.md §4e).
//!
//! [`crate::PredicateProgram`] compilation is cheap next to a full extent
//! scan but *not* next to an index-pruned navigation round: validating the
//! predicate, estimating every atom for the short-circuit reorder, and
//! hoisting constant images all walk the schema and the anchor sets, and a
//! stepwise-refinement session re-issues the same handful of predicates
//! dozens of times. [`ProgramCache`] makes the compile once per *predicate
//! shape* instead of once per *query*.
//!
//! ## Keying
//!
//! Entries are keyed by `(parent class, source class, fingerprint)`, where
//! the fingerprint is a structural 64-bit hash of the predicate (form,
//! clause layout, per-atom lhs steps / operator / rhs shape, anchor ids).
//! Fingerprint collisions are tolerated, never trusted: every entry stores
//! a clone of its predicate and a hit requires structural equality, so a
//! colliding predicate simply replaces the entry (a miss), it can never be
//! answered with the wrong program.
//!
//! ## Invalidation contract
//!
//! A cached program is revalidated on every lookup against the database's
//! delta epoch:
//!
//! * **same epoch** — pure hit, the program is served as-is;
//! * **data-only window** — the changes since the entry's epoch contain no
//!   schema edit: the program stays structurally valid (validation and the
//!   infallible-atom reorder depend only on the schema) and only its
//!   hoisted mapped-constant images can be stale, so
//!   [`PredicateProgram::ensure_fresh`] re-hoists them and the entry is
//!   re-stamped — still a hit;
//! * **schema edit, evicted window, or foreign line** — `changes_since`
//!   reports a schema change or cannot address the entry's epoch at all
//!   (the delta window slid past it, or the database was swapped for a
//!   different line whose epochs are incomparable): the entry is recompiled
//!   from scratch, counted as an invalidation.
//!
//! Errors are part of the contract: a predicate that no longer validates
//! (its attribute was deleted, say) fails recompilation with exactly the
//! error a fresh [`PredicateProgram::compile_with`] would raise, and failed
//! compiles are never cached.
//!
//! The cache is bounded ([`ProgramCache::with_capacity`]) with
//! least-recently-used eviction, so a workload generating unbounded
//! predicate shapes degrades to per-query compilation instead of growing
//! without limit.
//!
//! Every lookup is counted once, always on, in a registry scope
//! (`query.program.cache_{hits,misses,invalidations,evictions}`, read back
//! as [`ProgramCacheStats`]). A standalone cache counts privately; an
//! [`IndexService`]'s cache counts into the service's scope, so a
//! session's counts outlive the cache a rebuild drops.
//!
//! ## Cached access plans
//!
//! An entry can additionally carry a crate-private `CachedPlan` — the
//! pruned candidate pool and its extent-ordered evaluation list, which for
//! a navigation round are as repetitive as the compile itself. The cache
//! stores the plan opaquely (`ProgramCache::with_plan` hands its closure
//! the entry's plan slot); *validity is the caller's contract*, which is
//! why the plan records the delta epoch it was computed at.
//! [`IndexService`] pins a plan only while its postings describe the
//! database and reuses it only at the same epoch, so the epoch guards both
//! the data and the postings. Whenever the entry's program is recompiled
//! the plan is dropped with it.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use isis_core::{Atom, ClassId, CoreError, Database, EntityId, Map, Predicate, Rhs};
use isis_obs::{Counter, Registry};

use crate::program::PredicateProgram;
use crate::service::IndexService;

/// Default entry bound: generous for interactive worksheets (a navigation
/// session touches tens of shapes, not thousands).
pub const DEFAULT_PROGRAM_CACHE_CAPACITY: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    parent: ClassId,
    source: Option<ClassId>,
    fingerprint: u64,
}

#[derive(Debug)]
struct CacheEntry {
    /// The exact predicate this program was compiled from; hits require
    /// structural equality so fingerprint collisions cannot serve a wrong
    /// program.
    pred: Predicate,
    prog: PredicateProgram,
    /// Delta epoch the entry was last validated at.
    epoch: u64,
    /// LRU stamp.
    last_used: u64,
    /// The caller's cached access plan, if any (see the module docs).
    plan: Option<CachedPlan>,
}

/// A cached per-predicate access plan: the pruned candidate pool summary
/// and the extent-ordered evaluation list computed from it. Pinned only by
/// a service whose postings describe the database, so it is valid for
/// exactly the delta epoch it records (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CachedPlan {
    /// Delta epoch of the database the plan was computed against.
    pub(crate) epoch: u64,
    /// Size of the pruned pool (`None` = no prunable atom: the plan
    /// describes a sequential scan).
    pub(crate) pool_len: Option<usize>,
    /// Pool ∩ parent extent, in extent (storage) order — exactly the list
    /// the evaluator walks.
    pub(crate) candidates: Vec<EntityId>,
}

/// What the most recent lookup on a [`ProgramCache`] did — the
/// per-lookup view EXPLAIN needs, where [`ProgramCacheStats`] only
/// accumulates. (`Rehoist` counts as a hit in the stats: the program was
/// served from cache after refreshing its hoisted constant images.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Same-epoch hit: the program was served as-is.
    Hit,
    /// Data-only window: the cached program re-hoisted its constant
    /// images and was served (still a stats hit).
    Rehoist,
    /// Schema edit, evicted window, or foreign line: the entry was
    /// recompiled in place (a stats invalidation).
    Recompile,
    /// No matching entry: compiled fresh (a stats miss).
    Miss,
}

impl CacheOutcome {
    /// Short lowercase label (`hit`/`rehoist`/`recompile`/`miss`).
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Rehoist => "rehoist",
            CacheOutcome::Recompile => "recompile",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// The cache lookups counted in a cache's registry scope, read by
/// [`ProgramCache::stats`]: a snapshot of `query.program.cache_*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Lookups answered from a cached program (including data-only
    /// re-hoists).
    pub hits: u64,
    /// Lookups that compiled because no matching entry existed.
    pub misses: u64,
    /// Lookups that recompiled because the entry's epoch could not be
    /// revalidated (schema edit, evicted window, foreign line).
    pub invalidations: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
}

/// A bounded cache of compiled [`PredicateProgram`]s keyed by
/// `(parent, source class, predicate fingerprint)`. See the module docs
/// for the invalidation contract.
#[derive(Debug)]
pub struct ProgramCache {
    entries: RefCell<HashMap<CacheKey, CacheEntry>>,
    capacity: usize,
    /// LRU clock.
    tick: Cell<u64>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
    evictions: Arc<Counter>,
    last_outcome: Cell<Option<CacheOutcome>>,
}

impl Default for ProgramCache {
    fn default() -> ProgramCache {
        ProgramCache::with_capacity(DEFAULT_PROGRAM_CACHE_CAPACITY)
    }
}

impl ProgramCache {
    /// An empty cache with the default entry bound.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// An empty cache retaining at most `capacity` programs (0 disables
    /// caching: every lookup is a miss that compiles and is immediately
    /// dropped).
    pub fn with_capacity(capacity: usize) -> ProgramCache {
        ProgramCache::in_scope(capacity, &Registry::new())
    }

    /// [`ProgramCache::with_capacity`], counting into `scope`.
    pub(crate) fn in_scope(capacity: usize, scope: &Registry) -> ProgramCache {
        ProgramCache {
            entries: RefCell::new(HashMap::new()),
            capacity,
            tick: Cell::new(0),
            hits: scope.counter("query.program.cache_hits"),
            misses: scope.counter("query.program.cache_misses"),
            invalidations: scope.counter("query.program.cache_invalidations"),
            evictions: scope.counter("query.program.cache_evictions"),
            last_outcome: Cell::new(None),
        }
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// `true` when no programs are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/invalidation/eviction counts of the cache's scope: this
    /// cache alone, or every cache of the scope its service counts into.
    pub fn stats(&self) -> ProgramCacheStats {
        ProgramCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
        }
    }

    /// What the most recent lookup ([`ProgramCache::with_program`], or an
    /// [`IndexService`] evaluation) did, or `None` before the first
    /// lookup. EXPLAIN reads this immediately after an evaluation to
    /// report the cache decision that evaluation actually took.
    pub fn last_outcome(&self) -> Option<CacheOutcome> {
        self.last_outcome.get()
    }

    /// Drops every cached program (the next lookup per shape recompiles).
    /// Benchmarks use this to measure the per-query-recompilation baseline
    /// through the identical code path.
    pub fn clear(&self) {
        self.entries.borrow_mut().clear();
    }

    /// Runs `f` against the compiled program for `(parent, source, pred)`,
    /// compiling (or revalidating) it first as the module-level contract
    /// requires. `indexes` sharpens the cost model's estimates exactly as in
    /// [`PredicateProgram::compile_with`]. The cache is borrowed for the
    /// duration of `f`, so `f` must not re-enter the same cache.
    pub fn with_program<R, E>(
        &self,
        db: &Database,
        parent: ClassId,
        source: Option<ClassId>,
        pred: &Predicate,
        indexes: Option<&IndexService>,
        f: impl FnOnce(&PredicateProgram) -> Result<R, E>,
    ) -> Result<R, E>
    where
        E: From<CoreError>,
    {
        self.with_plan(db, parent, source, pred, indexes, |prog, _| f(prog))
    }

    /// Like [`ProgramCache::with_program`], but also hands `f` the entry's
    /// cached access plan slot. `f` owns the validity check (see the
    /// module docs); the cache only guarantees the slot is emptied
    /// whenever the program it was computed alongside is recompiled.
    pub(crate) fn with_plan<R, E>(
        &self,
        db: &Database,
        parent: ClassId,
        source: Option<ClassId>,
        pred: &Predicate,
        indexes: Option<&IndexService>,
        f: impl FnOnce(&PredicateProgram, &mut Option<CachedPlan>) -> Result<R, E>,
    ) -> Result<R, E>
    where
        E: From<CoreError>,
    {
        let key = CacheKey {
            parent,
            source,
            fingerprint: predicate_fingerprint(pred),
        };
        let tick = self.tick.get() + 1;
        self.tick.set(tick);
        let mut entries = self.entries.borrow_mut();
        let epoch = db.delta_epoch();
        if let Some(entry) = entries.get_mut(&key).filter(|e| e.pred == *pred) {
            if entry.epoch == epoch {
                self.hits.inc();
                self.last_outcome.set(Some(CacheOutcome::Hit));
            } else {
                match db.changes_since(entry.epoch) {
                    Some(cs) if !cs.has_schema_changes() => {
                        // Data-only window: the structure is still valid,
                        // only mapped constant images can be stale.
                        entry.prog.ensure_fresh(db).map_err(E::from)?;
                        entry.epoch = epoch;
                        self.hits.inc();
                        isis_obs::global().count("query.program.cache_rehoists", 1);
                        self.last_outcome.set(Some(CacheOutcome::Rehoist));
                    }
                    _ => {
                        // Schema edit, evicted window, or a foreign
                        // database line: recompile from scratch.
                        entry.prog =
                            PredicateProgram::compile_with(db, parent, source, pred, indexes)
                                .map_err(E::from)?;
                        entry.epoch = epoch;
                        entry.plan = None;
                        self.invalidations.inc();
                        self.last_outcome.set(Some(CacheOutcome::Recompile));
                    }
                }
            }
            entry.last_used = tick;
            let CacheEntry { prog, plan, .. } = entry;
            return f(prog, plan);
        }
        // Miss (or fingerprint collision — the colliding occupant is
        // replaced wholesale below, so a collision can only cost a
        // recompile, never a wrong answer). Failed compiles are not cached,
        // so error identity with an uncached compile is exact.
        let prog =
            PredicateProgram::compile_with(db, parent, source, pred, indexes).map_err(E::from)?;
        self.misses.inc();
        self.last_outcome.set(Some(CacheOutcome::Miss));
        if self.capacity == 0 {
            return f(&prog, &mut None);
        }
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            if let Some((&victim, _)) = entries.iter().min_by_key(|(_, e)| e.last_used) {
                entries.remove(&victim);
                self.evictions.inc();
            }
        }
        let fresh = CacheEntry {
            pred: pred.clone(),
            prog,
            epoch,
            last_used: tick,
            plan: None,
        };
        let entry = match entries.entry(key) {
            Entry::Occupied(o) => {
                let slot = o.into_mut();
                *slot = fresh;
                slot
            }
            Entry::Vacant(v) => v.insert(fresh),
        };
        let CacheEntry { prog, plan, .. } = entry;
        f(prog, plan)
    }
}

/// FNV-1a over a structural encoding of the predicate: normal form, clause
/// layout, and per atom the lhs steps, operator, and rhs shape (variant
/// tag, class, anchor ids, map steps). Two structurally equal predicates
/// always fingerprint equal; collisions between different predicates are
/// possible and handled by the cache's equality check.
pub fn predicate_fingerprint(pred: &Predicate) -> u64 {
    let mut h = Fnv::new();
    h.u8(match pred.form {
        isis_core::NormalForm::Dnf => 0,
        isis_core::NormalForm::Cnf => 1,
    });
    h.u32(pred.clauses.len() as u32);
    for clause in &pred.clauses {
        h.u32(clause.atoms.len() as u32);
        for atom in &clause.atoms {
            hash_atom(&mut h, atom);
        }
    }
    h.finish()
}

fn hash_map_steps(h: &mut Fnv, map: &Map) {
    h.u32(map.steps().len() as u32);
    for &a in map.steps() {
        h.u32(a.raw());
    }
}

fn hash_atom(h: &mut Fnv, atom: &Atom) {
    hash_map_steps(h, &atom.lhs);
    h.u8(atom.op.op as u8);
    h.u8(atom.op.negated as u8);
    match &atom.rhs {
        Rhs::SelfMap(m) => {
            h.u8(0);
            hash_map_steps(h, m);
        }
        Rhs::Constant {
            class,
            anchors,
            map,
        } => {
            h.u8(1);
            h.u32(class.raw());
            h.u32(anchors.len() as u32);
            for a in anchors.iter() {
                h.u32(a.raw());
            }
            hash_map_steps(h, map);
        }
        Rhs::SourceMap(m) => {
            h.u8(2);
            hash_map_steps(h, m);
        }
    }
}

/// Minimal FNV-1a 64 accumulator (no std Hasher: the encoding must stay
/// stable across Rust versions so fingerprints are comparable over time).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::{Clause, CompareOp, EntityId, OrderedSet};
    use isis_sample::{instrumental_music, quartets_predicate};

    fn plays_pred(im: &isis_sample::InstrumentalMusic, anchor: EntityId) -> Predicate {
        Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            CompareOp::Match,
            Rhs::constant(im.instruments, [anchor]),
        )])])
    }

    #[test]
    fn fingerprints_are_structural() {
        let mut im = instrumental_music().unwrap();
        let a = plays_pred(&im, im.piano);
        let b = plays_pred(&im, im.piano);
        assert_eq!(predicate_fingerprint(&a), predicate_fingerprint(&b));
        let violin = im.db.entity_by_name(im.instruments, "violin").unwrap();
        let c = plays_pred(&im, violin);
        assert_ne!(predicate_fingerprint(&a), predicate_fingerprint(&c));
        // Switching the normal form changes the fingerprint too.
        let mut d = a.clone();
        d.switch_and_or();
        assert_ne!(predicate_fingerprint(&a), predicate_fingerprint(&d));
        let q = quartets_predicate(&mut im);
        assert_ne!(predicate_fingerprint(&a), predicate_fingerprint(&q));
    }

    #[test]
    fn repeated_queries_hit() {
        let im = instrumental_music().unwrap();
        let cache = ProgramCache::new();
        let pred = plays_pred(&im, im.piano);
        for _ in 0..3 {
            let got: OrderedSet = cache
                .with_program(&im.db, im.musicians, None, &pred, None, |prog| {
                    prog.evaluate_extent(&im.db, im.musicians)
                })
                .unwrap();
            let want = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
            assert!(got.set_eq(&want));
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn data_commits_revalidate_without_recompiling() {
        let mut im = instrumental_music().unwrap();
        let cache = ProgramCache::new();
        // A mapped constant: instruments in the same family as the flute.
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.family),
            CompareOp::SetEq,
            Rhs::Constant {
                class: im.instruments,
                anchors: [im.flute].into_iter().collect(),
                map: Map::single(im.family),
            },
        )])]);
        let before: OrderedSet = cache
            .with_program(&im.db, im.instruments, None, &pred, None, |p| {
                p.evaluate_extent(&im.db, im.instruments)
            })
            .unwrap();
        // Data-only edit that moves the hoisted image.
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        let after: OrderedSet = cache
            .with_program(&im.db, im.instruments, None, &pred, None, |p| {
                p.evaluate_extent(&im.db, im.instruments)
            })
            .unwrap();
        let want = im
            .db
            .evaluate_derived_members(im.instruments, &pred)
            .unwrap();
        assert!(after.set_eq(&want));
        assert_ne!(before.as_slice(), after.as_slice());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 0, "data-only window must re-hoist");
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn schema_edits_invalidate() {
        let mut im = instrumental_music().unwrap();
        let cache = ProgramCache::new();
        let pred = plays_pred(&im, im.piano);
        cache
            .with_program(&im.db, im.musicians, None, &pred, None, |p| {
                p.evaluate_extent(&im.db, im.musicians)
            })
            .unwrap();
        im.db.create_baseclass("venues").unwrap();
        cache
            .with_program(&im.db, im.musicians, None, &pred, None, |p| {
                p.evaluate_extent(&im.db, im.musicians)
            })
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1, "schema edit must recompile");
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let im = instrumental_music().unwrap();
        let cache = ProgramCache::with_capacity(2);
        let anchors: Vec<EntityId> = im.db.members(im.instruments).unwrap().iter().collect();
        for &a in anchors.iter().take(4) {
            let pred = plays_pred(&im, a);
            cache
                .with_program(&im.db, im.musicians, None, &pred, None, |p| {
                    p.evaluate_extent(&im.db, im.musicians)
                })
                .unwrap();
        }
        assert!(cache.len() <= 2);
        assert_eq!(cache.stats().evictions, 2);
        // Capacity 0 disables caching entirely.
        let off = ProgramCache::with_capacity(0);
        let pred = plays_pred(&im, anchors[0]);
        for _ in 0..2 {
            off.with_program(&im.db, im.musicians, None, &pred, None, |p| {
                p.evaluate_extent(&im.db, im.musicians)
            })
            .unwrap();
        }
        assert_eq!(off.len(), 0);
        assert_eq!(off.stats().misses, 2);
    }
}
