//! Parallel predicate evaluation over compiled programs.
//!
//! The ISIS evaluator is per-candidate and read-only, so a derived-subclass
//! evaluation parallelises trivially: partition the parent extent into
//! chunks, evaluate each chunk against the shared database with its own
//! [`MemoTable`], and splice the survivors back in extent order
//! (determinism: the result set is identical to the serial evaluator's, in
//! the same order — including *which* error surfaces first, because chunks
//! are disjoint ordered ranges scanned in order).
//!
//! [`EvalPool`] is the one runner of compiled programs over candidate
//! lists: [`crate::IndexService::evaluate`] and
//! [`crate::DerivedMaintainer::settle_with`] both hand it their candidates.
//! Its workers are **persistent** — spawned on first use and reused — so
//! repeated queries pay thread startup once, not per call. Chunking is
//! adaptive: a width of 1, or an extent too small to amortise a handoff,
//! runs the serial [`PredicateProgram::eval_batch`] loop on the calling
//! thread, and larger extents are split into several chunks per worker to
//! absorb per-candidate cost skew.
//!
//! Worker panics are contained with `catch_unwind` and surface as
//! [`QueryError::WorkerPanic`] instead of aborting the session.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use isis_core::{CoreError, Database, EntityId, OrderedSet};

use crate::error::QueryError;
use crate::program::{MemoTable, PredicateProgram};

/// Smallest chunk worth handing a worker: below this the per-job handoff
/// outweighs the evaluation itself.
const MIN_CHUNK: usize = 16;

/// Chunks handed out per worker — oversubscription absorbs per-candidate
/// cost skew without work stealing.
const OVERSUBSCRIBE: usize = 4;

/// Extent shard granularity: chunk boundaries land on multiples of this,
/// so every worker reads a contiguous aligned run of the extent-ordered
/// candidate slice (the same order storage keeps the entities in) instead
/// of ranges that straddle shard edges.
const SHARD: usize = 64;

/// Splits `0..len` into chunks for `threads` workers, or `None` when the
/// extent is too small for parallelism to pay (serial fallback). Replaces
/// the old hard-coded `len < 64` threshold: the number of workers actually
/// used scales down with the extent so every chunk stays ≥ [`MIN_CHUNK`].
/// Large plans are shard-aligned: the chunk size is rounded up to a
/// multiple of [`SHARD`] unless that would collapse the plan to one chunk.
fn plan_chunks(len: usize, threads: usize) -> Option<Vec<Range<usize>>> {
    if threads <= 1 || len < MIN_CHUNK * 2 {
        return None;
    }
    let usable = threads.min(len / MIN_CHUNK);
    if usable <= 1 {
        return None;
    }
    let want = usable * OVERSUBSCRIBE;
    let mut chunk = len.div_ceil(want).max(MIN_CHUNK);
    let aligned = chunk.div_ceil(SHARD) * SHARD;
    if aligned < len {
        chunk = aligned;
    }
    Some(
        (0..len)
            .step_by(chunk)
            .map(|s| s..(s + chunk).min(len))
            .collect(),
    )
}

/// The chunking decision [`EvalPool::evaluate`] takes for a candidate
/// list of `len` under `threads` workers, summarised for EXPLAIN:
/// `Some((chunk_count, max_chunk_size))`, or `None` for the serial path.
pub fn chunk_decision(len: usize, threads: usize) -> Option<(usize, usize)> {
    plan_chunks(len, threads).map(|chunks| {
        let size = chunks.iter().map(|r| r.end - r.start).max().unwrap_or(0);
        (chunks.len(), size)
    })
}

/// Test-only fault injection for the parallel evaluator.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::AtomicU32;

    /// When set to an entity's raw id, any parallel chunk containing that
    /// entity panics inside the worker. Lets tests prove worker panics
    /// surface as [`crate::QueryError::WorkerPanic`] without needing a
    /// predicate that panics naturally. `u32::MAX` (the default) disables
    /// the hook; its cost when disabled is one relaxed load per chunk.
    pub static PANIC_ON_ENTITY: AtomicU32 = AtomicU32::new(u32::MAX);
}

/// Why one chunk failed to produce survivors.
enum WorkerFailure {
    Core(CoreError),
    Panic(String),
}

type ChunkResult = Result<Vec<EntityId>, WorkerFailure>;

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Evaluates the chunk of `members` at `range` with its own memo table,
/// containing panics.
fn eval_chunk(
    db: &Database,
    prog: &PredicateProgram,
    members: &[EntityId],
    range: Range<usize>,
    source: Option<EntityId>,
) -> ChunkResult {
    let chunk = &members[range.clone()];
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<EntityId>, CoreError> {
        let trap = test_hooks::PANIC_ON_ENTITY.load(std::sync::atomic::Ordering::Relaxed);
        if trap != u32::MAX && chunk.iter().any(|e| e.raw() == trap) {
            panic!("injected worker fault on entity {trap}");
        }
        let mut memo = MemoTable::new(prog);
        let keep = prog.eval_batch_at(db, chunk, range.start, source, &mut memo)?;
        memo.flush_obs();
        Ok(keep)
    }));
    match run {
        Ok(Ok(keep)) => Ok(keep),
        Ok(Err(e)) => Err(WorkerFailure::Core(e)),
        Err(p) => Err(WorkerFailure::Panic(panic_message(p.as_ref()))),
    }
}

/// The serial path (width 1, or a slice too small to split): one memo
/// table, the batch loop on the calling thread.
fn eval_serial(
    db: &Database,
    prog: &PredicateProgram,
    members: &[EntityId],
    source: Option<EntityId>,
) -> Result<OrderedSet, QueryError> {
    let mut memo = MemoTable::new(prog);
    let keep = prog.eval_batch(db, members, source, &mut memo)?;
    memo.flush_obs();
    Ok(OrderedSet::from_distinct(keep))
}

/// Runs the chunk plan on a persistent pool, filling one result slot per
/// chunk.
fn run_on_pool(
    pool: &mut scoped_threadpool::Pool,
    db: &Database,
    prog: &PredicateProgram,
    members: &[EntityId],
    source: Option<EntityId>,
    ranges: &[Range<usize>],
) -> Vec<Option<ChunkResult>> {
    let mut results: Vec<Option<ChunkResult>> = ranges.iter().map(|_| None).collect();
    pool.scoped(|scope| {
        for (slot, range) in results.iter_mut().zip(ranges) {
            let range = range.clone();
            scope.execute(move || {
                *slot = Some(eval_chunk(db, prog, members, range, source));
            });
        }
    });
    results
}

/// Splices per-chunk survivors back in extent order. Chunks are disjoint
/// ordered ranges scanned in order, so the first failing chunk reproduces
/// the serial evaluator's first error.
fn splice(results: Vec<Option<ChunkResult>>) -> Result<OrderedSet, QueryError> {
    let mut parts = Vec::with_capacity(results.len());
    for slot in results {
        parts.push(match slot {
            Some(Ok(p)) => p,
            Some(Err(WorkerFailure::Core(e))) => return Err(QueryError::Core(e)),
            Some(Err(WorkerFailure::Panic(m))) => return Err(QueryError::WorkerPanic(m)),
            None => return Err(QueryError::WorkerPanic("worker produced no result".into())),
        });
    }
    Ok(OrderedSet::from_distinct(parts.concat()))
}

/// A lazily-initialised persistent worker pool for parallel predicate
/// evaluation. The OS threads are spawned on first use and reused across
/// queries; dropping the pool joins them. Owned by
/// [`crate::IndexService`] (sized via `SessionBuilder::eval_threads`) and
/// constructible standalone for tests, benches and embedders.
pub struct EvalPool {
    threads: Cell<usize>,
    inner: RefCell<Option<scoped_threadpool::Pool>>,
}

impl fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalPool")
            .field("threads", &self.threads.get())
            .field("spawned", &self.inner.borrow().is_some())
            .finish()
    }
}

impl Default for EvalPool {
    fn default() -> EvalPool {
        EvalPool::new(1)
    }
}

impl EvalPool {
    /// A pool of `threads` workers (at least one); no threads are spawned
    /// until the first parallel evaluation needs them.
    pub fn new(threads: usize) -> EvalPool {
        EvalPool {
            threads: Cell::new(threads.max(1)),
            inner: RefCell::new(None),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Reconfigures the worker count. A changed width drops the spawned
    /// threads (joining them); the pool respawns lazily at the new width on
    /// the next parallel evaluation.
    pub fn set_threads(&self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.threads.get() {
            self.threads.set(threads);
            self.inner.borrow_mut().take();
        }
    }

    /// `true` once the worker threads have actually been spawned.
    pub fn is_spawned(&self) -> bool {
        self.inner.borrow().is_some()
    }

    /// The width of the spawned pool, or `None` while unspawned.
    pub fn spawned_threads(&self) -> Option<usize> {
        self.inner
            .borrow()
            .as_ref()
            .map(|p| p.thread_count() as usize)
    }

    /// Evaluates a compiled program over `members` (extent order), chunking
    /// across the pool's workers; a width of 1 or a small slice runs
    /// serially on the calling thread. Results and first-error behaviour
    /// are identical to the serial evaluator's. `members` must be distinct
    /// (asserted in debug builds); when they ascend, as every base-class
    /// extent does, the answer keeps no hash index
    /// ([`OrderedSet::from_distinct`]).
    pub fn evaluate(
        &self,
        db: &Database,
        prog: &PredicateProgram,
        members: &[EntityId],
        source: Option<EntityId>,
    ) -> Result<OrderedSet, QueryError> {
        let Some(ranges) = plan_chunks(members.len(), self.threads.get()) else {
            return eval_serial(db, prog, members, source);
        };
        let mut inner = self.inner.borrow_mut();
        let pool =
            inner.get_or_insert_with(|| scoped_threadpool::Pool::new(self.threads.get() as u32));
        splice(run_on_pool(pool, db, prog, members, source, &ranges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::IndexService;
    use isis_core::ClassId;
    use isis_sample::{synthetic_music, workload, Scale};

    fn extent(db: &Database, class: ClassId) -> Vec<EntityId> {
        db.members(class).unwrap().iter().collect()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let mut s = synthetic_music(Scale::of(400), 21).unwrap();
        let probe = s.instrument_ids[0];
        let pred = workload::quartets_query(&mut s, probe, 4);
        let serial =
            s.db.evaluate_derived_members(s.music_groups, &pred)
                .unwrap();
        let prog = PredicateProgram::compile(&s.db, s.music_groups, &pred).unwrap();
        let members = extent(&s.db, s.music_groups);
        for threads in [1, 2, 4, 8] {
            let pool = EvalPool::new(threads);
            let par = pool.evaluate(&s.db, &prog, &members, None).unwrap();
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={threads}");
            assert_eq!(
                pool.is_spawned(),
                chunk_decision(members.len(), threads).is_some(),
                "workers spawn only for a chunked plan (threads={threads})"
            );
        }
    }

    #[test]
    fn small_extents_fall_back_to_serial() {
        let im = isis_sample::instrumental_music().unwrap();
        let pred = isis_core::Predicate::always_true();
        let prog = PredicateProgram::compile(&im.db, im.musicians, &pred).unwrap();
        let pool = EvalPool::new(8);
        let par = pool
            .evaluate(&im.db, &prog, &extent(&im.db, im.musicians), None)
            .unwrap();
        assert_eq!(par.len(), im.all_musicians.len());
        assert!(!pool.is_spawned(), "a serial run spawns no workers");
        assert!(plan_chunks(12, 8).is_none(), "12 candidates stay serial");
    }

    #[test]
    fn chunk_plans_cover_without_overlap() {
        for (len, threads) in [(64, 2), (100, 4), (1000, 8), (32, 2), (129, 3)] {
            match plan_chunks(len, threads) {
                None => assert!(len < MIN_CHUNK * 2 || threads.min(len / MIN_CHUNK) <= 1),
                Some(ranges) => {
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "gapless, in order");
                        assert!(r.end > r.start && r.end - r.start >= 1);
                        next = r.end;
                    }
                    assert_eq!(next, len, "plan covers the whole extent");
                }
            }
        }
    }

    #[test]
    fn large_chunk_plans_are_shard_aligned() {
        let ranges = plan_chunks(100_000, 8).unwrap();
        assert!(ranges.len() > 1);
        for r in &ranges[..ranges.len() - 1] {
            assert_eq!(r.start % SHARD, 0, "chunk start off shard: {r:?}");
            assert_eq!(r.end % SHARD, 0, "chunk end off shard: {r:?}");
        }
        assert_eq!(ranges.last().unwrap().end, 100_000);
    }

    #[test]
    fn pruned_parallel_matches_serial_exactly() {
        let mut s = synthetic_music(Scale::of(400), 21).unwrap();
        let probe = s.instrument_ids[0];
        let pred = workload::quartets_query(&mut s, probe, 4);
        let mut svc = IndexService::new(&s.db);
        svc.ensure_index(&s.db, s.size).unwrap();
        let serial =
            s.db.evaluate_derived_members(s.music_groups, &pred)
                .unwrap();
        let mut probes_after_first = 0;
        for threads in [1, 2, 4, 8] {
            svc.eval_pool().set_threads(threads);
            let par = svc.evaluate(&s.db, s.music_groups, &pred).unwrap();
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={threads}");
            if threads == 1 {
                probes_after_first = svc.query_stats().index_probes;
            }
        }
        assert!(
            probes_after_first >= 1,
            "the size clause must probe the shared index on the first call"
        );
        assert_eq!(
            svc.query_stats().index_probes,
            probes_after_first,
            "repeat calls at the same epoch must reuse the cached plan"
        );
        assert_eq!(svc.query_stats().queries, 4, "every width counts");
        let stats = svc.program_cache().stats();
        assert_eq!(stats.misses, 1, "four widths, one compile");
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn service_pool_persists_across_calls() {
        let mut s = synthetic_music(Scale::of(400), 7).unwrap();
        let probe = s.instrument_ids[0];
        let pred = workload::quartets_query(&mut s, probe, 4);
        let svc = IndexService::new(&s.db);
        svc.eval_pool().set_threads(4);
        for _ in 0..3 {
            svc.evaluate(&s.db, s.music_groups, &pred).unwrap();
        }
        assert_eq!(
            svc.eval_pool_threads(),
            Some(4),
            "one persistent pool, reused across calls"
        );
    }

    #[test]
    fn errors_propagate_from_workers() {
        let mut s = synthetic_music(Scale::of(200), 3).unwrap();
        // An ordering atom over a multivalued map errors on some entity;
        // parallel evaluation must surface that error, not swallow it.
        let anchor = s.db.int(1);
        let ints = s.db.predefined(isis_core::BaseKind::Integers);
        let bad =
            isis_core::Predicate::dnf(vec![isis_core::Clause::new(vec![isis_core::Atom::new(
                isis_core::Map::single(s.plays),
                isis_core::CompareOp::Lt,
                isis_core::Rhs::constant(ints, [anchor]),
            )])]);
        let serial = s.db.evaluate_derived_members(s.musicians, &bad);
        let prog = PredicateProgram::compile(&s.db, s.musicians, &bad).unwrap();
        let par = EvalPool::new(4).evaluate(&s.db, &prog, &extent(&s.db, s.musicians), None);
        match (serial, par) {
            (Err(want), Err(QueryError::Core(got))) => assert_eq!(got, want),
            (a, b) => panic!("both paths must fail with the serial error: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn worker_panics_surface_as_query_errors() {
        let mut pool = scoped_threadpool::Pool::new(2);
        // Drive splice through a panicking job directly: the public paths
        // contain panics inside eval_chunk, so forge a panicking chunk.
        let mut results: Vec<Option<ChunkResult>> = vec![None];
        pool.scoped(|scope| {
            let slot = &mut results[0];
            scope.execute(move || {
                *slot = Some(
                    match catch_unwind(|| -> Vec<EntityId> { panic!("injected fault") }) {
                        Ok(v) => Ok(v),
                        Err(p) => Err(WorkerFailure::Panic(panic_message(p.as_ref()))),
                    },
                );
            });
        });
        let err = splice(results).unwrap_err();
        assert!(matches!(err, QueryError::WorkerPanic(ref m) if m.contains("injected fault")));
    }
}
