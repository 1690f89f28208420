//! The 1e4 → 1e6-entity scaling harness (`out/bench_scaling.json`).
//!
//! Generates synthetic databases across three axes — entity count
//! (1e4/1e5/1e6), value distribution (uniform vs Zipf-skewed), schema
//! shape (wide vs deep) — and drives the workloads the interactive paper
//! promises must stay fast: stepwise-refinement navigation chains
//! (repeated query rounds through the `IndexService` program cache),
//! delta-driven refresh rounds, large-affected-set settles (serial vs
//! the shared `EvalPool`), and data-page scenes (a scrolled musicians page
//! and the musicians + instruments follow stack through `data_view`).
//! Every measurement lands in `out/bench_scaling.json` (schema
//! isis-bench/1).
//!
//! Flags:
//!
//! * `--max-entities N` — skip configurations above `N` entities (CI runs
//!   `--max-entities 100000`); default 1000000.
//! * `--smoke` / `--test` — one tiny configuration, one round each, and
//!   the report's `smoke` flag set; performance assertions are skipped.
//!
//! Outside smoke mode the harness enforces the scaling floor directly:
//! cached-program query rounds, over at least two navigation steps that
//! answer, must be ≥ 2x faster than per-query recompilation at 1e5+
//! entities, so must the column-streaming batch set-compare scan against
//! the per-candidate scalar loop, the batch ordering scan (wide shapes)
//! must be ≥ 10x faster than that loop, the pooled settle must beat the
//! serial settle on affected sets of 1e5 entities, and the service must
//! answer the Zipf-rank-0 two-step `members·plays ⊇ {instrument0}` over
//! `music_groups` from its exact index walk at least 4x faster than the
//! batch body re-checks the walk's candidates. The settle comparison
//! is asserted only when the host actually has ≥ 2 cores — the sharded
//! path is still exercised and recorded on a single-core host, where
//! beating serial is physically impossible. The views floor holds a data
//! page's scene at every size ≥ 1e5 within 2x of the same distribution
//! and shape at 1e4, timed round by round against a 1e4 database kept
//! beside it: a page costs the rows on screen, not its extent. The pin
//! floor holds a `SharedDatabase::pin` of the generated database with its
//! full delta window within 2x of a pin of the same database with its
//! window emptied, at 1e5+: a pin costs its chunks, not its window.

use std::time::{Duration, Instant};

use isis_bench::BenchReport;
use isis_core::{
    Atom, BaseKind, Clause, CompareOp, Database, EntityId, Map, OrderedSet, Predicate, Rhs,
    SchemaNode, SharedDatabase,
};
use isis_query::{
    DerivedMaintainer, DerivedState, EvalPool, IndexService, MemoTable, PredicateProgram,
};
use isis_sample::workload::navigation_chain;
use isis_sample::{synthetic_scaled, ScaledMusic, SchemaShape, SynthSpec, ValueDist};
use isis_views::{data_view, DataViewInput, PageSpec};

const SEED: u64 = 0x5CA1E;

struct Config {
    entities: usize,
    dist: ValueDist,
    shape: SchemaShape,
    query_rounds: usize,
    scan_rounds: usize,
    settle_rounds: usize,
    refresh_rounds: usize,
    view_rounds: usize,
}

struct ConfigResult {
    entities: usize,
    tag: String,
    /// Steps of the navigation chain the query rounds time.
    steps: usize,
    cached_ns: f64,
    recompiled_ns: f64,
    scan_batch_ns: f64,
    scan_scalar_ns: f64,
    /// (batch, scalar) for the ordering scan; wide shapes only.
    ordering_scan: Option<(f64, f64)>,
    /// (service answer, batch re-check) for the two-step walk.
    walk: (f64, f64),
    affected: usize,
    settle_serial_ns: f64,
    settle_pool_ns: f64,
    /// Per view arm: the median scene here and at 1e4, interleaved.
    views: [(&'static str, f64, f64); 2],
    /// (full window, emptied window) median pin.
    pin: (f64, f64),
}

fn time_rounds(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        total += t.elapsed();
    }
    total.as_secs_f64() * 1e9 / rounds.max(1) as f64
}

/// Nanoseconds per round of one arm: `(median, interquartile spread)`.
type Spread = (f64, f64);

/// Times two arms round by round, alternating which goes first, and
/// returns each arm's median and interquartile spread per round, so a
/// noisy stretch of the host hits both arms alike.
fn time_interleaved(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Spread, Spread) {
    fn timed(f: &mut impl FnMut(), out: &mut Vec<f64>) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64);
    }
    fn spread(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
        let n = xs.len();
        ((xs[(n - 1) / 2] + xs[n / 2]) / 2.0, at(0.75) - at(0.25))
    }
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for round in 0..rounds.max(1) {
        if round % 2 == 0 {
            timed(&mut a, &mut ta);
            timed(&mut b, &mut tb);
        } else {
            timed(&mut b, &mut tb);
            timed(&mut a, &mut ta);
        }
    }
    (spread(ta), spread(tb))
}

/// Times `pred` over the whole musicians extent through the batch body
/// and through the scalar loop of one compiled program, which must stream
/// and agree, and records `scaling/{name}_{batch,scalar}/{tag}`. Returns
/// the median (batch, scalar) nanoseconds per round, the two arms
/// interleaved round by round.
fn scan_arms(
    g: &ScaledMusic,
    pred: &Predicate,
    rounds: usize,
    name: &str,
    tag: &str,
    report: &mut BenchReport,
) -> (f64, f64) {
    let prog = PredicateProgram::compile(&g.s.db, g.s.musicians, pred).unwrap();
    assert!(
        prog.batch_compatible(),
        "{name}: {pred} must stream columns"
    );
    let extent: Vec<EntityId> = g.s.db.members(g.s.musicians).unwrap().iter().collect();
    let mut memo = MemoTable::new(&prog);
    let expected = prog.eval_batch(&g.s.db, &extent, None, &mut memo).unwrap();
    let scalar: Vec<EntityId> = extent
        .iter()
        .copied()
        .filter(|&e| prog.eval_for(&g.s.db, e, None, &mut memo).unwrap())
        .collect();
    assert_eq!(scalar, expected, "{name}: batch and scalar disagree");
    let ((batch_ns, batch_iqr), (scalar_ns, scalar_iqr)) = time_interleaved(
        rounds,
        || {
            let mut memo = MemoTable::new(&prog);
            let n = prog
                .eval_batch(&g.s.db, &extent, None, &mut memo)
                .unwrap()
                .len();
            assert_eq!(n, expected.len());
        },
        || {
            let mut memo = MemoTable::new(&prog);
            let mut n = 0usize;
            for &e in &extent {
                if prog.eval_for(&g.s.db, e, None, &mut memo).unwrap() {
                    n += 1;
                }
            }
            assert_eq!(n, expected.len());
        },
    );
    eprintln!(
        "   {name} over {} candidates, {rounds} rounds: batch {:.1}us (IQR {:.1}us) \
         vs scalar {:.1}us (IQR {:.1}us) ({:.2}x)",
        extent.len(),
        batch_ns / 1e3,
        batch_iqr / 1e3,
        scalar_ns / 1e3,
        scalar_iqr / 1e3,
        scalar_ns / batch_ns
    );
    *report = std::mem::replace(report, BenchReport::new("scaling"))
        .result(
            format!("scaling/{name}_batch/{tag}"),
            batch_ns,
            rounds as u64,
        )
        .result(
            format!("scaling/{name}_scalar/{tag}"),
            scalar_ns,
            rounds as u64,
        );
    (batch_ns, scalar_ns)
}

/// Times the two-step `members·plays ⊇ {instrument0}` over `music_groups`
/// (`instrument0` is the Zipf rank-0 instrument): the service's answer,
/// which its exact index walk gives without running the program, against
/// the batch body of the same program over the walk's extent-ordered
/// candidates, the work the answer did before the walk was the answer.
/// Records `scaling/walk_{answer,recheck}/{tag}` and returns the median
/// (answer, re-check) nanoseconds per round, the arms interleaved.
fn walk_arms(g: &ScaledMusic, rounds: usize, tag: &str, report: &mut BenchReport) -> (f64, f64) {
    let (db, groups) = (&g.s.db, g.s.music_groups);
    let pred = Predicate::cnf(vec![Clause::new(vec![Atom::new(
        Map::new(vec![g.s.members, g.s.plays]),
        CompareOp::Superset,
        Rhs::constant(g.s.instruments, [g.s.instrument_ids[0]]),
    )])]);
    let mut svc = IndexService::new(db);
    svc.ensure_index(db, g.s.members).unwrap();
    svc.ensure_index(db, g.s.plays).unwrap();
    let (answer, rec) = svc.explain(db, groups, &pred).unwrap();
    assert_eq!(rec.eval_mode, "walk", "{pred} must be answered by its walk");
    let pool = rec.pool_len.expect("the walk pools");
    let candidates: Vec<EntityId> = answer.iter().collect();
    let prog = PredicateProgram::compile(db, groups, &pred).unwrap();
    let mut memo = MemoTable::new(&prog);
    let rechecked = prog.eval_batch(db, &candidates, None, &mut memo).unwrap();
    assert_eq!(
        rechecked, candidates,
        "the program accepts every walked group"
    );
    let ((answer_ns, answer_iqr), (recheck_ns, recheck_iqr)) = time_interleaved(
        rounds,
        || assert_eq!(svc.evaluate(db, groups, &pred).unwrap().len(), answer.len()),
        || {
            let mut memo = MemoTable::new(&prog);
            let n = prog
                .eval_batch(db, &candidates, None, &mut memo)
                .unwrap()
                .len();
            assert_eq!(n, candidates.len());
        },
    );
    eprintln!(
        "   two-step walk, pool {pool} -> {} groups, {rounds} rounds: answer {:.2}ms \
         (IQR {:.2}ms) vs batch re-check {:.2}ms (IQR {:.2}ms) ({:.2}x)",
        answer.len(),
        answer_ns / 1e6,
        answer_iqr / 1e6,
        recheck_ns / 1e6,
        recheck_iqr / 1e6,
        recheck_ns / answer_ns
    );
    *report = std::mem::replace(report, BenchReport::new("scaling"))
        .result(
            format!("scaling/walk_answer/{tag}"),
            answer_ns,
            rounds as u64,
        )
        .result(
            format!("scaling/walk_recheck/{tag}"),
            recheck_ns,
            rounds as u64,
        );
    (answer_ns, recheck_ns)
}

/// Times a `SharedDatabase::pin` (and its release) of `db` with its full
/// delta window against one of the same database after
/// `set_delta_capacity(0)`, interleaved round by round, and records
/// `scaling/pin_{full,empty}_window/{tag}`. Returns the median (full,
/// empty) nanoseconds per pin.
fn pin_arms(db: &Database, rounds: usize, tag: &str, report: &mut BenchReport) -> (f64, f64) {
    let window = db.delta_log().len();
    let full = SharedDatabase::new(db.clone());
    let mut emptied = db.clone();
    emptied.set_delta_capacity(0);
    let empty = SharedDatabase::new(emptied);
    let ((full_ns, full_iqr), (empty_ns, empty_iqr)) =
        time_interleaved(rounds, || drop(full.pin()), || drop(empty.pin()));
    eprintln!(
        "   pin, {window}-entry window vs emptied, {rounds} rounds: {:.1}us (IQR {:.1}us) \
         vs {:.1}us (IQR {:.1}us) ({:.2}x)",
        full_ns / 1e3,
        full_iqr / 1e3,
        empty_ns / 1e3,
        empty_iqr / 1e3,
        full_ns / empty_ns
    );
    *report = std::mem::replace(report, BenchReport::new("scaling"))
        .result(
            format!("scaling/pin_full_window/{tag}"),
            full_ns,
            rounds as u64,
        )
        .result(
            format!("scaling/pin_empty_window/{tag}"),
            empty_ns,
            rounds as u64,
        );
    (full_ns, empty_ns)
}

/// The views arm's inputs over `g`: a musicians page scrolled to
/// mid-extent, and the musicians + instruments stack that following
/// `plays` from two of its rows builds.
fn view_inputs(g: &ScaledMusic) -> [(&'static str, DataViewInput); 2] {
    let db = &g.s.db;
    let extent = db.members(g.s.musicians).unwrap().as_slice();
    let mut page = PageSpec::new(SchemaNode::Class(g.s.musicians));
    page.scroll = extent.len() / 2;
    page.selected = extent[page.scroll..][..2].to_vec();
    let mut plays = OrderedSet::new();
    for &m in &page.selected {
        plays.extend_from(&db.attr_value_set(m, g.s.plays).unwrap());
    }
    let mut followed = PageSpec::new(SchemaNode::Class(g.s.instruments));
    followed.selected = plays.as_slice().to_vec();
    followed.followed_from = Some(g.s.plays);
    let input = |pages| DataViewInput {
        pages,
        prompt: vec![],
    };
    [
        ("page", input(vec![page.clone()])),
        ("follow stack", input(vec![page, followed])),
    ]
}

/// Times `data_view` over each of `g`'s view inputs against the same input
/// over `base`, the same distribution and shape at 1e4, round by round, so
/// both figures of a ratio share one stretch of the host's time. Records
/// `scaling/view_{page,stack}{,_1e4}/{tag}` and returns each arm's median
/// nanoseconds per scene here and at 1e4.
fn view_arms(
    g: &ScaledMusic,
    base: &ScaledMusic,
    rounds: usize,
    tag: &str,
    report: &mut BenchReport,
) -> [(&'static str, f64, f64); 2] {
    let elements = |g: &ScaledMusic, input: &DataViewInput| {
        data_view(&g.s.db, input).unwrap().scene.elements.len()
    };
    let (here, there) = (view_inputs(g), view_inputs(base));
    let mut out = [("", 0.0, 0.0); 2];
    for (i, ((arm, input), (_, base_input))) in here.iter().zip(&there).enumerate() {
        let (want, base_want) = (elements(g, input), elements(base, base_input));
        let ((ns, _), (base_ns, _)) = time_interleaved(
            rounds,
            || assert_eq!(elements(g, input), want),
            || assert_eq!(elements(base, base_input), base_want),
        );
        eprintln!(
            "   views {arm} ({want} elements): {:.1}us vs {:.1}us at 1e4 ({:.2}x)",
            ns / 1e3,
            base_ns / 1e3,
            ns / base_ns
        );
        let id = arm.replace("follow ", "");
        *report = std::mem::replace(report, BenchReport::new("scaling"))
            .result(format!("scaling/view_{id}/{tag}"), ns, rounds as u64)
            .result(
                format!("scaling/view_{id}_1e4/{tag}"),
                base_ns,
                rounds as u64,
            );
        out[i] = (arm, ns, base_ns);
    }
    out
}

fn generate(entities: usize, dist: ValueDist, shape: SchemaShape) -> ScaledMusic {
    synthetic_scaled(SynthSpec {
        entities,
        dist,
        shape,
        seed: SEED,
    })
    .expect("generate scaled database")
}

fn run_config(cfg: &Config, threads: usize, report: &mut BenchReport) -> ConfigResult {
    let tag = format!(
        "{}/{}/{}",
        cfg.entities,
        cfg.dist.label(),
        cfg.shape.label()
    );
    eprintln!("== scaling config {tag} ==");

    let t = Instant::now();
    let mut g = generate(cfg.entities, cfg.dist, cfg.shape);
    let gen_ns = t.elapsed().as_secs_f64() * 1e9;
    eprintln!(
        "   generated {} musicians in {:.2}s",
        g.s.musician_ids.len(),
        gen_ns / 1e9
    );
    *report = std::mem::replace(report, BenchReport::new("scaling")).result(
        format!("scaling/generate/{tag}"),
        gen_ns,
        1,
    );

    // --- Pin cost: the generated database's full delta window against
    // the same database with its window emptied.
    let pin = pin_arms(&g.s.db, cfg.scan_rounds, &tag, report);

    // --- Navigation query rounds: cached program vs per-query recompile,
    // over the longest prefix of the chain whose every step answers. Each
    // step but the second asks for one more instrument, so the sixth asks
    // one musician to play five, more than `Scale::max_plays`: a full
    // chain would time an empty pool.
    let mut chain = navigation_chain(&mut g.s, 6, SEED ^ 1);
    let mut svc = IndexService::new(&g.s.db);
    svc.ensure_index(&g.s.db, g.s.plays).unwrap();
    svc.ensure_index(&g.s.db, g.s.union_attr).unwrap();
    let answering = chain
        .iter()
        .take_while(|pred| {
            !svc.evaluate(&g.s.db, g.s.musicians, pred)
                .unwrap()
                .is_empty()
        })
        .count();
    chain.truncate(answering);
    let run_chain = |svc: &IndexService, db: &Database| {
        let mut total = 0usize;
        for pred in &chain {
            total += svc.evaluate(db, g.s.musicians, pred).unwrap().len();
        }
        total
    };
    // Warm both the index postings and the cache once.
    let warm_total = run_chain(&svc, &g.s.db);
    let cached_ns = time_rounds(cfg.query_rounds, || {
        assert_eq!(run_chain(&svc, &g.s.db), warm_total);
    });
    let recompiled_ns = time_rounds(cfg.query_rounds, || {
        // Identical code path; the clear forces a compile per query,
        // which is exactly what every query paid before the cache.
        svc.program_cache().clear();
        assert_eq!(run_chain(&svc, &g.s.db), warm_total);
    });
    let stats = svc.program_cache().stats();
    assert!(
        stats.hits > 0 && stats.misses > 0,
        "both arms must exercise the cache: {stats:?}"
    );
    if isis_obs::global().enabled() {
        // One explained evaluation per configuration: the record lands in
        // the journal and prints a one-line plan summary.
        let (out, rec) = svc
            .explain(&g.s.db, g.s.musicians, chain.last().unwrap())
            .unwrap();
        eprintln!(
            "   explain: cache {} path[0] {} ({} candidates -> {} members)",
            rec.cache,
            rec.atoms.first().map(|a| a.path.as_str()).unwrap_or("n/a"),
            rec.candidates,
            out.len()
        );
    }
    eprintln!(
        "   query round ({} steps): cached {:.1}us vs recompiled {:.1}us ({:.2}x)",
        chain.len(),
        cached_ns / 1e3,
        recompiled_ns / 1e3,
        recompiled_ns / cached_ns
    );
    *report = std::mem::replace(report, BenchReport::new("scaling"))
        .result(
            format!("scaling/query_cached/{tag}"),
            cached_ns,
            cfg.query_rounds as u64,
        )
        .result(
            format!("scaling/query_recompiled/{tag}"),
            recompiled_ns,
            cfg.query_rounds as u64,
        );

    // --- Full-extent scans: the column-streaming batch body vs the
    // per-candidate scalar loop of the same compiled program over the whole
    // musicians extent, for a set compare and (wide shapes, which carry
    // the integer metrics) an ordering compare.
    let scan_pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
        Map::single(g.s.plays),
        CompareOp::Match,
        Rhs::constant(g.s.instruments, [g.s.instrument_ids[0]]),
    )])]);
    let (scan_batch_ns, scan_scalar_ns) =
        scan_arms(&g, &scan_pred, cfg.scan_rounds, "scan", &tag, report);
    let ordering_scan = g.wide_attrs.first().copied().map(|metric| {
        let ints = g.s.db.predefined(BaseKind::Integers);
        let fifty = g.s.db.int(50);
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(metric),
            CompareOp::Lt,
            Rhs::constant(ints, [fifty]),
        )])]);
        scan_arms(&g, &pred, cfg.scan_rounds, "scan_ordering", &tag, report)
    });
    let walk = walk_arms(&g, cfg.scan_rounds, &tag, report);

    // --- Data-page scenes, which must cost the rows on screen: timed
    // against the same distribution and shape at 1e4.
    let base = generate(10_000, cfg.dist, cfg.shape);
    let views = view_arms(&g, &base, cfg.view_rounds, &tag, report);
    drop(base);

    // --- Large-affected-set settle: serial vs the shared pool.
    let final_pred: Predicate = chain.last().unwrap().clone();
    let derived =
        g.s.db
            .create_derived_subclass(g.s.musicians, "nav_target")
            .unwrap();
    g.s.db.commit_membership(derived, final_pred).unwrap();
    let maint = DerivedMaintainer::new(&g.s.db, derived).unwrap();
    let affected: OrderedSet =
        g.s.musician_ids
            .iter()
            .copied()
            .take(100_000)
            .collect::<Vec<EntityId>>()
            .into_iter()
            .collect();
    // Converge first so both arms measure pure re-evaluation with no
    // membership writes (identical work per arm).
    let serial = EvalPool::new(1);
    maint.settle_with(&mut g.s.db, &affected, &serial).unwrap();
    let settle_serial_ns = time_rounds(cfg.settle_rounds, || {
        let (a, r) = maint.settle_with(&mut g.s.db, &affected, &serial).unwrap();
        assert_eq!((a, r), (0, 0));
    });
    let pool = EvalPool::new(threads);
    let members_before = g.s.db.members(derived).unwrap().clone();
    let settle_pool_ns = time_rounds(cfg.settle_rounds, || {
        let (a, r) = maint.settle_with(&mut g.s.db, &affected, &pool).unwrap();
        assert_eq!((a, r), (0, 0));
    });
    assert!(
        g.s.db.members(derived).unwrap().set_eq(&members_before),
        "pooled settle must leave identical membership"
    );
    eprintln!(
        "   settle over {} affected: serial {:.2}ms vs pool({threads}) {:.2}ms ({:.2}x)",
        affected.len(),
        settle_serial_ns / 1e6,
        settle_pool_ns / 1e6,
        settle_serial_ns / settle_pool_ns
    );
    *report = std::mem::replace(report, BenchReport::new("scaling"))
        .result(
            format!("scaling/settle_serial/{tag}"),
            settle_serial_ns,
            cfg.settle_rounds as u64,
        )
        .result(
            format!("scaling/settle_pool/{tag}"),
            settle_pool_ns,
            cfg.settle_rounds as u64,
        );

    // --- Delta-driven refresh rounds: a burst of plays reassignments,
    // then one session refresh (collect → index drain → settle, until the
    // log runs dry). The untimed first refresh is the full one, so the
    // postings describe the state before the first burst.
    let scope = isis_obs::Registry::new();
    let mut state =
        Some(DerivedState::refresh(None, &mut g.s.db, 1, &scope, &mut Vec::new()).unwrap());
    let burst = 100.min(g.s.musician_ids.len());
    let mut cursor = 0usize;
    let refresh_ns = time_rounds(cfg.refresh_rounds, || {
        for i in 0..burst {
            let m = g.s.musician_ids[(cursor + i * 37) % g.s.musician_ids.len()];
            let inst = g.s.instrument_ids[(cursor + i) % g.s.instrument_ids.len()];
            g.s.db.assign_multi(m, g.s.plays, [inst]).unwrap();
        }
        cursor += burst;
        state = Some(
            DerivedState::refresh(state.take(), &mut g.s.db, 1, &scope, &mut Vec::new()).unwrap(),
        );
    });
    eprintln!(
        "   refresh round ({burst} reassignments): {:.2}ms",
        refresh_ns / 1e6
    );
    *report = std::mem::replace(report, BenchReport::new("scaling")).result(
        format!("scaling/refresh/{tag}"),
        refresh_ns,
        cfg.refresh_rounds as u64,
    );

    ConfigResult {
        entities: cfg.entities,
        tag,
        steps: chain.len(),
        cached_ns,
        recompiled_ns,
        scan_batch_ns,
        scan_scalar_ns,
        ordering_scan,
        walk,
        affected: affected.len(),
        settle_serial_ns,
        settle_pool_ns,
        views,
        pin,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--test");
    let max_entities = args
        .iter()
        .position(|a| a == "--max-entities")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1_000_000);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Pool width stays >= 2 so the sharded path (chunk planning, result
    // merge) is exercised even where it cannot win on wall clock.
    let threads = cores.clamp(2, 8);

    let mut configs: Vec<Config> = Vec::new();
    if smoke {
        configs.push(Config {
            entities: 2_000,
            dist: ValueDist::Zipf,
            shape: SchemaShape::Wide,
            query_rounds: 2,
            scan_rounds: 2,
            settle_rounds: 1,
            refresh_rounds: 1,
            view_rounds: 2,
        });
    } else {
        for &entities in &[10_000usize, 100_000, 1_000_000] {
            if entities > max_entities {
                continue;
            }
            // Full dist × shape matrix below 1e6; two representative
            // configurations at 1e6 to bound the runtime.
            let matrix: Vec<(ValueDist, SchemaShape)> = if entities < 1_000_000 {
                vec![
                    (ValueDist::Uniform, SchemaShape::Wide),
                    (ValueDist::Uniform, SchemaShape::Deep),
                    (ValueDist::Zipf, SchemaShape::Wide),
                    (ValueDist::Zipf, SchemaShape::Deep),
                ]
            } else {
                vec![
                    (ValueDist::Zipf, SchemaShape::Wide),
                    (ValueDist::Uniform, SchemaShape::Deep),
                ]
            };
            for (dist, shape) in matrix {
                configs.push(Config {
                    entities,
                    dist,
                    shape,
                    query_rounds: if entities >= 1_000_000 { 10 } else { 30 },
                    scan_rounds: if entities >= 1_000_000 { 30 } else { 200 },
                    settle_rounds: if entities >= 1_000_000 { 3 } else { 5 },
                    refresh_rounds: if entities >= 1_000_000 { 3 } else { 5 },
                    view_rounds: 2_000,
                });
            }
        }
    }

    let obs = isis_obs::global();
    if obs.enabled() {
        // With observability on (ISIS_OBS=1), capture full plan records
        // for anything over 1ms — at 1e5+ entities that journals real
        // plans for the CI artifact.
        obs.set_slow_threshold_ns(1_000_000);
    }
    let mut report = BenchReport::new("scaling")
        .smoke(smoke)
        .scale(configs.iter().map(|c| c.entities as u64).max().unwrap_or(0))
        .param("max_entities", max_entities)
        .param("threads", threads)
        .param("cores", cores)
        .param("seed", SEED);
    let mut results = Vec::new();
    for cfg in &configs {
        results.push(run_config(cfg, threads, &mut report));
    }
    let path = report.write();
    eprintln!("wrote {}", path.display());

    // With ISIS_OBS=1 the run journaled slow-query plans, explain records,
    // settle and commit events; export them for CI to upload.
    if obs.enabled() {
        let dir = isis_bench::report::out_dir().join("obs");
        std::fs::create_dir_all(&dir).expect("create out/obs");
        let snap = obs.journal().snapshot();
        let path = dir.join("journal.jsonl");
        std::fs::write(&path, snap.to_jsonl()).expect("write the journal");
        eprintln!(
            "wrote {} ({} records, {} dropped by the journal)",
            path.display(),
            snap.records.len(),
            snap.dropped
        );
    }

    if smoke {
        eprintln!("smoke run: performance assertions skipped");
        return;
    }
    // The scaling floor, enforced (ISSUE 8 acceptance criteria).
    for r in &results {
        if r.entities >= 100_000 {
            // The first step, a lone `~`, is answered by its index walk;
            // the second is the first whose program runs.
            assert!(
                r.steps >= 2,
                "the query rounds at {} time only {} answering navigation steps",
                r.tag,
                r.steps
            );
            assert!(
                r.cached_ns * 2.0 <= r.recompiled_ns,
                "cached query rounds must be >=2x faster than per-query \
                 recompilation at {} entities (cached {:.0}ns vs {:.0}ns)",
                r.entities,
                r.cached_ns,
                r.recompiled_ns
            );
        }
        // Columnar batch evaluation must never lose to the scalar loop,
        // and must clear 2x on full-extent set-compare scans and 10x on
        // ordering scans at 1e5+.
        assert!(
            r.scan_batch_ns <= r.scan_scalar_ns,
            "batch scan regressed below scalar at {} entities \
             (batch {:.0}ns vs scalar {:.0}ns)",
            r.entities,
            r.scan_batch_ns,
            r.scan_scalar_ns
        );
        if r.entities >= 100_000 {
            assert!(
                r.scan_batch_ns * 2.0 <= r.scan_scalar_ns,
                "batch full-extent scan must be >=2x faster than scalar at \
                 {} entities (batch {:.0}ns vs scalar {:.0}ns)",
                r.entities,
                r.scan_batch_ns,
                r.scan_scalar_ns
            );
            if let Some((batch_ns, scalar_ns)) = r.ordering_scan {
                assert!(
                    batch_ns * 10.0 <= scalar_ns,
                    "batch ordering scan must be >=10x faster than scalar at \
                     {} entities (batch {batch_ns:.0}ns vs scalar {scalar_ns:.0}ns)",
                    r.entities
                );
            }
        }
        if r.entities >= 100_000 {
            let (answer_ns, recheck_ns) = r.walk;
            assert!(
                answer_ns * 4.0 <= recheck_ns,
                "the two-step walk's answer must be >=4x faster than its batch \
                 re-check at {} (answer {answer_ns:.0}ns vs re-check {recheck_ns:.0}ns)",
                r.tag
            );
        }
        if r.affected >= 100_000 {
            if cores >= 2 {
                assert!(
                    r.settle_pool_ns < r.settle_serial_ns,
                    "pooled settle must beat serial on {} affected entities \
                     (pool {:.0}ns vs serial {:.0}ns)",
                    r.affected,
                    r.settle_pool_ns,
                    r.settle_serial_ns
                );
            } else {
                eprintln!(
                    "single-core host: sharded settle on {} affected recorded \
                     ({:.2}ms pool vs {:.2}ms serial) but not asserted",
                    r.affected,
                    r.settle_pool_ns / 1e6,
                    r.settle_serial_ns / 1e6
                );
            }
        }
        // The views floor: a data page's scene stays flat in the extent.
        if r.entities >= 100_000 {
            for (arm, ns, base_ns) in r.views {
                assert!(
                    ns <= 2.0 * base_ns,
                    "the {arm} scene must stay within 2x of its 1e4 figure at \
                     {} ({ns:.0}ns vs {base_ns:.0}ns)",
                    r.tag
                );
            }
            // The pin floor: a pin stays flat in the delta window.
            let (full_ns, empty_ns) = r.pin;
            assert!(
                full_ns <= 2.0 * empty_ns,
                "a pin with a full delta window must stay within 2x of one with \
                 its window emptied at {} ({full_ns:.0}ns vs {empty_ns:.0}ns)",
                r.tag
            );
        }
    }
    eprintln!("scaling floor assertions passed");
}
