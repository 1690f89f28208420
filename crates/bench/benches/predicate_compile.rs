//! Compiled predicate programs vs the per-candidate interpreter.
//!
//! Experiment E-5: a constant-RHS-heavy predicate (mapped constants whose
//! images the interpreter recomputes for every candidate) evaluated three
//! ways: the core interpreter, the compiled program (constants hoisted
//! once, shared lhs maps memoised), and the compiled program on a
//! persistent [`EvalPool`]. The compiled arm must beat the interpreter by
//! ≥2× at 10k entities.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isis_bench::fixture;
use isis_core::{Atom, Clause, CompareOp, Map, OrderedSet, Predicate, Rhs};
use isis_query::{EvalPool, PredicateProgram};

const THREADS: usize = 4;

/// A predicate dominated by constant-RHS work: two mapped constants over
/// the same `members plays family` lhs (one anchored on half the
/// instrument class, one on the probe instrument) plus the `size = {4}`
/// equality. The interpreter re-evaluates `family(anchors)` for every
/// candidate group; the compiled program hoists both images out of the
/// loop and memoises the shared lhs map per candidate.
fn hoist_heavy_predicate(f: &mut isis_bench::Fixture) -> Predicate {
    let four = f.s.db.int(4);
    let ints = f.s.db.predefined(isis_core::BaseKind::Integers);
    let heavy_anchors: OrderedSet = f.s.instrument_ids.iter().step_by(2).copied().collect();
    Predicate::cnf(vec![
        Clause::new(vec![Atom::new(
            Map::new(vec![f.s.members, f.s.plays, f.s.family]),
            CompareOp::Subset,
            Rhs::Constant {
                class: f.s.instruments,
                anchors: heavy_anchors,
                map: Map::single(f.s.family),
            },
        )]),
        Clause::new(vec![Atom::new(
            Map::new(vec![f.s.members, f.s.plays, f.s.family]),
            CompareOp::Superset,
            Rhs::Constant {
                class: f.s.instruments,
                anchors: [f.probe_instrument].into_iter().collect(),
                map: Map::single(f.s.family),
            },
        )]),
        Clause::new(vec![Atom::new(
            Map::single(f.s.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [four]),
        )]),
    ])
}

fn interpreted_vs_compiled(c: &mut Criterion) {
    let mut g = c.benchmark_group("predicate_compile");
    for n in [100usize, 400, 1600] {
        let mut f = fixture(n);
        let pred = hoist_heavy_predicate(&mut f);
        g.bench_with_input(BenchmarkId::new("interpreted", n), &n, |b, _| {
            b.iter(|| {
                f.s.db
                    .evaluate_derived_members(f.s.music_groups, &pred)
                    .unwrap()
            })
        });
        // Compile cost is part of the arm: the claim is compile-once-per-
        // query, not compile-once-ever.
        g.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| {
                let prog = PredicateProgram::compile(&f.s.db, f.s.music_groups, &pred).unwrap();
                prog.evaluate_extent(&f.s.db, f.s.music_groups).unwrap()
            })
        });
    }
    g.finish();
}

/// The headline report: all three arms over the same database at 10k-entity
/// scale, written to `out/predicate_compile.md` and (machine-readable)
/// `out/bench_predicate_compile.json`.
fn predicate_compile_report(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let (n, rounds) = if smoke { (300, 3) } else { (10_000, 30) };

    let mut f = fixture(n);
    let pred = hoist_heavy_predicate(&mut f);
    let db = &f.s.db;
    let parent = f.s.music_groups;
    let entities = db.entity_count();
    let groups = db.members(parent).unwrap().len();

    let time_arm = |eval: &mut dyn FnMut() -> OrderedSet| -> (Duration, OrderedSet) {
        let mut total = Duration::ZERO;
        let mut last = OrderedSet::new();
        for _ in 0..rounds {
            let t = Instant::now();
            last = eval();
            total += t.elapsed();
        }
        (total, last)
    };

    let (interp_total, interp_last) =
        time_arm(&mut || db.evaluate_derived_members(parent, &pred).unwrap());
    let (compiled_total, compiled_last) = time_arm(&mut || {
        let prog = PredicateProgram::compile(db, parent, &pred).unwrap();
        prog.evaluate_extent(db, parent).unwrap()
    });
    // Like the serial arm, the pooled arm compiles once per round. The
    // pool is warmed first so thread startup is excluded — that
    // persistence is exactly what the arm measures.
    let pool = EvalPool::new(THREADS);
    let pooled_round = || {
        let prog = PredicateProgram::compile(db, parent, &pred).unwrap();
        let members: Vec<_> = db.members(parent).unwrap().iter().collect();
        pool.evaluate(db, &prog, &members, None).unwrap()
    };
    pooled_round();
    let (pooled_total, pooled_last) = time_arm(&mut || pooled_round());

    // Every arm must agree, in order.
    assert_eq!(interp_last.as_slice(), compiled_last.as_slice());
    assert_eq!(interp_last.as_slice(), pooled_last.as_slice());

    let us = |d: Duration| d.as_secs_f64() * 1e6 / rounds as f64;
    let (interp_us, compiled_us, pooled_us) =
        (us(interp_total), us(compiled_total), us(pooled_total));
    let speedup = interp_us / compiled_us;
    println!(
        "predicate_compile_report: n={n} ({entities} entities, {groups} groups) \
         interpreted={interp_us:.1}us compiled={compiled_us:.1}us ({speedup:.1}x) \
         pooled{THREADS}={pooled_us:.1}us"
    );
    if !smoke {
        assert!(
            speedup >= 2.0,
            "compiled evaluation must be at least 2x the interpreter on a \
             constant-RHS-heavy predicate (interpreted {interp_us:.1}us vs \
             compiled {compiled_us:.1}us)"
        );
    }

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../out");
    std::fs::create_dir_all(&out_dir).expect("create out/");
    let report = format!(
        "# Compiled predicate programs: hoisting, memoization, persistent pool\n\n\
         {rounds} rounds of a constant-RHS-heavy CNF query (two mapped\n\
         constants over a shared `members plays family` lhs, plus\n\
         `size = {{4}}`) over {entities} entities ({groups} music groups).\n\
         Compile cost is inside every compiled arm's timing.\n\n\
         | arm | mean per round |\n\
         | --- | --- |\n\
         | interpreter (per-candidate) | {interp_us:.1} µs |\n\
         | compiled program, serial | {compiled_us:.1} µs |\n\
         | compiled, persistent pool ({THREADS} threads) | {pooled_us:.1} µs |\n\n\
         **Compiled speedup over interpreter: {speedup:.1}×**{}.\n",
        if smoke {
            " (smoke run under `--test`)"
        } else {
            ""
        },
    );
    std::fs::write(out_dir.join("predicate_compile.md"), report).expect("write report");

    isis_bench::BenchReport::new("predicate_compile")
        .smoke(smoke)
        .scale(entities as u64)
        .param("n", n)
        .param("rounds", rounds as u64)
        .param("entities", entities)
        .param("groups", groups)
        .param("threads", THREADS)
        .result(
            "predicate_compile/report/interpreted",
            interp_us * 1e3,
            rounds as u64,
        )
        .result(
            "predicate_compile/report/compiled_serial",
            compiled_us * 1e3,
            rounds as u64,
        )
        .result(
            "predicate_compile/report/compiled_pooled",
            pooled_us * 1e3,
            rounds as u64,
        )
        .results_from(
            c.measurements()
                .iter()
                .map(|m| (m.id.clone(), m.mean_ns, m.iters)),
        )
        .write();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = interpreted_vs_compiled, predicate_compile_report
}
criterion_main!(benches);
