//! Query-style baselines: the ISIS per-candidate evaluator vs the compiled
//! relational algebra plan vs the QBE template engine (§1.1 comparators),
//! plus the [`IndexService`] paths: index-pruned, and over a 4-wide pool.
//!
//! Experiment E-3: all engines return identical answers; ISIS's navigational
//! evaluation wins on selective predicates, the RA plan pays materialisation
//! costs, QBE's nested-loop unification sits in between; indexes cut the
//! ISIS cost further.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isis_bench::fixture;
use isis_query::{
    compile_subclass_predicate, encode_database, eval_plan, Cell, IndexService, QbeQuery,
    TemplateRow,
};

fn engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baselines");
    for n in [100usize, 400, 1600] {
        let mut f = fixture(n);
        let four = f.s.db.int(4);

        // ISIS per-candidate evaluation.
        g.bench_with_input(BenchmarkId::new("isis_eval", n), &n, |b, _| {
            b.iter(|| {
                f.s.db
                    .evaluate_derived_members(f.s.music_groups, &f.quartets)
                    .unwrap()
            })
        });

        // Compiled relational algebra over a pre-encoded image.
        let plan = compile_subclass_predicate(&f.s.db, f.s.music_groups, &f.quartets).unwrap();
        let rdb = encode_database(&f.s.db).unwrap();
        g.bench_with_input(BenchmarkId::new("ra_plan_eval", n), &n, |b, _| {
            b.iter(|| eval_plan(&plan, &rdb, &f.s.db).unwrap())
        });
        // Same plan with structural memoisation of repeated subplans.
        g.bench_with_input(BenchmarkId::new("ra_plan_cached", n), &n, |b, _| {
            b.iter(|| isis_query::eval_cached(&plan, &rdb, &f.s.db).unwrap().len())
        });
        // Encoding cost, reported separately.
        g.bench_with_input(BenchmarkId::new("ra_encode", n), &n, |b, _| {
            b.iter(|| encode_database(&f.s.db).unwrap())
        });

        // QBE template (same query): groups of size 4 with a member who
        // plays the probe instrument.
        let qbe = QbeQuery::new(
            vec![
                TemplateRow {
                    relation: "attr_music_groups_size".into(),
                    cells: vec![Cell::Var("g".into()), Cell::Const(four)],
                },
                TemplateRow {
                    relation: "attr_music_groups_members".into(),
                    cells: vec![Cell::Var("g".into()), Cell::Var("m".into())],
                },
                TemplateRow {
                    relation: "attr_musicians_plays".into(),
                    cells: vec![Cell::Var("m".into()), Cell::Const(f.probe_instrument)],
                },
            ],
            vec![],
            "g",
        )
        .unwrap();
        g.bench_with_input(BenchmarkId::new("qbe_eval", n), &n, |b, _| {
            b.iter(|| qbe.eval(&rdb, &f.s.db).unwrap())
        });
        // The same QBE query compiled to hash-join algebra.
        let qbe_plan = qbe.compile_to_algebra().unwrap();
        g.bench_with_input(BenchmarkId::new("qbe_compiled", n), &n, |b, _| {
            b.iter(|| isis_query::algebra::eval(&qbe_plan, &rdb, &f.s.db).unwrap())
        });

        // Index-pruned ISIS evaluation.
        let mut indexed = IndexService::new(&f.s.db);
        indexed.ensure_index(&f.s.db, f.s.size).unwrap();
        indexed.ensure_index(&f.s.db, f.s.plays).unwrap();
        g.bench_with_input(BenchmarkId::new("isis_indexed", n), &n, |b, _| {
            b.iter(|| {
                indexed
                    .evaluate(&f.s.db, f.s.music_groups, &f.quartets)
                    .unwrap()
            })
        });

        // Parallel evaluation: a service with no indexes, 4 workers.
        let parallel = IndexService::new(&f.s.db);
        parallel.eval_pool().set_threads(4);
        g.bench_with_input(BenchmarkId::new("isis_parallel4", n), &n, |b, _| {
            b.iter(|| {
                parallel
                    .evaluate(&f.s.db, f.s.music_groups, &f.quartets)
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// Machine-readable sibling of the engine comparison: every criterion
/// measurement taken this run, written to `out/bench_baselines.json`.
fn export_report(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    isis_bench::BenchReport::new("baselines")
        .smoke(smoke)
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
    targets = engines, export_report
}
criterion_main!(benches);
