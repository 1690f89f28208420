//! Grouping cost: computing the family of sets on demand (the engine's
//! faithful §2 semantics) vs an inverted index (grouping made operational),
//! and index lookup vs recomputation of a single set.
//!
//! Experiment E-5: on-demand grouping is O(|C| × |A(x)|) per computation;
//! the index pays that once and answers set lookups in O(1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isis_bench::fixture;
use isis_query::AttrIndex;

fn grouping_costs(c: &mut Criterion) {
    let mut g = c.benchmark_group("grouping");
    for n in [100usize, 400, 1600] {
        let f = fixture(n);
        let family_of_first = {
            let fam =
                f.s.db
                    .attr_value_set(f.s.instrument_ids[0], f.s.family)
                    .unwrap();
            fam.as_singleton().unwrap()
        };
        // Full family-of-sets computation (what the grouping page shows).
        g.bench_with_input(BenchmarkId::new("grouping_sets", n), &n, |b, _| {
            b.iter(|| f.s.db.grouping_sets(f.s.by_family).unwrap())
        });
        // One set, recomputed by scan.
        g.bench_with_input(BenchmarkId::new("one_set_scan", n), &n, |b, _| {
            b.iter(|| {
                f.s.db
                    .grouping_sets_named(f.s.by_family, &[family_of_first].into_iter().collect())
                    .unwrap()
            })
        });
        // Index build (amortised cost of the maintained variant).
        g.bench_with_input(BenchmarkId::new("index_build", n), &n, |b, _| {
            b.iter(|| AttrIndex::build(&f.s.db, f.s.family).unwrap())
        });
        // Index lookup of the same set.
        let idx = AttrIndex::build(&f.s.db, f.s.family).unwrap();
        g.bench_with_input(BenchmarkId::new("one_set_index", n), &n, |b, _| {
            b.iter(|| idx.owners_of(family_of_first).map(|s| s.len()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = grouping_costs
}
criterion_main!(benches);
