//! Derived-subclass maintenance: full recompute (the paper's commit) vs the
//! delta refresh a session runs, `DerivedState::refresh`.
//!
//! Experiment E-2: the delta refresh after a single entity change beats
//! full re-evaluation by a widening factor as the class grows.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isis_bench::fixture;
use isis_core::{Database, EntityId, OrderedSet};
use isis_query::{DerivedMaintainer, DerivedState};

/// Brings `db`'s derived state up to date through the refresh path
/// `Session::refresh_derived` takes: delta rounds once `state` exists.
fn refresh(state: &mut Option<DerivedState>, db: &mut Database) {
    let (scope, mut changed) = (isis_obs::Registry::new(), Vec::new());
    *state = Some(DerivedState::refresh(state.take(), db, 1, &scope, &mut changed).unwrap());
}

fn commit_vs_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("derived_class");
    for n in [100usize, 400, 1600] {
        // Full recompute of the committed predicate.
        {
            let f = fixture(n);
            let mut db = f.s.db.clone();
            let quartets = db
                .create_derived_subclass(f.s.music_groups, "bench_quartets")
                .unwrap();
            db.commit_membership(quartets, f.quartets.clone()).unwrap();
            g.bench_with_input(BenchmarkId::new("full_refresh", n), &n, |b, _| {
                b.iter(|| db.clone().refresh_derived_class(quartets).unwrap())
            });
        }
        // The delta pipeline: one musician's plays changed, then a refresh
        // reads the change log, drains it into the postings, and settles.
        {
            let f = fixture(n);
            let mut db = f.s.db.clone();
            let quartets = db
                .create_derived_subclass(f.s.music_groups, "bench_quartets")
                .unwrap();
            db.commit_membership(quartets, f.quartets.clone()).unwrap();
            let mut toggle = PlaysToggle::new(&db, &f, f.s.musician_ids[1]);
            let mut state = None;
            refresh(&mut state, &mut db);
            g.bench_with_input(BenchmarkId::new("delta_pipeline", n), &n, |b, _| {
                b.iter(|| {
                    toggle.flip(&mut db);
                    refresh(&mut state, &mut db);
                })
            });
        }
        // Affected-candidate analysis alone (the pruning power).
        {
            let f = fixture(n);
            let mut db = f.s.db.clone();
            let quartets = db
                .create_derived_subclass(f.s.music_groups, "bench_quartets")
                .unwrap();
            db.commit_membership(quartets, f.quartets.clone()).unwrap();
            let maint = DerivedMaintainer::new(&db, quartets).unwrap();
            let mut state = None;
            refresh(&mut state, &mut db);
            let indexes = state.as_ref().unwrap().service();
            let owners: OrderedSet = [f.s.musician_ids[1]].into_iter().collect();
            g.bench_with_input(BenchmarkId::new("affected_candidates", n), &n, |b, _| {
                b.iter(|| {
                    maint
                        .affected_candidates(&db, indexes, f.s.plays, &owners)
                        .unwrap()
                })
            });
        }
    }
    g.finish();
}

/// A repeatable point update: one musician alternately gains and loses one
/// instrument, so every flip records exactly one real `AttrAssigned`.
struct PlaysToggle {
    target: EntityId,
    attr: isis_core::AttrId,
    with_probe: OrderedSet,
    without_probe: OrderedSet,
    has_probe: bool,
}

impl PlaysToggle {
    fn new(db: &Database, f: &isis_bench::Fixture, target: EntityId) -> Self {
        let base = db.attr_value_set(target, f.s.plays).unwrap();
        let mut with_probe = base.clone();
        with_probe.insert(f.probe_instrument);
        let mut without_probe = base.clone();
        without_probe.remove(f.probe_instrument);
        PlaysToggle {
            target,
            attr: f.s.plays,
            has_probe: base.contains(f.probe_instrument),
            with_probe,
            without_probe,
        }
    }

    fn flip(&mut self, db: &mut Database) {
        let next = if self.has_probe {
            self.without_probe.as_slice()
        } else {
            self.with_probe.as_slice()
        };
        db.assign_multi(self.target, self.attr, next.iter().copied())
            .unwrap();
        self.has_probe = !self.has_probe;
    }
}

/// Experiment E-2b: the headline comparison for the delta-refresh pipeline.
/// Full re-evaluation vs a `DerivedState::refresh` delta refresh after a
/// single point update, at a 10k-entity scale, written to `out/derived_refresh.md`
/// and (machine-readable) `out/bench_derived_class.json`.
fn refresh_report(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let (n, full_iters, delta_iters) = if smoke {
        (300, 2, 8)
    } else {
        (10_000, 20, 400)
    };

    let f = fixture(n);
    let mut db = f.s.db.clone();
    let quartets = db
        .create_derived_subclass(f.s.music_groups, "bench_quartets")
        .unwrap();
    db.commit_membership(quartets, f.quartets.clone()).unwrap();
    let entities = db.entity_count();
    let mut toggle = PlaysToggle::new(&db, &f, f.s.musician_ids[1]);

    // Full refresh: re-evaluate the stored predicate over the whole parent
    // extent after each point update.
    let mut full_total = Duration::ZERO;
    for _ in 0..full_iters {
        toggle.flip(&mut db);
        let t = Instant::now();
        db.refresh_derived_class(quartets).unwrap();
        full_total += t.elapsed();
    }

    // Delta refresh: the steady-state refresh path consuming the change
    // log (its first, full refresh is not timed).
    let mut state = None;
    refresh(&mut state, &mut db);
    let mut delta_total = Duration::ZERO;
    for _ in 0..delta_iters {
        toggle.flip(&mut db);
        let t = Instant::now();
        refresh(&mut state, &mut db);
        delta_total += t.elapsed();
    }

    // The delta path must land on the same membership as a full refresh.
    let incremental: Vec<EntityId> = db.members(quartets).unwrap().iter().collect();
    db.refresh_derived_class(quartets).unwrap();
    let full: Vec<EntityId> = db.members(quartets).unwrap().iter().collect();
    assert_eq!(
        incremental, full,
        "delta refresh diverged from full refresh"
    );

    let full_us = full_total.as_secs_f64() * 1e6 / full_iters as f64;
    let delta_us = delta_total.as_secs_f64() * 1e6 / delta_iters as f64;
    let speedup = full_us / delta_us;
    println!(
        "refresh_report: n={n} ({entities} entities) full={full_us:.1}us \
         delta={delta_us:.1}us speedup={speedup:.1}x"
    );

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../out");
    std::fs::create_dir_all(&out_dir).expect("create out/");
    let report = format!(
        "# Derived-class refresh: full vs delta\n\n\
         Point update (one musician's `plays` set changes by one instrument),\n\
         then the derived subclass `bench_quartets` is brought up to date.\n\n\
         | mode | database | mean per update |\n\
         | --- | --- | --- |\n\
         | full `refresh_derived_class` | {entities} entities ({n} musicians) | {full_us:.1} µs |\n\
         | delta `DerivedState::refresh` | {entities} entities ({n} musicians) | {delta_us:.1} µs |\n\n\
         **Speedup: {speedup:.1}×** (iterations: {full_iters} full, {delta_iters} delta{}).\n",
        if smoke { "; smoke run under `--test`" } else { "" }
    );
    std::fs::write(out_dir.join("derived_refresh.md"), report).expect("write report");

    // Machine-readable sibling: aggregate rows plus the criterion runs.
    isis_bench::BenchReport::new("derived_class")
        .smoke(smoke)
        .scale(entities as u64)
        .param("n", n)
        .param("full_iters", full_iters as u64)
        .param("delta_iters", delta_iters as u64)
        .param("entities", entities)
        .result(
            "derived_class/report/full_refresh_per_update",
            full_us * 1e3,
            full_iters as u64,
        )
        .result(
            "derived_class/report/delta_refresh_per_update",
            delta_us * 1e3,
            delta_iters as u64,
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
    targets = commit_vs_incremental, refresh_report
}
criterion_main!(benches);
