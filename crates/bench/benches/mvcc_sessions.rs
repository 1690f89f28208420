//! Concurrent sessions over a [`SharedDatabase`] vs a single owned
//! session.
//!
//! The MVCC experiment: N reader threads each pin a snapshot and run the
//! standard `size = {4}` query repeatedly while one writer thread commits
//! inserts, against the same total work done sequentially through a
//! single-owner database. Readers assert snapshot stability as they go —
//! every pass over a pinned snapshot must return the identical extent, no
//! matter what the writer commits.
//!
//! Micro-arms time the two MVCC primitives (`pin`, the snapshot clone,
//! and the fast-path `commit`) at 400, 1,600 and (full runs only) 100,000
//! musicians; the report arm measures end-to-end wall
//! time and writes `out/bench_mvcc_sessions.md` plus machine-readable
//! `out/bench_mvcc_sessions.json`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isis_bench::fixture;
use isis_core::SharedDatabase;

const READERS: usize = 4;

fn pin_and_commit(c: &mut Criterion) {
    // The full run adds 1e5 musicians, where a pin that copied the
    // database would cost tens of milliseconds; the smoke run keeps the
    // small sizes.
    let sizes: &[usize] = if c.is_test_mode() {
        &[400, 1600]
    } else {
        &[400, 1600, 100_000]
    };
    let mut g = c.benchmark_group("mvcc_sessions");
    for &n in sizes {
        let f = fixture(n);
        let shared = SharedDatabase::new(f.s.db.clone());
        g.bench_with_input(BenchmarkId::new("pin", n), &n, |b, _| {
            b.iter(|| shared.pin())
        });
        let musicians = f.s.musicians;
        let mut i = 0u64;
        g.bench_with_input(BenchmarkId::new("commit_insert", n), &n, |b, _| {
            b.iter(|| {
                let mut local = shared.pin();
                let base = local.delta_epoch();
                i += 1;
                local
                    .insert_entity(musicians, &format!("bench_{i}"))
                    .unwrap();
                shared.commit(base, &local).unwrap()
            })
        });
    }
    g.finish();
}

/// The headline report: total wall time for R read passes + W commits,
/// single-owner sequential vs N pinned readers + 1 committing writer.
fn concurrent_sessions_report(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let (n, passes, commits) = if smoke { (300, 8, 4) } else { (10_000, 48, 24) };

    let f = fixture(n);
    let entities = f.s.db.entity_count();
    let query = f.size4.clone();
    let groups_class = f.s.music_groups;
    let musicians = f.s.musicians;

    // Baseline: one owned database, same total work, strictly sequential
    // (a read pass between every pair of writes, like a single session
    // alternating browse and modify).
    let mut db = f.s.db.clone();
    let t = Instant::now();
    let mut done_reads = 0usize;
    for i in 0..commits {
        db.insert_entity(musicians, &format!("solo_{i}")).unwrap();
        while done_reads * commits < passes * (i + 1) {
            let _ = db.evaluate_derived_members(groups_class, &query).unwrap();
            done_reads += 1;
        }
    }
    while done_reads < passes {
        let _ = db.evaluate_derived_members(groups_class, &query).unwrap();
        done_reads += 1;
    }
    let baseline = t.elapsed();

    // Shared: N readers over pinned snapshots, one writer committing the
    // same number of inserts through the MVCC path.
    let shared = SharedDatabase::new(f.s.db.clone());
    let t = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..READERS {
            let shared = shared.clone();
            let query = query.clone();
            let my_passes = passes / READERS + usize::from(r < passes % READERS);
            scope.spawn(move || {
                let pinned = shared.pin();
                let first = pinned
                    .evaluate_derived_members(groups_class, &query)
                    .unwrap();
                for _ in 1..my_passes.max(1) {
                    let again = pinned
                        .evaluate_derived_members(groups_class, &query)
                        .unwrap();
                    assert_eq!(
                        first, again,
                        "pinned snapshot changed under a concurrent writer"
                    );
                }
            });
        }
        let shared = shared.clone();
        scope.spawn(move || {
            for i in 0..commits {
                let mut local = shared.pin();
                let base = local.delta_epoch();
                local
                    .insert_entity(musicians, &format!("mvcc_{i}"))
                    .unwrap();
                shared.commit(base, &local).unwrap();
            }
        });
    });
    let concurrent = t.elapsed();
    assert_eq!(shared.commits(), commits as u64);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let speedup = ms(baseline) / ms(concurrent);
    println!(
        "mvcc_sessions_report: n={n} ({entities} entities) {passes} read passes + \
         {commits} commits — single-owner={:.1}ms shared {READERS}r+1w={:.1}ms \
         ({speedup:.2}x)",
        ms(baseline),
        ms(concurrent)
    );

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../out");
    std::fs::create_dir_all(&out_dir).expect("create out/");
    let report = format!(
        "# MVCC sessions: pinned readers + committing writer vs single owner\n\n\
         {passes} `size = {{4}}` evaluation passes and {commits} insert\n\
         commits over {entities} entities. The shared arm runs {READERS}\n\
         pinned readers concurrently with one writer committing through the\n\
         snapshot-isolation path; every reader asserts its snapshot stayed\n\
         byte-stable across the run.\n\n\
         | arm | wall time |\n\
         | --- | --- |\n\
         | single owned session, sequential | {:.1} ms |\n\
         | shared: {READERS} readers + 1 writer | {:.1} ms |\n\n\
         **Concurrency speedup: {speedup:.2}×**{}.\n",
        ms(baseline),
        ms(concurrent),
        if smoke {
            " (smoke run under `--test`)"
        } else {
            ""
        },
    );
    std::fs::write(out_dir.join("bench_mvcc_sessions.md"), report).expect("write report");

    isis_bench::BenchReport::new("mvcc_sessions")
        .smoke(smoke)
        .scale(entities as u64)
        .param("n", n)
        .param("entities", entities)
        .param("readers", READERS)
        .param("read_passes", passes)
        .param("commits", commits)
        .result(
            "mvcc_sessions/report/single_owner",
            ms(baseline) * 1e6,
            passes as u64 + commits as u64,
        )
        .result(
            "mvcc_sessions/report/shared_readers_writer",
            ms(concurrent) * 1e6,
            passes as u64 + commits as u64,
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
    targets = pin_and_commit, concurrent_sessions_report
}
criterion_main!(benches);
