//! The cost of disabled instrumentation on the query hot path.
//!
//! The observability contract (DESIGN.md §5c) budgets disabled-mode
//! instrumentation at under 2% of query latency: every `span`/`count`
//! site must collapse to one relaxed atomic load when `ISIS_OBS` is off.
//! This bench proves the budget empirically on the 10k-musician workload:
//!
//! 1. microbenchmark the disabled `span()`, `count()` and `event()` paths
//!    per op;
//! 2. count the instrumentation ops one shared-service query round
//!    actually executes (by running a round with tracing on and reading
//!    the journal and registry back);
//! 3. time the same round with observability fully disabled;
//! 4. overhead% = per-op ns × ops per round ÷ round ns, with a 2× safety
//!    factor on the op count for counter sites the journal can't see.
//!
//! The `<2%` assertion only fires in measured mode — `--test` smoke runs
//! record placeholder numbers but still exercise every path.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use isis_bench::fixture;
use isis_core::Database;
use isis_query::IndexService;

struct Workload {
    target: isis_core::EntityId,
    size: isis_core::AttrId,
    parent: isis_core::ClassId,
    four: isis_core::EntityId,
    five: isis_core::EntityId,
    size4: isis_core::Predicate,
    quartets: isis_core::Predicate,
}

impl Workload {
    fn round(&self, db: &mut Database, svc: &mut IndexService, i: usize) {
        let v = if i.is_multiple_of(2) {
            self.five
        } else {
            self.four
        };
        db.assign_single(self.target, self.size, v).unwrap();
        svc.refresh(db).unwrap();
        black_box(svc.evaluate(db, self.parent, &self.size4).unwrap());
        black_box(svc.evaluate(db, self.parent, &self.quartets).unwrap());
    }
}

fn obs_overhead(c: &mut Criterion) {
    let smoke = c.is_test_mode();
    let (n, rounds) = if smoke {
        (300usize, 8usize)
    } else {
        (10_000, 200)
    };
    let obs = isis_obs::global();

    // 1. Per-op cost of the disabled fast path.
    obs.set_tracing(false);
    obs.set_enabled(false);
    let probe_ops: u64 = if smoke { 10_000 } else { 2_000_000 };
    let t = Instant::now();
    for _ in 0..probe_ops {
        black_box(obs.span("bench.obs.noop"));
    }
    let span_op_ns = t.elapsed().as_nanos() as f64 / probe_ops as f64;
    let t = Instant::now();
    for _ in 0..probe_ops {
        obs.count(black_box("bench.obs.noop"), 1);
    }
    let count_op_ns = t.elapsed().as_nanos() as f64 / probe_ops as f64;
    let t = Instant::now();
    for _ in 0..probe_ops {
        // Disabled events must not even build their payload: the closure
        // is behind the enabled check.
        obs.event(black_box("bench.obs.noop"), || {
            unreachable!("payload built with observability off")
        });
    }
    let event_op_ns = t.elapsed().as_nanos() as f64 / probe_ops as f64;
    let op_ns = span_op_ns.max(count_op_ns).max(event_op_ns);

    // 2. Instrumentation ops per query round, observed under tracing.
    let f = fixture(n);
    let mut db = f.s.db.clone();
    let w = Workload {
        target: f.s.group_ids[0],
        size: f.s.size,
        parent: f.s.music_groups,
        four: db.int(4),
        five: db.int(5),
        size4: f.size4.clone(),
        quartets: f.quartets.clone(),
    };
    let mut svc = IndexService::new(&db);
    svc.ensure_index(&db, w.size).unwrap();
    w.round(&mut db, &mut svc, 0); // settle into steady state untraced
    obs.set_tracing(true);
    obs.registry().reset();
    obs.journal().clear();
    w.round(&mut db, &mut svc, 1);
    let journal = obs.journal().snapshot();
    let fields: usize = journal
        .records
        .iter()
        .map(|r| match &r.body {
            isis_obs::Body::End { fields, .. } => fields.len(),
            _ => 0,
        })
        .sum();
    let counter_sites = obs
        .registry()
        .snapshot()
        .entries
        .iter()
        .filter(|(_, v)| matches!(v, isis_obs::MetricValue::Counter(_)))
        .count();
    // Spans cost one guard each; events, span fields and counter metrics
    // one call each. Double the total as headroom for sites the journal
    // cannot attribute (multi-increment counters, gauges).
    let ops_per_round = 2 * (journal.span_count() + journal.event_count() + fields + counter_sites);
    obs.set_tracing(false);
    obs.set_enabled(false);

    // 3. The real round with observability fully disabled.
    let t = Instant::now();
    for i in 2..2 + rounds {
        w.round(&mut db, &mut svc, i);
    }
    let round_ns = t.elapsed().as_nanos() as f64 / rounds as f64;

    // 4. The budget check.
    let overhead_pct = op_ns * ops_per_round as f64 * 100.0 / round_ns;
    println!(
        "obs_overhead: n={n} op={op_ns:.2}ns (span {span_op_ns:.2}, count {count_op_ns:.2}, \
         event {event_op_ns:.2}) ops/round={ops_per_round} round={round_ns:.0}ns \
         overhead={overhead_pct:.3}%"
    );
    if !smoke {
        assert!(
            overhead_pct < 2.0,
            "disabled instrumentation must cost <2% of a query round \
             ({overhead_pct:.3}% = {op_ns:.2}ns x {ops_per_round} ops on a \
             {round_ns:.0}ns round)"
        );
    }

    let out_dir = isis_bench::report::out_dir();
    std::fs::create_dir_all(&out_dir).expect("create out/");
    let md = format!(
        "# Disabled-instrumentation overhead on the query path\n\n\
         Per-op disabled fast path: span {span_op_ns:.2} ns, counter \
         {count_op_ns:.2} ns, event {event_op_ns:.2} ns (payload \
         closure never runs). One shared-service round (point update, delta \
         drain, two queries) executes ~{ops_per_round} instrumentation ops \
         (2x-padded journal count) and takes {round_ns:.0} ns with `ISIS_OBS` \
         off over {n} musicians.\n\n\
         **Overhead bound: {overhead_pct:.3}%** (budget: 2%{}).\n",
        if smoke {
            "; smoke run under `--test`"
        } else {
            ""
        }
    );
    std::fs::write(out_dir.join("obs_overhead.md"), md).expect("write report");
    isis_bench::BenchReport::new("obs_overhead")
        .smoke(smoke)
        .scale(n as u64)
        .param("n", n)
        .param("rounds", rounds)
        .param("ops_per_round", ops_per_round)
        .param("overhead_pct", overhead_pct)
        .result("obs_overhead/disabled_span_op", span_op_ns, probe_ops)
        .result("obs_overhead/disabled_count_op", count_op_ns, probe_ops)
        .result("obs_overhead/disabled_event_op", event_op_ns, probe_ops)
        .result("obs_overhead/query_round_disabled", round_ns, rounds as u64)
        .write();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = obs_overhead
}
criterion_main!(benches);
