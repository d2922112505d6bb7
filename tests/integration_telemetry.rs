//! Workspace-level exercises of the observability layer: traced runs under
//! heavy concurrency (the histograms must not lose increments), phase-sum
//! accounting, per-batch re-widening and trace-structure determinism.

use sac::prelude::*;
use std::thread;

fn service_database() -> Database {
    Database::from_instance(sac::gen::random_graph_database(16, 80, 7))
}

#[test]
fn eight_threads_of_traced_runs_lose_no_histogram_increments() {
    let db = service_database();
    let queries = [
        sac::gen::path_query(2),
        sac::gen::star_query(3),
        sac::gen::cycle_query(3),
    ];
    const THREADS: usize = 8;
    const RUNS_PER_THREAD: usize = 25;
    let db = &db;
    let queries = &queries;
    thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..RUNS_PER_THREAD {
                    let q = &queries[(t + i) % queries.len()];
                    let (result, trace) = db.run_traced(q);
                    assert_eq!(trace.answers, result.len());
                    // Boundary-mark timing: the phase sum IS the total.
                    assert_eq!(trace.phases.total_ns(), trace.total_ns);
                }
            });
        }
    });
    let m = db.metrics();
    let total = THREADS * RUNS_PER_THREAD;
    assert_eq!(m.queries_run, total, "no lost run counters");
    assert_eq!(
        m.run_latency.count, total as u64,
        "no lost histogram samples"
    );
    assert!(
        m.run_latency.total_ns >= m.run_latency.count,
        "every sample contributed nonzero time"
    );
    assert!(m.run_latency.p50() <= m.run_latency.p90());
    assert!(m.run_latency.p90() <= m.run_latency.p99());
    assert!(
        m.run_latency.p99() <= m.run_latency.max_ns,
        "quantiles clamp to the observed maximum"
    );
    assert_eq!(
        m.plans_built + m.plan_cache_hits,
        total,
        "every request either planned or hit the cache"
    );
    assert_eq!(m.prepare_latency.count, m.plans_built as u64);
}

#[test]
fn metrics_totals_are_monotone_under_traffic() {
    let db = service_database();
    let q = sac::gen::path_query(2);
    let mut last_count = 0u64;
    let mut last_total = 0u64;
    for _ in 0..10 {
        let _ = db.run_traced(&q);
        let snap = db.metrics().run_latency;
        assert!(snap.count > last_count, "count is monotone");
        assert!(snap.total_ns >= last_total, "total time is monotone");
        last_count = snap.count;
        last_total = snap.total_ns;
    }
}

#[test]
fn phase_durations_sum_to_the_recorded_total_on_every_rung() {
    // The acceptance bar is "within 10%"; boundary-mark timing makes the
    // phases a partition of the traced span, so the sum is exact.
    let db = Database::from_instance(sac::gen::music_database(30, 60, 4))
        .with_tgds(vec![sac::gen::collector_tgd()]);
    let graph = service_database();
    let cases = [
        (&graph, sac::gen::path_query(3)),    // direct rung
        (&graph, sac::gen::clique_query(3)),  // indexed rung
        (&db, sac::gen::example1_triangle()), // witness rung
    ];
    for (database, query) in cases {
        let (_, trace) = database.run_traced(&query);
        let sum: u64 = Phase::ALL.iter().map(|p| trace.phases.get(*p)).sum();
        assert_eq!(sum, trace.phases.total_ns());
        assert_eq!(sum, trace.total_ns, "phases partition the span on {query}");
        let slack = trace.total_ns / 10;
        assert!(
            sum >= trace.total_ns.saturating_sub(slack) && sum <= trace.total_ns + slack,
            "the 10% bar holds trivially"
        );
    }
}

#[test]
fn trace_structure_is_deterministic_across_identical_runs() {
    let make = || {
        let db = service_database();
        let mut digests = Vec::new();
        for q in [
            sac::gen::path_query(2),
            sac::gen::star_query(3),
            sac::gen::cycle_query(3),
        ] {
            let (_, trace) = db.run_traced(&q);
            digests.push(trace.structure_digest());
        }
        digests
    };
    assert_eq!(make(), make(), "same workload, same trace structure");
}

#[test]
fn rewidening_between_batches_takes_effect() {
    // The batch width is read per call, so a re-widened database fans out
    // what its current setting says: every batch above width 1 dispatches
    // its seven queries, the serial one none.  How many threads a given
    // width spawns is `pool::tests`' business.
    let batch = vec![sac::gen::path_query(2); 7];
    let db = service_database().with_parallelism(4);
    db.run_batch(&batch);
    assert_eq!(db.metrics().morsels_dispatched, 7);
    let db = db.with_parallelism(2);
    assert_eq!(db.parallelism(), 2);
    db.run_batch(&batch);
    assert_eq!(db.metrics().morsels_dispatched, 14);
    let db = db.with_parallelism(1);
    db.run_batch(&batch);
    assert_eq!(
        db.metrics().morsels_dispatched,
        14,
        "width 1 fans out nothing"
    );
}
