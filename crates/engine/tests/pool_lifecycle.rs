//! Lifecycle suite for the persistent worker pool behind a parallel
//! [`Database`]: the pool is created once by the first fanned-out batch
//! and reused across batches (no respawn — asserted through the metrics),
//! parallelism-1 sessions and single runs never create it, results over
//! the work-stealing path are identical run to run and across parallelism
//! levels, and dropping the database joins the pool threads.
//!
//! The pool's grain is one morsel per query of a [`Database::run_batch`]
//! (and one per rule of a multi-rule Datalog stratum, covered by the
//! datalog suites), so every case here drives it through `run_batch`.
//!
//! Panic propagation without pool poisoning is covered by the pool's own
//! unit tests (`crates/engine/src/pool.rs`), where a panicking morsel can
//! be injected directly.

use sac_engine::Database;
use sac_query::ConjunctiveQuery;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

fn parallel_db(parallelism: usize) -> Database {
    Database::from_instance(sac_gen::random_graph_database(60, 400, 11))
        .with_parallelism(parallelism)
}

fn workload() -> Vec<ConjunctiveQuery> {
    vec![
        sac_gen::path_query(2),
        sac_gen::path_query(3),
        sac_gen::star_query(3),
        sac_gen::cycle_query(3),
        sac_gen::clique_query(3),
    ]
}

/// One stable fingerprint over a full workload's answers, computed as one
/// batch (fanned out over the pool above parallelism 1).
fn digest(db: &Database) -> BTreeSet<String> {
    let queries = workload();
    queries
        .iter()
        .zip(db.run_batch(&queries))
        .flat_map(|(q, result)| {
            let name = q.to_string();
            result
                .into_tuples()
                .into_iter()
                .map(move |t| format!("{name} -> {t:?}"))
        })
        .collect()
}

#[test]
fn the_pool_is_created_once_and_reused_across_runs() {
    let db = parallel_db(4);
    assert_eq!(
        db.metrics().threads_spawned,
        0,
        "no pool before the first batch"
    );
    // Single runs, prepared executions and view refreshes are serial at
    // every width: they must not create the pool either.
    for q in workload() {
        let _ = db.run(&q);
        let _ = db.prepare(&q).unwrap().execute();
    }
    let _ = db.materialize(sac_gen::path_query(2)).unwrap().refresh();
    let m0 = db.metrics();
    assert_eq!(m0.threads_spawned, 0, "single runs never create the pool");
    assert_eq!(m0.morsels_dispatched, 0);

    let first = digest(&db);
    let m1 = db.metrics();
    assert_eq!(m1.threads_spawned, 3, "pool size is parallelism - 1");
    assert_eq!(
        m1.morsels_dispatched,
        workload().len(),
        "one morsel per batch query"
    );

    let second = digest(&db);
    let m2 = db.metrics();
    assert_eq!(first, second, "pool reuse does not change answers");
    assert_eq!(
        m2.threads_spawned, m1.threads_spawned,
        "threads_spawned reports the live pool size once — a respawning \
         pool (or per-region accumulation) would inflate it"
    );
    assert_eq!(
        m2.morsels_dispatched,
        2 * workload().len(),
        "the second batch dispatched onto the same pool"
    );
}

#[test]
fn serial_databases_never_create_the_pool() {
    let db = parallel_db(1);
    let _ = digest(&db);
    for q in workload() {
        let _ = db.run(&q);
    }
    let m = db.metrics();
    assert_eq!(m.threads_spawned, 0, "parallelism 1 spawns zero threads");
    assert_eq!(m.morsels_dispatched, 0);
    assert_eq!(m.morsel_steals, 0);
    assert_eq!(m.pool_queue_wait_ns, 0);
}

#[test]
fn batch_fan_out_counts_one_morsel_per_query() {
    let db = parallel_db(2);
    let queries = workload();
    let results = db.run_batch(&queries);
    assert_eq!(results.len(), queries.len());
    let m = db.metrics();
    assert_eq!(
        m.morsels_dispatched,
        queries.len(),
        "each batch query is exactly one morsel (the runs inside are serial)"
    );
    assert_eq!(m.threads_spawned, 1);
}

#[test]
fn differential_double_run_digest_across_parallelism_levels() {
    // The work-stealing path must be invisible in the answers: two runs at
    // the same level agree, and every level agrees with the serial digest.
    let serial = digest(&parallel_db(1));
    for parallelism in [2, 4] {
        let db = parallel_db(parallelism);
        let first = digest(&db);
        let second = digest(&db);
        assert_eq!(
            first, second,
            "parallelism {parallelism}: double run diverged"
        );
        assert_eq!(
            first, serial,
            "parallelism {parallelism}: stolen morsels changed answers"
        );
    }
}

#[test]
fn reset_metrics_keeps_the_pool_and_its_size() {
    let db = parallel_db(4);
    let _ = digest(&db);
    let before = db.metrics();
    assert_eq!(before.threads_spawned, 3);
    db.reset_metrics();
    let after = db.metrics();
    assert_eq!(
        after.threads_spawned, 3,
        "the pool survives a metrics window reset"
    );
    assert_eq!(after.morsels_dispatched, 0, "the window itself is zeroed");
    assert_eq!(after.morsel_steals, 0, "steal readings re-anchor to zero");
    let _ = digest(&db);
    assert!(
        db.metrics().morsels_dispatched > 0,
        "the kept pool keeps serving after the reset"
    );
}

#[test]
fn dropping_the_database_joins_the_pool() {
    // Hangs (and times the suite out) if a worker fails to exit.
    let db = parallel_db(4);
    let _ = digest(&db);
    drop(db);
}

#[test]
fn a_shared_database_serves_concurrent_parallel_runs_from_one_pool() {
    let db = Arc::new(parallel_db(4));
    let expected = digest(&db);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let db = Arc::clone(&db);
            thread::spawn(move || digest(&db))
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), expected);
    }
    assert_eq!(db.metrics().threads_spawned, 3, "still one shared pool");
}
