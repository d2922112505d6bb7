//! Batch fan-out through the public [`Database`] surface: a width-1
//! database dispatches nothing, a wider one dispatches exactly one unit
//! per batch query, answers are identical run to run and across widths,
//! and concurrent callers of one database each get the serial answers.
//!
//! The only fanned-out grain is one query of a [`Database::run_batch`], so
//! every case here drives `run_batch`.  Nothing persists between batches
//! (the helper threads are scoped to the call), so there is no lifecycle
//! left to test; panic propagation is covered by `fan_out`'s own unit
//! tests (`crates/engine/src/pool.rs`), where a panicking item can be
//! injected directly.

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
/// batch (fanned out above parallelism 1).
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
fn serial_databases_never_create_the_pool() {
    let db = parallel_db(1);
    let _ = digest(&db);
    for q in workload() {
        let _ = db.run(&q);
    }
    assert_eq!(
        db.metrics().morsels_dispatched,
        0,
        "parallelism 1 fans nothing out"
    );
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
        "each batch query is exactly one unit (the runs inside are serial)"
    );
    // The counter is a window like every other: reset zeroes it and the
    // next batch counts from there.
    db.reset_metrics();
    assert_eq!(db.metrics().morsels_dispatched, 0);
    let _ = db.run_batch(&queries);
    assert_eq!(db.metrics().morsels_dispatched, queries.len());
}

#[test]
fn differential_double_run_digest_across_parallelism_levels() {
    // Which thread claimed which query must be invisible in the answers:
    // two runs at the same level agree, and every level agrees with the
    // serial digest.
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
            "parallelism {parallelism}: fan-out changed answers"
        );
    }
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
    assert_eq!(
        db.metrics().morsels_dispatched,
        5 * workload().len(),
        "every caller's batch fanned out"
    );
}
