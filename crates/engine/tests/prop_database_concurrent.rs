//! The concurrent façade under contention.
//!
//! * On random acyclic **and** cyclic queries, a shared [`PreparedQuery`]
//!   executed from multiple threads at once returns, in every thread,
//!   results identical to naive homomorphism enumeration
//!   (`sac_query::evaluate`) over the same data.
//! * Views registered while another thread appends end fresh and exact:
//!   materialization and registration share one write guard, so no append
//!   can slip between them.
//! * A plan compiled while another thread swaps the constraint set is never
//!   republished after the swap that replaced its constraints.
//!
//! [`PreparedQuery`]: sac_engine::PreparedQuery

use proptest::prelude::*;
use sac_engine::{Database, Strategy};
use sac_query::{evaluate, ConjunctiveQuery};
use std::sync::{mpsc, Barrier};
use std::thread;

/// Alternating acyclic (path/star) and cyclic (cycle/clique) shapes, so both
/// Yannakakis rungs and the indexed fallback are exercised under
/// concurrency.
fn query_for(kind: usize, size: usize) -> ConjunctiveQuery {
    match kind % 4 {
        0 => sac_gen::path_query(size),
        1 => sac_gen::star_query(size),
        2 => sac_gen::cycle_query(size.max(3)),
        _ => sac_gen::clique_query(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepared_queries_agree_with_naive_from_every_thread(
        kind in 0usize..4,
        size in 1usize..5,
        nodes in 2usize..10,
        edges in 1usize..40,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let q = query_for(kind, size);
        let reference = sac_gen::random_graph_database(nodes, edges, seed);
        let expected = evaluate(&q, &reference);

        let db = Database::from_instance(reference);
        let prepared = db.prepare(&q).expect("generated queries are valid");
        let results: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let local = prepared.clone();
                    scope.spawn(move || local.execute().into_tuples())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for tuples in results {
            prop_assert_eq!(&tuples, &expected);
        }
        // One prepare, N executions — the plan was compiled exactly once.
        prop_assert_eq!(db.metrics().plans_built, 1);
        prop_assert_eq!(db.metrics().queries_run, threads);
    }
}

#[test]
fn views_registered_during_appends_end_fresh_and_exact() {
    let db = Database::from_facts("E(n0, n1).").unwrap();
    let shapes = [
        "q(X, Z) :- E(X, Y), E(Y, Z).",
        "q(X) :- E(X, Y), E(Y, Z), E(Z, W).",
        "q(X, Y) :- E(X, Y).",
        "q(X, Y, Z) :- E(X, Y), E(Y, Z), E(Z, X).",
    ];
    // Both threads start together, so registrations land between appends.
    let start = Barrier::new(2);
    let views = thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            for i in 1..60 {
                let back = i / 2;
                db.load_facts(&format!("E(n{i}, n{}). E(n{i}, n{back}).", i + 1))
                    .unwrap();
            }
        });
        scope
            .spawn(|| {
                start.wait();
                shapes
                    .iter()
                    .cycle()
                    .take(16)
                    .map(|shape| db.materialize(*shape).unwrap())
                    .collect::<Vec<_>>()
            })
            .join()
            .unwrap()
    });
    let last = db.snapshot();
    for view in &views {
        assert!(view.is_fresh(), "{} is stale", view.query());
        assert_eq!(
            view.snapshot().into_tuples(),
            evaluate(view.query(), &last),
            "{} drifted from the final snapshot",
            view.query()
        );
    }
}

#[test]
fn constraint_swaps_never_republish_a_stale_witness_plan() {
    // Example 1's triangle under eight variable namings: eight plan-cache
    // keys, so each round plans eight witnesses and the swap below lands
    // while some are in flight.
    let triangles: Vec<ConjunctiveQuery> = (0..8)
        .map(|i| {
            format!("q(X{i}, Y{i}) :- Interest(X{i}, Z{i}), Class(Y{i}, Z{i}), Owns(X{i}, Y{i}).")
                .parse()
                .unwrap()
        })
        .collect();
    // Closed under the collector tgd, so both rungs give the oracle's answers.
    let data = sac_gen::music_database(10, 20, 3);
    let expected = evaluate(&sac_gen::example1_triangle(), &data);
    let db = Database::from_instance(data);
    let (go, go_rx) = mpsc::channel::<bool>();
    let (planning, planning_rx) = mpsc::channel();
    let (done, done_rx) = mpsc::channel();
    let (db, triangles, expected) = (&db, &triangles, &expected);
    // The scope owns every channel end, so a failed assertion on either
    // side drops them and unblocks the other instead of hanging.
    thread::scope(move |scope| {
        scope.spawn(move || {
            while go_rx.recv().unwrap() {
                planning.send(()).unwrap();
                for triangle in triangles {
                    assert_eq!(&db.run(triangle).into_tuples(), expected);
                    let prepared = db.prepare(triangle).unwrap();
                    assert_eq!(&prepared.execute().into_tuples(), expected);
                }
                done.send(()).unwrap();
            }
        });
        for _ in 0..20 {
            db.set_tgds(vec![sac_gen::collector_tgd()]).unwrap();
            go.send(true).unwrap();
            // Swap back while the reader plans under the collector tgd: no
            // witness plan may outlive the swap.
            planning_rx.recv().unwrap();
            db.set_tgds(Vec::new()).unwrap();
            done_rx.recv().unwrap();
            for triangle in triangles {
                assert_eq!(
                    db.explain(triangle).strategy,
                    Strategy::IndexedSearch,
                    "a witness plan compiled under replaced constraints was republished"
                );
            }
        }
        go.send(false).unwrap();
    });
    assert!(db.tgds().is_empty());
}
