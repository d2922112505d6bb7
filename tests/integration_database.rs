//! Integration: the `sac::Database` service façade — thread-safety
//! guarantees, the one-call text path, prepared queries, typed result sets,
//! unified errors and the maintenance hooks.

use sac::prelude::*;
use std::thread;

// ---------------------------------------------------------------------------
// Compile-time guarantees (`static_assertions` style, no dependency): the
// façade is `Send + Sync` and serves through `&self`, so `Arc<Database>` /
// scoped-thread sharing is sound by construction.
// ---------------------------------------------------------------------------
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Database>();
    send_sync::<PreparedQuery<'static>>();
    send_sync::<ResultSet>();
    send_sync::<Row>();
    send_sync::<SacError>();
    send_sync::<EngineMetrics>();
};

// `&self` signatures, checked by the type system: these calls go through a
// shared reference.
fn serves_through_shared_references(db: &Database) -> SacResult<ResultSet> {
    let _ = db.metrics();
    let _ = db.cached_plans();
    db.query("q(X) :- E(X, Y).")
}

#[test]
fn text_to_results_in_one_call() {
    let db = Database::from_facts("E(a, b). E(b, c). E(c, d).").unwrap();
    let rows = db.query("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
    assert_eq!(rows.columns(), &["X".to_owned(), "Z".to_owned()]);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        // Named access agrees with positional access.
        assert_eq!(row["X"], row[0]);
        assert_eq!(row.get_named("Z"), row.get(1));
    }
    assert!(rows.contains(&[Term::constant("a"), Term::constant("c")]));
    assert!(serves_through_shared_references(&db).unwrap().is_true());
}

#[test]
fn every_layers_failure_folds_into_sac_error() {
    let db = Database::from_facts("E(a, b).").unwrap();

    // Parser failure, with line/column carried through.
    let SacError::Parse { line, column, .. } = db.query("q(X) :-\n E(X").unwrap_err() else {
        panic!("expected a parse error");
    };
    assert_eq!(line, 2);
    assert!(column > 1);

    // Storage failure (arity clash on insert).
    assert!(matches!(
        db.insert(atom!("E", cst "a")).unwrap_err(),
        SacError::ArityMismatch {
            expected: 2,
            found: 1,
            ..
        }
    ));

    // Structural failure (constant in a query head).
    assert!(matches!(
        db.query("q(a) :- E(a, X).").unwrap_err(),
        SacError::InvalidInput { .. }
    ));

    // Every layer raises the one `SacError`: the `Database` entry points
    // hand the lower layer's error through as the same value, positions
    // included.
    for text in ["q(X) :-\n E(X", "q(a) :- E(a, X)."] {
        assert_eq!(
            db.query(text).unwrap_err(),
            text.parse::<ConjunctiveQuery>().unwrap_err()
        );
    }
    for text in ["E(a, b).\nE(a", "E(a, b). E(c)."] {
        assert_eq!(
            Database::from_facts(text).err().unwrap(),
            text.parse::<Instance>().unwrap_err()
        );
    }
    for text in ["p(X) :- E(X, Y).\np(X) :-", "p(Z) :- E(X, Y)."] {
        assert_eq!(
            db.run_datalog(text).err().unwrap(),
            text.parse::<DatalogProgram>().unwrap_err()
        );
    }

    // Budget failures from the decision layer are the same type.
    let exhausted = SacError::BudgetExhausted {
        message: "chase steps".into(),
    };
    assert!(exhausted.to_string().contains("budget exhausted"));

    // And `SacError` is a real `std::error::Error` for service stacks.
    let boxed: Box<dyn std::error::Error> = Box::new(exhausted);
    assert!(boxed.to_string().contains("chase"));
}

#[test]
fn from_str_impls_cover_the_whole_vocabulary() {
    let q: ConjunctiveQuery = "q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y)."
        .parse()
        .unwrap();
    let tgd: Tgd = "Interest(X, Z), Class(Y, Z) -> Owns(X, Y)."
        .parse()
        .unwrap();
    let egd: Egd = "Owns(X, Y), Owns(X, Z) -> Y = Z.".parse().unwrap();
    let data: Instance = "Interest(alice, jazz). Class(kind_of_blue, jazz)."
        .parse()
        .unwrap();
    assert_eq!(q.size(), 3);
    assert!(tgd.is_full());
    assert_eq!(egd.body.len(), 2);
    assert_eq!(data.len(), 2);

    // The parsed pieces snap together in the decision procedures.
    let result = semantic_acyclicity_under_tgds(&q, &[tgd], SemAcConfig::default());
    assert!(result.witness().is_some());
}

#[test]
fn prepared_queries_serve_shared_traffic() {
    let db = Database::from_instance(sac::gen::music_database(40, 80, 7))
        .with_tgds(vec![sac::gen::collector_tgd()]);
    let triangle = db.prepare(sac::gen::example1_triangle()).unwrap();
    assert_eq!(triangle.strategy(), PlanStrategy::YannakakisWitness);

    let expected = triangle.execute();
    assert!(!expected.is_empty());
    thread::scope(|scope| {
        for _ in 0..4 {
            let local = triangle.clone();
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..5 {
                    assert_eq!(&local.execute(), expected);
                }
            });
        }
    });

    let m = db.metrics();
    assert_eq!(m.plans_built, 1, "the witness search ran exactly once");
    assert_eq!(m.queries_run, 21);
    assert_eq!(m.runs_yannakakis_witness, 21);
}

#[test]
fn concurrent_mixed_traffic_against_one_database() {
    let reference = sac::gen::random_graph_database(15, 70, 23);
    let db = Database::from_instance(reference.clone());
    let shapes = [
        sac::gen::path_query(2),
        sac::gen::star_query(3),
        sac::gen::cycle_query(3),
        sac::gen::clique_query(3),
    ];
    thread::scope(|scope| {
        for t in 0..4 {
            let db = &db;
            let shapes = &shapes;
            let reference = &reference;
            scope.spawn(move || {
                for i in 0..8 {
                    let q = &shapes[(t + i) % shapes.len()];
                    assert_eq!(db.run(q).into_tuples(), evaluate(q, reference));
                }
            });
        }
    });
    let m = db.metrics();
    assert_eq!(m.queries_run, 32);
    assert_eq!(m.plans_built + m.plan_cache_hits, 32);
    assert!(m.plan_cache_hit_rate() > 0.5, "hot shapes hit the cache");
}

#[test]
fn metrics_reset_and_cache_clearing_hooks() {
    let db = Database::from_instance(sac::gen::random_graph_database(10, 40, 3));
    let q = sac::gen::cycle_query(3);
    db.run(&q);
    db.run(&q);

    let warm = db.metrics();
    assert_eq!(warm.queries_run, 2);
    assert_eq!(warm.plan_cache_hits, 1);
    assert!(warm.indexes_built > 0);

    // `EngineMetrics::reset` zeroes a snapshot…
    let mut snapshot = warm.clone();
    snapshot.reset();
    assert_eq!(snapshot, EngineMetrics::default());
    assert_eq!(snapshot.plan_cache_hit_rate(), 0.0);

    // …and `Database::reset_metrics` zeroes the live counters without
    // touching the caches.
    db.reset_metrics();
    assert_eq!(db.metrics(), EngineMetrics::default());
    assert_eq!(db.cached_plans(), 1);
    db.run(&q);
    assert_eq!(db.metrics().plan_cache_hits, 1, "caches survived the reset");

    // `clear_caches` drops plans and indexes; the next run rebuilds both.
    db.clear_caches();
    assert_eq!(db.cached_plans(), 0);
    db.reset_metrics();
    db.run(&q);
    let rebuilt = db.metrics();
    assert_eq!(rebuilt.plans_built, 1);
    assert_eq!(rebuilt.plan_cache_hits, 0);
    assert!(rebuilt.indexes_built > 0);
}

#[test]
fn results_round_trip_to_raw_tuples_for_interop() {
    let reference = sac::gen::random_graph_database(12, 50, 5);
    let db = Database::from_instance(reference.clone());
    let q = sac::gen::star_query(3);
    let rs = db.run(&q);
    // Boolean query: empty columns, truth via is_true.
    assert!(rs.columns().is_empty());
    assert_eq!(rs.is_true(), evaluate_boolean(&q, &reference));
    assert_eq!(rs.into_tuples(), evaluate(&q, &reference));
}
