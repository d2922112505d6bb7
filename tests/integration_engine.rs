//! Integration: the `sac-engine` subsystem through the `sac` facade — plan
//! strategies, cache behaviour, mutation invalidation, and agreement with
//! every other evaluator in the workspace.

use sac::prelude::*;

#[test]
fn engine_strategies_cover_the_lattice() {
    let mut seed = sac::gen::music_database(20, 40, 4);
    seed.extend_from(&sac::gen::random_graph_database(15, 60, 3))
        .unwrap();
    let db = Database::from_instance(seed).with_tgds(vec![sac::gen::collector_tgd()]);

    // Acyclic query → direct Yannakakis.
    let path = sac::gen::path_query(3);
    assert_eq!(db.explain(&path).strategy, PlanStrategy::YannakakisDirect);

    // Cyclic but semantically acyclic under the tgd → witness Yannakakis.
    let triangle = sac::gen::example1_triangle();
    let explain = db.explain(&triangle);
    assert_eq!(explain.strategy, PlanStrategy::YannakakisWitness);
    let witness = explain.witness.expect("witness is recorded in the explain");
    assert!(is_acyclic_query(&witness));

    // Genuinely cyclic → indexed fallback.
    let cycle = sac::gen::cycle_query(4);
    assert_eq!(db.explain(&cycle).strategy, PlanStrategy::IndexedSearch);
}

#[test]
fn engine_agrees_with_every_other_evaluator_on_example1() {
    let q = sac::gen::example1_triangle();
    let tgds = vec![sac::gen::collector_tgd()];
    let reference = sac::gen::music_database(60, 120, 6);

    let naive = evaluate(&q, &reference);
    let game = cover_game_evaluate(&q, &reference);
    // Proposition 24 is the engine's witness rung.
    let db = Database::from_instance(reference).with_tgds(tgds);
    assert_eq!(db.explain(&q).strategy, PlanStrategy::YannakakisWitness);
    let engine_answers = db.run(&q).into_tuples();

    assert_eq!(engine_answers, naive);
    assert_eq!(engine_answers, game);
}

#[test]
fn batched_traffic_amortizes_planning_and_reports_metrics() {
    let reference = sac::gen::random_graph_database(20, 100, 9);
    let db = Database::from_instance(reference.clone());
    let shapes = [
        sac::gen::path_query(2),
        sac::gen::star_query(3),
        sac::gen::cycle_query(3),
    ];
    let workload: Vec<ConjunctiveQuery> = (0..10).flat_map(|_| shapes.iter().cloned()).collect();
    let results = db.run_batch(&workload);
    assert_eq!(results.len(), 30);
    for (q, r) in workload.iter().zip(&results) {
        assert_eq!(
            r.clone().into_tuples(),
            evaluate(q, &reference),
            "batch answer mismatch on {q}"
        );
    }

    let m = db.metrics();
    assert_eq!(m.queries_run, 30);
    assert_eq!(m.plans_built, 3);
    assert_eq!(m.plan_cache_hits, 27);
    assert!(m.plan_cache_hit_rate() >= 0.9);
    assert_eq!(
        m.runs_yannakakis_direct + m.runs_yannakakis_witness + m.runs_indexed_search,
        30
    );
    assert!(m.indexes_built > 0, "the fallback strategy builds indexes");
}

#[test]
fn mutations_through_the_database_are_visible_to_cached_plans() {
    let db = Database::new();
    let q = sac::gen::path_query(2);
    assert!(!db.run_boolean(&q));
    assert!(db.insert(atom!("E", cst "a", cst "b")).unwrap());
    assert!(db.insert(atom!("E", cst "b", cst "c")).unwrap());
    assert!(db.run_boolean(&q));

    // The richer storage stats are visible through the facade as well.
    let stats = db.stats();
    let rel = stats.relation(intern("E")).expect("E is populated");
    assert_eq!(rel.tuples, 2);
    assert_eq!(rel.distinct_per_column, vec![2, 2]);
    assert_eq!(db.epoch(), 2);
}
