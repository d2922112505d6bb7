//! Integration tests for the evaluation results of Section 7, each against
//! the one reference evaluator (`evaluate`, naive homomorphism enumeration):
//!
//! * Section 2's Yannakakis algorithm is the engine's executor — acyclic
//!   queries plan on the `yannakakis-direct` rung;
//! * Proposition 24 (find an acyclic Σ-witness, then run Yannakakis) *is*
//!   `Database::with_tgds(Σ).run(q)` on the `yannakakis-witness` rung;
//! * Theorem 25 is `cover_game_evaluate`, an algorithm of its own.

use sac::prelude::*;

/// Runs Example 1's triangle through the engine under the collector tgd,
/// asserting the planner took Proposition 24's route.
fn run_on_the_witness_rung(data: &Instance, query: &ConjunctiveQuery) -> ResultSet {
    let db = Database::from_instance(data.clone()).with_tgds(vec![sac::gen::collector_tgd()]);
    let explain = db.explain(query);
    assert_eq!(explain.strategy, PlanStrategy::YannakakisWitness);
    let witness = explain
        .witness
        .expect("the witness rung records its witness");
    assert!(is_acyclic_query(&witness));
    db.run(query)
}

#[test]
fn all_evaluation_strategies_agree_on_the_music_workload() {
    // Oracle, Proposition 24 and Theorem 25 on databases closed under the
    // collector tgd, at three sizes.
    let q = sac::gen::example1_triangle();
    for (customers, records, styles) in [(6usize, 12usize, 2usize), (12, 24, 3), (24, 48, 4)] {
        let data = sac::gen::music_database(customers, records, styles);
        let naive = evaluate(&q, &data);
        assert!(!naive.is_empty());
        assert_eq!(run_on_the_witness_rung(&data, &q).into_tuples(), naive);
        assert_eq!(cover_game_evaluate(&q, &data), naive);
    }
}

#[test]
fn cover_game_evaluation_matches_naive_on_boolean_queries() {
    let q = ConjunctiveQuery::boolean(sac::gen::example1_triangle().body).unwrap();
    for customers in [5usize, 20] {
        let db = sac::gen::music_database(customers, customers * 2, 3);
        assert_eq!(cover_game_evaluate(&q, &db), evaluate(&q, &db));
    }
}

#[test]
fn yannakakis_matches_naive_on_star_schema_joins() {
    let data = sac::gen::star_schema_database(500, 20, 20, 11);
    let q = parse_query("q(A) :- Fact(F, D1, D2), Dim1(D1, A), Dim2(D2, B).").unwrap();
    assert!(is_acyclic_query(&q));
    let db = Database::from_instance(data.clone());
    assert_eq!(db.explain(&q).strategy, PlanStrategy::YannakakisDirect);
    assert_eq!(db.run(&q).into_tuples(), evaluate(&q, &data));
}

#[test]
fn approximations_give_sound_quick_answers() {
    let q = parse_query("q() :- E(X, Y), E(Y, Z), E(Z, X).").unwrap();
    let report = acyclic_approximations(&q, &[], ChaseBudget::small());
    assert!(!report.maximal.is_empty());
    for seed in 0..5u64 {
        let db = sac::gen::random_graph_database(30, 120, seed);
        let exact = evaluate_boolean(&q, &db);
        let quick = report.maximal.iter().any(|a| evaluate_boolean(a, &db));
        // Soundness: quick ⇒ exact.
        assert!(!quick || exact, "approximation produced a false positive");
    }
}

#[test]
fn fpt_evaluation_scales_linearly_in_the_database_in_answer_counts() {
    // Not a timing test (that's the benchmark's job): checks that answer
    // counts and agreement hold as |D| grows.
    let q = sac::gen::example1_triangle();
    let mut last = 0usize;
    for customers in [20usize, 40, 80] {
        let data = sac::gen::music_database(customers, customers, 10);
        let answers = run_on_the_witness_rung(&data, &q).into_tuples();
        assert_eq!(answers, evaluate(&q, &data));
        assert!(answers.len() >= last);
        last = answers.len();
    }
    assert!(last > 0);
}
