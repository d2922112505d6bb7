//! Property-based round-trip tests: parsed artifacts survive printing and
//! reparsing, and random generated queries behave consistently across the
//! independent engines (naive evaluation vs the engine's Yannakakis rung,
//! chase- vs rewriting-based containment).

use proptest::prelude::*;
use sac::prelude::*;

/// Strategy: a random acyclic path/star query over the `E` predicate.
fn acyclic_query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    (1usize..6, prop::bool::ANY).prop_map(|(n, star)| {
        if star {
            sac::gen::star_query(n)
        } else {
            sac::gen::path_query(n)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn yannakakis_agrees_with_naive_evaluation(
        q in acyclic_query_strategy(),
        nodes in 2usize..20,
        edges in 1usize..60,
        seed in 0u64..1000,
    ) {
        let data = sac::gen::random_graph_database(nodes, edges, seed);
        let slow = evaluate_boolean(&q, &data);
        let db = Database::from_instance(data);
        prop_assert_eq!(db.explain(&q).strategy, PlanStrategy::YannakakisDirect);
        prop_assert_eq!(db.run_boolean(&q), slow);
    }

    #[test]
    fn core_is_equivalent_and_no_larger(
        n in 1usize..5,
        extra in 0usize..3,
    ) {
        // A path with `extra` duplicated edges appended.
        let mut q = sac::gen::path_query(n);
        for _ in 0..extra {
            let first = q.body[0].clone();
            q.body.push(first);
        }
        let core = core_of(&q);
        prop_assert!(core.size() <= q.size());
        prop_assert!(equivalent(&core, &q));
    }

    #[test]
    fn acyclicity_decision_is_stable_under_atom_permutation(
        q in acyclic_query_strategy(),
        swap_a in 0usize..6,
        swap_b in 0usize..6,
    ) {
        let mut permuted = q.clone();
        let len = permuted.body.len();
        permuted.body.swap(swap_a % len, swap_b % len);
        prop_assert_eq!(is_acyclic_query(&q), is_acyclic_query(&permuted));
    }

    #[test]
    fn random_inclusion_dependencies_keep_classification_invariants(
        count in 1usize..10,
        preds in 1usize..5,
        seed in 0u64..500,
    ) {
        let tgds = sac::gen::random_inclusion_dependencies(count, preds, seed);
        let c = classify_tgds(&tgds);
        // Inclusion deps are linear, linear are guarded, and every guarded or
        // sticky or non-recursive set is "decidable" for SemAc.
        prop_assert!(c.inclusion);
        prop_assert!(c.linear);
        prop_assert!(c.guarded);
        prop_assert!(c.sticky);
        prop_assert!(c.semantic_acyclicity_decidable());
    }

    #[test]
    fn query_display_reparses_to_an_equivalent_query(
        q in acyclic_query_strategy(),
    ) {
        // Our Display for queries uses `?x` for variables; rebuild a parseable
        // string manually instead (variables upper-cased).
        let body: Vec<String> = q.body.iter().map(|a| {
            let args: Vec<String> = a.args.iter().map(|t| match t {
                Term::Variable(v) => format!("V{}", v.index()),
                Term::Constant(c) => c.as_str(),
                Term::Null(n) => format!("n{n}"),
            }).collect();
            format!("{}({})", a.predicate, args.join(", "))
        }).collect();
        let text = format!("q() :- {}.", body.join(", "));
        let reparsed = parse_query(&text).unwrap();
        prop_assert!(equivalent(&ConjunctiveQuery::boolean(q.body.clone()).unwrap(), &reparsed));
    }
}

#[test]
fn parser_round_trips_the_paper_program() {
    let src = "
        Interest(alice, jazz).
        Class(kind_of_blue, jazz).
        Interest(X, Z), Class(Y, Z) -> Owns(X, Y).
        R(X, Y), R(X, Z) -> Y = Z.
        q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).
    ";
    let program = parse_program(src).unwrap();
    assert_eq!(program.database.len(), 2);
    assert_eq!(program.tgds.len(), 1);
    assert_eq!(program.egds.len(), 1);
    assert_eq!(program.queries.len(), 1);
}
