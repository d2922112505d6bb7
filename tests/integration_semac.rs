//! Integration tests for the semantic-acyclicity deciders across crates:
//! parser → classifier → decider → verification with the chase.

use sac::prelude::*;

#[test]
fn example1_pipeline_from_text_to_witness() {
    let program = parse_program(
        "
        q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).
        Interest(X, Z), Class(Y, Z) -> Owns(X, Y).
        ",
    )
    .unwrap();
    let q = &program.queries[0];
    let tgds = &program.tgds;

    let classification = classify_tgds(tgds);
    assert!(classification.full && classification.non_recursive);
    assert!(classification.semantic_acyclicity_decidable());

    let result = semantic_acyclicity_under_tgds(q, tgds, SemAcConfig::default());
    let witness = result.witness().expect("Example 1 witness");
    assert!(is_acyclic_query(witness));
    assert!(equivalent_under_tgds(q, witness, tgds, ChaseBudget::small()).holds());
}

#[test]
fn inclusion_dependencies_enable_reformulations() {
    // Σ: every Enrolled pair implies the Student and the Course exist, and
    // every Student has an Advisor meeting them.
    let tgds = vec![
        parse_tgd("Enrolled(S, C) -> Student(S).").unwrap(),
        parse_tgd("Enrolled(S, C) -> Course(C).").unwrap(),
    ];
    let classification = classify_tgds(&tgds);
    assert!(classification.inclusion && classification.guarded);

    // The query redundantly re-asserts Student(S) and Course(C); its core is
    // acyclic, so it is semantically acyclic even without Σ — and the decider
    // must find a witness of size 1 using Σ-free reasoning.
    let q = parse_query("q(S) :- Enrolled(S, C), Student(S), Course(C).").unwrap();
    let result = semantic_acyclicity_under_tgds(&q, &tgds, SemAcConfig::default());
    let witness = result.witness().expect("redundant atoms fold away");
    assert!(witness.size() <= 3);
    assert!(is_acyclic_query(witness));
}

#[test]
fn guarded_set_that_does_not_help_a_real_cycle() {
    let tgds = vec![parse_tgd("Edge(X, Y) -> Node(X).").unwrap()];
    let q = parse_query("q() :- Edge(X, Y), Edge(Y, Z), Edge(Z, X).").unwrap();
    let result = semantic_acyclicity_under_tgds(&q, &tgds, SemAcConfig::default());
    assert!(!result.is_acyclic());
}

#[test]
fn keys_over_binary_predicates_collapse_cycles() {
    // Key on R's first attribute; the "diamond" closes into an acyclic shape
    // once y and z are identified.
    let key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
    let q = parse_query("q(X) :- R(X, Y), R(X, Z), T(Y, Z), T(Z, Y).").unwrap();
    let result = semantic_acyclicity_under_egds(&q, &key, SemAcConfig::default());
    let witness = result.witness().expect("the key merges Y and Z");
    assert!(is_acyclic_query(witness));
    assert!(contained_under_egds(&q, witness, &key));
    assert!(contained_under_egds(witness, &q, &key));
}

#[test]
fn a_key_that_sends_a_head_variable_to_a_constant_fails_closed() {
    // The key identifies X with the constant b, so the chased query has no
    // variable head.  The decider may answer with a verified witness or
    // with an unexhausted `NoWitness`, never with a panic or an unverified
    // claim.
    let key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
    let q = parse_query("q(X) :- R(a, X), R(a, b), E(X, Y), E(Y, Z), E(Z, X).").unwrap();
    match semantic_acyclicity_under_egds(&q, &key, SemAcConfig::default()) {
        SemAcResult::Witness(witness) => {
            assert!(is_acyclic_query(&witness));
            assert!(equivalent_under_egds(&q, &witness, &key));
        }
        SemAcResult::NoWitness {
            exhausted_candidates,
        } => assert!(!exhausted_candidates),
    }
}

#[test]
fn ucq_semantic_acyclicity_follows_section_8_1() {
    let triangle = parse_query("q() :- E(X, Y), E(Y, Z), E(Z, X).").unwrap();
    let edge = parse_query("q() :- E(X, Y).").unwrap();
    let ucq = UnionOfConjunctiveQueries::new(vec![triangle.clone(), edge]).unwrap();
    let result = ucq_semantic_acyclicity_under_tgds(&ucq, &[], SemAcConfig::default());
    assert!(result.is_acyclic(), "the triangle disjunct is redundant");

    let lone = UnionOfConjunctiveQueries::single(triangle);
    let lone_result = ucq_semantic_acyclicity_under_tgds(&lone, &[], SemAcConfig::default());
    assert!(!lone_result.is_acyclic());
}

#[test]
fn connecting_operator_preserves_containment_on_a_concrete_instance() {
    // q ⊆Σ q' iff c(q) ⊆c(Σ) c(q') — checked on a positive and a negative
    // instance with full tgds (where the chase terminates, so answers are
    // exact).
    let tgds = vec![parse_tgd("A(X, Y) -> B(X, Y).").unwrap()];
    let q = parse_query("q() :- A(X, Y).").unwrap();
    let q_contained = parse_query("q() :- B(X, Y).").unwrap();
    let q_not = parse_query("q() :- C(X, Y).").unwrap();

    let (cq, cq1, ctgds) = connecting_operator(&q, &q_contained, &tgds);
    assert!(contained_under_tgds(&q, &q_contained, &tgds, ChaseBudget::small()).holds());
    assert!(contained_under_tgds(&cq, &cq1, &ctgds, ChaseBudget::small()).holds());

    let (cq, cq2, ctgds) = connecting_operator(&q, &q_not, &tgds);
    assert!(!contained_under_tgds(&q, &q_not, &tgds, ChaseBudget::small()).holds());
    assert!(!contained_under_tgds(&cq, &cq2, &ctgds, ChaseBudget::small()).holds());
}

#[test]
fn pcp_reduction_round_trip() {
    let instance = PcpInstance::new(vec!["a", "ab"], vec!["aa", "b"])
        .unwrap()
        .normalize_even();
    let solution = instance.find_solution(3).expect("solvable instance");
    let (q, tgds) = sac::core::build_pcp_reduction(&instance);
    let path = solution_path_query(&instance, &solution).unwrap();
    assert!(is_acyclic_query(&path));
    assert!(equivalent_under_tgds(&q, &path, &tgds, ChaseBudget::new(5_000, 100_000)).holds());
}
