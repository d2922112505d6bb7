//! Naive CQ evaluation by homomorphism enumeration.
//!
//! `evaluate(q, I)` computes `q(I)` exactly as defined in Section 2: the set
//! of tuples `h(x̄)` over the target's domain, for `h` ranging over the
//! homomorphisms from `q` to `I`.  This is the general-purpose (NP-hard in
//! combined complexity) evaluator; the linear-time evaluator for *acyclic*
//! CQs is the engine's executor (`sac-engine`, `exec`: Yannakakis), and the
//! PTIME evaluator for semantically acyclic CQs under guarded tgds lives in
//! `sac-core` (cover-game based, Theorem 25).

use crate::cq::ConjunctiveQuery;
use crate::homomorphism::HomomorphismSearch;
use sac_common::Term;
use sac_storage::Instance;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Evaluates `query` over `instance`, returning the set of answer tuples.
///
/// For a Boolean query the result is either `{()}` (the empty tuple) when the
/// query holds, or `{}` when it does not — mirroring the standard convention.
pub fn evaluate(query: &ConjunctiveQuery, instance: &Instance) -> BTreeSet<Vec<Term>> {
    let mut answers = BTreeSet::new();
    HomomorphismSearch::new(&query.body, instance).for_each(|h| {
        let tuple: Vec<Term> = query
            .head
            .iter()
            .map(|v| h.apply(Term::Variable(*v)))
            .collect();
        answers.insert(tuple);
        ControlFlow::Continue(())
    });
    answers
}

/// Evaluates a Boolean query (or the Boolean shadow of a non-Boolean one):
/// returns `true` iff at least one homomorphism exists.
pub fn evaluate_boolean(query: &ConjunctiveQuery, instance: &Instance) -> bool {
    HomomorphismSearch::new(&query.body, instance).exists()
}

/// Checks whether a specific tuple belongs to `query(instance)`.
pub fn contains_answer(query: &ConjunctiveQuery, instance: &Instance, tuple: &[Term]) -> bool {
    if tuple.len() != query.head.len() {
        return false;
    }
    let mut initial = sac_common::Substitution::new();
    for (v, t) in query.head.iter().zip(tuple.iter()) {
        if !initial.bind_var(*v, *t) {
            return false;
        }
    }
    HomomorphismSearch::new(&query.body, instance)
        .with_initial(initial)
        .exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern, Atom};

    fn db() -> Instance {
        Instance::from_atoms(vec![
            atom!("Interest", cst "alice", cst "jazz"),
            atom!("Interest", cst "bob", cst "rock"),
            atom!("Class", cst "kind_of_blue", cst "jazz"),
            atom!("Class", cst "nevermind", cst "rock"),
            atom!("Owns", cst "alice", cst "kind_of_blue"),
        ])
        .unwrap()
    }

    fn example1_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn example1_returns_only_owned_matching_records() {
        let answers = evaluate(&example1_query(), &db());
        assert_eq!(answers.len(), 1);
        let expected = vec![Term::constant("alice"), Term::constant("kind_of_blue")];
        assert!(answers.contains(&expected));
    }

    #[test]
    fn boolean_evaluation() {
        let q = ConjunctiveQuery::boolean(vec![atom!("Owns", var "x", var "y")]).unwrap();
        assert!(evaluate_boolean(&q, &db()));
        let q2 = ConjunctiveQuery::boolean(vec![atom!("Owns", cst "bob", var "y")]).unwrap();
        assert!(!evaluate_boolean(&q2, &db()));
    }

    #[test]
    fn boolean_query_answer_set_is_empty_tuple_or_nothing() {
        let q = ConjunctiveQuery::boolean(vec![atom!("Owns", var "x", var "y")]).unwrap();
        let answers = evaluate(&q, &db());
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&Vec::new()));
    }

    #[test]
    fn contains_answer_checks_specific_tuples() {
        let q = example1_query();
        assert!(contains_answer(
            &q,
            &db(),
            &[Term::constant("alice"), Term::constant("kind_of_blue")]
        ));
        assert!(!contains_answer(
            &q,
            &db(),
            &[Term::constant("bob"), Term::constant("nevermind")]
        ));
        // Wrong arity.
        assert!(!contains_answer(&q, &db(), &[Term::constant("alice")]));
    }

    #[test]
    fn repeated_head_variables_produce_repeated_columns() {
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("x")],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap();
        let answers = evaluate(&q, &db());
        assert_eq!(answers.len(), 1);
        let t = answers.iter().next().unwrap();
        assert_eq!(t[0], t[1]);
    }

    #[test]
    fn evaluation_over_empty_instance() {
        let q = example1_query();
        let empty = Instance::new();
        assert!(evaluate(&q, &empty).is_empty());
        assert!(!evaluate_boolean(&q, &empty));
    }

    #[test]
    fn projection_deduplicates_answers() {
        let mut inst = Instance::new();
        for i in 0..5 {
            inst.insert(Atom::from_parts(
                "R",
                vec![Term::constant("hub"), Term::constant(&format!("v{i}"))],
            ))
            .unwrap();
        }
        let q =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("R", var "x", var "y")]).unwrap();
        assert_eq!(evaluate(&q, &inst).len(), 1);
    }
}
