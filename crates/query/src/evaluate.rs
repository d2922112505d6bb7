//! The definition-level oracle: CQ evaluation by plain homomorphism
//! enumeration.
//!
//! `evaluate(q, I)` computes `q(I)` exactly as defined in Section 2: the set
//! of tuples `h(x̄)` over the target's domain, for `h` ranging over the
//! homomorphisms from `q` to `I`.  The enumerator behind it is deliberately
//! naive and shares no code with the compiled search every production path
//! runs: the body in a fixed connected-first order, candidates from the
//! term-level [`sac_storage::Relation::select`], one [`Substitution`] per
//! match.  The engine and the compiled search are judged by it, and it is
//! all that UCQ evaluation and the Datalog reference (`sac-datalog`'s naive
//! fixpoint and certificate checker) run.  The linear-time evaluator for
//! *acyclic* CQs is the engine's executor, and the PTIME evaluator for
//! semantically acyclic CQs under guarded tgds is `sac-core`'s cover game
//! (Theorem 25).

use crate::cq::ConjunctiveQuery;
use sac_common::{Atom, Substitution, Symbol, Term};
use sac_storage::Instance;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Invokes `visit` on every homomorphism from `pattern` into `instance`
/// until it returns [`ControlFlow::Break`], which is then returned.
pub fn for_each_homomorphism(
    pattern: &[Atom],
    instance: &Instance,
    mut visit: impl FnMut(&Substitution) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let order = connected_first(pattern);
    extend(&order, instance, &Substitution::new(), &mut visit)
}

/// Collects every homomorphism from `pattern` into `instance`.
pub fn all_homomorphisms(pattern: &[Atom], instance: &Instance) -> Vec<Substitution> {
    let mut out = Vec::new();
    let _ = for_each_homomorphism(pattern, instance, |h| {
        out.push(h.clone());
        ControlFlow::Continue(())
    });
    out
}

/// The body in the order it is matched: atom 0 first, then repeatedly the
/// first remaining atom sharing a variable with those placed, or the first
/// remaining one when none does.
fn connected_first(pattern: &[Atom]) -> Vec<&Atom> {
    let mut remaining: Vec<&Atom> = pattern.iter().collect();
    let mut order: Vec<&Atom> = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let placed = |v: Symbol| order.iter().any(|a| a.mentions_variable(v));
        let joined = remaining
            .iter()
            .position(|a| a.variables_iter().any(placed));
        order.push(remaining.remove(joined.unwrap_or(0)));
    }
    order
}

/// Extends `h` by every match of the first of `atoms`, recursing into the
/// rest: the bound positions select the candidate tuples, and each one is
/// matched into a copy of `h`.
fn extend(
    atoms: &[&Atom],
    instance: &Instance,
    h: &Substitution,
    visit: &mut impl FnMut(&Substitution) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((atom, rest)) = atoms.split_first() else {
        return visit(h);
    };
    let relation = instance.relation(atom.predicate);
    let Some(relation) = relation.filter(|r| r.arity() == atom.arity()) else {
        return ControlFlow::Continue(());
    };
    let images = atom.args.iter().map(|t| h.apply(*t)).enumerate();
    let bound: Vec<(usize, Term)> = images.filter(|(_, t)| !t.is_variable()).collect();
    for tuple in relation.select(&bound) {
        let mut next = h.clone();
        if next.match_atom(atom, &Atom::new(atom.predicate, tuple)) {
            extend(rest, instance, &next, visit)?;
        }
    }
    ControlFlow::Continue(())
}

/// Evaluates `query` over `instance`, returning the set of answer tuples.
///
/// For a Boolean query the result is either `{()}` (the empty tuple) when the
/// query holds, or `{}` when it does not — mirroring the standard convention.
pub fn evaluate(query: &ConjunctiveQuery, instance: &Instance) -> BTreeSet<Vec<Term>> {
    let mut answers = BTreeSet::new();
    let _ = for_each_homomorphism(&query.body, instance, |h| {
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
    for_each_homomorphism(&query.body, instance, |_| ControlFlow::Break(())).is_break()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

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

    #[test]
    fn connected_first_orders_joined_atoms_before_disconnected_ones() {
        let pattern = vec![
            atom!("A", var "x", var "y"),
            atom!("B", var "u"),
            atom!("C", var "y", var "z"),
        ];
        let order: Vec<&Atom> = connected_first(&pattern);
        assert_eq!(order, vec![&pattern[0], &pattern[2], &pattern[1]]);
    }
}
