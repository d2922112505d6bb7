//! Containment under tgds via UCQ rewriting.
//!
//! For UCQ-rewritable classes (non-recursive, sticky) this gives an exact
//! containment test without running the chase: `q' ⊆Σ q` iff the canonical
//! head tuple of `q'` is an answer of the rewriting of `q` on the canonical
//! database of `q'` (Definition 2) — Lemma 1's test with no chase, against
//! the union ([`sac_query::contained_on_chase`]).

use crate::budget::RewriteBudget;
use crate::xrewrite::rewrite;
use sac_deps::Tgd;
use sac_query::{contained_on_chase, ConjunctiveQuery};

/// Decides `q_left ⊆Σ q_right` via the UCQ rewriting of `q_right`.
///
/// Returns `None` when the rewriting did not reach a fixpoint within the
/// budget (the set is then presumably not UCQ rewritable and the caller
/// should use a chase-based test instead), and otherwise whether the
/// containment holds — never, for heads of different arities.
pub fn contained_via_rewriting(
    q_left: &ConjunctiveQuery,
    q_right: &ConjunctiveQuery,
    tgds: &[Tgd],
    budget: RewriteBudget,
) -> Option<bool> {
    let rewriting = rewrite(q_right, tgds, budget);
    rewriting.complete.then(|| {
        contained_on_chase(q_left, &rewriting.ucq.disjuncts, |frozen| {
            Some((frozen.instance, frozen.head))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    fn tgds() -> Vec<Tgd> {
        vec![
            Tgd::new(
                vec![atom!("Employee", var "x", var "d")],
                vec![atom!("Dept", var "d")],
            )
            .unwrap(),
            Tgd::new(
                vec![atom!("Dept", var "d")],
                vec![atom!("Manages", var "m", var "d")],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn containment_through_two_tgd_steps() {
        let q_left = ConjunctiveQuery::boolean(vec![atom!("Employee", var "e", var "d")]).unwrap();
        let q_right = ConjunctiveQuery::boolean(vec![atom!("Manages", var "m", var "d")]).unwrap();
        assert_eq!(
            contained_via_rewriting(&q_left, &q_right, &tgds(), RewriteBudget::small()),
            Some(true)
        );
        // The converse fails.
        assert_eq!(
            contained_via_rewriting(&q_right, &q_left, &tgds(), RewriteBudget::small()),
            Some(false)
        );
    }

    #[test]
    fn containment_without_constraints_reduces_to_classical() {
        let q_left = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
        ])
        .unwrap();
        let q_right = ConjunctiveQuery::boolean(vec![atom!("E", var "x", var "y")]).unwrap();
        assert_eq!(
            contained_via_rewriting(&q_left, &q_right, &[], RewriteBudget::small()),
            Some(true)
        );
        assert_eq!(
            contained_via_rewriting(&q_right, &q_left, &[], RewriteBudget::small()),
            Some(false)
        );
    }

    #[test]
    fn non_boolean_heads_are_compared_positionally() {
        let q_left =
            ConjunctiveQuery::new(vec![intern("d")], vec![atom!("Employee", var "e", var "d")])
                .unwrap();
        let q_right =
            ConjunctiveQuery::new(vec![intern("d")], vec![atom!("Manages", var "m", var "d")])
                .unwrap();
        assert_eq!(
            contained_via_rewriting(&q_left, &q_right, &tgds(), RewriteBudget::small()),
            Some(true)
        );
        // Swapped answer variable breaks containment.
        let q_right_swapped =
            ConjunctiveQuery::new(vec![intern("m")], vec![atom!("Manages", var "m", var "d")])
                .unwrap();
        assert_eq!(
            contained_via_rewriting(&q_left, &q_right_swapped, &tgds(), RewriteBudget::small()),
            Some(false)
        );
    }

    #[test]
    fn arity_mismatch_is_not_contained() {
        let q_left =
            ConjunctiveQuery::new(vec![intern("d")], vec![atom!("Dept", var "d")]).unwrap();
        let q_right = ConjunctiveQuery::boolean(vec![atom!("Dept", var "d")]).unwrap();
        assert_eq!(
            contained_via_rewriting(&q_left, &q_right, &tgds(), RewriteBudget::small()),
            Some(false)
        );
    }

    #[test]
    fn incomplete_rewriting_returns_none() {
        let recursive = vec![Tgd::new(
            vec![atom!("P", var "x", var "y"), atom!("S", var "x")],
            vec![atom!("S", var "y")],
        )
        .unwrap()];
        let q_left =
            ConjunctiveQuery::boolean(vec![atom!("S", cst "a"), atom!("P", cst "a", cst "b")])
                .unwrap();
        let q_right = ConjunctiveQuery::boolean(vec![atom!("S", cst "b")]).unwrap();
        assert_eq!(
            contained_via_rewriting(&q_left, &q_right, &recursive, RewriteBudget::new(8, 8, 50)),
            None
        );
    }
}
