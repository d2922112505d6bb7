//! Containment and equivalence under constraints (Lemma 1).
//!
//! Lemma 1's left side is a value, [`ChasedQuery`]: `q`'s canonical
//! database chased once — under tgds or under egds — and then asked about
//! any number of right-hand queries.  The deciders keep these values; the
//! per-pair functions below build one and ask it once.
//!
//! For tgds the chase may be infinite, so the answer is three-valued: a
//! chase prefix suffices to certify containment (the frozen head tuple is
//! already an answer of `q'` on the prefix), a *terminated* chase certifies
//! non-containment, and otherwise we fall back to the UCQ rewriting (exact
//! for non-recursive and sticky sets) before giving up with
//! [`ContainmentAnswer::Inconclusive`].
//!
//! For egds the chase always terminates, so the answer is exact; a failing
//! chase means the left query is unsatisfiable on every instance satisfying
//! the egds, and containment holds vacuously.

use crate::xrewrite::{rewrite, RewriteBudget};
use sac_chase::{egd_chase_query, tgd_chase_query, ChaseBudget};
use sac_deps::{Egd, Tgd};
use sac_query::{ChasedQuery, ConjunctiveQuery};
use std::slice;

/// The outcome of a containment test under tgds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainmentAnswer {
    /// Containment holds.
    Holds,
    /// Containment does not hold.
    Fails,
    /// The chase budget was exhausted and no rewriting-based fallback
    /// applied; the question is unresolved.
    Inconclusive,
}

impl ContainmentAnswer {
    /// `true` iff the answer is [`ContainmentAnswer::Holds`].
    pub fn holds(self) -> bool {
        self == ContainmentAnswer::Holds
    }

    /// `true` iff the answer is definite (not inconclusive).
    pub fn definite(self) -> bool {
        self != ContainmentAnswer::Inconclusive
    }
}

/// `query`'s canonical database chased under `tgds` within `budget`.
pub(crate) fn chase_under_tgds(
    query: &ConjunctiveQuery,
    tgds: &[Tgd],
    budget: ChaseBudget,
) -> ChasedQuery {
    let (result, mut chased) = tgd_chase_query(query, tgds, budget);
    chased.instance = result.instance;
    ChasedQuery {
        query: query.clone(),
        chased: Some(chased),
        truncated: !result.terminated,
    }
}

/// `query`'s canonical database chased under `egds`, its frozen head
/// resolved through the identifications; no model when the chase fails.
pub(crate) fn chase_under_egds(query: &ConjunctiveQuery, egds: &[Egd]) -> ChasedQuery {
    let chased = egd_chase_query(query, egds)
        .ok()
        .map(|(result, mut chased)| {
            chased.head = result.resolve_tuple(&chased.head);
            chased.instance = result.instance;
            chased
        });
    ChasedQuery {
        query: query.clone(),
        chased,
        truncated: false,
    }
}

/// Decides `left.query ⊆Σ right` for the tgds `left` was chased under.
///
/// A hit on the chase — a prefix included, since a prefix maps into the
/// full chase — gives `Holds`, a miss on a terminated chase `Fails`; on a
/// truncated chase the UCQ rewriting of `right` decides, when it completes
/// within the default rewriting budget.
pub(crate) fn tgd_containment(
    left: &ChasedQuery,
    right: &ConjunctiveQuery,
    tgds: &[Tgd],
) -> ContainmentAnswer {
    if left.contains(slice::from_ref(right)) {
        return ContainmentAnswer::Holds;
    }
    if !left.truncated {
        return ContainmentAnswer::Fails;
    }
    match contained_via_rewriting(&left.query, right, tgds, RewriteBudget::small()) {
        Some(true) => ContainmentAnswer::Holds,
        Some(false) => ContainmentAnswer::Fails,
        None => ContainmentAnswer::Inconclusive,
    }
}

/// Decides `q ⊆Σ q'` for a set of tgds.
///
/// Exact whenever the chase of `q` under `Σ` terminates within `budget`
/// (always the case for non-recursive, weakly-acyclic and full sets) or the
/// set is UCQ rewritable within the default rewriting budget; otherwise a
/// certified `Holds` may still be produced from a chase prefix, and
/// `Inconclusive` is returned in the remaining cases.
pub fn contained_under_tgds(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    tgds: &[Tgd],
    budget: ChaseBudget,
) -> ContainmentAnswer {
    tgd_containment(&chase_under_tgds(q, tgds, budget), q_prime, tgds)
}

/// Decides `q ≡Σ q'` for a set of tgds.
pub fn equivalent_under_tgds(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    tgds: &[Tgd],
    budget: ChaseBudget,
) -> ContainmentAnswer {
    let forward = contained_under_tgds(q, q_prime, tgds, budget);
    if forward == ContainmentAnswer::Fails {
        return ContainmentAnswer::Fails;
    }
    let backward = contained_under_tgds(q_prime, q, tgds, budget);
    match (forward, backward) {
        (ContainmentAnswer::Holds, ContainmentAnswer::Holds) => ContainmentAnswer::Holds,
        (_, ContainmentAnswer::Fails) => ContainmentAnswer::Fails,
        _ => ContainmentAnswer::Inconclusive,
    }
}

/// Decides `q ⊆Σ q'` for a set of egds (exact; the egd chase terminates).
pub fn contained_under_egds(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    egds: &[Egd],
) -> bool {
    chase_under_egds(q, egds).contains(slice::from_ref(q_prime))
}

/// Decides `q ≡Σ q'` for a set of egds.
pub fn equivalent_under_egds(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    egds: &[Egd],
) -> bool {
    contained_under_egds(q, q_prime, egds) && contained_under_egds(q_prime, q, egds)
}

/// Decides `q_left ⊆Σ q_right` via the UCQ rewriting of `q_right`: for
/// UCQ-rewritable classes (non-recursive, sticky) `q_left ⊆Σ q_right` iff
/// the canonical head tuple of `q_left` is an answer of the rewriting on the
/// canonical database of `q_left` (Definition 2) — Lemma 1's test with no
/// chase, against the union.
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
    rewriting
        .complete
        .then(|| ChasedQuery::unconstrained(q_left).contains(&rewriting.ucq.disjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};
    use sac_deps::FunctionalDependency;

    fn collector_tgd() -> Vec<Tgd> {
        vec![Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()]
    }

    fn example1_triangle() -> ConjunctiveQuery {
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

    fn example1_acyclic() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn example1_equivalence_under_the_collector_tgd() {
        // q ≡Σ q' for Example 1: the acyclic reformulation is equivalent
        // under the tgd, but not without it.
        let tgds = collector_tgd();
        assert!(equivalent_under_tgds(
            &example1_triangle(),
            &example1_acyclic(),
            &tgds,
            ChaseBudget::small()
        )
        .holds());
        assert!(!sac_query::equivalent(
            &example1_triangle(),
            &example1_acyclic()
        ));
    }

    #[test]
    fn containment_direction_without_the_tgd_still_holds_classically() {
        // triangle ⊆ acyclic holds even without constraints (drop an atom);
        // the converse requires the tgd.
        assert!(contained_under_tgds(
            &example1_triangle(),
            &example1_acyclic(),
            &[],
            ChaseBudget::small()
        )
        .holds());
        assert_eq!(
            contained_under_tgds(
                &example1_acyclic(),
                &example1_triangle(),
                &[],
                ChaseBudget::small()
            ),
            ContainmentAnswer::Fails
        );
    }

    #[test]
    fn containment_with_existential_tgds() {
        // Dept(d) → ∃m Manages(m,d): every department query is contained in a
        // "has a manager" query under Σ.
        let tgds = vec![Tgd::new(
            vec![atom!("Dept", var "d")],
            vec![atom!("Manages", var "m", var "d")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::new(vec![intern("d")], vec![atom!("Dept", var "d")]).unwrap();
        let q_prime =
            ConjunctiveQuery::new(vec![intern("d")], vec![atom!("Manages", var "m", var "d")])
                .unwrap();
        assert!(contained_under_tgds(&q, &q_prime, &tgds, ChaseBudget::small()).holds());
        assert_eq!(
            contained_under_tgds(&q_prime, &q, &tgds, ChaseBudget::small()),
            ContainmentAnswer::Fails
        );
    }

    #[test]
    fn truncated_chase_still_certifies_positive_containment() {
        // An infinite (guarded) chase: Person(x) → ∃z Parent(x,z);
        // Parent(x,z) → Person(z).  Person(p) ⊆Σ ∃z Parent(p,z) is certified
        // from a one-step prefix even though the chase never terminates.
        let tgds = vec![
            Tgd::new(
                vec![atom!("Person", var "x")],
                vec![atom!("Parent", var "x", var "z")],
            )
            .unwrap(),
            Tgd::new(
                vec![atom!("Parent", var "x", var "z")],
                vec![atom!("Person", var "z")],
            )
            .unwrap(),
        ];
        let q = ConjunctiveQuery::new(vec![intern("p")], vec![atom!("Person", var "p")]).unwrap();
        let q_prime =
            ConjunctiveQuery::new(vec![intern("p")], vec![atom!("Parent", var "p", var "z")])
                .unwrap();
        let answer = contained_under_tgds(&q, &q_prime, &tgds, ChaseBudget::new(50, 500));
        assert!(answer.holds());
    }

    #[test]
    fn head_arity_mismatch_fails_immediately() {
        let q = ConjunctiveQuery::new(vec![intern("d")], vec![atom!("Dept", var "d")]).unwrap();
        let q_prime = ConjunctiveQuery::boolean(vec![atom!("Dept", var "d")]).unwrap();
        assert_eq!(
            contained_under_tgds(&q, &q_prime, &[], ChaseBudget::small()),
            ContainmentAnswer::Fails
        );
        assert!(!contained_under_egds(&q, &q_prime, &[]));
    }

    #[test]
    fn containment_under_a_key_identifies_attributes() {
        // Key R: {1} → {2}.  q :- R(x,y), R(x,z), S(y) is contained under the
        // key in q' :- R(x,y), S(y) and vice versa (they are equivalent).
        let key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("R", var "x", var "z"),
            atom!("S", var "z"),
        ])
        .unwrap();
        let q_prime =
            ConjunctiveQuery::boolean(vec![atom!("R", var "x", var "y"), atom!("S", var "y")])
                .unwrap();
        assert!(contained_under_egds(&q, &q_prime, &key));
        assert!(contained_under_egds(&q_prime, &q, &key));
        assert!(equivalent_under_egds(&q, &q_prime, &key));
        // These two queries happen to be classically equivalent as well (the
        // extra R-atom folds); the key is exercised above on the chased form.
        assert!(contained_under_egds(&q_prime, &q, &[]));
    }

    #[test]
    fn failing_egd_chase_gives_vacuous_containment() {
        // The query forces R(a,b) and R(a,c) with constants; the key makes it
        // unsatisfiable, so it is contained in anything.
        let key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", cst "a", cst "b"),
            atom!("R", cst "a", cst "c"),
        ])
        .unwrap();
        let anything = ConjunctiveQuery::boolean(vec![atom!("Z", var "w")]).unwrap();
        assert!(contained_under_egds(&q, &anything, &key));
        assert!(!contained_under_egds(&anything, &q, &key));
    }

    #[test]
    fn equivalence_under_tgds_is_reflexive_and_detects_differences() {
        let tgds = collector_tgd();
        let q = example1_triangle();
        assert!(equivalent_under_tgds(&q, &q, &tgds, ChaseBudget::small()).holds());
        let other = ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap();
        assert_eq!(
            equivalent_under_tgds(&q, &other, &tgds, ChaseBudget::small()),
            ContainmentAnswer::Fails
        );
    }

    fn employee_tgds() -> Vec<Tgd> {
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
            contained_via_rewriting(&q_left, &q_right, &employee_tgds(), RewriteBudget::small()),
            Some(true)
        );
        // The converse fails.
        assert_eq!(
            contained_via_rewriting(&q_right, &q_left, &employee_tgds(), RewriteBudget::small()),
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
            contained_via_rewriting(&q_left, &q_right, &employee_tgds(), RewriteBudget::small()),
            Some(true)
        );
        // Swapped answer variable breaks containment.
        let q_right_swapped =
            ConjunctiveQuery::new(vec![intern("m")], vec![atom!("Manages", var "m", var "d")])
                .unwrap();
        assert_eq!(
            contained_via_rewriting(
                &q_left,
                &q_right_swapped,
                &employee_tgds(),
                RewriteBudget::small()
            ),
            Some(false)
        );
    }

    #[test]
    fn arity_mismatch_is_not_contained() {
        let q_left =
            ConjunctiveQuery::new(vec![intern("d")], vec![atom!("Dept", var "d")]).unwrap();
        let q_right = ConjunctiveQuery::boolean(vec![atom!("Dept", var "d")]).unwrap();
        assert_eq!(
            contained_via_rewriting(&q_left, &q_right, &employee_tgds(), RewriteBudget::small()),
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
