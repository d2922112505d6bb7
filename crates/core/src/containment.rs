//! Containment and equivalence under constraints (Lemma 1).
//!
//! For tgds the chase may be infinite, so the answer is three-valued:
//! a chase prefix suffices to certify containment (the frozen head tuple is
//! already an answer of `q'` on the prefix), a *terminated* chase certifies
//! non-containment, and otherwise we fall back to the UCQ rewriting (exact
//! for non-recursive and sticky sets) before giving up with
//! [`ContainmentAnswer::Inconclusive`].
//!
//! For egds the chase always terminates, so the answer is exact; a failing
//! chase means the left query is unsatisfiable on every instance satisfying
//! the egds, and containment holds vacuously.
//!
//! Both are Lemma 1's test as [`sac_query::contained_on_chase`] runs it,
//! with the chase of the constraint class plugged in.

use sac_chase::{egd_chase, tgd_chase, ChaseBudget};
use sac_deps::{Egd, Tgd};
use sac_query::{contained_on_chase, ConjunctiveQuery};
use sac_rewrite::{contained_via_rewriting, RewriteBudget};
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
    let mut truncated = false;
    let hit = contained_on_chase(q, slice::from_ref(q_prime), |frozen| {
        let result = tgd_chase(&frozen.instance, tgds, budget);
        truncated = !result.terminated;
        Some((result.instance, frozen.head))
    });
    if hit {
        // A chase prefix is homomorphically embeddable into the full chase,
        // so a hit on the prefix certifies containment.
        return ContainmentAnswer::Holds;
    }
    if !truncated {
        return ContainmentAnswer::Fails;
    }
    // Chase truncated: try the rewriting-based route, exact for
    // UCQ-rewritable sets.
    match contained_via_rewriting(q, q_prime, tgds, RewriteBudget::small()) {
        Some(true) => ContainmentAnswer::Holds,
        Some(false) => ContainmentAnswer::Fails,
        None => ContainmentAnswer::Inconclusive,
    }
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
    contained_on_chase(q, slice::from_ref(q_prime), |frozen| {
        // A failing chase: q is unsatisfiable w.r.t. Σ, contained vacuously.
        let result = egd_chase(&frozen.instance, egds).ok()?;
        let head = result.resolve_tuple(&frozen.head);
        Some((result.instance, head))
    })
}

/// Decides `q ≡Σ q'` for a set of egds.
pub fn equivalent_under_egds(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    egds: &[Egd],
) -> bool {
    contained_under_egds(q, q_prime, egds) && contained_under_egds(q_prime, q, egds)
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
}
