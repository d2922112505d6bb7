//! CQ containment, written once.
//!
//! By the Chandra–Merlin theorem, `q ⊆ q'` holds iff there is a homomorphism
//! from `q'` to `q` mapping the head of `q'` onto the head of `q` — or,
//! equivalently, iff the frozen head tuple `c(x̄)` of `q` belongs to
//! `q'(D_q)` where `D_q` is the canonical database of `q`.  Lemma 1
//! generalizes the canonical-database formulation to containment *under
//! constraints*: chase `D_q` first.  [`ChasedQuery`] is that left side as a
//! value — built once per query, then asked about any number of right-hand
//! queries with [`ChasedQuery::contains`].  Classical containment here, the
//! chases under tgds and egds and the rewriting-based test (`sac-core`) all
//! build one, and all run the compiled homomorphism search.

use crate::cq::ConjunctiveQuery;
use crate::freeze::FrozenQuery;
use crate::homomorphism::Homomorphisms;
use sac_common::Term;
use sac_storage::Instance;

/// Whether `tuple` is an answer of `query` on `instance`: some homomorphism
/// of the body sends the head onto it.
pub fn contains_answer(query: &ConjunctiveQuery, instance: &Instance, tuple: &[Term]) -> bool {
    tuple.len() == query.head.len()
        && Homomorphisms::new(&query.body, instance, &query.head).exists(instance, tuple)
}

/// Lemma 1's left side: the canonical database of `query`, chased once.
#[derive(Debug, Clone)]
pub struct ChasedQuery {
    /// The query whose canonical database this is.
    pub query: ConjunctiveQuery,
    /// The canonical database after the chase: the chased instance, where
    /// the frozen head tuple went, and the freezing map that reads both back
    /// ([`FrozenQuery::thaw`]).  `None` when the chase failed: `query` has
    /// no model, and every containment of it holds vacuously.
    pub chased: Option<FrozenQuery>,
    /// Whether the chase stopped at its budget short of a fixpoint; the
    /// instance is then a prefix of the chase.
    pub truncated: bool,
}

impl ChasedQuery {
    /// The canonical database of `query` under no constraints, where the
    /// chase changes nothing.
    pub fn unconstrained(query: &ConjunctiveQuery) -> ChasedQuery {
        ChasedQuery {
            query: query.clone(),
            chased: Some(FrozenQuery::freeze(query)),
            truncated: false,
        }
    }

    /// Lemma 1's test: `query` is contained in the union of `rights` iff
    /// the chased frozen head tuple is an answer of some query of `rights`
    /// on the chased canonical database.  Heads of different arities are
    /// never contained.
    ///
    /// On a truncated chase a `true` is still certain (the prefix maps into
    /// the full chase), a `false` is not.
    pub fn contains(&self, rights: &[ConjunctiveQuery]) -> bool {
        if rights
            .iter()
            .any(|right| right.head.len() != self.query.head.len())
        {
            return false;
        }
        let Some(chased) = &self.chased else {
            return true;
        };
        rights
            .iter()
            .any(|right| contains_answer(right, &chased.instance, &chased.head))
    }
}

/// Returns `true` iff `q ⊆ q'` over all instances (no constraints).
///
/// Queries with different head arities are never comparable and the function
/// returns `false` for them.
pub fn contained_in(q: &ConjunctiveQuery, q_prime: &ConjunctiveQuery) -> bool {
    ChasedQuery::unconstrained(q).contains(std::slice::from_ref(q_prime))
}

/// Returns `true` iff `q ≡ q'` over all instances (no constraints).
pub fn equivalent(q: &ConjunctiveQuery, q_prime: &ConjunctiveQuery) -> bool {
    contained_in(q, q_prime) && contained_in(q_prime, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    fn path(n: usize) -> ConjunctiveQuery {
        // Boolean: E(x0,x1), ..., E(x{n-1},xn)
        let body = (0..n)
            .map(|i| {
                sac_common::Atom::from_parts(
                    "E",
                    vec![
                        sac_common::Term::variable(&format!("x{i}")),
                        sac_common::Term::variable(&format!("x{}", i + 1)),
                    ],
                )
            })
            .collect();
        ConjunctiveQuery::boolean(body).unwrap()
    }

    #[test]
    fn longer_paths_are_contained_in_shorter_ones() {
        // A database with a 3-path also has a 2-path: path(3) ⊆ path(2).
        assert!(contained_in(&path(3), &path(2)));
        assert!(!contained_in(&path(2), &path(3)));
    }

    #[test]
    fn every_query_is_contained_in_itself() {
        let q = path(4);
        assert!(contained_in(&q, &q));
        assert!(equivalent(&q, &q));
    }

    #[test]
    fn cycle_contained_in_path_but_not_conversely() {
        let cycle = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "x"),
        ])
        .unwrap();
        // Any DB with a 2-cycle has a 2-path.
        assert!(contained_in(&cycle, &path(2)));
        assert!(!contained_in(&path(2), &cycle));
    }

    #[test]
    fn head_arity_mismatch_is_never_contained() {
        let unary =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("E", var "x", var "y")]).unwrap();
        let boolean = path(1);
        assert!(!contained_in(&unary, &boolean));
        assert!(!contained_in(&boolean, &unary));
    }

    #[test]
    fn head_variables_constrain_containment() {
        // q1(x) :- E(x,y)   vs   q2(x) :- E(y,x): not comparable.
        let q1 =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("E", var "x", var "y")]).unwrap();
        let q2 =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("E", var "y", var "x")]).unwrap();
        assert!(!contained_in(&q1, &q2));
        assert!(!contained_in(&q2, &q1));
    }

    #[test]
    fn redundant_atoms_do_not_change_equivalence() {
        let q1 =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("E", var "x", var "y")]).unwrap();
        let q2 = ConjunctiveQuery::new(
            vec![intern("x")],
            vec![atom!("E", var "x", var "y"), atom!("E", var "x", var "y2")],
        )
        .unwrap();
        assert!(equivalent(&q1, &q2));
    }

    #[test]
    fn contains_answer_checks_specific_tuples() {
        let db = Instance::from_atoms(vec![
            atom!("Interest", cst "alice", cst "jazz"),
            atom!("Interest", cst "bob", cst "rock"),
            atom!("Class", cst "kind_of_blue", cst "jazz"),
            atom!("Class", cst "nevermind", cst "rock"),
            atom!("Owns", cst "alice", cst "kind_of_blue"),
        ])
        .unwrap();
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ],
        )
        .unwrap();
        let (alice, bob) = (Term::constant("alice"), Term::constant("bob"));
        assert!(contains_answer(
            &q,
            &db,
            &[alice, Term::constant("kind_of_blue")]
        ));
        assert!(!contains_answer(
            &q,
            &db,
            &[bob, Term::constant("nevermind")]
        ));
        // Wrong arity.
        assert!(!contains_answer(&q, &db, &[alice]));
        // A repeated head variable cannot take two values.
        let diagonal = ConjunctiveQuery::new(
            vec![intern("x"), intern("x")],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap();
        assert!(contains_answer(&diagonal, &db, &[alice, alice]));
        assert!(!contains_answer(&diagonal, &db, &[alice, bob]));
    }

    #[test]
    fn constants_affect_containment() {
        let q_const = ConjunctiveQuery::boolean(vec![atom!("E", cst "a", var "y")]).unwrap();
        let q_var = ConjunctiveQuery::boolean(vec![atom!("E", var "x", var "y")]).unwrap();
        // Having E(a, y) implies having E(x, y); not conversely.
        assert!(contained_in(&q_const, &q_var));
        assert!(!contained_in(&q_var, &q_const));
    }
}
