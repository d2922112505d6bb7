//! Core computation (query minimization).
//!
//! The *core* of a CQ `q` is the unique (up to isomorphism) minimal
//! equivalent CQ `q'` — the paper's Section 1 recalls that in the absence of
//! constraints, semantic acyclicity degenerates to "the core is acyclic".
//! `sac-core` uses this module both for the constraint-free baseline and to
//! simplify candidate witness queries before testing them.
//!
//! The algorithm is the standard folding procedure: repeatedly look for an
//! endomorphism of `q` (fixing the free variables) whose image misses at
//! least one body atom, replace the body with the image, and stop when no
//! such endomorphism exists.  Each round removes at least one atom, so at
//! most `|q|` rounds are performed; each round performs an NP homomorphism
//! search, which is the unavoidable cost (core computation is NP-hard).

use crate::cq::ConjunctiveQuery;
use crate::freeze::FrozenQuery;
use crate::homomorphism::Homomorphisms;
use sac_common::{Atom, Substitution, Symbol, Term};
use sac_storage::Instance;
use std::collections::BTreeSet;

/// Computes the core of `query`.
///
/// The result is equivalent to `query` (over all instances), uses a subset of
/// its variables, and has a body that cannot be further folded.
pub fn core_of(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current: Vec<Atom> = query.dedup_atoms().body;
    while let Some(smaller) = fold_step(&query.head, &current) {
        current = smaller;
    }
    ConjunctiveQuery {
        name: query.name.clone(),
        head: query.head.clone(),
        body: current,
    }
}

/// Returns `true` if `query` is a core (no proper fold exists).
pub fn is_core(query: &ConjunctiveQuery) -> bool {
    fold_step(&query.head, &query.dedup_atoms().body).is_none()
}

/// Tries to find an endomorphism of `body` (fixing `head` variables) whose
/// image avoids at least one atom of `body`; returns the image if found.
///
/// The target side is *frozen* (variables replaced by labelled nulls) so that
/// the homomorphism search never confuses pattern variables with the query's
/// own variables appearing as target values; free variables are fixed
/// pointwise, to their own frozen image.
fn fold_step(head: &[Symbol], body: &[Atom]) -> Option<Vec<Atom>> {
    let frozen = FrozenQuery::freeze(&ConjunctiveQuery::new_unchecked(
        head.to_vec(),
        body.to_vec(),
    ));
    let freeze = frozen.as_substitution();
    let thaw =
        Substitution::from_pairs(frozen.var_map.iter().map(|(v, t)| (*t, Term::Variable(*v))));
    for dropped in body {
        // The only atom of its relation has nothing to fold onto.
        if !body
            .iter()
            .any(|a| a != dropped && a.predicate == dropped.predicate)
        {
            continue;
        }
        // Look for an endomorphism avoiding `dropped`, i.e. into body \ {dropped}.
        let dropped = freeze.apply_atom(dropped);
        let reduced = frozen.instance.atoms().filter(|a| *a != dropped);
        let reduced = Instance::from_atoms(reduced).expect("query body has consistent arities");
        let homs = Homomorphisms::new(body, &reduced, head);
        let mut image: Option<BTreeSet<Atom>> = None;
        homs.search_terms(&reduced, &frozen.head, |h| {
            // The image of the body under h, mapped back to query variables.
            let h = homs.substitution(h);
            image = Some(
                body.iter()
                    .map(|a| thaw.apply_atom(&h.apply_atom(a)))
                    .collect(),
            );
            true
        });
        if let Some(image) = image {
            return Some(image.into_iter().collect());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent;
    use sac_common::{atom, intern};

    #[test]
    fn core_of_a_core_is_itself() {
        // The Example 1 triangle is already a core.
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ],
        )
        .unwrap();
        let c = core_of(&q);
        assert_eq!(c.size(), 3);
        assert!(is_core(&q));
    }

    #[test]
    fn redundant_atom_is_folded_away() {
        // q() :- E(x,y), E(x,y')   — y' can fold onto y.
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "x", var "yp"),
        ])
        .unwrap();
        let c = core_of(&q);
        assert_eq!(c.size(), 1);
        assert!(equivalent(&q, &c));
    }

    #[test]
    fn boolean_path_folds_onto_single_edge_only_if_homomorphic() {
        // A Boolean 2-path E(x,y),E(y,z) is a core (no endomorphism to a single
        // edge because the middle variable is shared).
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
        ])
        .unwrap();
        assert!(is_core(&q));
    }

    #[test]
    fn directed_four_cycle_is_its_own_core() {
        // The directed 4-cycle has homomorphisms onto the 2-cycle, but the
        // 2-cycle is not a *subquery* of it, so no retraction exists: the
        // 4-cycle is a core.
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x1", var "x2"),
            atom!("E", var "x2", var "x3"),
            atom!("E", var "x3", var "x4"),
            atom!("E", var "x4", var "x1"),
        ])
        .unwrap();
        let c = core_of(&q);
        assert_eq!(c.size(), 4);
        assert!(equivalent(&q, &c));
        assert!(is_core(&q));
    }

    #[test]
    fn four_cycle_with_chord_shortcut_folds() {
        // Adding the 2-cycle E(x1,x2), E(x2,x1) to the 4-cycle lets the whole
        // query retract onto that 2-cycle.
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x1", var "x2"),
            atom!("E", var "x2", var "x3"),
            atom!("E", var "x3", var "x4"),
            atom!("E", var "x4", var "x1"),
            atom!("E", var "x2", var "x1"),
        ])
        .unwrap();
        let c = core_of(&q);
        assert_eq!(c.size(), 2);
        assert!(equivalent(&q, &c));
    }

    #[test]
    fn head_variables_are_not_folded() {
        // q(x, xp) :- E(x,y), E(xp,y): both x and xp are free, so the two
        // atoms cannot be identified even though their existential parts could.
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("xp")],
            vec![atom!("E", var "x", var "y"), atom!("E", var "xp", var "y")],
        )
        .unwrap();
        let c = core_of(&q);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn duplicate_atoms_are_removed() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "x", var "y"),
        ])
        .unwrap();
        assert_eq!(core_of(&q).size(), 1);
    }

    #[test]
    fn core_is_always_equivalent_to_original() {
        // A star with redundant rays plus a triangle.
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "c", var "r1"),
            atom!("E", var "c", var "r2"),
            atom!("E", var "c", var "r3"),
            atom!("T", var "a", var "b"),
            atom!("T", var "b", var "a"),
        ])
        .unwrap();
        let c = core_of(&q);
        assert!(equivalent(&q, &c));
        assert!(c.size() <= q.size());
        assert_eq!(c.size(), 3); // one ray + the 2-cycle
    }
}
