//! The chase for equality-generating dependencies.
//!
//! An egd `φ(x̄) → x_i = x_j` is applicable when a homomorphism `h` of its
//! body maps `x_i` and `x_j` to distinct terms.  Applying it identifies the
//! two terms: if both are constants the chase **fails**; if one is a constant
//! the null is replaced by it; if both are nulls one replaces the other.  The
//! egd chase always terminates (each step strictly decreases the number of
//! distinct terms) and is unique up to null renaming.
//!
//! When chasing the canonical database of a query (Lemma 1), the frozen
//! `c(x)` terms are labelled nulls, so they participate in identifications —
//! exactly the paper's "special constants treated as nulls" convention.  The
//! cumulative renaming is reported so callers can track where the frozen head
//! tuple went.

use sac_common::{Error, Result, Term};
use sac_deps::Egd;
use sac_query::{ConjunctiveQuery, FrozenQuery, Homomorphisms};
use sac_storage::{dict, Instance};
use std::collections::BTreeMap;

/// The result of a successful egd chase.
#[derive(Debug, Clone)]
pub struct EgdChaseResult {
    /// The chased instance (a model of the egds).
    pub instance: Instance,
    /// Number of identification steps performed.
    pub steps: usize,
    /// The cumulative renaming applied to terms of the original instance.
    renaming: BTreeMap<Term, Term>,
}

impl EgdChaseResult {
    /// Resolves a term of the *original* instance to its representative in
    /// the chased instance.
    pub fn resolve(&self, term: Term) -> Term {
        let mut current = term;
        // Path-compress on the fly; the chains are short (each merge step adds
        // one link) but following them transitively is required.
        let mut hops = 0;
        while let Some(next) = self.renaming.get(&current) {
            current = *next;
            hops += 1;
            debug_assert!(hops <= self.renaming.len() + 1, "renaming cycle");
        }
        current
    }

    /// Resolves every term of a tuple.
    pub fn resolve_tuple(&self, tuple: &[Term]) -> Vec<Term> {
        tuple.iter().map(|t| self.resolve(*t)).collect()
    }
}

/// Runs the egd chase to completion.
///
/// Returns an error ([`Error::ChaseFailure`]) when the chase fails by
/// attempting to identify two distinct constants.
pub fn egd_chase(instance: &Instance, egds: &[Egd]) -> Result<EgdChaseResult> {
    let mut current = instance.clone();
    let mut renaming: BTreeMap<Term, Term> = BTreeMap::new();
    let mut steps = 0usize;

    loop {
        match find_violation(&current, egds) {
            None => {
                return Ok(EgdChaseResult {
                    instance: current,
                    steps,
                    renaming,
                })
            }
            Some((a, b)) => {
                let (from, to) = orient(a, b)?;
                current = current.rename(|t| if t == from { to } else { t });
                // Update the cumulative renaming: new links and existing
                // chains that pointed at `from`.
                for target in renaming.values_mut() {
                    if *target == from {
                        *target = to;
                    }
                }
                renaming.insert(from, to);
                steps += 1;
            }
        }
    }
}

/// Chases the canonical database of a query under egds.
pub fn egd_chase_query(
    query: &ConjunctiveQuery,
    egds: &[Egd],
) -> Result<(EgdChaseResult, FrozenQuery)> {
    let frozen = FrozenQuery::freeze(query);
    let result = egd_chase(&frozen.instance, egds)?;
    Ok((result, frozen))
}

/// Finds a violated egd instance: a pair of distinct terms some egd equates.
fn find_violation(instance: &Instance, egds: &[Egd]) -> Option<(Term, Term)> {
    for egd in egds {
        if egd.is_trivial() {
            continue;
        }
        let body = Homomorphisms::new(&egd.body, instance, &[]);
        let slot = |v| body.slot(v).expect("equated variables occur in the body");
        let (left, right) = (slot(egd.left), slot(egd.right));
        let mut found = None;
        body.search(instance, &[], |h| {
            // Codes are a bijection with terms: distinct codes, distinct terms.
            let violated = h[left] != h[right];
            if violated {
                found = Some((dict::decode(h[left]), dict::decode(h[right])));
            }
            violated
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Decides the direction of an identification: `(from, to)` meaning `from` is
/// replaced everywhere by `to`.  Fails when both terms are constants.
fn orient(a: Term, b: Term) -> Result<(Term, Term)> {
    match (a.is_constant(), b.is_constant()) {
        (true, true) => Err(Error::ChaseFailure(format!(
            "attempted to identify distinct constants {a} and {b}"
        ))),
        (true, false) => Ok((b, a)),
        (false, true) => Ok((a, b)),
        (false, false) => {
            // Both nulls (or, defensively, variables): replace the larger
            // label by the smaller for determinism.
            if a < b {
                Ok((b, a))
            } else {
                Ok((a, b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};
    use sac_deps::FunctionalDependency;

    fn key_r() -> Egd {
        // R(x,y), R(x,z) → y = z
        Egd::new(
            vec![atom!("R", var "x", var "y"), atom!("R", var "x", var "z")],
            intern("y"),
            intern("z"),
        )
        .unwrap()
    }

    #[test]
    fn merging_two_nulls() {
        let db = Instance::from_atoms(vec![
            atom!("R", cst "a", null 1),
            atom!("R", cst "a", null 2),
        ])
        .unwrap();
        let result = egd_chase(&db, &[key_r()]).unwrap();
        assert_eq!(result.instance.len(), 1);
        assert_eq!(result.steps, 1);
        assert_eq!(result.resolve(Term::Null(2)), Term::Null(1));
        assert_eq!(result.resolve(Term::Null(1)), Term::Null(1));
    }

    #[test]
    fn null_is_replaced_by_constant() {
        let db = Instance::from_atoms(vec![
            atom!("R", cst "a", cst "b"),
            atom!("R", cst "a", null 7),
        ])
        .unwrap();
        let result = egd_chase(&db, &[key_r()]).unwrap();
        assert_eq!(result.instance.len(), 1);
        assert_eq!(result.resolve(Term::Null(7)), Term::constant("b"));
        assert!(result.instance.contains(&atom!("R", cst "a", cst "b")));
    }

    #[test]
    fn identifying_distinct_constants_fails() {
        let db = Instance::from_atoms(vec![
            atom!("R", cst "a", cst "b"),
            atom!("R", cst "a", cst "c"),
        ])
        .unwrap();
        assert!(egd_chase(&db, &[key_r()]).is_err());
    }

    #[test]
    fn satisfied_egds_do_nothing() {
        let db = Instance::from_atoms(vec![
            atom!("R", cst "a", cst "b"),
            atom!("R", cst "x", cst "y"),
        ])
        .unwrap();
        let result = egd_chase(&db, &[key_r()]).unwrap();
        assert_eq!(result.steps, 0);
        assert_eq!(result.instance.len(), 2);
    }

    #[test]
    fn chained_identifications_resolve_transitively() {
        // Three R-atoms with the same key force null 1 = null 2 = null 3.
        let db = Instance::from_atoms(vec![
            atom!("R", cst "a", null 1),
            atom!("R", cst "a", null 2),
            atom!("R", cst "a", null 3),
        ])
        .unwrap();
        let result = egd_chase(&db, &[key_r()]).unwrap();
        assert_eq!(result.instance.len(), 1);
        assert_eq!(result.steps, 2);
        assert_eq!(result.resolve(Term::Null(3)), Term::Null(1));
        assert_eq!(result.resolve(Term::Null(2)), Term::Null(1));
    }

    #[test]
    fn example4_chase_on_the_frozen_query() {
        // Example 4: chasing the acyclic query
        //   R(x,y), S(x,y,z), S(x,z,w), S(x,w,v), R(x,v)
        // with the key R: {1} → {2} identifies y and v, yielding a cyclic
        // query (checked in sac-core / probe tests; here we verify the merge).
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "x", var "y", var "z"),
            atom!("S", var "x", var "z", var "w"),
            atom!("S", var "x", var "w", var "v"),
            atom!("R", var "x", var "v"),
        ])
        .unwrap();
        let key = FunctionalDependency::key("R", 2, [1]).unwrap();
        let (result, frozen) = egd_chase_query(&q, &key.to_egds()).unwrap();
        // y and v were identified, so only one R atom and three S atoms remain.
        assert_eq!(result.instance.len(), 4);
        let y = frozen.var_map[&intern("y")];
        let v = frozen.var_map[&intern("v")];
        assert_eq!(result.resolve(y), result.resolve(v));
    }

    #[test]
    fn unary_fd_merges_attribute_values() {
        // FD R: {1} → {3} over ternary R.
        let fd = FunctionalDependency::from_parts("R", 3, [1], [3]).unwrap();
        let db = Instance::from_atoms(vec![
            atom!("R", cst "k", cst "p", null 1),
            atom!("R", cst "k", cst "q", null 2),
        ])
        .unwrap();
        let result = egd_chase(&db, &fd.to_egds()).unwrap();
        assert_eq!(result.resolve(Term::Null(1)), result.resolve(Term::Null(2)));
        // The two atoms differ in position 2, so both survive.
        assert_eq!(result.instance.len(), 2);
    }
}
