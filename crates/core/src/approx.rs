//! Acyclic CQ approximations (Section 8.2).
//!
//! When a CQ `q` is not semantically acyclic under `Σ`, the paper still
//! guarantees the existence of *acyclic approximations*: acyclic CQs `q'`
//! with `q' ⊆Σ q` that are maximal with that property.  Evaluating an
//! approximation gives sound ("quick") answers when exact evaluation is too
//! expensive.
//!
//! Candidate generation follows the constructive argument of Section 8.2:
//!
//! * the trivial single-variable query `R(x, …, x) ∧ …` over the predicates
//!   of `q` (always contained in `q`... when a homomorphism collapsing `q`
//!   onto it exists; we verify), guaranteeing at least one candidate,
//! * homomorphic collapses of `q`: images of `q` under variable
//!   identifications — every such image is classically contained in `q`,
//! * acyclic sub-structures of collapses.
//!
//! Maximality is determined by pairwise `⊆Σ` tests among the verified
//! candidates, each chased once ([`ChasedQuery`]) when it is verified and
//! asked about the others from that one chase.

use crate::containment::{chase_under_tgds, tgd_containment};
use sac_acyclic::is_acyclic_query;
use sac_chase::ChaseBudget;
use sac_common::{Atom, Symbol, Term};
use sac_deps::Tgd;
use sac_query::{core_of, ChasedQuery, ConjunctiveQuery};
use std::collections::BTreeSet;

/// The result of an approximation computation.
#[derive(Debug, Clone)]
pub struct ApproximationReport {
    /// The maximal acyclic approximations found (pairwise ⊆Σ-incomparable).
    pub maximal: Vec<ConjunctiveQuery>,
    /// Whether one of the approximations is Σ-equivalent to the input (i.e.
    /// the query was semantically acyclic after all).
    pub exact: bool,
    /// Number of candidates considered.
    pub candidates_considered: usize,
}

/// Computes acyclic approximations of `query` under `tgds`.
///
/// Only Boolean and constant-free queries are guaranteed a non-empty result
/// (the paper's Section 8.2 restricts to constant-free queries); for other
/// queries the function still returns whatever verified candidates it finds.
pub fn acyclic_approximations(
    query: &ConjunctiveQuery,
    tgds: &[Tgd],
    budget: ChaseBudget,
) -> ApproximationReport {
    let mut candidates: Vec<ConjunctiveQuery> = Vec::new();

    // Candidate source 1: the core, if acyclic (then the approximation is
    // exact).
    let core = core_of(query);
    if is_acyclic_query(&core) {
        candidates.push(core.clone());
    }

    // Candidate source 2: collapses of q by identifying pairs of existential
    // variables (one and two rounds).
    let vars: Vec<Symbol> = query.existential_variables().into_iter().collect();
    let mut collapses: Vec<ConjunctiveQuery> = Vec::new();
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            let merged = merge_vars(query, vars[i], vars[j]);
            collapses.push(merged.clone());
            for k in 0..vars.len() {
                for l in (k + 1)..vars.len() {
                    if (k, l) != (i, j) {
                        collapses.push(merge_vars(&merged, vars[k], vars[l]));
                    }
                }
            }
        }
    }
    // Candidate source 3: the total collapse onto a single variable.
    if let Some(first) = vars.first() {
        let mut total = query.clone();
        for v in &vars[1..] {
            total = merge_vars(&total, *first, *v);
        }
        collapses.push(total);
    }

    for c in collapses {
        let c = core_of(&c.dedup_atoms());
        if is_acyclic_query(&c) {
            candidates.push(c);
        }
    }

    let candidates_considered = candidates.len();

    // Verify Σ-containment in q and deduplicate, keeping each verified
    // candidate's chase for the comparisons below.
    let mut verified: Vec<ChasedQuery> = Vec::new();
    for c in candidates {
        if verified.iter().any(|v| same_query(&v.query, &c)) {
            continue;
        }
        let chased = chase_under_tgds(&c, tgds, budget);
        if tgd_containment(&chased, query, tgds).holds() {
            verified.push(chased);
        }
    }

    // Keep the ⊆Σ-maximal ones.
    let holds =
        |left: &ChasedQuery, right: &ChasedQuery| tgd_containment(left, &right.query, tgds).holds();
    let maximal: Vec<ConjunctiveQuery> = verified
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            !verified
                .iter()
                .enumerate()
                .any(|(j, other)| j != *i && holds(c, other) && (j < *i || !holds(other, c)))
        })
        .map(|(_, c)| c.query.clone())
        .collect();

    let exact = !maximal.is_empty() && {
        let chased = chase_under_tgds(query, tgds, budget);
        maximal
            .iter()
            .any(|c| tgd_containment(&chased, c, tgds).holds())
    };

    ApproximationReport {
        maximal,
        exact,
        candidates_considered,
    }
}

/// Identifies variable `b` with variable `a` throughout the query.
fn merge_vars(query: &ConjunctiveQuery, a: Symbol, b: Symbol) -> ConjunctiveQuery {
    let map = |t: Term| match t {
        Term::Variable(v) if v == b => Term::Variable(a),
        other => other,
    };
    let body: Vec<Atom> = query.body.iter().map(|at| at.map_args(map)).collect();
    let head: Vec<Symbol> = query
        .head
        .iter()
        .map(|v| if *v == b { a } else { *v })
        .collect();
    ConjunctiveQuery::new_unchecked(head, body)
}

/// Structural equality up to atom order (cheap dedup; not isomorphism).
fn same_query(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    if a.head != b.head {
        return false;
    }
    let sa: BTreeSet<&Atom> = a.body.iter().collect();
    let sb: BTreeSet<&Atom> = b.body.iter().collect();
    sa == sb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contained_under_tgds;
    use sac_common::atom;
    use sac_query::evaluate_boolean;
    use sac_storage::Instance;

    #[test]
    fn triangle_has_a_nontrivial_acyclic_approximation() {
        // The directed triangle E(x,y),E(y,z),E(z,x) is not semantically
        // acyclic (no constraints); its best acyclic approximation is the
        // self-loop E(w,w) (the total collapse).
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "z", var "x"),
        ])
        .unwrap();
        let report = acyclic_approximations(&q, &[], ChaseBudget::small());
        assert!(!report.exact);
        assert!(!report.maximal.is_empty());
        let best = &report.maximal[0];
        assert!(is_acyclic_query(best));
        // Soundness: on a database where the approximation holds, the
        // triangle holds too (containment direction), e.g. a self-loop DB.
        let db = Instance::from_atoms(vec![atom!("E", cst "a", cst "a")]).unwrap();
        assert!(evaluate_boolean(best, &db));
        assert!(evaluate_boolean(&q, &db));
        // And the approximation misses triangle-free databases, as it must
        // (it is contained in q, not equivalent).
        let path_db = Instance::from_atoms(vec![
            atom!("E", cst "a", cst "b"),
            atom!("E", cst "b", cst "c"),
        ])
        .unwrap();
        assert!(!evaluate_boolean(best, &path_db));
    }

    #[test]
    fn semantically_acyclic_queries_get_exact_approximations() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "x", var "yp"),
        ])
        .unwrap();
        let report = acyclic_approximations(&q, &[], ChaseBudget::small());
        assert!(report.exact);
    }

    #[test]
    fn constraints_can_make_an_approximation_exact() {
        // Example 1 again: under the collector tgd the triangle's acyclic
        // approximation is exact.
        let tgds = vec![Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::boolean(vec![
            atom!("Interest", var "x", var "z"),
            atom!("Class", var "y", var "z"),
            atom!("Owns", var "x", var "y"),
        ])
        .unwrap();
        let with_tgd = acyclic_approximations(&q, &tgds, ChaseBudget::small());
        let without = acyclic_approximations(&q, &[], ChaseBudget::small());
        // Note: the collapse candidates of the triangle are contained in q
        // classically; under the tgd one of them becomes equivalent.
        assert!(
            with_tgd.exact || !without.exact,
            "adding the tgd must not make the approximation worse"
        );
    }

    #[test]
    fn maximal_approximations_are_pairwise_incomparable() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "z", var "x"),
        ])
        .unwrap();
        let report = acyclic_approximations(&q, &[], ChaseBudget::small());
        for (i, a) in report.maximal.iter().enumerate() {
            for (j, b) in report.maximal.iter().enumerate() {
                if i != j {
                    let a_in_b = contained_under_tgds(a, b, &[], ChaseBudget::small());
                    let b_in_a = contained_under_tgds(b, a, &[], ChaseBudget::small());
                    assert!(
                        !a_in_b.holds() || b_in_a.holds(),
                        "approximation {i} is strictly dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn approximations_are_always_contained_in_the_query() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "y", var "z"),
            atom!("T", var "z", var "x"),
        ])
        .unwrap();
        let report = acyclic_approximations(&q, &[], ChaseBudget::small());
        for approx in &report.maximal {
            assert!(contained_under_tgds(approx, &q, &[], ChaseBudget::small()).holds());
            assert!(is_acyclic_query(approx));
        }
    }
}
