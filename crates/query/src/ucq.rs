//! Unions of conjunctive queries (UCQs).
//!
//! Section 5 of the paper uses UCQ *rewritings* of a CQ under non-recursive
//! or sticky tgds, and Section 8.1 extends semantic acyclicity itself to UCQ
//! inputs.  This module provides the shared data model: a list of CQ
//! disjuncts with the same answer arity, evaluation as the union of the
//! disjunct answers, and the classical containment tests.

use crate::containment::contained_in;
use crate::cq::ConjunctiveQuery;
use crate::evaluate::evaluate;
use sac_common::{SacError, SacResult, Term};
use sac_storage::Instance;
use std::collections::BTreeSet;
use std::fmt;

/// A union of conjunctive queries `Q(x̄) = q1(x̄) ∨ … ∨ qn(x̄)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionOfConjunctiveQueries {
    /// The disjuncts.  All share the same head arity.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionOfConjunctiveQueries {
    /// Creates a UCQ, checking that all disjuncts have the same head arity
    /// and that at least one disjunct is present.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> SacResult<UnionOfConjunctiveQueries> {
        if disjuncts.is_empty() {
            return Err(SacError::invalid("a UCQ needs at least one disjunct"));
        }
        let arity = disjuncts[0].head.len();
        if disjuncts.iter().any(|q| q.head.len() != arity) {
            return Err(SacError::invalid(
                "all UCQ disjuncts must have the same head arity",
            ));
        }
        Ok(UnionOfConjunctiveQueries { disjuncts })
    }

    /// Wraps a single CQ as a one-disjunct UCQ.
    pub fn single(query: ConjunctiveQuery) -> UnionOfConjunctiveQueries {
        UnionOfConjunctiveQueries {
            disjuncts: vec![query],
        }
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Always false (construction requires at least one disjunct); provided
    /// for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// The *height* of the UCQ: the maximal size (number of atoms) of a
    /// disjunct.  This is the quantity `f_C(q, Σ)` bounds in Section 5 and
    /// the one Example 3 grows to 2ⁿ (row e5 of EXPERIMENTS.md, "e1–e10:
    /// the paper's examples").
    pub fn height(&self) -> usize {
        self.disjuncts.iter().map(|q| q.size()).max().unwrap_or(0)
    }

    /// Evaluates the UCQ: the union of the disjuncts' answer sets.
    pub fn evaluate(&self, instance: &Instance) -> BTreeSet<Vec<Term>> {
        let mut out = BTreeSet::new();
        for q in &self.disjuncts {
            out.extend(evaluate(q, instance));
        }
        out
    }

    /// Boolean evaluation.
    pub fn evaluate_boolean(&self, instance: &Instance) -> bool {
        self.disjuncts
            .iter()
            .any(|q| crate::evaluate::evaluate_boolean(q, instance))
    }

    /// Classical containment of a CQ in this UCQ: `q ⊆ Q` iff `q ⊆ qi` for
    /// some disjunct `qi` (by the Sagiv–Yannakakis argument for UCQs).
    pub fn contains_cq(&self, q: &ConjunctiveQuery) -> bool {
        self.disjuncts.iter().any(|qi| contained_in(q, qi))
    }

    /// Classical containment of UCQs: `self ⊆ other` iff every disjunct of
    /// `self` is contained in some disjunct of `other`.
    pub fn contained_in(&self, other: &UnionOfConjunctiveQueries) -> bool {
        self.disjuncts.iter().all(|q| other.contains_cq(q))
    }

    /// Classical equivalence of UCQs.
    pub fn equivalent(&self, other: &UnionOfConjunctiveQueries) -> bool {
        self.contained_in(other) && other.contained_in(self)
    }

    /// Removes disjuncts that are classically contained in another disjunct
    /// (keeping the first of any mutually-equivalent group).
    pub fn remove_redundant_disjuncts(&self) -> UnionOfConjunctiveQueries {
        let mut kept: Vec<ConjunctiveQuery> = Vec::new();
        for (i, q) in self.disjuncts.iter().enumerate() {
            let redundant = self.disjuncts.iter().enumerate().any(|(j, other)| {
                if i == j {
                    return false;
                }
                // q ⊆ other, and not (other ⊆ q with j > i) to keep one
                // representative of equivalence classes.
                contained_in(q, other) && (!contained_in(other, q) || j < i)
            });
            if !redundant {
                kept.push(q.clone());
            }
        }
        UnionOfConjunctiveQueries { disjuncts: kept }
    }
}

impl fmt::Display for UnionOfConjunctiveQueries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f, " ∨")?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    fn edge_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(vec![intern("x")], vec![atom!("E", var "x", var "y")]).unwrap()
    }

    fn vertex_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(vec![intern("x")], vec![atom!("V", var "x")]).unwrap()
    }

    #[test]
    fn construction_requires_matching_arities() {
        let boolean = ConjunctiveQuery::boolean(vec![atom!("V", var "x")]).unwrap();
        assert!(UnionOfConjunctiveQueries::new(vec![edge_query(), boolean]).is_err());
        assert!(UnionOfConjunctiveQueries::new(vec![]).is_err());
        assert!(UnionOfConjunctiveQueries::new(vec![edge_query(), vertex_query()]).is_ok());
    }

    #[test]
    fn evaluation_is_union_of_disjuncts() {
        let ucq = UnionOfConjunctiveQueries::new(vec![edge_query(), vertex_query()]).unwrap();
        let db =
            Instance::from_atoms(vec![atom!("E", cst "a", cst "b"), atom!("V", cst "c")]).unwrap();
        let answers = ucq.evaluate(&db);
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&vec![Term::constant("a")]));
        assert!(answers.contains(&vec![Term::constant("c")]));
        assert!(ucq.evaluate_boolean(&db));
    }

    #[test]
    fn height_is_max_disjunct_size() {
        let big = ConjunctiveQuery::new(
            vec![intern("x")],
            vec![
                atom!("E", var "x", var "y"),
                atom!("E", var "y", var "z"),
                atom!("E", var "z", var "w"),
            ],
        )
        .unwrap();
        let ucq = UnionOfConjunctiveQueries::new(vec![edge_query(), big]).unwrap();
        assert_eq!(ucq.height(), 3);
    }

    #[test]
    fn cq_containment_in_ucq() {
        let two_step = ConjunctiveQuery::new(
            vec![intern("x")],
            vec![atom!("E", var "x", var "y"), atom!("E", var "y", var "z")],
        )
        .unwrap();
        let ucq = UnionOfConjunctiveQueries::new(vec![edge_query(), vertex_query()]).unwrap();
        assert!(ucq.contains_cq(&two_step)); // two_step ⊆ edge_query
        let unrelated =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("W", var "x")]).unwrap();
        assert!(!ucq.contains_cq(&unrelated));
    }

    #[test]
    fn ucq_containment_and_equivalence() {
        let ucq1 = UnionOfConjunctiveQueries::new(vec![edge_query()]).unwrap();
        let ucq2 = UnionOfConjunctiveQueries::new(vec![edge_query(), vertex_query()]).unwrap();
        assert!(ucq1.contained_in(&ucq2));
        assert!(!ucq2.contained_in(&ucq1));
        assert!(!ucq1.equivalent(&ucq2));
        assert!(ucq2.equivalent(&ucq2));
    }

    #[test]
    fn redundant_disjuncts_are_removed() {
        let two_step = ConjunctiveQuery::new(
            vec![intern("x")],
            vec![atom!("E", var "x", var "y"), atom!("E", var "y", var "z")],
        )
        .unwrap();
        let ucq =
            UnionOfConjunctiveQueries::new(vec![edge_query(), two_step, vertex_query()]).unwrap();
        let reduced = ucq.remove_redundant_disjuncts();
        assert_eq!(reduced.len(), 2);
        // Duplicated disjuncts collapse to one.
        let dup = UnionOfConjunctiveQueries::new(vec![edge_query(), edge_query()]).unwrap();
        assert_eq!(dup.remove_redundant_disjuncts().len(), 1);
    }

    #[test]
    fn single_wraps_one_disjunct() {
        let ucq = UnionOfConjunctiveQueries::single(edge_query());
        assert_eq!(ucq.len(), 1);
        assert_eq!(ucq.disjuncts[0].head.len(), 1);
    }
}
