//! Semantic acyclicity for unions of conjunctive queries (Section 8.1).
//!
//! A UCQ `Q` is semantically acyclic under `Σ` iff it is Σ-equivalent to a
//! union of acyclic CQs.  Propositions 33 and 34 reduce this to a per-disjunct
//! property: every disjunct `q ∈ Q` either (i) has an acyclic Σ-equivalent
//! witness of bounded size, or (ii) is redundant in `Q` (Σ-contained in
//! another disjunct).

use crate::containment::{chase_under_tgds, tgd_containment};
use crate::semac::{
    is_semantically_acyclic_no_constraints, witness_from_chase, SemAcConfig, SemAcResult,
};
use sac_deps::Tgd;
use sac_query::{ConjunctiveQuery, UnionOfConjunctiveQueries};

/// The per-disjunct outcome of a UCQ semantic-acyclicity check.
#[derive(Debug, Clone)]
pub enum DisjunctStatus {
    /// The disjunct has an acyclic Σ-equivalent witness.
    Witness(ConjunctiveQuery),
    /// The disjunct is Σ-contained in the disjunct at the given index and can
    /// be dropped.
    RedundantWith(usize),
    /// Neither a witness nor a subsuming disjunct was found.
    Blocking,
}

/// The result of a UCQ semantic-acyclicity check.
#[derive(Debug, Clone)]
pub struct UcqSemAcResult {
    /// Per-disjunct status, in the order of the input UCQ.
    pub statuses: Vec<DisjunctStatus>,
}

impl UcqSemAcResult {
    /// Whether the UCQ is semantically acyclic (no blocking disjunct).
    pub fn is_acyclic(&self) -> bool {
        !self
            .statuses
            .iter()
            .any(|s| matches!(s, DisjunctStatus::Blocking))
    }

    /// The union of acyclic witnesses, when the UCQ is semantically acyclic.
    pub fn witness_union(&self) -> Option<UnionOfConjunctiveQueries> {
        if !self.is_acyclic() {
            return None;
        }
        let witnesses: Vec<ConjunctiveQuery> = self
            .statuses
            .iter()
            .filter_map(|s| match s {
                DisjunctStatus::Witness(w) => Some(w.clone()),
                _ => None,
            })
            .collect();
        UnionOfConjunctiveQueries::new(witnesses).ok()
    }
}

/// Decides semantic acyclicity of a UCQ under a set of tgds.
pub fn ucq_semantic_acyclicity_under_tgds(
    ucq: &UnionOfConjunctiveQueries,
    tgds: &[Tgd],
    config: SemAcConfig,
) -> UcqSemAcResult {
    let mut statuses = Vec::with_capacity(ucq.len());
    for (i, q) in ucq.disjuncts.iter().enumerate() {
        // One chase of the disjunct serves both checks.
        let chased = chase_under_tgds(q, tgds, config.chase_budget);
        // (ii) redundancy: q ⊆Σ q_j for some other disjunct.
        let redundant_with = ucq.disjuncts.iter().enumerate().find_map(|(j, other)| {
            (i != j && tgd_containment(&chased, other, tgds).holds()).then_some(j)
        });
        if let Some(j) = redundant_with {
            statuses.push(DisjunctStatus::RedundantWith(j));
            continue;
        }
        // (i) an acyclic witness for the disjunct itself.
        let result = is_semantically_acyclic_no_constraints(q).map_or_else(
            || witness_from_chase(&chased, tgds, config),
            SemAcResult::Witness,
        );
        statuses.push(match result {
            SemAcResult::Witness(w) => DisjunctStatus::Witness(w),
            SemAcResult::NoWitness { .. } => DisjunctStatus::Blocking,
        });
    }
    UcqSemAcResult { statuses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::atom;

    fn config() -> SemAcConfig {
        SemAcConfig::default()
    }

    fn triangle() -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "z", var "x"),
        ])
        .unwrap()
    }

    fn single_edge() -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(vec![atom!("E", var "x", var "y")]).unwrap()
    }

    #[test]
    fn union_of_acyclic_disjuncts_is_acyclic() {
        let ucq = UnionOfConjunctiveQueries::new(vec![
            single_edge(),
            ConjunctiveQuery::boolean(vec![atom!("V", var "x")]).unwrap(),
        ])
        .unwrap();
        let result = ucq_semantic_acyclicity_under_tgds(&ucq, &[], config());
        assert!(result.is_acyclic());
        assert!(result.witness_union().is_some());
    }

    #[test]
    fn cyclic_disjunct_redundant_in_the_union_is_tolerated() {
        // triangle ⊆ single_edge classically, so the triangle is redundant
        // and the UCQ is semantically acyclic even though the triangle alone
        // is not.
        let ucq = UnionOfConjunctiveQueries::new(vec![triangle(), single_edge()]).unwrap();
        let result = ucq_semantic_acyclicity_under_tgds(&ucq, &[], config());
        assert!(result.is_acyclic());
        assert!(matches!(
            result.statuses[0],
            DisjunctStatus::RedundantWith(1)
        ));
        let witnesses = result.witness_union().unwrap();
        assert_eq!(witnesses.len(), 1);
    }

    #[test]
    fn lone_cyclic_disjunct_blocks() {
        let ucq = UnionOfConjunctiveQueries::single(triangle());
        let result = ucq_semantic_acyclicity_under_tgds(&ucq, &[], config());
        assert!(!result.is_acyclic());
        assert!(result.witness_union().is_none());
    }

    #[test]
    fn constraints_unblock_a_cyclic_disjunct() {
        // Example 1 as a one-disjunct UCQ with the collector tgd.
        let tgds = vec![Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()];
        let triangle = ConjunctiveQuery::boolean(vec![
            atom!("Interest", var "x", var "z"),
            atom!("Class", var "y", var "z"),
            atom!("Owns", var "x", var "y"),
        ])
        .unwrap();
        let ucq = UnionOfConjunctiveQueries::single(triangle);
        let result = ucq_semantic_acyclicity_under_tgds(&ucq, &tgds, config());
        assert!(result.is_acyclic());
    }

    #[test]
    fn statuses_follow_input_order() {
        let ucq = UnionOfConjunctiveQueries::new(vec![single_edge(), triangle()]).unwrap();
        let result = ucq_semantic_acyclicity_under_tgds(&ucq, &[], config());
        assert_eq!(result.statuses.len(), 2);
        assert!(matches!(result.statuses[0], DisjunctStatus::Witness(_)));
        assert!(matches!(
            result.statuses[1],
            DisjunctStatus::RedundantWith(0)
        ));
    }
}
