//! The acyclicity-preservation probe (Definition 1 of the paper).
//!
//! A class of dependencies has *acyclicity-preserving chase* if chasing any
//! acyclic CQ yields an acyclic instance.  The paper proves this for guarded
//! tgds (Proposition 12) and for keys over unary/binary schemas
//! (Proposition 22), and refutes it for non-recursive and sticky tgds
//! (Example 2) and for keys over wider schemas (Examples 4 and 5).
//!
//! The probe runs the chase on a concrete acyclic query and reports whether
//! acyclicity survived, plus the cyclicity measurement Examples 2 and 4 / 5
//! are asserted with (clique lower bound of the Gaifman graph; the retired
//! experiments are rows e4 and e6 of EXPERIMENTS.md, "e1–e10: the paper's
//! examples").

use crate::budget::ChaseBudget;
use crate::egd_chase::egd_chase_query;
use crate::tgd_chase::tgd_chase_query;
use sac_acyclic::is_acyclic_instance;
use sac_deps::{Egd, Tgd};
use sac_query::{ConjunctiveQuery, FrozenQuery};

/// The outcome of an acyclicity-preservation probe.
#[derive(Debug, Clone)]
pub struct AcyclicityProbe {
    /// Whether the input query was acyclic to begin with.
    pub input_acyclic: bool,
    /// Whether the chase result is acyclic.
    pub output_acyclic: bool,
    /// Whether the chase terminated within the budget (always true for egds).
    pub chase_terminated: bool,
    /// Number of atoms in the chase result.
    pub output_atoms: usize,
    /// A lower bound on the clique number of the Gaifman graph of the chase
    /// result (Example 2 produces an `n`-clique; Example 5 a grid).
    pub clique_lower_bound: usize,
}

impl AcyclicityProbe {
    fn of_chase(input_acyclic: bool, terminated: bool, chased: &FrozenQuery) -> AcyclicityProbe {
        // For cyclicity measurements the nulls of the chase play the role of
        // variables: measure the chase read back as a query.
        let thawed = chased
            .thaw()
            .expect("the probes leave the frozen head where freezing put it");
        AcyclicityProbe {
            input_acyclic,
            output_acyclic: is_acyclic_instance(&chased.instance),
            chase_terminated: terminated,
            output_atoms: chased.instance.len(),
            clique_lower_bound: thawed.gaifman_graph().greedy_clique_lower_bound(),
        }
    }

    /// Whether the probe witnessed preservation (acyclic in, acyclic out).
    pub fn preserved(&self) -> bool {
        !self.input_acyclic || self.output_acyclic
    }
}

/// Probes whether chasing `query` under `tgds` preserves acyclicity.
pub fn chase_preserves_acyclicity(
    query: &ConjunctiveQuery,
    tgds: &[Tgd],
    budget: ChaseBudget,
) -> AcyclicityProbe {
    let input_acyclic = sac_acyclic::is_acyclic_query(query);
    let (result, mut chased) = tgd_chase_query(query, tgds, budget);
    chased.instance = result.instance;
    AcyclicityProbe::of_chase(input_acyclic, result.terminated, &chased)
}

/// Probes whether chasing `query` under `egds` preserves acyclicity.  A
/// failing chase (constant clash) is reported as preserving (there is nothing
/// to measure).
pub fn egd_chase_preserves_acyclicity(query: &ConjunctiveQuery, egds: &[Egd]) -> AcyclicityProbe {
    let input_acyclic = sac_acyclic::is_acyclic_query(query);
    match egd_chase_query(query, egds) {
        Ok((result, mut chased)) => {
            chased.instance = result.instance;
            AcyclicityProbe::of_chase(input_acyclic, true, &chased)
        }
        Err(_) => AcyclicityProbe {
            input_acyclic,
            output_acyclic: true,
            chase_terminated: true,
            output_atoms: 0,
            clique_lower_bound: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, Atom, Term};
    use sac_deps::FunctionalDependency;

    #[test]
    fn guarded_tgds_preserve_acyclicity_on_samples() {
        // Proposition 12, witnessed on a concrete acyclic query.
        let tgds = vec![
            Tgd::new(
                vec![atom!("Employee", var "x", var "d")],
                vec![atom!("Department", var "d")],
            )
            .unwrap(),
            Tgd::new(
                vec![atom!("Department", var "d")],
                vec![atom!("Manager", var "d", var "m")],
            )
            .unwrap(),
        ];
        let q = ConjunctiveQuery::boolean(vec![
            atom!("Employee", var "e", var "d"),
            atom!("Project", var "e", var "p"),
        ])
        .unwrap();
        let probe = chase_preserves_acyclicity(&q, &tgds, ChaseBudget::small());
        assert!(probe.input_acyclic);
        assert!(probe.chase_terminated);
        assert!(probe.output_acyclic);
        assert!(probe.preserved());
    }

    #[test]
    fn example2_destroys_acyclicity_with_a_clique() {
        // Example 2: q = P(x1) ∧ … ∧ P(xn), τ = P(x),P(y) → R(x,y).
        let n = 5usize;
        let body: Vec<Atom> = (0..n)
            .map(|i| Atom::from_parts("P", vec![Term::variable(&format!("x{i}"))]))
            .collect();
        let q = ConjunctiveQuery::boolean(body).unwrap();
        let tgd = Tgd::new(
            vec![atom!("P", var "x"), atom!("P", var "y")],
            vec![atom!("R", var "x", var "y")],
        )
        .unwrap();
        let probe = chase_preserves_acyclicity(&q, &[tgd], ChaseBudget::small());
        assert!(probe.input_acyclic);
        assert!(probe.chase_terminated);
        assert!(!probe.output_acyclic);
        assert!(!probe.preserved());
        // The Gaifman graph of the chase contains an n-clique.
        assert!(probe.clique_lower_bound >= n);
    }

    #[test]
    fn binary_keys_preserve_acyclicity() {
        // Proposition 22 witnessed: a key over a binary predicate chased on an
        // acyclic query keeps it acyclic.
        let key = FunctionalDependency::key("R", 2, [1]).unwrap();
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("R", var "x", var "z"),
            atom!("S", var "y", var "w"),
        ])
        .unwrap();
        let probe = egd_chase_preserves_acyclicity(&q, &key.to_egds());
        assert!(probe.input_acyclic);
        assert!(probe.output_acyclic);
        assert!(probe.preserved());
    }

    #[test]
    fn example4_ternary_key_destroys_acyclicity() {
        // Example 4 of the paper.
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "x", var "y", var "z"),
            atom!("S", var "x", var "z", var "w"),
            atom!("S", var "x", var "w", var "v"),
            atom!("R", var "x", var "v"),
        ])
        .unwrap();
        let key = FunctionalDependency::key("R", 2, [1]).unwrap();
        let probe = egd_chase_preserves_acyclicity(&q, &key.to_egds());
        assert!(probe.input_acyclic);
        assert!(
            !probe.output_acyclic,
            "Example 4's chase result must be cyclic"
        );
        assert!(!probe.preserved());
    }

    #[test]
    fn cyclic_inputs_are_vacuously_preserved() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "a", var "b"),
            atom!("E", var "b", var "c"),
            atom!("E", var "c", var "a"),
        ])
        .unwrap();
        let probe = chase_preserves_acyclicity(&q, &[], ChaseBudget::small());
        assert!(!probe.input_acyclic);
        assert!(probe.preserved());
    }
}
