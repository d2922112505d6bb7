//! A deliberately simple stratified bottom-up reference evaluator.
//!
//! Recomputes every rule body against the whole instance each round (the
//! textbook *naive* fixpoint), one stratum at a time, applying a round's
//! consequences only after the round completes.  The engine's semi-naive
//! evaluator (`sac-engine`) must agree with this module byte-for-byte — the
//! integration suite enforces it differentially — so clarity wins over
//! speed here.

use crate::certificate::{Certificate, DerivationStep, Premise};
use crate::program::DatalogProgram;
use sac_common::{Atom, SacResult};
use sac_query::all_homomorphisms;
use sac_storage::Instance;
use std::collections::BTreeMap;

/// Computes the stratified fixpoint of `program` over `base`, returning the
/// saturated instance together with a replayable [`Certificate`] recording
/// one derivation per new fact (first derivation wins).
pub fn naive_fixpoint(
    program: &DatalogProgram,
    base: &Instance,
) -> SacResult<(Instance, Certificate)> {
    let mut work = base.clone();
    let mut certificate = Certificate::default();
    let mut step_of: BTreeMap<Atom, usize> = BTreeMap::new();

    for stratum in program.strata() {
        loop {
            // Collect this round's consequences against the round-start
            // state, then apply them all at once (Jacobi iteration): the
            // derivation order — rule order, then match order — is then
            // independent of evaluation strategy.
            let mut candidates: Vec<(usize, Atom, Vec<Atom>, Vec<Atom>)> = Vec::new();
            for &rule_index in stratum {
                let rule = &program.rules()[rule_index];
                for substitution in all_homomorphisms(&rule.body, &work) {
                    let negated: Vec<Atom> = rule
                        .negated
                        .iter()
                        .map(|literal| substitution.apply_atom(literal))
                        .collect();
                    // Negated predicates live in strictly lower strata (or
                    // the EDB), so `work` is already complete for them.
                    if negated.iter().any(|literal| work.contains(literal)) {
                        continue;
                    }
                    let fact = substitution.apply_atom(&rule.head);
                    if work.contains(&fact) {
                        continue;
                    }
                    let premises = rule
                        .body
                        .iter()
                        .map(|atom| substitution.apply_atom(atom))
                        .collect();
                    candidates.push((rule_index, fact, premises, negated));
                }
            }

            let mut changed = false;
            for (rule, fact, premise_facts, negated) in candidates {
                if !work.insert(fact.clone())? {
                    continue; // an earlier candidate this round already derived it
                }
                changed = true;
                let premises = premise_facts
                    .iter()
                    .map(|premise| resolve_premise(base, &step_of, premise))
                    .collect();
                step_of.insert(fact.clone(), certificate.len());
                certificate.steps.push(DerivationStep {
                    rule,
                    fact,
                    premises,
                    negated,
                });
            }
            if !changed {
                break;
            }
        }
    }
    Ok((work, certificate))
}

/// Names a ground premise fact: by stable base row id when the base holds
/// it, otherwise by the certificate step that derived it.
fn resolve_premise(base: &Instance, step_of: &BTreeMap<Atom, usize>, fact: &Atom) -> Premise {
    if base.contains(fact) {
        let row = base
            .relation(fact.predicate)
            .and_then(|relation| relation.find_row(&fact.args))
            .expect("base.contains implies a locatable row");
        Premise::Base {
            predicate: fact.predicate,
            row,
        }
    } else {
        Premise::Derived(
            *step_of
                .get(fact)
                .expect("premises matched against `work` are base or already derived"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::Term;

    fn edge(from: &str, to: &str) -> Atom {
        Atom::from_parts("E", vec![Term::constant(from), Term::constant(to)])
    }

    #[test]
    fn transitive_closure_saturates_a_cycle() {
        let program: DatalogProgram = "T(X, Y) :- E(X, Y).\n\
                                       T(X, Z) :- E(X, Y), T(Y, Z)."
            .parse()
            .unwrap();
        let base = Instance::from_atoms([edge("a", "b"), edge("b", "c"), edge("c", "a")]).unwrap();
        let (fixpoint, certificate) = naive_fixpoint(&program, &base).unwrap();
        // 3 edges + full 3x3 closure.
        assert_eq!(fixpoint.len(), 3 + 9);
        assert_eq!(certificate.len(), 9);
        // Every certificate fact is in the fixpoint, in derivation order.
        for fact in certificate.facts() {
            assert!(fixpoint.contains(fact));
        }
    }

    #[test]
    fn stratified_negation_evaluates_lower_strata_first() {
        let program: DatalogProgram = "T(X, Y) :- E(X, Y).\n\
                                       T(X, Z) :- E(X, Y), T(Y, Z).\n\
                                       Un(X, Y) :- N(X), N(Y), not T(X, Y)."
            .parse()
            .unwrap();
        let base = Instance::from_atoms([
            edge("a", "b"),
            Atom::from_parts("N", vec![Term::constant("a")]),
            Atom::from_parts("N", vec![Term::constant("b")]),
        ])
        .unwrap();
        let (fixpoint, _) = naive_fixpoint(&program, &base).unwrap();
        let un =
            |x: &str, y: &str| Atom::from_parts("Un", vec![Term::constant(x), Term::constant(y)]);
        assert!(!fixpoint.contains(&un("a", "b"))); // T(a, b) holds
        assert!(fixpoint.contains(&un("b", "a")));
        assert!(fixpoint.contains(&un("a", "a")));
        assert!(fixpoint.contains(&un("b", "b")));
    }

    #[test]
    fn fixpoint_is_deterministic_across_runs() {
        let program: DatalogProgram = "T(X, Z) :- E(X, Y), T(Y, Z).\n\
                                       T(X, Y) :- E(X, Y)."
            .parse()
            .unwrap();
        let base = Instance::from_atoms([edge("a", "b"), edge("b", "c"), edge("b", "d")]).unwrap();
        let (first, cert_a) = naive_fixpoint(&program, &base).unwrap();
        let (second, cert_b) = naive_fixpoint(&program, &base).unwrap();
        assert_eq!(first.to_atoms(), second.to_atoms());
        assert_eq!(cert_a, cert_b);
    }
}
