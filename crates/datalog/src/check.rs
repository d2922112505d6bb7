//! The standalone certificate checker.
//!
//! Replays a [`Certificate`] against a program and a base instance with no
//! engine machinery at all — just premise lookup and first-order matching.
//! Every deviation from a valid derivation is rejected fail-closed with a
//! specific [`CheckError`], so a verified certificate is a proof that each
//! recorded fact really follows from the base facts under the program.
//!
//! A certificate proves *derivability*, not *completeness*: a fact it
//! omits is unknown, not false.  Negation therefore needs evidence of its
//! own, and the negation check has three parts.  During replay each step's
//! recorded negated literals are checked to be the ground instantiation the
//! rule demands; after replay each is checked to be absent from the
//! replayed model (base facts plus every derived fact); and the model is
//! checked to be **closed** for what the program negates — for every
//! predicate that occurs under `not`, and every predicate its defining
//! rules depend on, one immediate-consequence pass of those rules over the
//! model must derive nothing new ([`CheckError::ModelNotClosed`]).
//! Derivable and closed is the least model, stratum by stratum, so on the
//! negated predicates the replayed model is the perfect model and absence
//! from it is real absence — a certificate that simply omits the
//! derivation of `T(a, b)` can no longer support `not T(a, b)`.  Programs
//! without negation build no model at all: step soundness is the whole
//! check, and [`verify_answer`] looks the answer up among the steps.

use crate::certificate::{Certificate, Premise};
use crate::program::{DatalogProgram, Rule};
use sac_common::{Atom, Substitution, Symbol};
use sac_query::all_homomorphisms;
use sac_storage::Instance;
use std::collections::BTreeSet;
use std::fmt;

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A step names a rule index outside the program.
    UnknownRule {
        /// Offending step index.
        step: usize,
        /// The out-of-range rule index.
        rule: usize,
    },
    /// A step's derived fact contains variables or nulls.
    NotGround {
        /// Offending step index.
        step: usize,
    },
    /// A step records a different number of premises than its rule has
    /// positive body atoms.
    PremiseCount {
        /// Offending step index.
        step: usize,
        /// Positive body atoms of the named rule.
        expected: usize,
        /// Premises actually recorded.
        found: usize,
    },
    /// A `Derived` premise points at this step or a later one.
    ForwardReference {
        /// Offending step index.
        step: usize,
        /// The referenced step index.
        reference: usize,
    },
    /// A `Base` premise names a predicate or row the base instance lacks.
    MissingBaseFact {
        /// Offending step index.
        step: usize,
        /// The dangling premise.
        premise: Premise,
    },
    /// A premise fact does not match its rule's body atom under the
    /// substitution accumulated so far.
    PremiseMismatch {
        /// Offending step index.
        step: usize,
        /// Position of the premise within the step.
        position: usize,
    },
    /// Instantiating the rule head does not yield the recorded fact.
    HeadMismatch {
        /// Offending step index.
        step: usize,
    },
    /// A step's recorded negated literals disagree with its rule.
    NegatedMismatch {
        /// Offending step index.
        step: usize,
    },
    /// A recorded negated literal is actually present in the final model.
    NegatedFactPresent {
        /// Offending step index.
        step: usize,
        /// The present fact the step claimed was absent.
        fact: Atom,
    },
    /// The replayed model omits a consequence of a rule that defines (or
    /// feeds) a negated predicate, so absence from it proves nothing.
    ModelNotClosed {
        /// Index of the rule that fires on the model.
        rule: usize,
        /// The consequence the certificate never derived.
        fact: Atom,
    },
    /// The answer handed to [`verify_answer`] is not in the replayed model.
    AnswerNotDerived {
        /// The unsupported answer.
        fact: Atom,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownRule { step, rule } => {
                write!(f, "step {step}: rule index {rule} is outside the program")
            }
            CheckError::NotGround { step } => {
                write!(f, "step {step}: derived fact is not ground")
            }
            CheckError::PremiseCount {
                step,
                expected,
                found,
            } => write!(
                f,
                "step {step}: rule has {expected} positive body atoms but \
                 {found} premises were recorded"
            ),
            CheckError::ForwardReference { step, reference } => write!(
                f,
                "step {step}: premise references step {reference}, which is \
                 not strictly earlier"
            ),
            CheckError::MissingBaseFact { step, premise } => write!(
                f,
                "step {step}: base premise {premise} is not in the base instance"
            ),
            CheckError::PremiseMismatch { step, position } => write!(
                f,
                "step {step}: premise {position} does not match the rule's \
                 body atom under the accumulated substitution"
            ),
            CheckError::HeadMismatch { step } => write!(
                f,
                "step {step}: instantiated rule head differs from the recorded fact"
            ),
            CheckError::NegatedMismatch { step } => write!(
                f,
                "step {step}: recorded negated literals disagree with the rule"
            ),
            CheckError::NegatedFactPresent { step, fact } => write!(
                f,
                "step {step}: negated literal {fact} is present in the final model"
            ),
            CheckError::ModelNotClosed { rule, fact } => write!(
                f,
                "rule {rule} derives {fact} from the replayed model, which omits \
                 it: the model is not closed under a rule negation depends on"
            ),
            CheckError::AnswerNotDerived { fact } => {
                write!(f, "answer {fact} is not derived by the certificate")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Replays `certificate` against `program` and `base`.
///
/// The replay is fail-closed: any dangling premise, unification failure,
/// head mismatch, out-of-order reference, violated negated literal or
/// omitted consequence under a negated predicate aborts with the first
/// [`CheckError`] encountered.
pub fn check_certificate(
    program: &DatalogProgram,
    base: &Instance,
    certificate: &Certificate,
) -> Result<(), CheckError> {
    let rules = program.rules();
    for (index, step) in certificate.steps.iter().enumerate() {
        let rule = rules.get(step.rule).ok_or(CheckError::UnknownRule {
            step: index,
            rule: step.rule,
        })?;
        if !step.fact.is_ground() {
            return Err(CheckError::NotGround { step: index });
        }
        if step.premises.len() != rule.body.len() {
            return Err(CheckError::PremiseCount {
                step: index,
                expected: rule.body.len(),
                found: step.premises.len(),
            });
        }
        let mut substitution = Substitution::new();
        for (position, (premise, pattern)) in step.premises.iter().zip(rule.body.iter()).enumerate()
        {
            let base_fact;
            let fact = match premise {
                Premise::Base { predicate, row } => {
                    let missing = CheckError::MissingBaseFact {
                        step: index,
                        premise: *premise,
                    };
                    let relation = base.relation(*predicate).ok_or(missing.clone())?;
                    let args = relation.row(*row).ok_or(missing)?;
                    base_fact = Atom::new(*predicate, args);
                    &base_fact
                }
                Premise::Derived(reference) => {
                    if *reference >= index {
                        return Err(CheckError::ForwardReference {
                            step: index,
                            reference: *reference,
                        });
                    }
                    &certificate.steps[*reference].fact
                }
            };
            if !substitution.match_atom(pattern, fact) {
                return Err(CheckError::PremiseMismatch {
                    step: index,
                    position,
                });
            }
        }
        if substitution.apply_atom(&rule.head) != step.fact {
            return Err(CheckError::HeadMismatch { step: index });
        }
        if step.negated.len() != rule.negated.len() {
            return Err(CheckError::NegatedMismatch { step: index });
        }
        for (recorded, literal) in step.negated.iter().zip(rule.negated.iter()) {
            if !recorded.is_ground() || substitution.apply_atom(literal) != *recorded {
                return Err(CheckError::NegatedMismatch { step: index });
            }
        }
    }

    // A positive program is done: every step is sound, no step records a
    // negated literal (the count check above held), and nothing is under
    // negation to be closed.
    if rules.iter().all(|rule| rule.negated.is_empty()) {
        return Ok(());
    }
    let model: BTreeSet<&Atom> = certificate.facts().collect();
    for (index, step) in certificate.steps.iter().enumerate() {
        for literal in &step.negated {
            if base.contains(literal) || model.contains(literal) {
                return Err(CheckError::NegatedFactPresent {
                    step: index,
                    fact: literal.clone(),
                });
            }
        }
    }
    check_closed(program, base, &model)
}

/// The predicates negation depends on: every predicate that occurs under
/// `not`, and transitively every predicate read by a rule defining one of
/// them.  Empty for positive programs.
fn predicates_under_negation(program: &DatalogProgram) -> BTreeSet<Symbol> {
    let rules = program.rules();
    let mut needed: BTreeSet<Symbol> = rules
        .iter()
        .flat_map(|rule| &rule.negated)
        .map(|literal| literal.predicate)
        .collect();
    let mut frontier: Vec<Symbol> = needed.iter().copied().collect();
    while let Some(predicate) = frontier.pop() {
        for rule in rules.iter().filter(|r| r.head.predicate == predicate) {
            for atom in rule.body.iter().chain(&rule.negated) {
                if needed.insert(atom.predicate) {
                    frontier.push(atom.predicate);
                }
            }
        }
    }
    needed
}

/// The closedness pass: every rule defining a predicate negation depends
/// on must derive nothing outside `base ∪ model` in one
/// immediate-consequence step over it.
fn check_closed(
    program: &DatalogProgram,
    base: &Instance,
    model: &BTreeSet<&Atom>,
) -> Result<(), CheckError> {
    let needed = predicates_under_negation(program);
    let checked: Vec<(usize, &Rule)> = program
        .rules()
        .iter()
        .enumerate()
        .filter(|(_, rule)| needed.contains(&rule.head.predicate))
        .collect();
    if checked.is_empty() {
        return Ok(());
    }
    // Everything a checked rule reads or derives is in `needed`, so the
    // other derived facts (typically the bulk: the negating rules' own
    // output) never have to be stored.
    let mut closed = base.clone();
    for fact in model.iter().filter(|f| needed.contains(&f.predicate)) {
        // A fact the base schema cannot hold (arity clash) stays out; if a
        // checked rule derives it, the pass below reports it as missing.
        let _ = closed.insert((*fact).clone());
    }
    for (rule_index, rule) in checked {
        for substitution in all_homomorphisms(&rule.body, &closed) {
            let blocked = rule
                .negated
                .iter()
                .any(|literal| closed.contains(&substitution.apply_atom(literal)));
            let fact = substitution.apply_atom(&rule.head);
            if !blocked && !closed.contains(&fact) {
                return Err(CheckError::ModelNotClosed {
                    rule: rule_index,
                    fact,
                });
            }
        }
    }
    Ok(())
}

/// Checks that `certificate` is valid *and* supports the ground `answer`:
/// the answer must be a base fact or one of the replayed derivations.
pub fn verify_answer(
    program: &DatalogProgram,
    base: &Instance,
    certificate: &Certificate,
    answer: &Atom,
) -> Result<(), CheckError> {
    check_certificate(program, base, certificate)?;
    if base.contains(answer) || certificate.facts().any(|fact| fact == answer) {
        Ok(())
    } else {
        Err(CheckError::AnswerNotDerived {
            fact: answer.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::DerivationStep;
    use crate::naive::naive_fixpoint;
    use sac_common::{intern, Term};

    fn reachability() -> (DatalogProgram, Instance) {
        let program: DatalogProgram = "T(X, Y) :- E(X, Y).\n\
                                       T(X, Z) :- E(X, Y), T(Y, Z)."
            .parse()
            .unwrap();
        let base = Instance::from_atoms([
            Atom::from_parts("E", vec![Term::constant("a"), Term::constant("b")]),
            Atom::from_parts("E", vec![Term::constant("b"), Term::constant("c")]),
        ])
        .unwrap();
        (program, base)
    }

    #[test]
    fn honest_certificates_replay_green() {
        let (program, base) = reachability();
        let (fixpoint, certificate) = naive_fixpoint(&program, &base).unwrap();
        check_certificate(&program, &base, &certificate).unwrap();
        let derived: BTreeSet<&Atom> = certificate.facts().collect();
        assert_eq!(derived.len() + 2, fixpoint.len());
        for fact in certificate.facts() {
            verify_answer(&program, &base, &certificate, fact).unwrap();
        }
    }

    #[test]
    fn dropped_premises_are_rejected() {
        let (program, base) = reachability();
        let (_, mut certificate) = naive_fixpoint(&program, &base).unwrap();
        certificate.steps[0].premises.clear();
        assert!(matches!(
            check_certificate(&program, &base, &certificate),
            Err(CheckError::PremiseCount { .. })
        ));
    }

    #[test]
    fn swapped_rule_ids_are_rejected() {
        let (program, base) = reachability();
        let (_, mut certificate) = naive_fixpoint(&program, &base).unwrap();
        // Step 0 fires the single-premise base rule; pointing it at the
        // two-premise recursive rule breaks the premise count.
        assert_eq!(certificate.steps[0].rule, 0);
        certificate.steps[0].rule = 1;
        assert!(check_certificate(&program, &base, &certificate).is_err());
    }

    #[test]
    fn forged_facts_are_rejected() {
        let (program, base) = reachability();
        let (_, mut certificate) = naive_fixpoint(&program, &base).unwrap();
        certificate.steps[0].fact =
            Atom::from_parts("T", vec![Term::constant("z"), Term::constant("z")]);
        assert!(matches!(
            check_certificate(&program, &base, &certificate),
            Err(CheckError::HeadMismatch { .. })
        ));
    }

    #[test]
    fn dangling_base_rows_are_rejected() {
        let (program, base) = reachability();
        let (_, mut certificate) = naive_fixpoint(&program, &base).unwrap();
        certificate.steps[0].premises[0] = Premise::Base {
            predicate: intern("E"),
            row: 99,
        };
        assert!(matches!(
            check_certificate(&program, &base, &certificate),
            Err(CheckError::MissingBaseFact { .. })
        ));
    }

    #[test]
    fn forward_references_are_rejected() {
        let (program, base) = reachability();
        let (_, mut certificate) = naive_fixpoint(&program, &base).unwrap();
        let last = certificate.len() - 1;
        for premise in &mut certificate.steps[0].premises {
            *premise = Premise::Derived(last);
        }
        assert!(matches!(
            check_certificate(&program, &base, &certificate),
            Err(CheckError::ForwardReference { .. })
        ));
    }

    #[test]
    fn violated_negated_literals_are_rejected() {
        let program: DatalogProgram = "Lonely(X) :- N(X), not E(X, X).".parse().unwrap();
        let base =
            Instance::from_atoms([Atom::from_parts("N", vec![Term::constant("a")])]).unwrap();
        let (_, certificate) = naive_fixpoint(&program, &base).unwrap();
        assert_eq!(certificate.len(), 1);
        check_certificate(&program, &base, &certificate).unwrap();

        // The same steps against a base where E(a, a) holds must fail the
        // absence check.
        let dirty = Instance::from_atoms([
            Atom::from_parts("N", vec![Term::constant("a")]),
            Atom::from_parts("E", vec![Term::constant("a"), Term::constant("a")]),
        ])
        .unwrap();
        assert!(matches!(
            check_certificate(&program, &dirty, &certificate),
            Err(CheckError::NegatedFactPresent { .. })
        ));
    }

    #[test]
    fn omitted_derivations_are_rejected_only_under_negation() {
        // A truncated certificate of a positive program proves less, not
        // something false: it replays green.
        let (program, base) = reachability();
        check_certificate(&program, &base, &Certificate::default()).unwrap();
        // Once a rule negates T, a model that omits T's consequences cannot
        // support `not T(..)`: the same empty certificate is rejected.
        let negating: DatalogProgram = "T(X, Y) :- E(X, Y).\n\
                                        Sep(X, Y) :- E(X, Y), not T(Y, X)."
            .parse()
            .unwrap();
        assert!(matches!(
            check_certificate(&negating, &base, &Certificate::default()),
            Err(CheckError::ModelNotClosed { rule: 0, .. })
        ));
        let (_, honest) = naive_fixpoint(&negating, &base).unwrap();
        check_certificate(&negating, &base, &honest).unwrap();
    }

    #[test]
    fn unsupported_answers_are_rejected() {
        let (program, base) = reachability();
        let (_, certificate) = naive_fixpoint(&program, &base).unwrap();
        let bogus = Atom::from_parts("T", vec![Term::constant("c"), Term::constant("a")]);
        assert!(matches!(
            verify_answer(&program, &base, &certificate, &bogus),
            Err(CheckError::AnswerNotDerived { .. })
        ));
    }

    #[test]
    fn tampered_derivation_steps_are_rejected_not_ignored() {
        let (program, base) = reachability();
        let (_, mut certificate) = naive_fixpoint(&program, &base).unwrap();
        let step = DerivationStep {
            rule: 0,
            fact: Atom::from_parts("T", vec![Term::variable("X"), Term::constant("b")]),
            premises: vec![Premise::Base {
                predicate: intern("E"),
                row: 0,
            }],
            negated: Vec::new(),
        };
        certificate.steps.push(step);
        assert!(matches!(
            check_certificate(&program, &base, &certificate),
            Err(CheckError::NotGround { .. })
        ));
    }
}
