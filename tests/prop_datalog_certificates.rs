//! Adversarial certificate properties: over seeded random stratified
//! programs, every engine answer carries a certificate that replays green
//! through the engine-independent checker — and any single mutation of that
//! certificate (a dropped premise, a swapped rule id, a forged fact, an
//! unsupported answer) is rejected fail-closed.  Omissions are mutations
//! too: a certificate that drops derivations of a predicate the program
//! negates is sound step by step, and must still be rejected.

use proptest::prelude::*;
use sac::datalog::check::check_certificate;
use sac::prelude::*;
use std::collections::BTreeSet;

fn run_with_certificate(seed: u64) -> (DatalogProgram, Instance, DatalogRun) {
    let (program, base) = sac::gen::random_stratified_program(seed);
    let db = Database::from_instance(base.clone());
    let run = db.run_datalog(&program).unwrap();
    (program, base, run)
}

/// The predicates `program` negates somewhere.  In the generated programs
/// their defining rules read only `E` and themselves, so these are exactly
/// the derived predicates the checker's closedness pass covers.
fn negated_predicates(program: &DatalogProgram) -> BTreeSet<sac::common::Symbol> {
    program
        .rules()
        .iter()
        .flat_map(|rule| &rule.negated)
        .map(|literal| literal.predicate)
        .collect()
}

/// `cert` without the steps `doomed` selects and, transitively, without
/// every step that consumed one of them; surviving `Derived` premises are
/// re-indexed, so the result is a step-by-step sound certificate that
/// merely proves less.
fn omit_steps(cert: &Certificate, doomed: impl Fn(usize, &DerivationStep) -> bool) -> Certificate {
    let mut new_index: Vec<Option<usize>> = Vec::with_capacity(cert.len());
    let mut steps = Vec::new();
    for (index, step) in cert.steps.iter().enumerate() {
        let premises: Option<Vec<Premise>> = step
            .premises
            .iter()
            .map(|premise| match premise {
                Premise::Derived(earlier) => new_index[*earlier].map(Premise::Derived),
                base => Some(*base),
            })
            .collect();
        match premises.filter(|_| !doomed(index, step)) {
            Some(premises) => {
                new_index.push(Some(steps.len()));
                steps.push(DerivationStep {
                    premises,
                    ..step.clone()
                });
            }
            None => new_index.push(None),
        }
    }
    Certificate { steps }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn honest_certificates_replay_green_and_cover_every_answer(seed in 0u64..5000) {
        let (program, base, run) = run_with_certificate(seed);
        let cert = run.certificate.as_ref().unwrap();
        // One derivation step per derived fact, in derivation order.
        prop_assert_eq!(cert.len(), run.derived.len());
        prop_assert!(check_certificate(&program, &base, cert).is_ok());
        // The reference evaluator's certificate is closed too, negation or not.
        let (_, reference) = sac::datalog::naive::naive_fixpoint(&program, &base).unwrap();
        prop_assert!(check_certificate(&program, &base, &reference).is_ok());
        for answer in &run.derived {
            prop_assert!(
                sac::datalog::check::verify_answer(&program, &base, cert, answer).is_ok()
            );
        }
    }

    #[test]
    fn dropping_any_premise_is_rejected(seed in 0u64..5000, pick in 0usize..1_000_000) {
        let (program, base, run) = run_with_certificate(seed);
        let cert = run.certificate.unwrap();
        if cert.is_empty() {
            return Ok(());
        }
        let victim = pick % cert.len();
        let mut mutated = cert.clone();
        let premises = &mut mutated.steps[victim].premises;
        if premises.is_empty() {
            return Ok(());
        }
        premises.remove(pick % premises.len());
        prop_assert!(
            check_certificate(&program, &base, &mutated).is_err(),
            "dropping a premise from step {victim} must fail the replay"
        );
    }

    #[test]
    fn swapping_the_rule_id_is_rejected(seed in 0u64..5000, pick in 0usize..1_000_000) {
        let (program, base, run) = run_with_certificate(seed);
        let cert = run.certificate.unwrap();
        if cert.is_empty() {
            return Ok(());
        }
        let victim = pick % cert.len();
        let honest = cert.steps[victim].rule;
        let rules = program.rules();
        // Swap to a rule that provably cannot have produced the step: a
        // different body length breaks the premise count, a different head
        // predicate breaks the head match.
        let Some(target) = (0..rules.len()).find(|&r| {
            r != honest
                && (rules[r].body.len() != rules[honest].body.len()
                    || rules[r].head.predicate != rules[honest].head.predicate)
        }) else {
            return Ok(());
        };
        let mut mutated = cert.clone();
        mutated.steps[victim].rule = target;
        prop_assert!(
            check_certificate(&program, &base, &mutated).is_err(),
            "swapping step {victim} from rule {honest} to {target} must fail the replay"
        );
    }

    #[test]
    fn forging_a_derived_fact_is_rejected(seed in 0u64..5000, pick in 0usize..1_000_000) {
        let (program, base, run) = run_with_certificate(seed);
        let cert = run.certificate.unwrap();
        if cert.is_empty() {
            return Ok(());
        }
        let victim = pick % cert.len();
        let mut mutated = cert.clone();
        let fact = &mut mutated.steps[victim].fact;
        let slot = pick % fact.args.len();
        fact.args[slot] = Term::constant("forged_constant_zzz");
        prop_assert!(
            check_certificate(&program, &base, &mutated).is_err(),
            "forging the fact of step {victim} must fail the replay"
        );
    }

    #[test]
    fn omitting_a_negated_predicates_derivation_is_rejected(
        seed in 0u64..5000,
        pick in 0usize..1_000_000,
    ) {
        let (program, base, run) = run_with_certificate(seed);
        let cert = run.certificate.unwrap();
        let negated = negated_predicates(&program);
        let victims: Vec<usize> = (0..cert.len())
            .filter(|&i| negated.contains(&cert.steps[i].fact.predicate))
            .collect();
        if victims.is_empty() {
            return Ok(()); // no negation, or nothing derived under it
        }
        let victim = victims[pick % victims.len()];
        let mutated = omit_steps(&cert, |index, _| index == victim);
        prop_assert!(mutated.len() < cert.len());
        prop_assert!(
            matches!(
                check_certificate(&program, &base, &mutated),
                Err(CheckError::ModelNotClosed { .. })
            ),
            "omitting step {victim} ({}) and its dependents must fail closedness",
            cert.steps[victim].fact
        );
    }

    #[test]
    fn omitting_the_lowest_stratum_is_rejected(seed in 0u64..5000) {
        let (program, base, run) = run_with_certificate(seed);
        let cert = run.certificate.unwrap();
        let negated = negated_predicates(&program);
        let lowest = &program.strata()[0];
        let feeds_negation = cert
            .steps
            .iter()
            .any(|step| lowest.contains(&step.rule) && negated.contains(&step.fact.predicate));
        if !feeds_negation {
            return Ok(());
        }
        // Only steps over base premises alone survive — typically the
        // negating rules themselves, now unopposed.
        let mutated = omit_steps(&cert, |_, step| lowest.contains(&step.rule));
        prop_assert!(
            matches!(
                check_certificate(&program, &base, &mutated),
                Err(CheckError::ModelNotClosed { .. })
            ),
            "a certificate without its lowest stratum must fail closedness"
        );
    }

    #[test]
    fn unsupported_answers_are_rejected(seed in 0u64..5000) {
        let (program, base, run) = run_with_certificate(seed);
        let cert = run.certificate.unwrap();
        // `T` is always an IDB predicate of the generated programs; a fact
        // over fresh constants is never in the base or the replayed model.
        let bogus = Atom::from_parts(
            "T",
            vec![
                Term::constant("never_seen_a"),
                Term::constant("never_seen_b"),
            ],
        );
        prop_assert!(
            sac::datalog::check::verify_answer(&program, &base, &cert, &bogus).is_err(),
            "an answer outside base ∪ model must be rejected"
        );
    }
}
