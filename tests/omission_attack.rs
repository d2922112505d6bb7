use sac::datalog::{check, Certificate, DerivationStep, Premise};
use sac::prelude::*;

#[test]
fn incomplete_certificate_forges_a_negation_fact() {
    let program: DatalogProgram = "T(X, Y) :- E(X, Y).\n\
                                   Sep(X, Y) :- N(X), N(Y), not T(X, Y)."
        .parse()
        .unwrap();
    let base = Instance::from_atoms([
        Atom::from_parts("E", vec![Term::constant("a"), Term::constant("b")]),
        Atom::from_parts("N", vec![Term::constant("a")]),
        Atom::from_parts("N", vec![Term::constant("b")]),
    ])
    .unwrap();
    let step = DerivationStep {
        rule: 1,
        fact: Atom::from_parts("Sep", vec![Term::constant("a"), Term::constant("b")]),
        premises: vec![
            Premise::Base {
                predicate: sac::common::intern("N"),
                row: 0,
            },
            Premise::Base {
                predicate: sac::common::intern("N"),
                row: 1,
            },
        ],
        negated: vec![Atom::from_parts(
            "T",
            vec![Term::constant("a"), Term::constant("b")],
        )],
    };
    let cert = Certificate { steps: vec![step] };
    let forged = Atom::from_parts("Sep", vec![Term::constant("a"), Term::constant("b")]);
    let replay = check::check_certificate(&program, &base, &cert);
    let verify = check::verify_answer(&program, &base, &cert, &forged);
    assert!(
        replay.is_err() || verify.is_err(),
        "checker accepted a forged negation-dependent fact: replay={replay:?} verify={verify:?}"
    );
}
