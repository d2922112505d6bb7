//! The paper's theorems as test oracles for the deciders.
//!
//! Each case draws a query, a constraint set Σ and databases D ⊨ Σ, and
//! judges the deciders only by the definition-level oracle
//! `sac::query::evaluate`:
//!
//! * **Witness soundness** (Propositions 8/15 for tgds, Section 6 for
//!   keys): every `SemAcResult::Witness(q')` is acyclic and has
//!   `q'(D) = q(D)`.
//! * **Approximations** (Section 8.2): every maximal approximation is
//!   acyclic and has `q'(D) ⊆ q(D)`.
//! * **Lemma 1, both ways**: `Holds` means `q₁(D) ⊆ q₂(D)`; `Fails` means
//!   that, when `q₁`'s chase terminates, its chased frozen head is not an
//!   answer of `q₂` there.  The decision runs under a generous and a
//!   one-step chase budget, so the rewriting fallback of a truncated chase
//!   is judged too.
//!
//! Σ is full or non-recursive (tgds) or a set of keys over binary
//! predicates (egds), so every chase here terminates.  The databases are
//! random instances chased to a model — a failing egd chase drops the
//! instance — plus the chased canonical databases of the queries involved,
//! which are the counterexamples Lemma 1 itself would use.  Completeness
//! ("no witness exists") is not asserted.

use proptest::prelude::*;
use sac::prelude::*;
use std::collections::BTreeSet;

/// SplitMix64: every case is a pure function of its seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The schema: `P` unary, `E`, `F`, `G` binary.  Non-recursive sets only
/// derive a predicate from predicates of lower rank.
const BINARY: [&str; 3] = ["E", "F", "G"];

fn rank(predicate: &str) -> usize {
    match predicate {
        "P" | "E" => 0,
        "F" => 1,
        _ => 2,
    }
}

fn variable(i: usize) -> Term {
    Term::variable(&format!("X{i}"))
}

fn random_atom(
    draw: &mut Draw,
    predicates: &[&str],
    mut term: impl FnMut(&mut Draw) -> Term,
) -> Atom {
    let predicate = *draw.pick(predicates);
    let arity = if predicate == "P" { 1 } else { 2 };
    Atom::from_parts(predicate, (0..arity).map(|_| term(draw)).collect())
}

/// A query of 2–4 atoms over at most four variables (now and then a
/// constant), with up to two head variables.
fn random_query(draw: &mut Draw) -> ConjunctiveQuery {
    let atoms = 2 + draw.below(3);
    let body: Vec<Atom> = (0..atoms)
        .map(|_| {
            random_atom(draw, &["P", "E", "E", "F", "G"], |d| {
                if d.below(12) == 0 {
                    Term::constant("c0")
                } else {
                    variable(d.below(4))
                }
            })
        })
        .collect();
    let vars: Vec<_> = body
        .iter()
        .flat_map(|a| a.variables())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let head: Vec<_> = (0..draw.below(3).min(vars.len()))
        .map(|_| *draw.pick(&vars))
        .collect();
    ConjunctiveQuery::new(head, body).expect("generated query is well-formed")
}

/// One or two tgds: full ones (recursion allowed), or non-recursive ones
/// (heads outrank bodies) that may invent nulls.
fn random_tgds(draw: &mut Draw) -> Vec<Tgd> {
    let full = draw.below(2) == 0;
    (0..1 + draw.below(2))
        .map(|_| {
            let head_predicate = if full {
                *draw.pick(&BINARY)
            } else {
                *draw.pick(&["F", "G"])
            };
            let lower: Vec<&str> = ["P", "E", "F"]
                .into_iter()
                .filter(|p| full || rank(p) < rank(head_predicate))
                .collect();
            let body: Vec<Atom> = (0..1 + draw.below(2))
                .map(|_| random_atom(draw, &lower, |d| variable(d.below(3))))
                .collect();
            let frontier: Vec<Term> = body
                .iter()
                .flat_map(|a| a.variables())
                .map(Term::Variable)
                .collect();
            let head = random_atom(draw, &[head_predicate], |d| {
                if full || d.below(3) != 0 {
                    *d.pick(&frontier)
                } else {
                    Term::variable("W")
                }
            });
            Tgd::new(body, vec![head]).expect("generated tgd is well-formed")
        })
        .collect()
}

/// Keys on the first attribute of one or two binary predicates.
fn random_keys(draw: &mut Draw) -> Vec<Egd> {
    let first = draw.below(2);
    let predicates = if draw.below(2) == 0 {
        &BINARY[first..first + 1]
    } else {
        &BINARY[..2]
    };
    predicates
        .iter()
        .flat_map(|p| FunctionalDependency::key(p, 2, [1]).unwrap().to_egds())
        .collect()
}

/// Three random instances over four constants, before the chase.
fn random_instances(draw: &mut Draw) -> Vec<Instance> {
    (0..3)
        .map(|_| {
            let facts: Vec<Atom> = (0..4 + draw.below(6))
                .map(|_| {
                    random_atom(draw, &["P", "E", "E", "F", "G"], |d| {
                        Term::constant(&format!("c{}", d.below(4)))
                    })
                })
                .collect();
            Instance::from_atoms(facts).unwrap()
        })
        .collect()
}

/// Models of the tgds: each instance chased, kept when the chase
/// terminated, plus the chased canonical database of every query given.
fn tgd_models(base: Vec<Instance>, tgds: &[Tgd], queries: &[&ConjunctiveQuery]) -> Vec<Instance> {
    let chased = base
        .iter()
        .map(|d| tgd_chase(d, tgds, ChaseBudget::small()));
    let canonical = queries
        .iter()
        .map(|q| tgd_chase_query(q, tgds, ChaseBudget::small()).0);
    chased
        .chain(canonical)
        .filter(|result| result.terminated)
        .map(|result| result.instance)
        .collect()
}

/// Models of the egds: each instance chased, dropped when the chase
/// failed, plus the chased canonical database of every query given.
fn egd_models(base: Vec<Instance>, egds: &[Egd], queries: &[&ConjunctiveQuery]) -> Vec<Instance> {
    let chased = base.iter().filter_map(|d| egd_chase(d, egds).ok());
    let canonical = queries
        .iter()
        .filter_map(|q| egd_chase_query(q, egds).ok().map(|(result, _)| result));
    chased
        .chain(canonical)
        .map(|result| result.instance)
        .collect()
}

fn show(d: &Instance) -> String {
    let atoms: Vec<String> = d.atoms().map(|a| a.to_string()).collect();
    atoms.join(" ")
}

/// A bounded search: the theorems are about what the deciders return, not
/// about how far they look.
fn config() -> SemAcConfig {
    SemAcConfig {
        max_candidates: 400,
        max_expansion_atoms: 12,
        ..SemAcConfig::default()
    }
}

fn check_witness(
    q: &ConjunctiveQuery,
    result: &SemAcResult,
    models: impl Fn(&ConjunctiveQuery) -> Vec<Instance>,
) -> Result<(), TestCaseError> {
    let Some(witness) = result.witness() else {
        return Ok(());
    };
    prop_assert!(
        is_acyclic_query(witness),
        "witness {witness} of {q} is cyclic"
    );
    for d in models(witness) {
        prop_assert!(
            evaluate(witness, &d) == evaluate(q, &d),
            "witness {} of {} differs on {}",
            witness,
            q,
            show(&d)
        );
    }
    Ok(())
}

/// `q₂` for Lemma 1: half the time an acyclic-or-not sub-conjunction of
/// `q₁`'s chase read back (contained by construction when it keeps the
/// head), half the time an unrelated query with `q₁`'s head.
fn right_side(draw: &mut Draw, q1: &ConjunctiveQuery, tgds: &[Tgd]) -> Option<ConjunctiveQuery> {
    let (result, mut chased) = tgd_chase_query(q1, tgds, ChaseBudget::small());
    chased.instance = result.instance;
    let mut body = if draw.below(2) == 0 {
        chased.thaw()?.body
    } else {
        random_query(draw).body
    };
    body.retain(|_| draw.below(3) != 0);
    if body.is_empty() {
        return None;
    }
    ConjunctiveQuery::new(q1.head.clone(), body).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tgd_witnesses_are_acyclic_and_equivalent_on_every_model(seed in 0u64..1_000_000) {
        let mut draw = Draw(seed);
        let q = random_query(&mut draw);
        let tgds = random_tgds(&mut draw);
        let base = random_instances(&mut draw);
        let result = semantic_acyclicity_under_tgds(&q, &tgds, config());
        check_witness(&q, &result, |w| tgd_models(base.clone(), &tgds, &[&q, w]))?;
    }

    #[test]
    fn key_witnesses_are_acyclic_and_equivalent_on_every_model(seed in 0u64..1_000_000) {
        let mut draw = Draw(seed);
        let q = random_query(&mut draw);
        let keys = random_keys(&mut draw);
        let base = random_instances(&mut draw);
        let result = semantic_acyclicity_under_egds(&q, &keys, config());
        check_witness(&q, &result, |w| egd_models(base.clone(), &keys, &[&q, w]))?;
    }

    #[test]
    fn approximations_are_acyclic_and_sound_on_every_model(seed in 0u64..1_000_000) {
        let mut draw = Draw(seed);
        let q = random_query(&mut draw);
        let tgds = random_tgds(&mut draw);
        let base = random_instances(&mut draw);
        let report = acyclic_approximations(&q, &tgds, ChaseBudget::small());
        for approximation in &report.maximal {
            prop_assert!(is_acyclic_query(approximation));
            for d in tgd_models(base.clone(), &tgds, &[&q, approximation]) {
                let (under, over) = (evaluate(approximation, &d), evaluate(&q, &d));
                prop_assert!(
                    under.is_subset(&over),
                    "approximation {} of {} answers more on {}",
                    approximation,
                    q,
                    show(&d)
                );
            }
        }
    }

    #[test]
    fn lemma1_containment_agrees_with_evaluation(seed in 0u64..1_000_000) {
        let mut draw = Draw(seed);
        let q1 = random_query(&mut draw);
        let tgds = random_tgds(&mut draw);
        let Some(q2) = right_side(&mut draw, &q1, &tgds) else {
            return Ok(());
        };
        let base = random_instances(&mut draw);
        let models = tgd_models(base, &tgds, &[&q1, &q2]);
        let (reference, frozen) = tgd_chase_query(&q1, &tgds, ChaseBudget::small());
        for budget in [ChaseBudget::small(), ChaseBudget::new(1, 10_000)] {
            match contained_under_tgds(&q1, &q2, &tgds, budget) {
                ContainmentAnswer::Holds => {
                    for d in &models {
                        prop_assert!(
                            evaluate(&q1, d).is_subset(&evaluate(&q2, d)),
                            "{} ⊆Σ {} claimed, refuted on {}",
                            q1,
                            q2,
                            show(d)
                        );
                    }
                }
                ContainmentAnswer::Fails if reference.terminated => {
                    prop_assert!(
                        !evaluate(&q2, &reference.instance).contains(&frozen.head),
                        "{} ⊆Σ {} denied, but the chase of {} satisfies it",
                        q1,
                        q2,
                        q1
                    );
                }
                _ => {}
            }
        }
    }
}
