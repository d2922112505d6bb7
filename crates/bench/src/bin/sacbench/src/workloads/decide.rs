//! `decide`: the paper's decision procedures, nothing else.
//!
//! A request is one pass over a fixed suite of (query, constraints) cases
//! covering every decidable class of the paper, positive and negative:
//! guarded, inclusion dependencies, non-recursive, sticky (plus its UCQ
//! rewriting), keys, the constraint-free core test and acyclic
//! approximations.  No `Database` is ever built.  The cost of a case
//! depends on its structure, so the suite is the same for every seed; the
//! seed picks the variable names and the order of the cases in a pass.
//!
//! Every pass must reproduce the expected decisions; the warm-up pass also
//! checks each positive witness: acyclic, and equivalent to the query under
//! the constraints.

use super::{run_rounds, Ctx, Recorder};
use crate::stats::{digest_rows, median_ns, p50_ns_of, timed, SplitMix};
use sac::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

enum Kind {
    /// `semantic_acyclicity_under_tgds`.
    Tgds(Vec<Tgd>),
    /// `semantic_acyclicity_under_egds`.
    Egds(Vec<Egd>),
    /// `is_semantically_acyclic_no_constraints` (the core test).
    Unconstrained,
    /// `acyclic_approximations` without constraints; "positive" = exact.
    Approximations,
    /// `rewrite` to a UCQ; "positive" = the rewriting reached its fixpoint.
    Rewrite(Vec<Tgd>),
}

struct Case {
    name: &'static str,
    /// The per-layer metric the case's time is added to.
    metric: &'static str,
    query: ConjunctiveQuery,
    kind: Kind,
    expected: bool,
}

/// What one decision produced: the verdict, a witness if there is one, and
/// a size that goes into the digest (witness atoms, approximations found,
/// rewriting disjuncts).
struct Outcome {
    positive: bool,
    witness: Option<ConjunctiveQuery>,
    size: usize,
}

impl Case {
    fn decide(&self) -> Outcome {
        let config = SemAcConfig::default();
        let from_semac = |result: SemAcResult| Outcome {
            positive: result.is_acyclic(),
            size: result.witness().map_or(0, ConjunctiveQuery::size),
            witness: result.witness().cloned(),
        };
        match &self.kind {
            Kind::Tgds(tgds) => {
                from_semac(semantic_acyclicity_under_tgds(&self.query, tgds, config))
            }
            Kind::Egds(egds) => {
                from_semac(semantic_acyclicity_under_egds(&self.query, egds, config))
            }
            Kind::Unconstrained => {
                let witness = is_semantically_acyclic_no_constraints(&self.query);
                Outcome {
                    positive: witness.is_some(),
                    size: witness.as_ref().map_or(0, ConjunctiveQuery::size),
                    witness,
                }
            }
            Kind::Approximations => {
                let report = acyclic_approximations(&self.query, &[], ChaseBudget::small());
                Outcome {
                    positive: report.exact,
                    witness: None,
                    size: report.maximal.len(),
                }
            }
            Kind::Rewrite(tgds) => {
                let rewriting = rewrite(&self.query, tgds, RewriteBudget::large());
                Outcome {
                    positive: rewriting.complete,
                    witness: None,
                    size: rewriting.ucq.len(),
                }
            }
        }
    }

    /// A positive witness must be acyclic and Σ-equivalent to the query.
    fn witness_holds(&self, witness: &ConjunctiveQuery) -> bool {
        is_acyclic_query(witness)
            && match &self.kind {
                Kind::Tgds(tgds) => {
                    equivalent_under_tgds(&self.query, witness, tgds, ChaseBudget::small()).holds()
                }
                Kind::Egds(egds) => equivalent_under_egds(&self.query, witness, egds),
                _ => equivalent(&self.query, witness),
            }
    }
}

fn parse_tgds(texts: &[&str]) -> Vec<Tgd> {
    texts
        .iter()
        .map(|t| parse_tgd(t).expect("suite tgd parses"))
        .collect()
}

/// Builds the suite: texts through the parser where the case is written as
/// text, `sac::gen` for the paper's named families.
fn suite(seed: u64) -> Vec<Case> {
    let suffix = format!("_s{seed}");
    let case = |name, metric, query: ConjunctiveQuery, kind, expected| Case {
        name,
        metric,
        query: query.with_variable_suffix(&suffix),
        kind,
        expected,
    };
    let text = |q: &str| -> ConjunctiveQuery { parse_query(q).expect("suite query parses") };
    let symmetric = || parse_tgds(&["E(X, Y) -> E(Y, X)."]);
    let r_key = || {
        FunctionalDependency::key("R", 2, [1])
            .expect("well-formed key")
            .to_egds()
    };
    let (sticky, sticky_query) = sac::gen::example3_sticky_family(3);
    let mut cases = vec![
        case(
            "cycle3_guarded",
            "core.decide_guarded_ms",
            sac::gen::cycle_query(3),
            Kind::Tgds(symmetric()),
            false,
        ),
        case(
            "cycle4_guarded",
            "core.decide_guarded_ms",
            sac::gen::cycle_query(4),
            Kind::Tgds(symmetric()),
            true,
        ),
        case(
            "cycle6_guarded",
            "core.decide_guarded_ms",
            sac::gen::cycle_query(6),
            Kind::Tgds(symmetric()),
            true,
        ),
        // Four inclusion dependencies over E0..E2, fixed (generator seed 1):
        // the cost of this case swings 500x with the dependencies drawn.
        case(
            "triangle_inclusion",
            "core.decide_guarded_ms",
            text("q() :- E0(X, Y), E1(Y, Z), E2(Z, X)."),
            Kind::Tgds(sac::gen::random_inclusion_dependencies(4, 3, 1)),
            false,
        ),
        case(
            "employee_nonrecursive",
            "core.decide_nonrecursive_ms",
            text("q() :- Employee(X, D), Manages(M, D), Dept(D)."),
            Kind::Tgds(parse_tgds(&[
                "Employee(X, D) -> Dept(D).",
                "Dept(D) -> Manages(M, D).",
            ])),
            true,
        ),
        case(
            "example1_collector",
            "core.decide_nonrecursive_ms",
            text("q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y)."),
            Kind::Tgds(parse_tgds(&["Interest(X, Z), Class(Y, Z) -> Owns(X, Y)."])),
            true,
        ),
        case(
            "example2_sticky",
            "core.decide_sticky_ms",
            sac::gen::example2_query(3),
            Kind::Tgds(vec![sac::gen::example2_tgd()]),
            true,
        ),
        case(
            "example3_sticky",
            "core.decide_sticky_ms",
            sticky_query.clone(),
            Kind::Tgds(sticky.clone()),
            true,
        ),
        case(
            "example3_rewrite",
            "rewrite.xrewrite_ms",
            sticky_query,
            Kind::Rewrite(sticky),
            true,
        ),
        case(
            "key_ring4",
            "core.decide_keys_ms",
            sac::gen::key_ring_query(4),
            Kind::Egds(r_key()),
            true,
        ),
        // Cyclic as written; the key merges Y and Z and the triangle folds.
        case(
            "key_folds_triangle",
            "core.decide_keys_ms",
            text("q() :- R(X, Y), R(X, Z), E(Y, Z), E(Z, W), E(W, Y)."),
            Kind::Egds(r_key()),
            true,
        ),
        case(
            "key_leaves_triangle",
            "core.decide_keys_ms",
            text("q() :- R(X, Y), E(Y, Z), E(Z, W), E(W, Y)."),
            Kind::Egds(r_key()),
            false,
        ),
        case(
            "clique4_core",
            "core.decide_unconstrained_ms",
            sac::gen::clique_query(4),
            Kind::Unconstrained,
            false,
        ),
        case(
            "clique5_core",
            "core.decide_unconstrained_ms",
            sac::gen::clique_query(5),
            Kind::Unconstrained,
            false,
        ),
        case(
            "clique4_approximations",
            "core.approximations_ms",
            sac::gen::clique_query(4),
            Kind::Approximations,
            false,
        ),
        case(
            "clique5_approximations",
            "core.approximations_ms",
            sac::gen::clique_query(5),
            Kind::Approximations,
            false,
        ),
    ];
    SplitMix(seed).shuffle(&mut cases);
    cases
}

/// One pass: every case decided, every verdict compared.  Returns the
/// pass's outcome line (for the digest).
fn pass(suite: &[Case]) -> Result<Vec<String>, String> {
    let mut lines = Vec::with_capacity(suite.len());
    for case in suite {
        let outcome = case.decide();
        if outcome.positive != case.expected {
            return Err(format!(
                "{}: decided {}, expected {}",
                case.name, outcome.positive, case.expected
            ));
        }
        lines.push(format!(
            "{}={}:{}",
            case.name, outcome.positive, outcome.size
        ));
    }
    Ok(lines)
}

fn verify_witnesses(suite: &[Case], rec: &mut Recorder) {
    for case in suite {
        if let Some(witness) = case.decide().witness {
            rec.check(case.witness_holds(&witness), || {
                format!(
                    "{}: witness {witness} is not an acyclic equivalent",
                    case.name
                )
            });
        }
    }
}

pub fn run(ctx: &Ctx, rec: &mut Recorder) {
    let rounds = ctx.rounds(13);
    let block = ctx.size(20, 2);
    let mut first: Option<Vec<String>> = None;
    run_rounds(rec, rounds, block, |round, rec| {
        let start = Instant::now();
        let suite = suite(ctx.seed);
        let warm = pass(&suite);
        rec.setup_done(start);
        match warm {
            Ok(lines) => {
                first.get_or_insert(lines);
            }
            Err(message) => rec.fail(|| format!("warm-up pass: {message}")),
        }
        if round == 0 {
            verify_witnesses(&suite, rec);
            rec.count("cases", suite.len());
        }
        for _ in 0..block {
            if let Some(lines) = rec.request(|| pass(&suite)) {
                rec.check(Some(&lines) == first.as_ref(), || {
                    "a pass produced different witnesses".to_owned()
                });
            }
        }
    });
    rec.count("rounds", rounds);
    rec.count("requests_per_round", block);
    rec.digest("decisions", digest_rows(first.unwrap_or_default()));
}

pub fn trace(ctx: &Ctx, rec: &mut Recorder) {
    let passes = ctx.size(40, 2);
    let suite = suite(ctx.seed);
    verify_witnesses(&suite, rec);
    let mut untraced = Vec::with_capacity(passes);
    let mut per_case: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for index in 0..passes {
        untraced.push(timed(|| pass(&suite).expect("suite decisions")).0);
        let op = index as u32;
        rec.attempted += 1;
        rec.spans.scope(op, "request", None, |spans, root| {
            for case in &suite {
                let span = spans.len() as u32;
                let outcome = spans.call(op, "core.decide", Some(root), || case.decide());
                per_case
                    .entry(case.name)
                    .or_default()
                    .push(spans.duration_ns(span));
                assert_eq!(outcome.positive, case.expected, "{}", case.name);
            }
        });
    }
    // A class's time is the sum of its cases' medians: its share of a pass.
    let mut classes: BTreeMap<&'static str, f64> = BTreeMap::new();
    for case in &suite {
        let samples = per_case.get_mut(case.name).expect("every case ran");
        *classes.entry(case.metric).or_default() += median_ns(samples) / 1e6;
    }
    for (metric, ms) in classes {
        rec.set(metric, ms);
    }

    // The building blocks under the deciders, on the suite's own inputs.
    let reps = ctx.size(30, 2);
    let by_name = |name: &str| {
        suite
            .iter()
            .find(|c| c.name == name)
            .expect("suite case exists")
    };
    let triangle = by_name("triangle_inclusion");
    if let Kind::Tgds(tgds) = &triangle.kind {
        let chase = p50_ns_of(reps, || {
            tgd_chase_query(&triangle.query, tgds, ChaseBudget::small())
                .0
                .steps
        });
        rec.set("chase.tgd_chase_ms", chase / 1e6);
    }
    let clique = &by_name("clique5_core").query;
    rec.set(
        "query.core_of_ms",
        p50_ns_of(reps, || core_of(clique).size()) / 1e6,
    );
    let (small, large) = (sac::gen::cycle_query(3), sac::gen::cycle_query(6));
    rec.set(
        "query.containment_ms",
        p50_ns_of(reps, || {
            (contained_in(&large, &small), contained_in(&small, &large))
        }) / 1e6,
    );
    rec.set(
        "acyclic.gyo_us",
        p50_ns_of(reps, || {
            suite.iter().filter(|c| is_acyclic_query(&c.query)).count()
        }) / 1e3,
    );
    rec.digest(
        "decisions",
        digest_rows(pass(&suite).expect("suite decisions")),
    );
    rec.summarize_spans(median_ns(&mut untraced));
}
