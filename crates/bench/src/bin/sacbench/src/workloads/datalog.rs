//! `datalog_run` and `certificate_check`: recursive reachability through the
//! semi-naive evaluator with certificates, and the engine-independent
//! replay of such a certificate.
//!
//! Both use the *positive* reachability program.  The same program plus one
//! negation stratum runs in the traced pass only
//! (`datalog.check_us_per_fact_negation`): a closedness check for negation
//! is a soundness fix that may legitimately cost negation programs, and
//! `certificate_check` is what holds it to "positive programs do not pay".

use super::{digest_atoms, run_rounds, Ctx, Recorder};
use crate::stats::{median_ns, p50_ns_of, timed};
use sac::datalog::check::{check_certificate, verify_answer};
use sac::datalog::naive::naive_fixpoint;
use sac::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

const NEGATION: &str = "T(X, Y) :- E(X, Y).
     T(X, Z) :- E(X, Y), T(Y, Z).
     Sep(X, Y) :- N(X), N(Y), not T(X, Y).";

struct DatalogInputs {
    program: DatalogProgram,
    base: Instance,
}

/// A random graph of mean out-degree 5: dense enough that all but a few
/// nodes sit in the one strongly connected component, so the closure has
/// 9 600–10 000 facts whatever the seed (at degree 3 it swings by 10 %).
fn inputs(ctx: &Ctx) -> DatalogInputs {
    let nodes = ctx.size(100, 16);
    DatalogInputs {
        program: sac::gen::reachability_program(),
        base: sac::gen::random_graph_database(nodes, nodes * 5, ctx.seed),
    }
}

/// A `T` fact over constants the graph does not have.
fn never_derived() -> Atom {
    Atom::from_parts(
        "T",
        vec![Term::constant("never"), Term::constant("derived")],
    )
}

fn evaluate_with_certificate(
    db: &Database,
    program: &DatalogProgram,
) -> Result<DatalogRun, String> {
    db.run_datalog(program).map_err(|e| e.to_string())
}

/// Checks one engine run against the naive reference, replays its
/// certificate, and spot-checks `verify_answer` both ways.
fn verify_run(inputs: &DatalogInputs, run: &DatalogRun, rec: &mut Recorder) {
    let (fixpoint, _) = naive_fixpoint(&inputs.program, &inputs.base).expect("naive reference");
    let reference: BTreeSet<Atom> = fixpoint
        .atoms()
        .filter(|a| !inputs.base.contains(a))
        .collect();
    let derived: BTreeSet<Atom> = run.derived.iter().cloned().collect();
    rec.check(derived == reference, || {
        format!(
            "semi-naive derived {} facts, the naive reference {}",
            derived.len(),
            reference.len()
        )
    });
    let Some(certificate) = &run.certificate else {
        rec.fail(|| "the run carries no certificate".to_owned());
        return;
    };
    let replay = check_certificate(&inputs.program, &inputs.base, certificate);
    rec.check(replay.is_ok(), || {
        format!("certificate replay failed: {replay:?}")
    });
    let sample = [
        0,
        run.derived.len() / 2,
        run.derived.len().saturating_sub(1),
    ];
    for index in sample {
        let Some(fact) = run.derived.get(index) else {
            continue;
        };
        let verdict = verify_answer(&inputs.program, &inputs.base, certificate, fact);
        rec.check(verdict.is_ok(), || format!("verify_answer rejected {fact}"));
    }
    rec.check(
        verify_answer(&inputs.program, &inputs.base, certificate, &never_derived()).is_err(),
        || "verify_answer accepted a fact nobody derived".to_owned(),
    );
    rec.count("facts_derived", run.derived.len());
    rec.count("iterations", run.stats.iterations);
    rec.count("certificate_steps", certificate.len());
    rec.digest("derived", digest_atoms(&run.derived));
}

pub fn run_eval(ctx: &Ctx, rec: &mut Recorder) {
    let inputs = inputs(ctx);
    let rounds = ctx.rounds(13);
    let block = ctx.size(20, 3);
    let mut first: Option<DatalogRun> = None;
    run_rounds(rec, rounds, block, |_, rec| {
        let base = inputs.base.clone();
        let start = Instant::now();
        let db = Database::from_instance(base);
        let warm = evaluate_with_certificate(&db, &inputs.program).expect("warm-up run");
        rec.setup_done(start);
        let expected = first.get_or_insert(warm);
        for _ in 0..block {
            if let Some(run) = rec.request(|| evaluate_with_certificate(&db, &inputs.program)) {
                rec.check(run.derived == expected.derived, || {
                    "derived facts changed between runs".to_owned()
                });
            }
        }
    });
    rec.count("rounds", rounds);
    rec.count("requests_per_round", block);
    rec.count("base_atoms", inputs.base.len());
    match &first {
        Some(run) => verify_run(&inputs, run, rec),
        None => rec.fail(|| "no run completed".to_owned()),
    }
}

/// A certificate whose last step claims a fact its premises do not yield.
fn forged(certificate: &Certificate) -> Certificate {
    let mut forged = certificate.clone();
    if let Some(step) = forged.steps.last_mut() {
        step.fact = never_derived();
    }
    forged
}

pub fn run_check(ctx: &Ctx, rec: &mut Recorder) {
    let inputs = inputs(ctx);
    let rounds = ctx.rounds(14);
    let block = ctx.size(120, 5);
    let mut first: Option<DatalogRun> = None;
    run_rounds(rec, rounds, block, |_, rec| {
        // A checker's set-up is getting hold of the certificate.
        let start = Instant::now();
        let db = Database::from_instance(inputs.base.clone());
        let run = evaluate_with_certificate(&db, &inputs.program).expect("certified run");
        rec.setup_done(start);
        let certificate = run
            .certificate
            .as_ref()
            .expect("certificates are on by default");
        for _ in 0..block {
            rec.request(|| {
                check_certificate(&inputs.program, &inputs.base, certificate)
                    .map_err(|e| e.to_string())
            });
        }
        rec.check(
            check_certificate(&inputs.program, &inputs.base, &forged(certificate)).is_err(),
            || "the checker accepted a forged step".to_owned(),
        );
        first.get_or_insert(run);
    });
    rec.count("rounds", rounds);
    rec.count("requests_per_round", block);
    rec.count("base_atoms", inputs.base.len());
    match &first {
        Some(run) => verify_run(&inputs, run, rec),
        None => rec.fail(|| "no run completed".to_owned()),
    }
}

pub fn trace_eval(ctx: &Ctx, rec: &mut Recorder) {
    let inputs = inputs(ctx);
    let reps = ctx.size(40, 3);
    let db = Database::from_instance(inputs.base.clone());
    let (mut untraced, mut traced) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..reps {
        // Untraced and traced runs alternate, and each run is dropped
        // before the next starts: a run evaluated while its predecessor is
        // still alive measures ~35 % slower.
        let (ns, run) = timed(|| evaluate_with_certificate(&db, &inputs.program).expect("run"));
        untraced.push(ns);
        drop(run);
        let op = rep as u32;
        rec.attempted += 1;
        let run = rec.spans.scope(op, "request", None, |spans, root| {
            spans.call(op, "datalog.run", Some(root), || {
                evaluate_with_certificate(&db, &inputs.program).expect("run")
            })
        });
        traced.push(rec.spans.duration_ns(rec.spans.len() as u32 - 1));
        drop(run);
    }
    let run = evaluate_with_certificate(&db, &inputs.program).expect("run");
    let run_p50 = median_ns(&mut traced);
    let uncertified = p50_ns_of(reps, || {
        let options = DatalogOptions {
            certificate: false,
            ..DatalogOptions::default()
        };
        db.run_datalog_with(&inputs.program, options)
            .expect("run")
            .derived
            .len()
    });
    let naive = p50_ns_of(ctx.size(5, 1), || {
        naive_fixpoint(&inputs.program, &inputs.base)
            .expect("naive")
            .0
            .len()
    });
    rec.set("datalog.run_p50_ms", run_p50 / 1e6);
    rec.set("datalog.iterations", run.stats.iterations as f64);
    rec.set("datalog.facts_derived", run.derived.len() as f64);
    rec.set(
        "datalog.derived_facts_per_s",
        run.derived.len() as f64 / (run_p50 / 1e9),
    );
    rec.set("datalog.certificate_overhead_ratio", run_p50 / uncertified);
    rec.set("datalog.seminaive_vs_naive_ratio", uncertified / naive);
    rec.set(
        "datalog.certificate_steps",
        run.certificate.as_ref().map_or(0, Certificate::len) as f64,
    );
    rec.set("storage.dict_terms", sac::storage::dict::len() as f64);
    verify_run(&inputs, &run, rec);
    rec.summarize_spans(median_ns(&mut untraced));
}

pub fn trace_check(ctx: &Ctx, rec: &mut Recorder) {
    let inputs = inputs(ctx);
    let reps = ctx.size(200, 5);
    let db = Database::from_instance(inputs.base.clone());
    let run = evaluate_with_certificate(&db, &inputs.program).expect("certified run");
    let certificate = run
        .certificate
        .as_ref()
        .expect("certificates are on by default");
    let mut untraced = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (ns, verdict) = timed(|| check_certificate(&inputs.program, &inputs.base, certificate));
        untraced.push(ns);
        rec.check(verdict.is_ok(), || format!("replay failed: {verdict:?}"));
        let op = rep as u32;
        rec.attempted += 1;
        let verdict = rec.spans.scope(op, "request", None, |spans, root| {
            spans.call(op, "datalog.check", Some(root), || {
                check_certificate(&inputs.program, &inputs.base, certificate)
            })
        });
        rec.check(verdict.is_ok(), || format!("replay failed: {verdict:?}"));
    }
    let check_p50 = rec.spans.median_duration_ns("datalog.check");
    rec.set("datalog.check_p50_ms", check_p50 / 1e6);
    rec.set(
        "datalog.check_us_per_fact_positive",
        check_p50 / 1e3 / run.derived.len().max(1) as f64,
    );
    rec.set("datalog.facts_derived", run.derived.len() as f64);
    rec.set("datalog.certificate_steps", certificate.len() as f64);

    // Negation: every node is an `N`, `Sep` is the complement of the closure.
    let program: DatalogProgram = NEGATION.parse().expect("stratified program");
    let mut base = inputs.base.clone();
    for node in inputs.base.active_domain() {
        base.insert(Atom::from_parts("N", vec![node]))
            .expect("consistent arities");
    }
    let negation_db = Database::from_instance(base.clone());
    let negation_run = evaluate_with_certificate(&negation_db, &program).expect("stratified run");
    let negation_certificate = negation_run
        .certificate
        .as_ref()
        .expect("certificates are on by default");
    let (fixpoint, _) = naive_fixpoint(&program, &base).expect("naive reference");
    rec.check(
        fixpoint.len() == base.len() + negation_run.derived.len(),
        || "the negation program disagrees with the naive reference".to_owned(),
    );
    let negation_p50 = p50_ns_of(ctx.size(10, 2), || {
        check_certificate(&program, &base, negation_certificate).expect("replay")
    });
    rec.set(
        "datalog.check_us_per_fact_negation",
        negation_p50 / 1e3 / negation_run.derived.len().max(1) as f64,
    );
    rec.count("negation_facts_derived", negation_run.derived.len());
    verify_run(&inputs, &run, rec);
    rec.summarize_spans(median_ns(&mut untraced));
}
