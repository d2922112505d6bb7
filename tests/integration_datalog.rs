//! The recursive-query differential suite: every Datalog workload runs
//! through every plan-strategy rung — the planner's own pick and the forced
//! indexed fallback, plus the constraint-assisted witness rung where it
//! applies — at parallelism 1, 2 and 4 (a Datalog evaluation is serial at
//! every width, so the axis asserts that the setting changes nothing and
//! dispatches nothing), and every configuration must derive exactly the
//! facts of an independent naive bottom-up fixpoint
//! ([`sac::datalog::naive::naive_fixpoint`]).
//!
//! On top of answer agreement, every cell's [`Certificate`] must be
//! byte-identical to the serial default cell's, must replay green through
//! the engine-independent checker ([`sac::datalog::check`]) against the
//! base facts alone, and must support every derived answer.
//!
//! The suite prints one `datalog digest:` line per test, a hash over the
//! display form of every (program, derived answers) pair.  CI runs the
//! suite twice under `--test-threads=1` and diffs those lines: any
//! scheduling or iteration-order nondeterminism that leaks into results
//! (or into certificates) breaks the build.

use sac::prelude::*;
use std::collections::BTreeSet;

/// FNV-1a over the display form of everything the sweep produced: cheap,
/// dependency-free, and stable across runs iff the results are.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn absorb(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const PARALLELISM_LEVELS: [usize; 3] = [1, 2, 4];

/// The named recursive workloads plus a band of seeded random stratified
/// programs (which mix recursion shapes and negation strata).
fn workloads() -> Vec<(String, DatalogProgram, Instance)> {
    let mut workloads = vec![
        (
            "reachability".to_owned(),
            sac::gen::reachability_program(),
            sac::gen::random_graph_database(12, 24, 11),
        ),
        (
            "same-generation".to_owned(),
            sac::gen::same_generation_program(),
            sac::gen::parent_tree_database(3, 2),
        ),
        (
            "ontology-closure".to_owned(),
            sac::gen::ontology_closure_program(),
            sac::gen::ontology_database(8, 12, 5),
        ),
    ];
    for seed in 0..6 {
        let (program, base) = sac::gen::random_stratified_program(seed);
        workloads.push((format!("random-stratified-{seed}"), program, base));
    }
    workloads
}

/// The facts the naive reference derives beyond the base: the oracle every
/// engine configuration must reproduce exactly.
fn naive_reference(program: &DatalogProgram, base: &Instance) -> BTreeSet<Atom> {
    let (fixpoint, certificate) = sac::datalog::naive::naive_fixpoint(program, base).unwrap();
    // The reference certificate must itself replay: the oracle is checked
    // before it is trusted.
    sac::datalog::check::check_certificate(program, base, &certificate).unwrap();
    fixpoint.atoms().filter(|a| !base.contains(a)).collect()
}

/// Runs `program` on `base` through one (force_indexed, parallelism) cell,
/// asserting answer agreement with `reference` and a green, answer-covering
/// certificate replay.
fn run_cell(
    name: &str,
    program: &DatalogProgram,
    base: &Instance,
    reference: &BTreeSet<Atom>,
    force_indexed: bool,
    parallelism: usize,
) -> (DatalogRun, BTreeSet<Atom>) {
    let config = EngineConfig { force_indexed };
    let db = Database::from_instance(base.clone())
        .with_config(config)
        .with_parallelism(parallelism);
    let run = db.run_datalog(program).unwrap();
    // A Datalog run dispatches nothing at any width.
    assert_eq!(
        db.metrics().morsels_dispatched,
        0,
        "{name}: parallelism={parallelism}"
    );
    let derived: BTreeSet<Atom> = run.derived.iter().cloned().collect();
    assert_eq!(
        &derived, reference,
        "{name}: force_indexed={force_indexed} parallelism={parallelism}"
    );

    // The certificate replays without the engine, against base facts alone,
    // and supports every answer.
    let certificate = run.certificate.as_ref().expect("certificates default on");
    sac::datalog::check::check_certificate(program, base, certificate).unwrap();
    for answer in &run.derived {
        sac::datalog::check::verify_answer(program, base, certificate, answer).unwrap();
    }
    (run, derived)
}

#[test]
fn semi_naive_agrees_with_the_naive_reference_across_rungs_and_parallelism() {
    let mut digest = Digest::new();
    for (name, program, base) in workloads() {
        let reference = naive_reference(&program, &base);
        assert!(!reference.is_empty(), "{name}: workload derives nothing");

        let mut baseline: Option<DatalogRun> = None;
        for force_indexed in [false, true] {
            for parallelism in PARALLELISM_LEVELS {
                let (run, derived) = run_cell(
                    &name,
                    &program,
                    &base,
                    &reference,
                    force_indexed,
                    parallelism,
                );
                // Certificates are deterministic: every cell replays the
                // exact derivation log of the serial default-rung run.
                match &baseline {
                    None => {
                        digest.absorb(&name);
                        digest.absorb(&program.to_string());
                        for atom in &derived {
                            digest.absorb(&atom.to_string());
                        }
                        if let Some(cert) = &run.certificate {
                            digest.absorb(&cert.to_string());
                        }
                        baseline = Some(run);
                    }
                    Some(first) => {
                        assert_eq!(
                            run.certificate, first.certificate,
                            "{name}: certificate differs at force_indexed={force_indexed} \
                             parallelism={parallelism}"
                        );
                        assert_eq!(run.derived, first.derived, "{name}: answer order differs");
                    }
                }
            }
        }

        // The sweep drove both rungs it forced.
        let first = baseline.unwrap();
        assert!(first.stats.rule_runs_indexed_search == 0 || program.rule_count() > 0);
    }
    println!("datalog digest: sweep {:016x}", digest.0);
}

#[test]
fn witness_rung_fires_under_constraints_and_agrees_with_the_fallback() {
    // The cyclic rule body of Example 1's triangle is semantically acyclic
    // under the collector tgd, which mentions no predicate the program
    // derives: on a database that declares it the rule runs on the witness
    // rung, and the answers must equal those of the same database without
    // it.
    let base = sac::gen::music_database(30, 60, 7);
    let triangle = sac::gen::example1_triangle();
    let head_var = triangle.body[0].args[0];
    let rule = sac::datalog::Rule::positive(
        Atom::from_parts("Tri", vec![head_var]),
        triangle.body.clone(),
    )
    .unwrap();
    let program = DatalogProgram::new(vec![rule]).unwrap();
    let reference = naive_reference(&program, &base);

    let mut digest = Digest::new();
    for parallelism in PARALLELISM_LEVELS {
        let db = Database::from_instance(base.clone())
            .with_tgds(vec![sac::gen::collector_tgd()])
            .with_parallelism(parallelism);
        let witness = db.run_datalog(&program).unwrap();
        assert!(
            witness.stats.rule_runs_yannakakis_witness > 0,
            "constraint planning must reach the witness rung"
        );
        let unconstrained = Database::from_instance(base.clone()).with_parallelism(parallelism);
        let fallback = unconstrained.run_datalog(&program).unwrap();
        assert_eq!(fallback.stats.rule_runs_yannakakis_witness, 0);
        assert_eq!(unconstrained.metrics().morsels_dispatched, 0);
        assert_eq!(db.metrics().morsels_dispatched, 0);
        assert_eq!(witness.derived, fallback.derived);

        let derived: BTreeSet<Atom> = witness.derived.iter().cloned().collect();
        assert_eq!(derived, reference);
        let cert = witness.certificate.as_ref().unwrap();
        sac::datalog::check::check_certificate(&program, &base, cert).unwrap();
        for answer in &witness.derived {
            sac::datalog::check::verify_answer(&program, &base, cert, answer).unwrap();
        }
        digest.absorb(&format!("witness p{parallelism} "));
        digest.absorb(&cert.to_string());
    }
    println!("datalog digest: witness {:016x}", digest.0);
}

#[test]
fn tgd_only_programs_agree_with_the_chase() {
    // A positive Datalog program whose rules are full tgds computes exactly
    // the tgd-chase fixpoint: the two subsystems are independent
    // implementations of the same closure, so their models must coincide.
    let mut digest = Digest::new();
    for (name, program, base) in workloads() {
        if !program.is_positive() {
            continue;
        }
        let tgds = program
            .to_tgds()
            .expect("positive programs convert to full tgds");
        let chase = tgd_chase(&base, &tgds, ChaseBudget::small());
        assert!(chase.terminated, "{name}: chase must reach a fixpoint");

        let db = Database::from_instance(base.clone());
        let run = db.run_datalog(&program).unwrap();
        let datalog_model: BTreeSet<Atom> =
            base.atoms().chain(run.derived.iter().cloned()).collect();
        let chase_model: BTreeSet<Atom> = chase.instance.atoms().collect();
        assert_eq!(datalog_model, chase_model, "{name}: chase disagreement");

        digest.absorb(&name);
        digest.absorb(&format!("{} atoms", chase_model.len()));
    }
    println!("datalog digest: chase {:016x}", digest.0);
}

#[test]
fn prepared_datalog_programs_follow_appends_with_fresh_certificates() {
    // A prepared program re-runs against the grown database; the naive
    // reference and the checker keep agreeing at every step.
    let program = sac::gen::reachability_program();
    let db = Database::from_facts("E(a, b).").unwrap();
    let prepared = db.prepare_datalog(&program).unwrap();
    let mut digest = Digest::new();
    for batch in ["E(b, c).", "E(c, d).", "E(d, a)."] {
        db.load_facts(batch).unwrap();
        let run = prepared.run().unwrap();
        let base = db.read(|inst| inst.clone());
        let reference = naive_reference(&program, &base);
        let derived: BTreeSet<Atom> = run.derived.iter().cloned().collect();
        assert_eq!(derived, reference);
        let cert = run.certificate.as_ref().unwrap();
        sac::datalog::check::check_certificate(&program, &base, cert).unwrap();
        digest.absorb(&cert.to_string());
    }
    println!("datalog digest: prepared {:016x}", digest.0);
}
