//! Semi-naive evaluation of stratified Datalog programs on the engine's
//! execution machinery.
//!
//! The language, certificates and the fail-closed checker live in
//! [`sac_datalog`]; this module is the *performance* side: it compiles each
//! rule's positive body into an ordinary conjunctive-query [`Plan`] (so
//! every rule ride the same strategy lattice as one-shot queries —
//! Yannakakis on acyclic bodies, a verified acyclic Σ-witness on
//! semantically acyclic ones, indexed search otherwise) and drives the
//! classic stratum-by-stratum semi-naive fixpoint over the storage layer's
//! append-only delta logs:
//!
//! - **Iteration 1** of a stratum evaluates every rule body in full with
//!   `exec::execute_with`.
//! - **Iteration k+1** evaluates only against the rows appended by
//!   iteration k, through the *view maintenance* delta executor
//!   (`exec::execute_delta`): delta match sets at the dirty join tree
//!   nodes, index-driven restriction outward, then the ordinary sweeps —
//!   or, on the search rung, the search seeded at each occurrence of a
//!   grown relation.
//! - Consequences are collected per iteration and applied **after** the
//!   iteration (Jacobi style), in rule order then tuple order, so the
//!   derivation log — and therefore the [`Certificate`] — is byte-identical
//!   across strategies and parallelism levels.
//!
//! Rule bodies are planned with the *full* variable set as their head (one
//! answer row per body substitution), which is what lets each answer carry
//! provenance: the row *is* the substitution, and every premise resolves to
//! a stable base row id or an earlier derivation step.
//!
//! The evaluation is serial at every [`Database::with_parallelism`] width:
//! a stratum's rules are evaluated one after another, in rule order.
//! Fanning them out (one task per rule per iteration) was measured on all
//! three shipped program families and won on none — in linear recursion
//! only one rule has a delta after the first iteration — see
//! EXPERIMENTS.md, "rule grain".

use crate::database::{Database, EngineConfig};
use crate::error::{SacError, SacResult};
use crate::exec;
use crate::index::IndexCache;
use crate::plan::{plan_query, Plan, Strategy};
use sac_common::{Atom, Error, FxHashMap, Result, Symbol, Term};
use sac_datalog::{Certificate, DatalogProgram, DerivationStep, Premise, Rule};
use sac_deps::Tgd;
use sac_query::ConjunctiveQuery;
use sac_storage::{DeltaCursor, Instance};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-run knobs for [`Database::run_datalog_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatalogOptions {
    /// Record a replayable [`Certificate`] alongside the answers (the
    /// default).  Disable to skip provenance bookkeeping on runs where only
    /// the fixpoint matters.
    pub certificate: bool,
}

impl Default for DatalogOptions {
    fn default() -> DatalogOptions {
        DatalogOptions { certificate: true }
    }
}

/// What one Datalog evaluation did, beyond its answers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatalogStats {
    /// Rules in the evaluated program.
    pub rules: usize,
    /// Strata the program stratified into.
    pub strata: usize,
    /// Fixpoint iterations across all strata (each stratum contributes at
    /// least its full first pass plus one empty confirming pass when it
    /// derived anything).
    pub iterations: usize,
    /// New facts derived on top of the base instance.
    pub facts_derived: usize,
    /// Rule evaluations executed on [`Strategy::YannakakisDirect`] plans.
    pub rule_runs_yannakakis_direct: usize,
    /// Rule evaluations executed on [`Strategy::YannakakisWitness`] plans.
    pub rule_runs_yannakakis_witness: usize,
    /// Rule evaluations executed on [`Strategy::IndexedSearch`] plans.
    pub rule_runs_indexed_search: usize,
}

/// The result of one Datalog fixpoint evaluation.
#[derive(Debug, Clone)]
pub struct DatalogRun {
    /// The saturated instance: the base facts plus every derived fact.
    pub fixpoint: Instance,
    /// The derived facts only, in derivation order.
    pub derived: Vec<Atom>,
    /// The derivation log, when [`DatalogOptions::certificate`] was set:
    /// replayable by the engine-independent [`sac_datalog::check`] module.
    pub certificate: Option<Certificate>,
    /// Evaluation statistics.
    pub stats: DatalogStats,
}

impl DatalogRun {
    /// The derived facts of one predicate, in derivation order.
    pub fn derived_for(&self, predicate: &str) -> Vec<Atom> {
        let symbol = sac_common::intern(predicate);
        self.derived
            .iter()
            .filter(|fact| fact.predicate == symbol)
            .cloned()
            .collect()
    }
}

/// Anything [`Database::run_datalog`] accepts as a program: a parsed
/// [`DatalogProgram`] (owned or borrowed) or program text in the
/// workspace's rule syntax (`T(X, Z) :- E(X, Y), T(Y, Z).`).
pub trait DatalogSource {
    /// Converts the source into a validated, stratified program.
    fn into_program(self) -> SacResult<DatalogProgram>;
}

impl DatalogSource for DatalogProgram {
    fn into_program(self) -> SacResult<DatalogProgram> {
        Ok(self)
    }
}

impl DatalogSource for &DatalogProgram {
    fn into_program(self) -> SacResult<DatalogProgram> {
        Ok(self.clone())
    }
}

impl DatalogSource for &str {
    fn into_program(self) -> SacResult<DatalogProgram> {
        self.parse::<DatalogProgram>().map_err(SacError::from)
    }
}

impl DatalogSource for &String {
    fn into_program(self) -> SacResult<DatalogProgram> {
        self.as_str().into_program()
    }
}

impl DatalogSource for String {
    fn into_program(self) -> SacResult<DatalogProgram> {
        self.as_str().into_program()
    }
}

/// A program parsed and stratified once, pinned to a database for repeated
/// evaluation (the Datalog analogue of [`crate::PreparedQuery`]).
#[derive(Debug, Clone)]
pub struct PreparedDatalog<'db> {
    pub(crate) db: &'db Database,
    pub(crate) program: Arc<DatalogProgram>,
    pub(crate) options: DatalogOptions,
}

impl PreparedDatalog<'_> {
    /// Evaluates the program against the database's current facts.
    pub fn run(&self) -> SacResult<DatalogRun> {
        self.db.run_datalog_program(&self.program, self.options)
    }

    /// The validated program.
    pub fn program(&self) -> &DatalogProgram {
        &self.program
    }

    /// Overrides the evaluation options (builder-style).
    pub fn with_options(mut self, options: DatalogOptions) -> Self {
        self.options = options;
        self
    }
}

/// One rule compiled for the evaluation loop: its positive body planned as
/// a conjunctive query whose head is **every** distinct body variable, so
/// each answer row is a full substitution — and every argument of the rule
/// resolved against that row once, here, not per derived fact.
struct CompiledRule<'p> {
    index: usize,
    rule: &'p Rule,
    plan: Plan,
    /// Argument slots of the head, of each positive body atom and of each
    /// negated literal, aligned with the rule's own atoms.
    head: Vec<Option<usize>>,
    body: Vec<Vec<Option<usize>>>,
    negated: Vec<Vec<Option<usize>>>,
}

/// `atom` under the substitution an answer `row` stands for: an argument
/// with a slot is that column of the row, one without is the rule's own
/// rigid term.
fn ground(atom: &Atom, slots: &[Option<usize>], row: &[Term]) -> Atom {
    let args = atom.args.iter().zip(slots);
    Atom::new(
        atom.predicate,
        args.map(|(term, slot)| slot.map_or(*term, |column| row[column]))
            .collect(),
    )
}

/// Distinct positive-body variables in first-occurrence order — the answer
/// row layout of the rule's body query.
fn body_variables(rule: &Rule) -> Vec<Symbol> {
    let mut vars = Vec::new();
    for atom in &rule.body {
        for term in &atom.args {
            if let Term::Variable(v) = term {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
    }
    vars
}

/// Evaluates `program` to fixpoint over the owned working instance `work`
/// (a snapshot of the database), semi-naively, stratum by stratum.
///
/// Rule bodies are planned under `tgds` — which opens the
/// [`Strategy::YannakakisWitness`] rung to cyclic but semantically acyclic
/// bodies — exactly when no tgd mentions a predicate the program derives:
/// the base instance satisfies the database's constraints, and facts of
/// other predicates cannot violate such tgds mid-fixpoint.
pub(crate) fn evaluate(
    program: &DatalogProgram,
    mut work: Instance,
    tgds: &[Tgd],
    config: &EngineConfig,
    options: DatalogOptions,
) -> Result<DatalogRun> {
    // Everything at or below this cursor is a base fact: certificate
    // premises below it use stable row ids, above it derivation steps.
    let base_cursor = work.delta_cursor();
    let derived_by_program = |atom: &Atom| program.idb_predicates().contains(&atom.predicate);
    let mut constrained = tgds.iter().flat_map(|tgd| tgd.body.iter().chain(&tgd.head));
    let planning_tgds: &[Tgd] = if constrained.any(derived_by_program) {
        &[]
    } else {
        tgds
    };

    let compiled = program
        .rules()
        .iter()
        .enumerate()
        .map(|(index, rule)| {
            let vars = body_variables(rule);
            // Safe rules only use positive body variables, so every
            // variable argument has a column.
            let column: FxHashMap<Symbol, usize> =
                vars.iter().enumerate().map(|(i, v)| (*v, i)).collect();
            let query = ConjunctiveQuery::new(vars, rule.body.clone())?;
            let plan = plan_query(&query, planning_tgds, &work, config);
            let slots = |atom: &Atom| -> Vec<Option<usize>> {
                let slot = |term: &Term| term.as_variable().map(|v| column[&v]);
                atom.args.iter().map(slot).collect()
            };
            Ok(CompiledRule {
                index,
                rule,
                head: slots(&rule.head),
                body: rule.body.iter().map(slots).collect(),
                negated: rule.negated.iter().map(slots).collect(),
                plan,
            })
        })
        .collect::<Result<Vec<CompiledRule<'_>>>>()?;

    let mut stats = DatalogStats {
        rules: program.rule_count(),
        strata: program.strata().len(),
        ..DatalogStats::default()
    };
    // A private index cache over the working instance, extended in place
    // after every apply phase — the database's own cache never sees the
    // intermediate fixpoint states.
    let mut cache = IndexCache::new(&work);
    let mut derived: Vec<Atom> = Vec::new();
    let mut derived_step: FxHashMap<Atom, usize> = FxHashMap::default();
    let mut certificate = options.certificate.then(Certificate::default);

    for stratum in program.strata() {
        let rules: Vec<&CompiledRule<'_>> = stratum.iter().map(|&i| &compiled[i]).collect();
        let mut delta_from = work.delta_cursor();
        let mut full_pass = true;
        loop {
            stats.iterations += 1;
            let watermarks: HashMap<Symbol, usize> = if full_pass {
                HashMap::new()
            } else {
                work.delta_since(&delta_from)
                    .iter()
                    .map(|delta| (delta.predicate, delta.from_row))
                    .collect()
            };

            // Evaluate phase: every rule against the same state of `work`
            // (nothing is inserted until the apply phase below).
            let mut outputs = Vec::with_capacity(rules.len());
            for cr in &rules {
                let ctx = exec::ExecContext::snapshot(&cr.plan, !full_pass, &work, &mut cache);
                let rows = if full_pass {
                    exec::execute_with(&cr.plan, &work, &ctx, false)
                } else {
                    exec::execute_delta(&cr.plan, &work, &watermarks, &ctx)
                };
                match cr.plan.strategy() {
                    Strategy::YannakakisDirect => stats.rule_runs_yannakakis_direct += 1,
                    Strategy::YannakakisWitness => stats.rule_runs_yannakakis_witness += 1,
                    Strategy::IndexedSearch => stats.rule_runs_indexed_search += 1,
                }
                outputs.push(rows);
            }

            // Apply phase: rule order, then the term order of the body
            // query's answers — the derivation log never depends on how
            // the rows were computed, nor on the order of their codes.
            let before_apply = work.delta_cursor();
            let mut changed = false;
            for (cr, answers) in rules.iter().zip(&outputs) {
                let mut rows = answers.decode();
                rows.sort_unstable();
                for row in &rows {
                    let negated: Vec<Atom> = cr
                        .rule
                        .negated
                        .iter()
                        .zip(&cr.negated)
                        .map(|(literal, slots)| ground(literal, slots, row))
                        .collect();
                    // Negated predicates sit in strictly lower strata, so
                    // their extent is already final here.
                    if negated.iter().any(|literal| work.contains(literal)) {
                        continue;
                    }
                    let fact = ground(&cr.rule.head, &cr.head, row);
                    if !work.insert(fact.clone())? {
                        continue;
                    }
                    changed = true;
                    stats.facts_derived += 1;
                    if let Some(cert) = &mut certificate {
                        let premises = cr
                            .rule
                            .body
                            .iter()
                            .zip(&cr.body)
                            .map(|(atom, slots)| {
                                let premise = ground(atom, slots, row);
                                resolve_premise(&work, &base_cursor, &derived_step, &premise)
                            })
                            .collect::<Result<Vec<Premise>>>()?;
                        derived_step.insert(fact.clone(), cert.steps.len());
                        cert.steps.push(DerivationStep {
                            rule: cr.index,
                            fact: fact.clone(),
                            premises,
                            negated,
                        });
                    }
                    derived.push(fact);
                }
            }
            cache.note_growth(&work);
            delta_from = before_apply;
            if !changed {
                break;
            }
            full_pass = false;
        }
    }

    Ok(DatalogRun {
        fixpoint: work,
        derived,
        certificate,
        stats,
    })
}

/// Resolves a ground premise fact to its certificate reference: a stable
/// base row id when the fact predates the fixpoint, otherwise the step that
/// derived it.
fn resolve_premise(
    work: &Instance,
    base_cursor: &DeltaCursor,
    derived_step: &FxHashMap<Atom, usize>,
    fact: &Atom,
) -> Result<Premise> {
    if let Some(relation) = work.relation(fact.predicate) {
        if let Some(row) = relation.find_row(&fact.args) {
            if row < base_cursor.rows_covered(fact.predicate) {
                return Ok(Premise::Base {
                    predicate: fact.predicate,
                    row,
                });
            }
        }
    }
    derived_step
        .get(fact)
        .copied()
        .map(Premise::Derived)
        .ok_or_else(|| {
            Error::Malformed(format!(
                "internal: premise {fact} is neither a base fact nor a recorded derivation"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_datalog::{check, naive};
    use std::collections::BTreeSet as Set;

    fn atoms(instance: &Instance) -> Set<Atom> {
        instance.atoms().collect()
    }

    #[test]
    fn semi_naive_matches_the_naive_reference() {
        let db = Database::from_facts("E(a, b). E(b, c). E(c, d). E(d, b).").unwrap();
        let program: DatalogProgram = "T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z)."
            .parse()
            .unwrap();
        let run = db.run_datalog(&program).unwrap();
        let (reference, _) = naive::naive_fixpoint(&program, &db.snapshot()).unwrap();
        assert_eq!(atoms(&run.fixpoint), atoms(&reference));
        assert!(run.stats.iterations >= 3, "recursion needs delta passes");

        let certificate = run.certificate.expect("certificates are on by default");
        assert_eq!(certificate.len(), run.derived.len());
        db.read(|base| check::check_certificate(&program, base, &certificate))
            .unwrap();
    }

    #[test]
    fn stratified_negation_agrees_with_the_reference() {
        let db = Database::from_facts("E(a, b). E(b, c). N(a). N(b). N(c).").unwrap();
        let program: DatalogProgram = "T(X, Y) :- E(X, Y).\n\
                                       T(X, Z) :- E(X, Y), T(Y, Z).\n\
                                       Un(X, Y) :- N(X), N(Y), not T(X, Y)."
            .parse()
            .unwrap();
        let run = db.run_datalog(&program).unwrap();
        let (reference, _) = naive::naive_fixpoint(&program, &db.snapshot()).unwrap();
        assert_eq!(atoms(&run.fixpoint), atoms(&reference));
        assert_eq!(run.stats.strata, 2);
        let certificate = run.certificate.unwrap();
        db.read(|base| check::check_certificate(&program, base, &certificate))
            .unwrap();
    }

    #[test]
    fn parallel_runs_are_byte_identical_to_serial() {
        // The evaluation is serial at every width, so width 4 must change
        // nothing — certificate, derivation order, stats — and dispatch
        // nothing, on a multi-rule recursive stratum (reachability), a
        // non-linear one (same generation) and stratified negation.
        let mut edges = String::new();
        for i in 0..40 {
            edges.push_str(&format!("E(n{}, n{}). ", i, (i * 7 + 3) % 40));
        }
        let fixtures: [(DatalogProgram, Instance); 3] = [
            (sac_gen::reachability_program(), edges.parse().unwrap()),
            (
                sac_gen::same_generation_program(),
                sac_gen::parent_tree_database(4, 2),
            ),
            (
                "T(X, Y) :- E(X, Y).\n\
                 T(X, Z) :- E(X, Y), T(Y, Z).\n\
                 Un(X, Y) :- N(X), N(Y), not T(X, Y)."
                    .parse()
                    .unwrap(),
                "E(a, b). E(b, c). N(a). N(b). N(c).".parse().unwrap(),
            ),
        ];
        for (program, base) in fixtures {
            let serial = Database::from_instance(base.clone())
                .run_datalog(&program)
                .unwrap();
            assert!(serial.stats.iterations > 1);
            let db = Database::from_instance(base).with_parallelism(4);
            let run = db.run_datalog(&program).unwrap();
            assert_eq!(run.certificate, serial.certificate);
            assert_eq!(run.derived, serial.derived);
            assert_eq!(run.stats, serial.stats);
            assert_eq!(db.metrics().morsels_dispatched, 0);
        }
    }

    #[test]
    fn options_disable_certificates_and_metrics_count_runs() {
        let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
        let run = db
            .run_datalog_with(
                "T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z).",
                DatalogOptions { certificate: false },
            )
            .unwrap();
        assert!(run.certificate.is_none());
        assert_eq!(run.derived_for("T").len(), 3);
        let metrics = db.metrics();
        assert_eq!(metrics.datalog_runs, 1);
        assert_eq!(metrics.datalog_facts_derived, 3);
        assert!(metrics.datalog_iterations >= run.stats.iterations);
        assert!(!metrics.datalog_latency.is_empty());
    }

    #[test]
    fn prepared_programs_rerun_against_new_facts() {
        let db = Database::from_facts("E(a, b).").unwrap();
        let prepared = db
            .prepare_datalog("T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z).")
            .unwrap();
        assert_eq!(prepared.run().unwrap().derived.len(), 1);
        db.insert(Atom::from_parts(
            "E",
            vec![Term::constant("b"), Term::constant("c")],
        ))
        .unwrap();
        assert_eq!(prepared.run().unwrap().derived.len(), 3);
    }

    #[test]
    fn cyclic_recursive_bodies_take_deltas_on_the_search_rung() {
        // Triangle ∧ recursive atom: the body is cyclic and its own core,
        // so the rule runs on the search rung — the delta passes through
        // the searches seeded at the grown `T` occurrence — and must agree
        // with the naive reference, certificate included, at every width.
        let program: DatalogProgram = "T(X, Y) :- E(X, Y).
                                       T(X, W) :- E(X, Y), E(Y, Z), E(Z, X), T(Z, W)."
            .parse()
            .unwrap();
        let base = sac_gen::random_graph_database(9, 40, 11);
        let (reference, _) = naive::naive_fixpoint(&program, &base).unwrap();
        let mut serial = None;
        for width in [1, 2, 4] {
            let db = Database::from_instance(base.clone()).with_parallelism(width);
            let run = db.run_datalog(&program).unwrap();
            // Both rules run in every pass of the one stratum, each counted
            // under its rung and nowhere else.
            let passes = run.stats.iterations;
            assert!(passes >= 3, "delta passes ran");
            let expected = DatalogStats {
                rules: 2,
                strata: 1,
                iterations: passes,
                facts_derived: run.derived.len(),
                rule_runs_yannakakis_direct: passes,
                rule_runs_yannakakis_witness: 0,
                rule_runs_indexed_search: passes,
            };
            assert_eq!(run.stats, expected);
            assert!(run.derived.len() > base.len(), "the recursion derives");
            assert_eq!(atoms(&run.fixpoint), atoms(&reference));
            let certificate = run.certificate.as_ref().unwrap();
            check::check_certificate(&program, &base, certificate).unwrap();
            let serial = serial.get_or_insert_with(|| run.clone());
            assert_eq!(run.certificate, serial.certificate);
            assert_eq!(run.stats, serial.stats);
        }
    }

    #[test]
    fn constraint_planning_can_take_the_witness_rung() {
        // The cyclic rule body E(X,Y), E(Y,Z), C(X,Z) is semantically
        // acyclic under the collector tgd, which mentions no predicate the
        // program derives: its rule runs on the witness rung.  Without the
        // tgd — or with one over the rule's head — the fallback.
        let base = sac_gen::music_database(30, 60, 7);
        let triangle = sac_gen::example1_triangle();
        let head = Atom::from_parts("Tri", vec![triangle.body[0].args[0]]);
        let rule = sac_datalog::Rule::positive(head.clone(), triangle.body.clone()).unwrap();
        let program = sac_datalog::DatalogProgram::new(vec![rule]).unwrap();
        let collector = sac_gen::collector_tgd();
        let over_the_head = Tgd::new(vec![head.clone()], vec![head]).unwrap();
        let run = |tgds: Vec<Tgd>| {
            let db = Database::from_instance(base.clone()).with_tgds(tgds);
            db.run_datalog(&program).unwrap()
        };
        let witness = run(vec![collector.clone()]);
        assert!(witness.stats.rule_runs_yannakakis_witness > 0);
        for fallback in [run(Vec::new()), run(vec![collector, over_the_head])] {
            assert!(fallback.stats.rule_runs_yannakakis_witness == 0);
            assert_eq!(witness.derived, fallback.derived);
            assert_eq!(witness.certificate, fallback.certificate);
        }
    }
}
