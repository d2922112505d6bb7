//! # sac — Semantic Acyclicity Under Constraints
//!
//! A Rust implementation of *Semantic Acyclicity Under Constraints*
//! (Barceló, Gottlob, Pieris — PODS 2016): decide whether a conjunctive
//! query is equivalent to an **acyclic** one over all databases satisfying a
//! set of tgds or egds, and exploit the acyclic reformulation for
//! guaranteed-tractable query evaluation.
//!
//! ## Quickstart: serving queries
//!
//! The service surface is [`Database`]: `Send + Sync`, every request through
//! `&self`, text or typed queries, unified [`SacError`] failures, and typed
//! [`ResultSet`] answers.
//!
//! ```
//! use sac::prelude::*;
//!
//! # fn main() -> Result<(), SacError> {
//! let db = Database::from_facts("Parent(ann, bob). Parent(bob, cem).")?;
//!
//! // One call from text to typed results…
//! let rows = db.query("q(X, Z) :- Parent(X, Y), Parent(Y, Z).")?;
//! assert_eq!(rows.columns(), &["X".to_owned(), "Z".to_owned()]);
//! assert_eq!(rows.rows()[0]["Z"], Term::constant("cem"));
//!
//! // …or prepare once and execute from many threads against `&db`.
//! let grandparents = db.prepare("q(X) :- Parent(X, Y), Parent(Y, Z).")?;
//! std::thread::scope(|scope| {
//!     for _ in 0..2 {
//!         scope.spawn(|| assert!(grandparents.execute_boolean()));
//!     }
//! });
//! assert_eq!(db.metrics().plans_built, 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: standing queries (materialized views)
//!
//! The payoff of a guaranteed-tractable acyclic plan at serving scale:
//! [`Database::materialize`] registers a standing query whose answers are
//! kept current as facts are appended — incrementally, in work
//! proportional to the appended delta, not the database.
//!
//! ```
//! use sac::prelude::*;
//!
//! # fn main() -> Result<(), SacError> {
//! let db = Database::from_facts("Follows(ann, bob). Follows(bob, cem).")?;
//! let reach = db.materialize("q(X, Z) :- Follows(X, Y), Follows(Y, Z).")?;
//! assert_eq!(reach.len(), 1);
//!
//! // Appends maintain the view (delta push through the join tree)…
//! db.load_facts("Follows(cem, dee).")?;
//! assert!(reach.is_fresh());
//! assert_eq!(reach.snapshot().len(), 2);
//! // …and the metrics show it was maintenance, not recomputation.
//! assert_eq!(db.metrics().view_refreshes_incremental, 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: recursive queries with replayable provenance
//!
//! [`Database::run_datalog`] evaluates stratified Datalog programs
//! semi-naively on the same plan/index machinery, and returns a
//! [`Certificate`] — a derivation log that an engine-independent checker
//! ([`datalog::check`]) replays against the base facts alone:
//!
//! ```
//! use sac::prelude::*;
//!
//! # fn main() -> Result<(), SacError> {
//! let db = Database::from_facts("E(a, b). E(b, c). E(c, d).")?;
//! let run = db.run_datalog(
//!     "T(X, Y) :- E(X, Y).
//!      T(X, Z) :- E(X, Y), T(Y, Z).",
//! )?;
//! assert_eq!(run.derived_for("T").len(), 6);
//!
//! // The certificate replays without the engine: base facts in, every
//! // derivation re-checked rule by rule, fail-closed on any mismatch.
//! let program: DatalogProgram = "T(X, Y) :- E(X, Y).
//!      T(X, Z) :- E(X, Y), T(Y, Z)."
//!     .parse()
//!     .unwrap();
//! let cert = run.certificate.as_ref().unwrap();
//! db.read(|base| sac::datalog::check::check_certificate(&program, base, cert))
//!     .unwrap();
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: the paper's decision problem
//!
//! Example 1 of the paper — the cyclic "compulsive collector" triangle is
//! semantically acyclic under a tgd:
//!
//! ```
//! use sac::prelude::*;
//!
//! let q: ConjunctiveQuery = "q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y)."
//!     .parse()
//!     .unwrap();
//! let tgd: Tgd = "Interest(X, Z), Class(Y, Z) -> Owns(X, Y).".parse().unwrap();
//!
//! // q is not acyclic, and not even semantically acyclic without constraints…
//! assert!(!is_acyclic_query(&q));
//! assert!(is_semantically_acyclic_no_constraints(&q).is_none());
//!
//! // …but under the tgd it is, and the decider returns a verified witness.
//! let result = semantic_acyclicity_under_tgds(&q, &[tgd], SemAcConfig::default());
//! let witness = result.witness().expect("Example 1 is semantically acyclic");
//! assert!(is_acyclic_query(witness));
//! assert!(witness.size() <= 2);
//! ```
//!
//! This facade crate re-exports the whole workspace under stable module
//! names; `sac::prelude` carries the items most programs need.

pub use sac_acyclic as acyclic;
pub use sac_chase as chase;
pub use sac_common as common;
pub use sac_core as core;
pub use sac_core::rewrite;
pub use sac_datalog as datalog;
pub use sac_deps as deps;
pub use sac_engine as engine;
pub use sac_engine::telemetry;
pub use sac_gen as gen;
pub use sac_query as query;
pub use sac_storage as storage;
pub use sac_wal as wal;

mod parse;
pub mod parser;

// The service façade, promoted to the crate root: `sac::Database` is the
// front door for evaluation workloads.
pub use sac_engine::{
    Certificate, CheckError, Database, DatalogOptions, DatalogProgram, DatalogRun, DatalogSource,
    DatalogStats, DerivationStep, Premise, PreparedDatalog,
};
pub use sac_engine::{
    CheckpointReport, DurabilityOptions, EngineConfig, EngineMetrics, MaterializedView,
    PreparedQuery, QuerySource, RecoveryReport, RefreshMode, ResultSet, Row, SacError, SacResult,
    SyncMode, ViewOptions, ViewRefresh,
};

/// The most commonly used items, importable with `use sac::prelude::*`.
pub mod prelude {
    pub use sac_acyclic::{
        cover_equivalent, is_acyclic_instance, is_acyclic_query, join_tree_of_atoms,
        CoverGameInput, JoinTree,
    };
    pub use sac_chase::{
        chase_preserves_acyclicity, egd_chase, egd_chase_query, tgd_chase, tgd_chase_query,
        ChaseBudget,
    };
    pub use sac_common::{atom, intern, Atom, Schema, Substitution, Term};
    pub use sac_core::{
        acyclic_approximations, build_pcp_reduction, contained_under_egds, contained_under_tgds,
        cover_game_evaluate, equivalent_under_egds, equivalent_under_tgds,
        is_semantically_acyclic_no_constraints, semantic_acyclicity_under_egds,
        semantic_acyclicity_under_tgds, solution_path_query, ucq_semantic_acyclicity_under_tgds,
        ContainmentAnswer, PcpInstance, SemAcConfig, SemAcResult,
    };
    pub use sac_deps::{
        classify_tgds, connecting_operator, is_sticky, sticky_marking, Egd, FunctionalDependency,
        Tgd, TgdClassification,
    };
    // The engine's `Strategy` is re-exported as `PlanStrategy`: the bare name
    // collides with `proptest::Strategy` under double glob imports.
    pub use crate::parser::{
        parse_database, parse_datalog_program, parse_egd, parse_program, parse_query, parse_tgd,
    };
    pub use sac_core::rewrite::{contained_via_rewriting, rewrite, RewriteBudget};
    pub use sac_engine::telemetry::{fmt_ns, HistogramSnapshot, Phase, PhaseTimes, QueryTrace};
    pub use sac_engine::Strategy as PlanStrategy;
    pub use sac_engine::{
        Certificate, CheckError, CheckpointReport, Database, DatalogOptions, DatalogProgram,
        DatalogRun, DatalogSource, DatalogStats, DerivationStep, DurabilityOptions, EngineConfig,
        EngineMetrics, Explain, IndexCache, JoinIndex, MaterializedView, Plan, Premise,
        PreparedDatalog, PreparedQuery, QuerySource, RecoveryReport, RefreshMode, ResultSet, Row,
        SacError, SacResult, SyncMode, ViewOptions, ViewRefresh,
    };
    pub use sac_query::{
        contained_in, core_of, equivalent, evaluate, evaluate_boolean, ConjunctiveQuery,
        FrozenQuery, UnionOfConjunctiveQueries,
    };
    pub use sac_storage::{DeltaCursor, Instance, InstanceStats, RelationDelta, RelationStats};
}
