//! # sac-core
//!
//! The paper's primary contribution, as an executable library: deciding and
//! exploiting **semantic acyclicity under constraints**.
//!
//! * [`containment`] — CQ containment and equivalence under tgds and egds via
//!   the chase (Lemma 1) and via UCQ rewriting (Section 5), with explicit
//!   three-valued answers when a chase budget is exhausted.  A query's
//!   chased canonical database is a value the deciders build once per
//!   decision and ask about every candidate.
//! * [`rewrite`] — UCQ rewriting under tgds (Section 5, XRewrite-style), the
//!   containment fallback for non-recursive and sticky sets.
//! * [`semac`] — the semantic-acyclicity deciders: the constraint-free
//!   baseline (core acyclicity), and the witness search for constraint
//!   classes with decidable semantic acyclicity (guarded / linear / inclusion
//!   dependencies, non-recursive, sticky, keys and FDs).
//! * [`approx`] — acyclic CQ approximations (Section 8.2): maximally
//!   Σ-contained acyclic queries for queries that are *not* semantically
//!   acyclic.
//! * [`eval`] — evaluation of semantically acyclic CQs (Section 7): the
//!   polynomial-time cover-game evaluation for guarded tgds and FDs
//!   (Theorem 25).  The fixed-parameter tractable rewrite-then-Yannakakis
//!   pipeline (Proposition 24) is the `sac-engine` witness rung.
//! * [`pcp`] — the Theorem 7 reduction from the Post Correspondence Problem
//!   to semantic acyclicity under full tgds, demonstrating undecidability
//!   executably on concrete PCP instances.
//! * [`ucq_semac`] — the UCQ variant of semantic acyclicity (Section 8.1).

pub mod approx;
pub mod containment;
pub mod eval;
pub mod pcp;
pub mod rewrite;
pub mod semac;
pub mod ucq_semac;
mod unify;
mod xrewrite;

pub use approx::{acyclic_approximations, ApproximationReport};
pub use containment::{
    contained_under_egds, contained_under_tgds, equivalent_under_egds, equivalent_under_tgds,
    ContainmentAnswer,
};
pub use eval::cover_game_evaluate;
pub use pcp::{build_pcp_reduction, solution_path_query, PcpInstance};
pub use semac::{
    is_semantically_acyclic_no_constraints, semantic_acyclicity_under_egds,
    semantic_acyclicity_under_tgds, SemAcConfig, SemAcResult,
};
pub use ucq_semac::{ucq_semantic_acyclicity_under_tgds, UcqSemAcResult};
