//! Stratified Datalog programs with replayable provenance.
//!
//! This crate defines the *language* and *audit* layers of the recursive
//! query subsystem:
//!
//! - [`Rule`] / [`DatalogProgram`]: safe Datalog rules with stratified
//!   negation, parsed from the shared surface syntax (`sac-common::syntax`)
//!   or built programmatically.  Construction validates safety (every head
//!   and negated variable must occur in a positive body atom) and rejects
//!   programs whose negation is not stratifiable.
//! - [`Certificate`]: a topologically ordered derivation log.  Each
//!   [`DerivationStep`] names the rule that fired, the derived fact, and the
//!   premises it consumed — base facts by stable row id, earlier derived
//!   facts by step index.
//! - [`check`]: a standalone, engine-independent checker that replays a
//!   certificate against the base facts and rejects fail-closed on any
//!   mismatch.  Trusting an engine answer reduces to trusting this small
//!   module plus the base instance.
//! - [`naive`]: a deliberately simple stratified bottom-up fixpoint used as
//!   a differential-testing reference for the engine's semi-naive evaluator
//!   (which lives in `sac-engine`, where the execution machinery is).
//!
//! The split mirrors the chase/acyclicity layering elsewhere in the
//! workspace: semantics and proofs here, performance machinery in the
//! engine.
//!
//! # Example
//!
//! ```
//! use sac_datalog::{check, naive, DatalogProgram};
//! use sac_storage::Instance;
//!
//! let program: DatalogProgram = "T(X, Y) :- E(X, Y).\n\
//!                                T(X, Z) :- E(X, Y), T(Y, Z)."
//!     .parse()
//!     .unwrap();
//! let base = Instance::from_atoms(
//!     sac_common::syntax::parse_statements("E(a, b). E(b, c).")
//!         .unwrap()
//!         .into_iter()
//!         .map(|s| match s {
//!             sac_common::RawStatement::Fact(atom) => atom,
//!             _ => unreachable!(),
//!         }),
//! )
//! .unwrap();
//!
//! let (fixpoint, certificate) = naive::naive_fixpoint(&program, &base).unwrap();
//! assert_eq!(fixpoint.len(), 5); // 2 base edges + 3 reachable pairs
//! check::check_certificate(&program, &base, &certificate).unwrap();
//! ```

#![warn(missing_docs)]

pub mod certificate;
pub mod check;
pub mod naive;
pub mod program;
mod stratify;

pub use certificate::{Certificate, DerivationStep, Premise};
pub use check::CheckError;
pub use program::{DatalogProgram, Rule};
