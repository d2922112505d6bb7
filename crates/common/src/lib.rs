//! # sac-common
//!
//! Foundational data model for the *Semantic Acyclicity Under Constraints*
//! toolkit (Barceló, Gottlob, Pieris — PODS 2016).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Symbol`] — interned identifiers for predicate names, constants and
//!   variable names.  Interning keeps terms `Copy` and makes hashing and
//!   equality O(1), which matters inside the chase and the homomorphism
//!   search engine.
//! * [`Term`] — the three kinds of terms of the paper's Section 2:
//!   constants (`C`), labelled nulls (`N`) and variables (`V`).
//! * [`Atom`] — a predicate applied to a tuple of terms.
//! * [`Schema`] — a relational schema mapping predicate symbols to arities.
//! * [`Substitution`] — finite mappings from terms to terms, used both as
//!   homomorphisms and as most-general unifiers.
//! * [`syntax`] — the shared Datalog-style surface syntax at the raw
//!   (pre-semantic) level, so each crate can implement `FromStr` for its own
//!   types by delegation.
//!
//! The crate is dependency free (aside from the Rust standard library) and is
//! deliberately small: higher-level notions (queries, dependencies, storage)
//! live in their own crates.

pub mod atom;
pub mod error;
pub mod fresh;
pub mod fx;
pub mod schema;
pub mod substitution;
pub mod symbol;
pub mod syntax;
pub mod term;

pub use atom::Atom;
pub use error::{SacError, SacResult};
pub use fresh::FreshSource;
pub use fx::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use schema::Schema;
pub use substitution::Substitution;
pub use symbol::{intern, resolve, Symbol};
pub use syntax::RawStatement;
pub use term::Term;
