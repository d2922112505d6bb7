//! # sac-storage
//!
//! In-memory relational storage substrate used by the chase engine, the
//! homomorphism engine and the query evaluators.
//!
//! The paper works with *instances* (possibly infinite sets of atoms over
//! constants and nulls) and *databases* (finite instances).  Everything we
//! materialize is finite; [`Instance`] is the finite representation used for
//! canonical databases of queries, chase results, and synthetic databases
//! produced by the workload generators.
//!
//! Design goals, driven by the chase/evaluation workload:
//!
//! * **Cheap membership tests** — the chase must detect whether the head of a
//!   tgd is already satisfied; `contains` is a hash lookup.
//! * **Positional indexes** — the homomorphism engine asks "give me all
//!   `R`-tuples whose position `i` equals term `t`"; every relation keeps
//!   hash indexes per position.
//! * **Stable iteration order** — results are deterministic, which keeps
//!   tests and experiments reproducible.
//! * **Append-only growth with delta logs** — tuples are only ever added,
//!   each relation remembers its insertion order, and a [`DeltaCursor`]
//!   (epoch + per-relation row watermarks) turns "what changed since?" into
//!   a few tail reads ([`Instance::delta_since`]).  This is what the
//!   engine's incremental index maintenance and materialized views are
//!   built on.
//!
//! The substrate is deliberately simple (no paging, no concurrency): the
//! paper's experiments are laptop-scale and CPU-bound in the chase and in
//! homomorphism search, not I/O bound.

pub mod dict;
pub mod instance;
pub mod relation;
pub mod stats;

pub use instance::{DeltaCursor, Instance, RelationDelta};
pub use relation::{IndexKey, JoinIndex, Relation};
pub use stats::{InstanceStats, RelationStats};
