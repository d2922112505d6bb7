//! A small Datalog-style text syntax for queries, dependencies and databases,
//! used by the examples and the benchmark.
//!
//! Conventions (Prolog/Datalog style):
//! * identifiers starting with an **uppercase** letter or `_` are variables,
//! * identifiers starting with a lowercase letter or a digit are constants,
//! * predicates are identifiers (any case) applied to a parenthesised,
//!   comma-separated argument list.
//!
//! Grammar summary:
//! ```text
//! query  :=  name(V1, …, Vk) :- atom, …, atom .        (k may be 0: `name() :- …`)
//! tgd    :=  atom, …, atom -> atom, …, atom .
//! egd    :=  atom, …, atom -> V = W .
//! fact   :=  atom .                                     (all-constant atom)
//! ```
//!
//! The tokenizer and raw statement grammar live in [`sac_common::syntax`],
//! which also powers the `FromStr` impls on [`ConjunctiveQuery`],
//! [`Tgd`], [`Egd`] and [`Instance`] — single statements parse with plain
//! `str::parse`, while this module assembles whole programs:
//!
//! ```
//! use sac::query::ConjunctiveQuery;
//! let q: ConjunctiveQuery = "q(X) :- R(X, Y).".parse().unwrap();
//! assert_eq!(q.size(), 1);
//! ```
//!
//! [`ConjunctiveQuery`]: sac_query::ConjunctiveQuery
//! [`Tgd`]: sac_deps::Tgd
//! [`Egd`]: sac_deps::Egd
//! [`Instance`]: sac_storage::Instance
//!
//! ```
//! use sac::parser::{parse_query, parse_tgd, parse_database};
//! let q = parse_query("q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).").unwrap();
//! assert_eq!(q.size(), 3);
//! let tgd = parse_tgd("Interest(X, Z), Class(Y, Z) -> Owns(X, Y).").unwrap();
//! assert!(tgd.is_full());
//! let db = parse_database("Interest(alice, jazz). Class(kind_of_blue, jazz).").unwrap();
//! assert_eq!(db.len(), 2);
//! ```

pub use crate::parse::{
    parse_database, parse_datalog_program, parse_egd, parse_program, parse_query, parse_tgd,
    Program,
};
