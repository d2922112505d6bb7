//! # sac-acyclic
//!
//! Everything about *acyclicity* of conjunctive queries and instances:
//!
//! * the **join-tree** data structure (the paper's Section 2 definition of an
//!   acyclic instance is "admits a join tree"),
//! * the **GYO reduction**, which decides acyclicity and produces a join tree
//!   when one exists,
//! * the **Lemma 9 compaction**: from a homomorphism of a CQ `q` into an
//!   acyclic instance `I`, extract an acyclic CQ `q'` of size `O(|q|)` with
//!   `q' ⊆ q` and `q'` satisfied in `I` — the small-witness engine behind all
//!   of the paper's decidability results,
//! * the **existential 1-cover game** `≡∃1c` of Chen & Dalmau, used by
//!   Theorem 25 to evaluate semantically acyclic CQs under guarded tgds in
//!   polynomial time.
//!
//! The Yannakakis algorithm itself — evaluating an acyclic CQ over its join
//! tree in time `O(|q|·|D|)` plus output — lives in exactly one place, the
//! engine's executor (`sac_engine`, reached through `Database::run`), which
//! consumes the join trees built here.
//!
//! The GYO reduction decides acyclicity and produces the join tree:
//!
//! ```
//! use sac_acyclic::{is_acyclic_query, join_tree_of_atoms};
//! use sac_query::ConjunctiveQuery;
//!
//! let path: ConjunctiveQuery = "q() :- E(X, Y), E(Y, Z).".parse().unwrap();
//! let triangle: ConjunctiveQuery =
//!     "q() :- E(X, Y), E(Y, Z), E(Z, X).".parse().unwrap();
//! assert!(is_acyclic_query(&path) && !is_acyclic_query(&triangle));
//!
//! let tree = join_tree_of_atoms(&path.body).expect("acyclic ⇒ join tree");
//! assert_eq!(tree.len(), 2);
//! assert!(join_tree_of_atoms(&triangle.body).is_none());
//! ```

pub mod cover_game;
pub mod gyo;
pub mod join_tree;
pub mod lemma9;

pub use cover_game::{cover_equivalent, CoverGameInput};
pub use gyo::{is_acyclic_atoms, is_acyclic_instance, is_acyclic_query, join_tree_of_atoms};
pub use join_tree::JoinTree;
pub use lemma9::compact_acyclic_witness;
