//! # sac-query
//!
//! Conjunctive queries (CQs) and unions of conjunctive queries (UCQs),
//! together with the machinery the paper's Section 2 relies on:
//!
//! * the **Gaifman graph** of a query and connectivity notions (used by the
//!   connecting operator and by Proposition 5),
//! * **freezing** a query into its canonical database (the `c(x)` construction
//!   used throughout the paper, Lemma 1 in particular),
//! * the one **homomorphism search** ([`homomorphism`]): a pattern compiled
//!   to binding slots and run over dictionary codes, the workhorse behind
//!   containment, the core, the chase, the deciders and the engine's search
//!   rung,
//! * classical (constraint-free) **containment**, **equivalence** and **core**
//!   computation — the baseline against which semantic acyclicity under
//!   constraints is compared (a CQ is semantically acyclic in the absence of
//!   constraints iff its core is acyclic), with Lemma 1's test written once
//!   for every constraint class ([`containment::ChasedQuery`]: a query's
//!   canonical database, chased once and asked about any right-hand side),
//! * the definition-level **oracle** ([`mod@evaluate`]): plain homomorphism
//!   enumeration over decoded rows, sharing no code with the search it
//!   judges.
//!
//! Queries parse from the workspace's Datalog-style text and evaluate
//! against any [`sac_storage::Instance`]:
//!
//! ```
//! use sac_query::{contained_in, core_of, evaluate, ConjunctiveQuery};
//! use sac_storage::Instance;
//!
//! let q: ConjunctiveQuery = "q(X, Z) :- E(X, Y), E(Y, Z).".parse().unwrap();
//! let db: Instance = "E(a, b). E(b, c).".parse().unwrap();
//! assert_eq!(evaluate(&q, &db).len(), 1); // the single 2-path (a, c)
//!
//! // A redundant atom folds away in the core, and the core is equivalent:
//! let r: ConjunctiveQuery = "q(X) :- E(X, Y), E(X, Y2).".parse().unwrap();
//! let core = core_of(&r);
//! assert_eq!(core.size(), 1);
//! assert!(contained_in(&r, &core) && contained_in(&core, &r));
//! ```

pub mod containment;
pub mod cq;
pub mod evaluate;
pub mod freeze;
pub mod gaifman;
pub mod homomorphism;
pub mod minimize;
pub mod ucq;

pub use containment::{contained_in, equivalent, ChasedQuery};
pub use cq::ConjunctiveQuery;
pub use evaluate::{all_homomorphisms, evaluate, evaluate_boolean};
pub use freeze::FrozenQuery;
pub use gaifman::GaifmanGraph;
pub use homomorphism::Homomorphisms;
pub use minimize::core_of;
pub use ucq::UnionOfConjunctiveQueries;
