//! # sac-gen
//!
//! Workload generators: the query families, dependency sets and synthetic
//! databases that back the benchmark (sacbench), the examples and the
//! integration suites.
//!
//! * [`queries`] — parameterized CQ families (paths, cycles, stars, cliques,
//!   grids) and the paper's named queries (Example 1, Example 2, Example 4,
//!   Example 5 / Figure 4).
//! * [`deps`] — the paper's named dependency sets (the collector tgd of
//!   Example 1, Figure 1's sticky and non-sticky sets, Example 2's tgd,
//!   Example 3's sticky family, Example 4/5's keys) and random guarded /
//!   linear / non-recursive generators.
//! * [`databases`] — synthetic databases: the music-collector database of
//!   Example 1 (closed under the collector tgd), random graphs, star-schema
//!   data for evaluation sweeps, and the append-heavy
//!   [`streaming_graph_workload`] behind the view-maintenance experiment.
//! * [`datalog`] — recursive workloads: reachability, same-generation and
//!   ontology-closure programs with seeded databases, plus a random
//!   stratified program generator for the certificate property tests.
//!
//! Everything is deterministic — named fixtures are fixed, random ones are
//! seeded — so tests and experiments reproduce bit-for-bit:
//!
//! ```
//! use sac_gen::{path_query, random_graph_database, streaming_graph_workload};
//!
//! assert_eq!(path_query(2).to_string(), "q() :- E(?x0, ?x1), E(?x1, ?x2)");
//! assert_eq!(
//!     random_graph_database(10, 20, 7).len(),
//!     random_graph_database(10, 20, 7).len(),
//! );
//! // A base graph plus disjoint append batches: replaying the stream is
//! // one deterministic growth history.
//! let (base, stream) = streaming_graph_workload(20, 50, 3, 5, 1);
//! let mut grown = base.clone();
//! for atom in stream.into_iter().flatten() {
//!     assert!(grown.insert(atom).unwrap(), "every streamed atom is new");
//! }
//! assert_eq!(grown.len(), base.len() + 15);
//! ```

pub mod databases;
pub mod datalog;
pub mod deps;
pub mod queries;

pub use databases::{
    music_database, random_graph_database, star_schema_database, streaming_graph_workload,
};
pub use datalog::{
    ontology_closure_program, ontology_database, parent_tree_database, random_stratified_program,
    reachability_program, same_generation_program,
};
pub use deps::{
    collector_tgd, example2_tgd, example3_sticky_family, example5_keys, figure1_non_sticky,
    figure1_sticky, random_inclusion_dependencies,
};
pub use queries::{
    clique_query, cycle_query, example1_triangle, example2_query, example4_query, key_ring_query,
    looped_triangle_query, path_query, star_query,
};
