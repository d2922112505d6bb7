//! # sac-engine
//!
//! An indexed, plan-based query execution subsystem: the part of the
//! workspace that turns the paper's tractability theorems into a serving
//! layer for heavy multi-query traffic.
//!
//! Everything else in the workspace answers one question about one query;
//! this crate is a **service**: a [`Database`] owns an instance, compiles
//! each incoming [`ConjunctiveQuery`](sac_query::ConjunctiveQuery) (or query
//! text) into a physical [`Plan`], caches the plan by query fingerprint, and
//! executes it over lazily built, epoch-invalidated hash indexes.  The
//! session is `Send + Sync` and serves every request through `&self`, so
//! many threads can query one shared database concurrently; failures from
//! every layer fold into the single [`SacError`] type, and answers come back
//! as typed [`ResultSet`]s with named columns.
//!
//! ## The strategy lattice
//!
//! The planner walks down a lattice of guarantees, taking the strongest rung
//! that applies (see [`Strategy`]):
//!
//! | rung | applies when | guarantee | paper |
//! |---|---|---|---|
//! | [`Strategy::YannakakisDirect`] | the query admits a join tree | `O(\|q\|·\|D\|)` + output | acyclic CQ evaluation, Section 2 |
//! | [`Strategy::YannakakisWitness`] | a verified acyclic `q'` with `q ≡Σ q'` exists (core without constraints; witness search under tgds) | fixed-parameter tractable: witness search depends on `\|q\|+\|Σ\|` only, then linear-time evaluation | Propositions 8/15 (witness), Proposition 24 (evaluation) |
//! | [`Strategy::IndexedSearch`] | always | NP-hard in combined complexity (as it must be), but stats-ordered and index-accelerated | the baseline the paper improves on |
//!
//! The witness rung under tgds assumes the database satisfies the
//! constraints — exactly the promise of the paper's `SemAcEval` problem.
//! Without constraints, every rung is unconditionally equivalent to naive
//! evaluation.
//!
//! The point of the session structure is amortization: deciding semantic
//! acyclicity is expensive in the query, but its cost is paid **once per
//! distinct query shape**, after which every run is a linear-time indexed
//! Yannakakis pass.  [`PreparedQuery`] handles pin that amortized plan for
//! repeated execution from any thread, and [`EngineMetrics`] makes the
//! amortization observable (plan-cache hit rate, per-strategy counts,
//! indexes built).
//!
//! ```
//! use sac_engine::{Database, Strategy};
//!
//! // A database closed under Example 1's collector tgd, and the paper's
//! // cyclic triangle query, prepared once and served from two threads.
//! let db = Database::from_instance(sac_gen::music_database(50, 100, 5))
//!     .with_tgds(vec![sac_gen::collector_tgd()]);
//! let q = db.prepare(sac_gen::example1_triangle()).unwrap();
//!
//! // The planner reformulated the cyclic triangle into an acyclic witness…
//! assert_eq!(q.strategy(), Strategy::YannakakisWitness);
//! // …and every thread executes the same cached plan through `&self`.
//! let expected = q.execute();
//! std::thread::scope(|scope| {
//!     for _ in 0..2 {
//!         scope.spawn(|| assert_eq!(q.execute(), expected));
//!     }
//! });
//! // The witness search ran exactly once, at prepare time.
//! assert_eq!(db.metrics().plans_built, 1);
//! ```
//!
//! ## What is parallel, and what is not
//!
//! One thing is: the queries of a batch.  [`Database::with_parallelism`]
//! above 1 lets [`Database::run_batch`] fan its queries out over scoped
//! helper threads — `min(parallelism, n) - 1` of them, spawned for the
//! call and joined before it returns, with the calling thread working
//! alongside:
//!
//! ```text
//!   Database::run_batch(&[q1 … qn])
//!             │  plans resolved serially
//!   ┌─────────┼─────────┐      every thread claims the next unclaimed
//!  run(q1)  run(q2) … run(qn)  query from one shared cursor; each run is
//!             │                the one serial executor path
//!   results in input order
//! ```
//!
//! Everything else runs the same serial path at every width and spawns
//! nothing, each by measurement (ARCHITECTURE.md, "Fan-out", and
//! EXPERIMENTS.md).  A single [`Database::run`], [`PreparedQuery::execute`]
//! or view refresh is not split: row-range / chunk splitting lost to the
//! serial path over three designs (0.41–0.95×, 0.57–1.00×, 0.41–0.93× —
//! per-range hash-set partials re-hashed into one set).  The rules of a
//! Datalog stratum are not fanned out: it won on none of the three shipped
//! program families (median 0.90–0.96× at width 2).  The per-query grain,
//! on the same 2-core host, is about 1.7×.  Every fanned-out query is an
//! ordinary run and results are reassembled in input order, so a parallel
//! batch is **byte-identical** to the serial one regardless of thread
//! interleaving — the differential suites assert exactly this — and
//! [`EngineMetrics::morsels_dispatched`] (one per fanned-out query) makes
//! the fan-out observable even on single-core hosts, where wall-clock
//! speedup cannot show.
//!
//! ## Materialized views
//!
//! [`Database::materialize`] turns a query into a standing one: its answer
//! set is stored and then **maintained** under fact appends instead of
//! recomputed.  Maintenance is incremental on every rung — the
//! storage layer's per-relation delta logs
//! ([`sac_storage::DeltaCursor`]) name exactly the appended rows, and the
//! engine pushes them through the view's cached join tree (delta match
//! sets at the dirty nodes, index-driven restriction along the tree edges,
//! then the ordinary semijoin sweeps and join-back-up over delta-sized
//! tables), so a refresh costs O(Δ·fan-out), not O(database).  A
//! witness-rung view pushes deltas through its pinned witness's join tree;
//! an indexed-rung view has none and searches from the delta rows of each
//! grown atom instead.  See [`view`] for the
//! maintenance model, [`MaterializedView`] for the handle API
//! (`snapshot` / `refresh` / `is_fresh`) and the `view_*` counters of
//! [`EngineMetrics`] for observability.
//!
//! ## Observability
//!
//! The engine is instrumented end to end through the std-only
//! [`sac_telemetry`] crate, re-exported here as [`telemetry`]:
//!
//! - [`Database::run_traced`] / [`PreparedQuery::run_traced`] /
//!   [`MaterializedView::refresh_traced`] return a [`QueryTrace`] alongside
//!   the answers — rung chosen, plan- and index-cache outcomes, per-phase
//!   wall times that sum to the recorded total by construction, and
//!   per-node rows in/out.
//! - [`EngineMetrics`] carries lock-free log-bucketed latency histograms
//!   ([`HistogramSnapshot`]: p50/p90/p99) for runs, plan compilations and
//!   view refreshes, recorded on **every** operation at the cost of a few
//!   relaxed atomic adds.
//! - An optional process-wide [`EventSink`] ([`telemetry::bus`]) receives
//!   structured [`Event`]s (plans built, runs completed, indexes built,
//!   parallel regions, view registrations and refreshes).  With
//!   no sink installed the emit sites are a single relaxed atomic load and
//!   the event is never constructed.

pub mod database;
pub mod datalog;
pub mod durability;
mod error;
mod exec;
pub mod index;
pub mod plan;
mod pool;
mod result;
pub mod view;

/// The engine's observability layer (the `sac-telemetry` crate): traces,
/// histograms, and the process-wide event bus.
pub use sac_telemetry as telemetry;

pub use database::{Database, EngineConfig, EngineMetrics, PreparedQuery, QuerySource};
pub use datalog::{DatalogOptions, DatalogRun, DatalogSource, DatalogStats, PreparedDatalog};
pub use durability::{CheckpointReport, DurabilityOptions, RecoveryReport, SyncMode};
pub use error::{SacError, SacResult};
pub use index::IndexCache;
pub use plan::{Explain, Plan, Strategy};
pub use result::{ResultSet, Row};
pub use sac_datalog::{Certificate, CheckError, DatalogProgram, DerivationStep, Premise};
pub use sac_storage::JoinIndex;
pub use sac_telemetry::{
    fmt_ns, Event, EventSink, HistogramSnapshot, JsonLinesSink, NodeRows, Phase, PhaseTimes,
    QueryTrace, RingSink,
};
pub use view::{MaterializedView, RefreshMode, ViewOptions, ViewRefresh};
