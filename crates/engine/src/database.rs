//! [`Database`]: the concurrent, prepared-query service façade.
//!
//! A `Database` is `Send + Sync` and serves every request through `&self`,
//! so one instance behind an `Arc` — or plain borrows into scoped threads —
//! can absorb traffic from many threads at once.  This module holds the
//! façade: construction, the CQ and Datalog endpoints, the plan cache and
//! [`PreparedQuery`].  View maintenance is an `impl Database` in
//! [`crate::view`], the durable endpoints (`open`, `checkpoint`, the WAL
//! hook) are one in [`crate::durability`], and the counters and histograms
//! behind [`Database::metrics`] live in `metrics.rs`.
//!
//! ## Locking
//!
//! Four primitives, plus one `Mutex` per materialized view:
//!
//! * the **state** guard, an `RwLock` over the instance, the constraint set
//!   Σ, the view registry and the recovered-view pins.  A witness plan is
//!   only valid over facts that satisfy the Σ it was found under, so the
//!   facts and Σ are one piece of state, read under one guard: runs share a
//!   read guard for their whole execution, planning reads the instance and
//!   Σ under one, and appends, constraint changes and view registrations
//!   take the write guard;
//! * the **plan cache** sits behind its own `RwLock`: hits are shared reads
//!   that never wait on an append, and a compiled [`Plan`] is published
//!   with a brief write;
//! * the **index cache** sits behind a `Mutex`, locked only for the short
//!   moment a run snapshots (and lazily builds) exactly the indexes its
//!   plan needs — execution itself works off the immutable [`Arc`]-backed
//!   snapshot with no lock held;
//! * the **durability** state (WAL writer, sequence numbers) sits behind a
//!   `Mutex` in [`crate::durability`]: a checkpoint runs under the state
//!   *read* guard, so it serializes against appends and other checkpoints
//!   there;
//! * **metrics** are atomics.
//!
//! Lock order (outer to inner): `state` → per-view state → `indexes` →
//! durability, and separately `state` → `plans`; the plan cache is never
//! held while acquiring another lock.  What the one guard guarantees:
//!
//! * planning publishes into the cache while still holding the state read
//!   guard, and [`Database::set_tgds`] holds the write guard across the
//!   swap and the cache clear, so it can never observe — or be overtaken
//!   by — a plan compiled under constraints it just replaced;
//! * view maintenance runs under the write guard of the append that changed
//!   the data, and a registration materializes and registers under one
//!   write guard, so freshness is atomic with visibility and no view is
//!   stale at birth (see [`crate::view`]);
//! * a Datalog run takes its snapshot and Σ from one read;
//! * appends advance the instance epoch and extend the touched predicate's
//!   cached indexes before the write guard is released (copy-on-write
//!   against in-flight snapshots), so a snapshot taken under any read guard
//!   is consistent with the data it runs against.
//!
//! **Fan-out** sits outside that order entirely: [`Database::run_batch`]
//! spawns its helpers with no engine lock held, and each fanned-out query
//! is an ordinary run that takes the state read guard itself.  Nothing
//! persists between batches — the helpers are scoped to the call
//! (`fan_out` in `pool.rs`) — and a single run, a prepared execution, a
//! view refresh and a Datalog evaluation never spawn anything.

use crate::datalog::{self, DatalogOptions, DatalogRun, DatalogSource, PreparedDatalog};
use crate::durability::{DurabilityCore, RecoveryReport};
use crate::error::{SacError, SacResult};
use crate::exec;
use crate::index::IndexCache;
use crate::metrics::{EngineMetrics, LatencyRecorders, MetricCounters};
use crate::plan::{plan_query, Explain, Plan, Strategy};
use crate::pool::fan_out;
use crate::result::ResultSet;
use crate::view::{MaterializedView, ViewCore};
use sac_common::{Atom, Symbol};
use sac_core::SemAcConfig;
use sac_deps::Tgd;
use sac_query::ConjunctiveQuery;
use sac_storage::{DeltaCursor, Instance, InstanceStats};
use sac_telemetry::{Phase, Probe, QueryTrace};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use std::time::Instant;

/// Planner knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Configuration for the semantic-acyclicity witness search.
    pub semac: SemAcConfig,
    /// Compile every query with [`Strategy::IndexedSearch`], skipping both
    /// Yannakakis rungs.  A differential-testing knob: the fallback is
    /// correct on every query, so a forced-fallback database is an
    /// independent second opinion on any planner decision.
    pub force_indexed: bool,
}

/// Everything a traced run carries from its entry point into
/// [`Database::run_plan_core`]: the already-started probe, the plan-cache
/// outcome, and the query's display form for the trace.
struct TraceStart {
    probe: Probe,
    plan_cache_hit: bool,
    query: String,
}

/// Plans are keyed by the query's semantic identity (head + body), ignoring
/// its display name.
type PlanKey = (Vec<Symbol>, Vec<Atom>);

/// Anything [`Database::query`] and [`Database::prepare`] accept as a query:
/// an owned or borrowed [`ConjunctiveQuery`], or query text in the
/// workspace's Datalog-style syntax.
pub trait QuerySource {
    /// Converts the source into a validated query.
    fn into_query(self) -> SacResult<ConjunctiveQuery>;
}

impl QuerySource for ConjunctiveQuery {
    fn into_query(self) -> SacResult<ConjunctiveQuery> {
        Ok(self)
    }
}

impl QuerySource for &ConjunctiveQuery {
    fn into_query(self) -> SacResult<ConjunctiveQuery> {
        Ok(self.clone())
    }
}

impl QuerySource for &str {
    fn into_query(self) -> SacResult<ConjunctiveQuery> {
        self.parse::<ConjunctiveQuery>().map_err(SacError::from)
    }
}

impl QuerySource for &String {
    fn into_query(self) -> SacResult<ConjunctiveQuery> {
        self.as_str().into_query()
    }
}

impl QuerySource for String {
    fn into_query(self) -> SacResult<ConjunctiveQuery> {
        self.as_str().into_query()
    }
}

/// A concurrent query-serving session over one database.
///
/// See the [module docs](self) for the locking design.  The constraint
/// contract is unchanged from the paper: when tgds are set
/// ([`Database::with_tgds`] / [`Database::set_tgds`]), cyclic queries may be
/// answered through a Σ-equivalent acyclic witness, which is only valid on
/// databases satisfying the constraints — the promise of the paper's
/// `SemAcEval` problem; the engine does not verify it.  Without tgds every
/// strategy is unconditionally equivalent to naive evaluation.
///
/// ```
/// use sac_engine::Database;
///
/// let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
/// let results = db.query("q(X) :- E(X, Y), E(Y, Z).").unwrap();
/// assert_eq!(results.len(), 1);
/// assert_eq!(results.rows()[0]["X"], sac_common::Term::constant("a"));
/// ```
#[derive(Debug)]
pub struct Database {
    /// The one state guard; see the [module docs](self) for the lock order.
    pub(crate) state: RwLock<State>,
    config: EngineConfig,
    /// Threads a [`Database::run_batch`] may use (1 = serial); see
    /// [`Database::with_parallelism`].
    parallelism: usize,
    plans: RwLock<HashMap<PlanKey, Arc<Plan>>>,
    indexes: Mutex<IndexCache>,
    /// The persistence engine; `None` on non-durable databases.
    pub(crate) durability: Option<DurabilityCore>,
    /// What recovery found, for databases created by [`Database::open`].
    pub(crate) recovery: Option<RecoveryReport>,
    pub(crate) metrics: MetricCounters,
    pub(crate) latency: LatencyRecorders,
}

/// What the state guard protects: the facts, the constraint set the planner
/// reformulates under, and the views maintained over both.
#[derive(Debug, Default)]
pub(crate) struct State {
    pub(crate) instance: Instance,
    pub(crate) tgds: Vec<Tgd>,
    /// Registered materialized views, held weakly: dropping every
    /// [`MaterializedView`] handle unregisters its view (dead entries are
    /// pruned on the next append).
    pub(crate) views: Vec<Weak<ViewCore>>,
    /// Strong pins for views recovered from disk: the weak registry alone
    /// would unregister them the moment the recovery-time handle dropped.
    /// [`Database::durable_views`] hands out fresh handles over these.
    pub(crate) recovered_views: Vec<Arc<ViewCore>>,
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::from_instance(Instance::new())
    }

    /// Wraps an existing [`Instance`].
    pub fn from_instance(instance: Instance) -> Database {
        let indexes = Mutex::new(IndexCache::new(&instance));
        Database {
            state: RwLock::new(State {
                instance,
                ..State::default()
            }),
            config: EngineConfig::default(),
            parallelism: 1,
            plans: RwLock::new(HashMap::new()),
            indexes,
            durability: None,
            recovery: None,
            metrics: MetricCounters::default(),
            latency: LatencyRecorders::default(),
        }
    }

    /// Parses a list of ground facts into a fresh database.
    pub fn from_facts(text: &str) -> SacResult<Database> {
        let instance: Instance = text.parse()?;
        Ok(Database::from_instance(instance))
    }

    /// Sets the constraint set the planner may reformulate under
    /// (builder-style).  See the type-level docs for the satisfaction
    /// contract, and [`Database::set_tgds`] for what a durable database
    /// does with the change.
    ///
    /// # Panics
    ///
    /// On a durable database, if the checkpoint that persists the new
    /// constraint set fails ([`SacError::Persistence`]): the builder cannot
    /// return the error, and dropping it would lose the change on the next
    /// restart.  Call [`Database::set_tgds`] to handle it instead.
    pub fn with_tgds(self, tgds: Vec<Tgd>) -> Database {
        if let Err(e) = self.set_tgds(tgds) {
            panic!("with_tgds could not persist the constraint set: {e}");
        }
        self
    }

    /// Overrides the planner configuration (builder-style).
    pub fn with_config(mut self, config: EngineConfig) -> Database {
        self.config = config;
        self.plans = RwLock::default();
        self
    }

    /// Sets how many threads a [`Database::run_batch`] may use
    /// (builder-style; clamped to at least 1).  Parallelism is *across*
    /// the queries of a batch, never inside one: a batch of `n ≥ 2` queries
    /// spawns `min(parallelism, n) - 1` scoped helper threads, the calling
    /// thread works alongside them, and all are joined before the batch
    /// returns.  A single [`Database::run`], [`PreparedQuery::execute`],
    /// view refresh or Datalog evaluation runs the one serial path at
    /// every width.  The value is read per batch, so re-widening a
    /// database takes effect at the next one; `1` (the default) never
    /// spawns a thread.
    pub fn with_parallelism(mut self, parallelism: usize) -> Database {
        self.parallelism = parallelism.max(1);
        self
    }

    /// The configured batch width (1 = serial).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Replaces the constraint set, invalidating every cached plan (their
    /// witnesses were found under the old constraints).  Prepared queries
    /// keep the plan they were compiled with — re-prepare after changing
    /// constraints.
    ///
    /// On a durable database the change is checkpointed before this
    /// returns, like a view registration: constraints live in snapshots,
    /// not the fact WAL.  The error is that checkpoint's; the new set is in
    /// force either way.
    pub fn set_tgds(&self, tgds: Vec<Tgd>) -> SacResult<()> {
        // The write guard is held across the swap, the clear and the
        // checkpoint, pairing with `plan_arc_cached` (which publishes under
        // the read guard): no plan compiled under the old constraints can
        // slip into the cache after this clear.
        let mut state = self.write_state();
        state.tgds = tgds;
        self.write_plans().clear();
        if let Some(core) = &self.durability {
            self.checkpoint_locked(core, &state, &mut core.lock_state())?;
        }
        Ok(())
    }

    /// The constraints the planner reformulates under.
    pub fn tgds(&self) -> Vec<Tgd> {
        self.read_state().tgds.clone()
    }

    /// Runs `f` over the current instance under the read lock.  Keep `f`
    /// short: inserts wait while it runs.
    pub fn read<R>(&self, f: impl FnOnce(&Instance) -> R) -> R {
        f(&self.read_state().instance)
    }

    /// A point-in-time copy of the stored instance.
    pub fn snapshot(&self) -> Instance {
        self.read_state().instance.clone()
    }

    /// Total number of stored atoms.
    pub fn len(&self) -> usize {
        self.read_state().instance.len()
    }

    /// Whether no atoms are stored.
    pub fn is_empty(&self) -> bool {
        self.read_state().instance.is_empty()
    }

    /// Estimated heap footprint of the stored instance, dictionary
    /// included (see [`Instance::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.read_state().instance.heap_bytes()
    }

    /// Whether `atom` is stored.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.read_state().instance.contains(atom)
    }

    /// The instance's mutation epoch (see [`Instance::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.read_state().instance.epoch()
    }

    /// Summary statistics of the stored instance.
    pub fn stats(&self) -> InstanceStats {
        self.read_state().instance.stats()
    }

    /// Inserts an atom.  Returns whether it was new; a genuinely new atom
    /// **extends** the touched predicate's cached indexes in place
    /// (relations are append-only, so incremental maintenance is a handful
    /// of hash inserts — nothing is invalidated or rebuilt).  Cached plans
    /// survive — a plan's strategy choice never depends on the data, only
    /// its fallback atom order does, and a stale order is a performance
    /// matter, not a correctness one.
    ///
    /// On a durable database ([`Database::open`]) a new atom is appended to
    /// the write-ahead log before the state write guard is released, so
    /// durability is atomic with visibility; see [`crate::durability`].
    pub fn insert(&self, atom: Atom) -> SacResult<bool> {
        Ok(self.append([atom])? == 1)
    }

    /// Bulk-inserts every atom of `other`; returns how many were new.
    ///
    /// The whole batch is applied under one state write guard, so
    /// concurrent queries observe either the pre-load or the post-load
    /// state, never a half-loaded prefix, and the incremental cache
    /// maintenance happens once for the whole batch instead of once per
    /// atom.  On error (e.g. an arity clash part-way through) the
    /// already-inserted prefix **remains** — there is no rollback; the index
    /// cache is resynchronized before the error is returned.
    ///
    /// On a durable database the whole batch lands as **one** WAL record,
    /// appended under the same write guard — so one fsync (and one replay
    /// step) covers the entire load.
    pub fn extend_from(&self, other: &Instance) -> SacResult<usize> {
        self.append(other.atoms())
    }

    /// The one append path behind [`Database::insert`] and
    /// [`Database::extend_from`]: every atom under one state write guard.
    fn append(&self, atoms: impl IntoIterator<Item = Atom>) -> SacResult<usize> {
        let mut state = self.write_state();
        let cursor = self.is_durable().then(|| state.instance.delta_cursor());
        let mut added = 0;
        let mut failed = None;
        for atom in atoms {
            match state.instance.insert(atom) {
                Ok(new) => added += usize::from(new),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        // A partial batch is visible, so it is caught up and persisted like
        // any other visible state before the error is returned.
        if added > 0 {
            self.publish_growth(&mut state, cursor.as_ref())?;
        }
        failed.map_or(Ok(added), |e| Err(e.into()))
    }

    /// What every append owes its readers, under the state write guard so
    /// no concurrent run can snapshot between the data change and the
    /// maintenance: cached indexes extended, auto-refresh views caught up,
    /// and — on a durable database, where `cursor` is the pre-mutation
    /// cursor — the growth appended to the WAL.
    fn publish_growth(&self, state: &mut State, cursor: Option<&DeltaCursor>) -> SacResult<()> {
        self.lock_indexes().note_growth(&state.instance);
        self.refresh_auto_views(state);
        match cursor {
            Some(cursor) => self.persist_growth(state, cursor),
            None => Ok(()),
        }
    }

    /// Parses `text` as ground facts and inserts them all; returns how many
    /// were new.
    pub fn load_facts(&self, text: &str) -> SacResult<usize> {
        let parsed: Instance = text.parse()?;
        self.extend_from(&parsed)
    }

    /// Compiles (or fetches from the plan cache) the plan for `query`.
    pub(crate) fn plan_arc(&self, query: &ConjunctiveQuery) -> Arc<Plan> {
        self.plan_arc_cached(query).0
    }

    /// [`Database::plan_arc`] plus whether the plan came from the cache.
    /// Cache misses time the compilation into the prepare-latency histogram.
    fn plan_arc_cached(&self, query: &ConjunctiveQuery) -> (Arc<Plan>, bool) {
        let key: PlanKey = (query.head.clone(), query.body.clone());
        if let Some(plan) = self.read_plans().get(&key) {
            self.metrics.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(plan), true);
        }
        // Plan outside the plan-cache lock: the witness search can be
        // expensive and must not block concurrent cache hits.  Two threads
        // racing on the same cold query both plan; the first publication
        // wins and both count as builds (honest accounting).
        //
        // The state read guard is held across the publication below: this
        // orders every publication of a plan compiled under the old
        // constraints strictly before `set_tgds` can swap them and clear the
        // cache — a stale witness plan can never be re-published after the
        // invalidation.
        let state = self.read_state();
        let State { instance, tgds, .. } = &*state;
        let planning_started = Instant::now();
        let plan = Arc::new(plan_query(query, tgds, instance, &self.config));
        self.latency.prepare.record(planning_started.elapsed());
        self.metrics.plans_built.fetch_add(1, Ordering::Relaxed);
        let published = Arc::clone(
            self.write_plans()
                .entry(key)
                .or_insert_with(|| Arc::clone(&plan)),
        );
        drop(state);
        (published, false)
    }

    /// The planner's decision for `query`, for inspection.
    pub fn explain(&self, query: &ConjunctiveQuery) -> Explain {
        self.plan_arc(query).explain().clone()
    }

    /// Prepares `source` for repeated execution: parse (if text), plan (or
    /// hit the plan cache), and return a cheap, cloneable handle bound to
    /// this database.
    pub fn prepare<Q: QuerySource>(&self, source: Q) -> SacResult<PreparedQuery<'_>> {
        let query = source.into_query()?;
        let plan = self.plan_arc(&query);
        Ok(PreparedQuery {
            database: self,
            query: Arc::new(query),
            plan,
        })
    }

    /// One-call text-to-results: parse (or take) a query, plan or reuse the
    /// cached plan, execute, and return a typed [`ResultSet`].
    pub fn query<Q: QuerySource>(&self, source: Q) -> SacResult<ResultSet> {
        let query = source.into_query()?;
        Ok(self.run(&query))
    }

    /// The Boolean reading of [`Database::query`].
    pub fn query_boolean<Q: QuerySource>(&self, source: Q) -> SacResult<bool> {
        Ok(self.query(source)?.is_true())
    }

    /// Evaluates an already-validated query.
    pub fn run(&self, query: &ConjunctiveQuery) -> ResultSet {
        let plan = self.plan_arc(query);
        self.run_plan_core(&plan, None).0
    }

    /// [`Database::run`] with a [`QueryTrace`] alongside the results: the
    /// rung chosen, plan- and index-cache outcomes, per-phase wall times
    /// (which sum to the recorded total by construction — see
    /// [`sac_telemetry::Probe`]) and per-join-tree-node rows in/out.
    /// Tracing adds a handful of `Instant` reads
    /// to this run only; untraced runs are unaffected.
    pub fn run_traced(&self, query: &ConjunctiveQuery) -> (ResultSet, QueryTrace) {
        let mut probe = Probe::start();
        let (plan, plan_cache_hit) = self.plan_arc_cached(query);
        probe.mark(Phase::Plan);
        let start = TraceStart {
            probe,
            plan_cache_hit,
            query: query.to_string(),
        };
        let (result, trace) = self.run_plan_core(&plan, Some(start));
        (result, trace.expect("traced runs always produce a trace"))
    }

    /// Evaluates a Boolean query (or the Boolean shadow of a non-Boolean
    /// one): whether the answer set is non-empty.
    pub fn run_boolean(&self, query: &ConjunctiveQuery) -> bool {
        self.run(query).is_true()
    }

    /// Evaluates a batch of queries, amortizing planning and index building
    /// across the whole workload.  With [`Database::with_parallelism`] above
    /// 1, the queries fan out over scoped helper threads (each query an
    /// ordinary serial run) — results still come back in input order,
    /// identical to the serial batch.
    pub fn run_batch(&self, queries: &[ConjunctiveQuery]) -> Vec<ResultSet> {
        if self.parallelism <= 1 || queries.len() <= 1 {
            return queries.iter().map(|q| self.run(q)).collect();
        }
        // Resolve every plan serially first: duplicate queries in the batch
        // would otherwise race the cold plan cache and re-run the expensive
        // witness search once per thread instead of once per shape.
        let plans: Vec<Arc<Plan>> = queries.iter().map(|q| self.plan_arc(q)).collect();
        self.metrics
            .morsels_dispatched
            .fetch_add(plans.len(), Ordering::Relaxed);
        fan_out(self.parallelism, &plans, |plan| {
            self.run_plan_core(plan, None).0
        })
    }

    /// Evaluates a stratified Datalog program to fixpoint over the current
    /// facts with default [`DatalogOptions`] (certificate recording on,
    /// constraint-free rule planning).
    ///
    /// The evaluation is semi-naive on a point-in-time snapshot: each
    /// rule's positive body is compiled through the ordinary strategy
    /// lattice, and iterations past the first evaluate only against the
    /// rows the previous iteration appended (see [`crate::datalog`]).  The
    /// database's own facts are untouched — the saturated instance comes
    /// back in [`DatalogRun::fixpoint`].
    ///
    /// ```
    /// use sac_engine::Database;
    ///
    /// let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
    /// let run = db
    ///     .run_datalog("T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z).")
    ///     .unwrap();
    /// assert_eq!(run.derived_for("T").len(), 3);
    /// // Every answer ships with a replayable, engine-independent proof.
    /// let cert = run.certificate.as_ref().unwrap();
    /// let program = "T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z)."
    ///     .parse()
    ///     .unwrap();
    /// db.read(|base| sac_datalog::check::check_certificate(&program, base, cert))
    ///     .unwrap();
    /// ```
    pub fn run_datalog<P: DatalogSource>(&self, source: P) -> SacResult<DatalogRun> {
        self.run_datalog_with(source, DatalogOptions::default())
    }

    /// [`Database::run_datalog`] with explicit options.
    pub fn run_datalog_with<P: DatalogSource>(
        &self,
        source: P,
        options: DatalogOptions,
    ) -> SacResult<DatalogRun> {
        let program = source.into_program()?;
        self.run_datalog_program(&program, options)
    }

    /// Parses and stratifies a program once for repeated evaluation.
    pub fn prepare_datalog<P: DatalogSource>(&self, source: P) -> SacResult<PreparedDatalog<'_>> {
        Ok(PreparedDatalog {
            db: self,
            program: Arc::new(source.into_program()?),
            options: DatalogOptions::default(),
        })
    }

    /// The shared evaluation entry: snapshots the instance, runs the
    /// semi-naive loop, and folds the run into metrics and the latency
    /// histogram.
    pub(crate) fn run_datalog_program(
        &self,
        program: &sac_datalog::DatalogProgram,
        options: DatalogOptions,
    ) -> SacResult<DatalogRun> {
        let started = Instant::now();
        // The snapshot and Σ come from one read: the rules are planned
        // under exactly the constraints the snapshot was taken with.
        let (work, tgds) = {
            let state = self.read_state();
            (state.instance.clone(), state.tgds.clone())
        };
        let run = datalog::evaluate(program, work, &tgds, &self.config, options)?;
        self.latency.datalog.record(started.elapsed());
        self.metrics.datalog_runs.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .datalog_iterations
            .fetch_add(run.stats.iterations, Ordering::Relaxed);
        self.metrics
            .datalog_facts_derived
            .fetch_add(run.stats.facts_derived, Ordering::Relaxed);
        Ok(run)
    }

    /// The single execution funnel.  Every run records its wall time into
    /// the run-latency histogram; with `trace` set, the attached probe
    /// additionally collects phase boundaries, cache outcomes and per-node
    /// rows into a [`QueryTrace`].
    fn run_plan_core(
        &self,
        plan: &Plan,
        trace: Option<TraceStart>,
    ) -> (ResultSet, Option<QueryTrace>) {
        self.metrics.record_run(plan.strategy());
        let run_started = Instant::now();
        let state = self.read_state();
        let instance = &state.instance;
        // Short locked section: build/fetch exactly the plan's indexes…
        let (mut ctx, cache_misses) = {
            let mut cache = self.lock_indexes();
            let built_before = cache.built();
            let ctx = exec::ExecContext::snapshot(plan, false, instance, &mut cache);
            (ctx, cache.built() - built_before)
        };
        // …then execute lock-free (the state read guard is still held, so
        // the snapshots stay consistent with the data for the whole run).
        let (plan_cache_hit, query_text) = match trace {
            Some(TraceStart {
                mut probe,
                plan_cache_hit,
                query,
            }) => {
                probe.mark(Phase::Snapshot);
                ctx = ctx.with_probe(probe);
                (plan_cache_hit, query)
            }
            None => (false, String::new()),
        };
        let tuples = exec::execute_with(plan, instance, &ctx);
        let result = ResultSet::from_tuples(Arc::clone(plan.columns()), tuples);
        self.latency.run.record(run_started.elapsed());
        let trace = ctx.take_probe().map(|mut probe| {
            // Charge result materialization to the decode phase, keeping the
            // boundary chain contiguous through to the final total.
            probe.mark(Phase::Decode);
            let (phases, node_rows, total_ns) = probe.finish();
            QueryTrace {
                query: query_text,
                strategy: plan.strategy().as_str().to_owned(),
                plan_cache_hit,
                index_cache_hits: ctx.index_count().saturating_sub(cache_misses),
                index_cache_misses: cache_misses,
                phases,
                total_ns,
                node_rows,
                answers: result.len(),
                refresh_mode: None,
                delta_rows: None,
            }
        });
        (result, trace)
    }

    /// Maintenance hook: drops every cached plan and join index.  Subsequent
    /// queries replan and rebuild from the live data — correctness never
    /// depends on this, but it bounds memory after a schema or workload
    /// shift.  Metrics are untouched (see [`Database::reset_metrics`]).
    pub fn clear_caches(&self) {
        self.write_plans().clear();
        let state = self.read_state();
        self.lock_indexes().invalidate_all(&state.instance);
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.read_plans().len()
    }

    // Lock plumbing.  Poisoning is not propagated: a panicking query thread
    // leaves the structures it held in a consistent state (pure reads, or
    // completed cache updates), so later callers simply continue.

    pub(crate) fn read_state(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn read_plans(&self) -> RwLockReadGuard<'_, HashMap<PlanKey, Arc<Plan>>> {
        self.plans.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_plans(&self) -> RwLockWriteGuard<'_, HashMap<PlanKey, Arc<Plan>>> {
        self.plans.write().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_indexes(&self) -> std::sync::MutexGuard<'_, IndexCache> {
        self.indexes.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A compiled query bound to a [`Database`]: cheap to clone, freely shared
/// across threads, and executed without ever touching the plan cache again.
///
/// The plan is pinned at [`Database::prepare`] time.  Data mutations are
/// always visible to later executions (plans never capture data); constraint
/// changes ([`Database::set_tgds`]) are **not** — re-prepare after changing
/// constraints, exactly like any prepared statement outliving a schema
/// change.
#[derive(Debug, Clone)]
pub struct PreparedQuery<'db> {
    database: &'db Database,
    query: Arc<ConjunctiveQuery>,
    plan: Arc<Plan>,
}

impl PreparedQuery<'_> {
    /// Executes the prepared plan against the current data.
    pub fn execute(&self) -> ResultSet {
        self.database.run_plan_core(&self.plan, None).0
    }

    /// The Boolean reading of [`PreparedQuery::execute`].
    pub fn execute_boolean(&self) -> bool {
        self.execute().is_true()
    }

    /// [`PreparedQuery::execute`] with a [`QueryTrace`] alongside the
    /// results — [`Database::run_traced`] over the pinned plan.  The plan
    /// phase is empty and `plan_cache_hit` is `true` by definition: prepared
    /// queries never touch the plan cache again.
    pub fn run_traced(&self) -> (ResultSet, QueryTrace) {
        let mut probe = Probe::start();
        probe.mark(Phase::Plan);
        let start = TraceStart {
            probe,
            plan_cache_hit: true,
            query: self.query.to_string(),
        };
        let (result, trace) = self.database.run_plan_core(&self.plan, Some(start));
        (result, trace.expect("traced runs always produce a trace"))
    }

    /// The strategy the pinned plan uses.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy()
    }

    /// The planner's decision, for inspection.
    pub fn explain(&self) -> &Explain {
        self.plan.explain()
    }

    /// The compiled query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The result columns every execution will produce.
    pub fn columns(&self) -> &[String] {
        self.plan.columns().as_ref()
    }
}

// `Database` must stay shareable across threads: this is the compile-time
// guarantee the service façade is built on (a `static_assertions`-style
// check without the dependency).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<PreparedQuery<'static>>();
    assert_send_sync::<MaterializedView<'static>>();
    assert_send_sync::<ResultSet>();
    assert_send_sync::<SacError>();
    assert_send_sync::<EngineMetrics>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, Term};
    use sac_query::evaluate;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn graph_database() -> Database {
        Database::from_instance(sac_gen::random_graph_database(10, 30, 3))
    }

    #[test]
    fn run_agrees_with_naive_evaluation_across_strategies() {
        let db = graph_database();
        let reference = db.snapshot();
        for q in [
            sac_gen::path_query(2),   // acyclic → direct
            sac_gen::cycle_query(3),  // cyclic core → fallback
            sac_gen::clique_query(3), // cyclic core → fallback
        ] {
            assert_eq!(
                db.run(&q).into_tuples(),
                evaluate(&q, &reference),
                "disagreement on {q}"
            );
        }
    }

    #[test]
    fn text_queries_answer_in_one_call() {
        let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
        let rs = db.query("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
        assert_eq!(rs.columns(), &["X".to_owned(), "Z".to_owned()]);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0]["X"], Term::constant("a"));
        assert_eq!(rs.rows()[0]["Z"], Term::constant("c"));
        assert!(db.query_boolean("q() :- E(a, X).").unwrap());
        assert!(!db.query_boolean("q() :- E(c, X).").unwrap());
    }

    #[test]
    fn parse_and_schema_failures_fold_into_sac_error() {
        let db = Database::from_facts("E(a, b).").unwrap();
        match db.query("q(X) :- E(X,").unwrap_err() {
            SacError::Parse { line, column, .. } => assert_eq!((line, column), (1, 12)),
            other => panic!("expected a parse error, got {other}"),
        }
        match db.insert(atom!("E", cst "a")).unwrap_err() {
            SacError::ArityMismatch {
                expected, found, ..
            } => assert_eq!((expected, found), (2, 1)),
            other => panic!("expected an arity mismatch, got {other}"),
        }
        match db.query("q(a) :- E(a, X).").unwrap_err() {
            SacError::InvalidInput { .. } => {}
            other => panic!("expected invalid input, got {other}"),
        }
    }

    #[test]
    fn prepared_queries_are_cloneable_and_track_data() {
        let db = Database::new();
        db.load_facts("E(a, b).").unwrap();
        let prepared = db.prepare("q(X) :- E(X, Y), E(Y, Z).").unwrap();
        let again = prepared.clone();
        assert!(!prepared.execute_boolean());
        assert!(db.insert(atom!("E", cst "b", cst "c")).unwrap());
        // Both clones see the new data without re-preparing.
        assert!(prepared.execute_boolean());
        assert_eq!(again.execute().rows()[0]["X"], Term::constant("a"));
        assert_eq!(prepared.columns(), &["X".to_owned()]);
        // The prepare and the executions hit the plan cache exactly once.
        assert_eq!(db.metrics().plans_built, 1);
    }

    #[test]
    fn plan_cache_hits_on_repeated_queries() {
        let db = graph_database();
        let q = sac_gen::path_query(3);
        db.run(&q);
        db.run(&q);
        db.run(&q);
        let m = db.metrics();
        assert_eq!(m.queries_run, 3);
        assert_eq!(m.plans_built, 1);
        assert_eq!(m.plan_cache_hits, 2);
        assert_eq!(m.runs_yannakakis_direct, 3);
        assert_eq!(db.cached_plans(), 1);
    }

    #[test]
    fn reset_metrics_and_clear_caches_are_independent() {
        let db = graph_database();
        let q = sac_gen::cycle_query(3); // fallback strategy → builds indexes
        db.run(&q);
        let before = db.metrics();
        assert!(before.queries_run == 1 && before.plans_built == 1);
        assert!(before.indexes_built > 0);

        db.reset_metrics();
        let zeroed = db.metrics();
        assert_eq!(zeroed, EngineMetrics::default());
        assert_eq!(db.cached_plans(), 1, "reset_metrics leaves caches alone");

        db.run(&q);
        assert_eq!(db.metrics().plan_cache_hits, 1, "cache still warm");

        db.clear_caches();
        assert_eq!(db.cached_plans(), 0);
        db.run(&q);
        let after = db.metrics();
        assert_eq!(after.plans_built, 1, "replanned after the cache dropped");
        assert!(after.indexes_built > 0, "indexes rebuilt after the drop");

        // The snapshot type resets the same way.
        let mut m = db.metrics();
        m.reset();
        assert_eq!(m, EngineMetrics::default());
    }

    #[test]
    fn concurrent_runs_agree_with_naive_evaluation() {
        let db = Database::from_instance(sac_gen::random_graph_database(12, 50, 11));
        let reference = db.snapshot();
        let queries = [
            sac_gen::path_query(2),
            sac_gen::star_query(3),
            sac_gen::cycle_query(3),
            sac_gen::clique_query(3),
        ];
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for q in &queries {
                        assert_eq!(db.run(q).into_tuples(), evaluate(q, &reference));
                    }
                });
            }
        });
        let m = db.metrics();
        assert_eq!(m.queries_run, 16);
        assert_eq!(
            m.plans_built + m.plan_cache_hits,
            16,
            "every request either built or hit"
        );
    }

    #[test]
    fn concurrent_inserts_and_queries_stay_consistent() {
        let db = Database::new();
        db.load_facts("E(n0, n1).").unwrap();
        let q = sac_gen::path_query(2);
        let prepared = db.prepare(&q).unwrap();
        thread::scope(|scope| {
            scope.spawn(|| {
                for i in 1..40 {
                    db.insert(sac_common::Atom::from_parts(
                        "E",
                        vec![
                            Term::constant(&format!("n{i}")),
                            Term::constant(&format!("n{}", i + 1)),
                        ],
                    ))
                    .unwrap();
                }
            });
            scope.spawn(|| {
                for _ in 0..40 {
                    // Every observed answer must be a real path in some
                    // prefix of the insert stream; final state is checked
                    // below.
                    let _ = prepared.execute();
                }
            });
        });
        let reference = db.snapshot();
        assert_eq!(prepared.execute().into_tuples(), evaluate(&q, &reference));
        assert_eq!(reference.len(), 40);
    }

    #[test]
    fn witness_strategy_is_used_and_correct_on_constraint_closed_data() {
        let q = sac_gen::example1_triangle();
        let tgds = vec![sac_gen::collector_tgd()];
        // music_database is closed under the collector tgd by construction.
        let reference = sac_gen::music_database(30, 60, 5);
        let db = Database::from_instance(reference.clone()).with_tgds(tgds);
        assert_eq!(db.explain(&q).strategy, Strategy::YannakakisWitness);
        assert_eq!(db.run(&q).into_tuples(), evaluate(&q, &reference));
        assert_eq!(db.metrics().runs_yannakakis_witness, 1);
    }

    #[test]
    fn changing_constraints_clears_cached_plans() {
        let q = sac_gen::example1_triangle();
        let db = Database::from_instance(sac_gen::music_database(5, 10, 2));
        assert_eq!(db.explain(&q).strategy, Strategy::IndexedSearch);
        db.set_tgds(vec![sac_gen::collector_tgd()]).unwrap();
        assert_eq!(db.explain(&q).strategy, Strategy::YannakakisWitness);
    }

    #[test]
    fn run_batch_amortizes_planning() {
        let db = graph_database();
        let workload: Vec<_> = (0..4)
            .flat_map(|_| [sac_gen::path_query(3), sac_gen::star_query(3)])
            .collect();
        let results = db.run_batch(&workload);
        assert_eq!(results.len(), 8);
        let m = db.metrics();
        assert_eq!(m.queries_run, 8);
        assert_eq!(m.plans_built, 2);
        assert_eq!(m.plan_cache_hits, 6);
        assert!(m.plan_cache_hit_rate() > 0.7);
        // Identical queries return identical answers.
        assert_eq!(results[0], results[2]);
        assert_eq!(results[1], results[3]);
    }

    #[test]
    fn metrics_display_is_informative() {
        let db = graph_database();
        db.run(&sac_gen::path_query(2));
        let text = format!("{}", db.metrics());
        assert!(text.contains("1 runs"));
        assert!(text.contains("direct"));
        assert!(text.contains("fanned out"));
    }

    #[test]
    fn parallelism_is_clamped_and_defaults_to_serial() {
        let db = Database::new();
        assert_eq!(db.parallelism(), 1);
        let db = Database::new().with_parallelism(0);
        assert_eq!(db.parallelism(), 1, "0 clamps to serial");
        let db = Database::new().with_parallelism(4);
        assert_eq!(db.parallelism(), 4);
    }

    #[test]
    fn single_runs_never_touch_the_pool_at_any_parallelism() {
        // One executor path: `with_parallelism(4)` changes nothing about a
        // single run, a prepared execution or a view refresh — same
        // answers, nothing fanned out.
        let data = sac_gen::random_graph_database(16, 80, 23);
        let serial = Database::from_instance(data.clone());
        let wide = Database::from_instance(data).with_parallelism(4);
        for q in [
            sac_gen::path_query(3),
            sac_gen::star_query(3),
            sac_gen::cycle_query(3),
            sac_gen::clique_query(3),
        ] {
            let expected = serial.run(&q);
            assert_eq!(wide.run(&q), expected, "run disagrees on {q}");
            let prepared = wide.prepare(&q).unwrap();
            assert_eq!(prepared.execute(), expected, "execute disagrees on {q}");
            assert_eq!(prepared.run_traced().0, expected);
        }
        let two_hops = "q(X, Z) :- E(X, Y), E(Y, Z).";
        let view = wide.materialize(two_hops).unwrap();
        let mirror = serial.materialize(two_hops).unwrap();
        for db in [&wide, &serial] {
            db.insert(atom!("E", cst "n0", cst "fresh")).unwrap();
            db.insert(atom!("E", cst "fresh", cst "n1")).unwrap();
        }
        assert_eq!(view.refresh_traced().0.mode, crate::RefreshMode::Fresh);
        assert_eq!(view.snapshot(), mirror.snapshot());
        let m = wide.metrics();
        assert!(m.view_refreshes_incremental >= 2, "the view was maintained");
        assert_eq!(m.morsels_dispatched, 0, "no single run fans out");
    }

    #[test]
    fn parallel_batches_preserve_input_order_and_serial_answers() {
        let data = sac_gen::random_graph_database(12, 50, 9);
        let workload: Vec<_> = (0..4)
            .flat_map(|_| {
                [
                    sac_gen::path_query(2),
                    sac_gen::star_query(3),
                    sac_gen::cycle_query(3),
                ]
            })
            .collect();
        let serial = Database::from_instance(data.clone());
        let parallel = Database::from_instance(data).with_parallelism(4);
        let expected = serial.run_batch(&workload);
        let got = parallel.run_batch(&workload);
        assert_eq!(expected, got, "same answers in the same order");
        let m = parallel.metrics();
        assert_eq!(m.queries_run, workload.len());
        assert_eq!(m.morsels_dispatched, workload.len(), "one per query");
        assert_eq!(parallel.run_batch(&workload), expected);
        assert_eq!(parallel.metrics().morsels_dispatched, 2 * workload.len());
    }

    #[test]
    fn parallel_appends_build_nothing_and_are_visible_to_the_next_run() {
        let db =
            Database::from_instance(sac_gen::random_graph_database(10, 40, 4)).with_parallelism(4);
        let q: ConjunctiveQuery = "q(X, Z) :- E(X, Y), E(Y, Z).".parse().unwrap();
        let probe = [Term::constant("fresh_a"), Term::constant("fresh_c")];
        assert!(!db.run(&q).into_tuples().contains(probe.as_slice()));
        let before = db.metrics();
        assert!(db.insert(atom!("E", cst "fresh_a", cst "fresh_b")).unwrap());
        assert!(db.insert(atom!("E", cst "fresh_b", cst "fresh_c")).unwrap());
        // Appends touch no derived structure: every build counter is where
        // the first run left it…
        let after = db.metrics();
        assert_eq!(after.indexes_built, before.indexes_built);
        assert_eq!(after.plans_built, before.plans_built);
        // …and the next run reads the new rows off the base relation.
        assert!(db.run(&q).into_tuples().contains(probe.as_slice()));
        assert_eq!(db.metrics().indexes_built, before.indexes_built);
    }

    #[test]
    fn concurrent_traffic_on_a_parallel_database_stays_consistent() {
        // Outer request threads over a database configured with a batch
        // width: every run is the same serial path.
        let db =
            Database::from_instance(sac_gen::random_graph_database(12, 50, 31)).with_parallelism(2);
        let reference = db.snapshot();
        let queries = [
            sac_gen::path_query(2),
            sac_gen::star_query(3),
            sac_gen::clique_query(3),
        ];
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for q in &queries {
                        assert_eq!(db.run(q).into_tuples(), evaluate(q, &reference));
                    }
                });
            }
        });
        assert_eq!(db.metrics().queries_run, 9);
    }

    #[test]
    fn traced_runs_report_phases_summing_to_the_total_on_every_rung() {
        let db = Database::from_instance(sac_gen::random_graph_database(12, 50, 19));
        for (q, strategy) in [
            (sac_gen::path_query(2), "yannakakis-direct"),
            (sac_gen::cycle_query(3), "indexed-search"),
        ] {
            let (result, trace) = db.run_traced(&q);
            assert_eq!(trace.strategy, strategy, "on {q}");
            assert_eq!(trace.answers, result.len());
            assert_eq!(result.into_tuples(), db.run(&q).into_tuples());
            // Boundary-mark timing: the phases partition the traced span, so
            // the sum is the total *exactly* — far inside the 10% budget.
            assert_eq!(trace.phases.total_ns(), trace.total_ns, "on {q}");
            assert!(trace.total_ns > 0, "a real run takes nonzero time");
        }
        // The witness rung, on constraint-closed data.
        let db = Database::from_instance(sac_gen::music_database(20, 40, 3))
            .with_tgds(vec![sac_gen::collector_tgd()]);
        let (_, trace) = db.run_traced(&sac_gen::example1_triangle());
        assert_eq!(trace.strategy, "yannakakis-witness");
        assert_eq!(trace.phases.total_ns(), trace.total_ns);
    }

    #[test]
    fn traces_report_cache_outcomes_and_node_rows() {
        let db = graph_database();
        let q = sac_gen::path_query(2);
        let (_, cold) = db.run_traced(&q);
        assert!(!cold.plan_cache_hit, "first request plans");
        let (_, warm) = db.run_traced(&q);
        assert!(warm.plan_cache_hit, "second request hits the cache");
        assert_eq!(warm.index_cache_misses, 0, "indexes were already built");
        // One node per join-tree atom, rows_in = the scanned relation.
        assert_eq!(warm.node_rows.len(), 2);
        let e_rows = db
            .snapshot()
            .relation(sac_common::intern("E"))
            .unwrap()
            .len();
        for node in &warm.node_rows {
            assert_eq!(node.rows_in, e_rows);
            assert!(node.rows_out <= node.rows_in, "match sets only filter");
        }
        // Identical requests produce an identical trace *structure* even
        // though wall times differ.
        assert_eq!(
            warm.structure_digest(),
            db.run_traced(&q).1.structure_digest()
        );
    }

    #[test]
    fn prepared_run_traced_pins_the_plan() {
        let db = graph_database();
        let prepared = db.prepare(sac_gen::path_query(2)).unwrap();
        let (result, trace) = prepared.run_traced();
        assert!(trace.plan_cache_hit, "prepared queries never re-plan");
        assert_eq!(trace.answers, result.len());
        assert_eq!(trace.phases.total_ns(), trace.total_ns);
        assert!(trace.phases.get(Phase::MatchSets) > 0);
        assert_eq!(result, prepared.execute());
    }

    #[test]
    fn traced_runs_feed_the_latency_histograms() {
        let db = graph_database();
        let q = sac_gen::path_query(2);
        db.run(&q);
        let _ = db.run_traced(&q);
        let m = db.metrics();
        assert_eq!(
            m.run_latency.count, 2,
            "traced and untraced runs both record"
        );
        assert_eq!(m.prepare_latency.count, 1, "one plan was compiled");
        assert!(m.run_latency.p50() <= m.run_latency.p99());
        db.reset_metrics();
        assert!(
            db.metrics().run_latency.is_empty(),
            "reset clears histograms"
        );
    }

    #[test]
    fn traced_view_refreshes_report_modes() {
        let db = Database::from_facts("E(a, b). E(u, v). E(w, x).").unwrap();
        let view = db
            .materialize_with(
                "q(X, Z) :- E(X, Y), E(Y, Z).",
                crate::ViewOptions {
                    auto_refresh: false,
                },
            )
            .unwrap();
        let (fresh, trace) = view.refresh_traced();
        assert_eq!(fresh.mode, crate::RefreshMode::Fresh);
        assert_eq!(trace.refresh_mode.as_deref(), Some("fresh"));
        assert_eq!(trace.delta_rows, Some(0));

        db.load_facts("E(b, c).").unwrap();
        let (incr, trace) = view.refresh_traced();
        assert_eq!(incr.mode, crate::RefreshMode::Incremental);
        assert_eq!(trace.refresh_mode.as_deref(), Some("incremental"));
        assert_eq!(trace.delta_rows, Some(1));
        assert_eq!(trace.answers, view.len());
        assert_eq!(trace.phases.total_ns(), trace.total_ns);
        assert!(
            db.metrics().view_refresh_latency.count >= 2,
            "initial + incremental refresh recorded"
        );
    }

    /// A fresh per-test durability directory under the system temp dir.
    fn durability_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sac_db_{tag}_{}_{n}", std::process::id()))
    }

    #[test]
    fn durable_databases_survive_reopen() {
        let dir = durability_dir("reopen");
        let expected = {
            let db = Database::open(&dir).unwrap();
            assert!(db.is_durable());
            db.load_facts("E(a, b). E(b, c). E(c, d).").unwrap();
            db.insert(atom!("E", cst "d", cst "e")).unwrap();
            let m = db.metrics();
            assert!(m.wal_appends >= 2, "both mutations hit the WAL: {m:?}");
            assert!(m.wal_bytes > 0);
            db.query("q(X, Z) :- E(X, Y), E(Y, Z).")
                .unwrap()
                .into_tuples()
        };
        let db = Database::open(&dir).unwrap();
        let report = db.recovery_report().unwrap().clone();
        assert!(
            report.replayed_batches >= 2,
            "the un-checkpointed appends replay: {report:?}"
        );
        assert_eq!(
            db.query("q(X, Z) :- E(X, Y), E(Y, Z).")
                .unwrap()
                .into_tuples(),
            expected
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_compact_the_wal() {
        let dir = durability_dir("checkpoint");
        {
            let db = Database::open(&dir).unwrap();
            db.load_facts("E(a, b). E(b, c).").unwrap();
            let report = db.checkpoint().unwrap();
            assert_eq!(report.atoms, 2);
            assert!(db.metrics().snapshots_written >= 1);
        }
        let db = Database::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.replayed_batches, 0, "the WAL was compacted away");
        assert_eq!(report.snapshot_atoms, 2);
        assert_eq!(db.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_snapshots_fire_on_the_append_threshold() {
        let dir = durability_dir("auto_snap");
        let db = Database::open_with(
            &dir,
            crate::DurabilityOptions {
                sync_mode: crate::SyncMode::Never,
                snapshot_every: 2,
            },
        )
        .unwrap();
        let before = db.metrics().snapshots_written;
        db.load_facts("E(a, b).").unwrap();
        db.load_facts("E(b, c).").unwrap();
        assert!(
            db.metrics().snapshots_written > before,
            "two appends cross the snapshot_every = 2 threshold"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_views_and_tgds_are_restored() {
        let dir = durability_dir("views");
        let expected = {
            let db = Database::open(&dir).unwrap();
            db.set_tgds(vec![sac_gen::collector_tgd()]).unwrap();
            let view = db.materialize("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
            db.load_facts("E(a, b). E(b, c). E(c, d).").unwrap();
            view.snapshot().into_tuples()
        };
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.tgds(), vec![sac_gen::collector_tgd()]);
        assert_eq!(db.recovery_report().unwrap().views, 1);
        let views = db.durable_views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].snapshot().into_tuples(), expected);
        // The recovered view is live: it tracks new appends.
        db.load_facts("E(d, e).").unwrap();
        views[0].refresh();
        assert!(views[0].snapshot().into_tuples().len() > expected.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_checkpoints_once_after_every_view_is_back() {
        let dir = durability_dir("two-views");
        {
            let db = Database::open(&dir).unwrap();
            let _paths = db.materialize("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
            let _sources = db.materialize("q(X) :- E(X, Y).").unwrap();
            db.load_facts("E(a, b). E(b, c).").unwrap();
        }
        let db = Database::open(&dir).unwrap();
        // One snapshot, written when both views were registered again: a
        // crash during recovery can no longer leave a newest snapshot that
        // lists a prefix of them.
        assert_eq!(db.metrics().snapshots_written, 1);
        let views = db.durable_views();
        assert_eq!(views.len(), 2);
        assert_eq!((views[0].len(), views[1].len()), (1, 2));
        let on_disk = sac_wal::latest_snapshot(&dir).unwrap().unwrap();
        let recovered = views
            .iter()
            .map(|v| crate::durability::view_repr(v.query(), v.options()));
        assert_eq!(on_disk.views, recovered.collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_warms_the_plan_cache() {
        let dir = durability_dir("plans");
        {
            let db = Database::open(&dir).unwrap();
            db.load_facts("E(a, b). E(b, c).").unwrap();
            db.query("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
            assert_eq!(db.cached_plans(), 1);
            // Plan fingerprints live in snapshots, not the fact WAL.
            db.checkpoint().unwrap();
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().plans, 1);
        assert_eq!(db.cached_plans(), 1);
        let before = db.metrics().plans_built;
        db.query("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
        assert_eq!(
            db.metrics().plans_built,
            before,
            "the warmed plan serves the repeat query without compiling"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tails_recover_the_acknowledged_prefix() {
        let dir = durability_dir("torn");
        {
            let db = Database::open_with(
                &dir,
                crate::DurabilityOptions {
                    sync_mode: crate::SyncMode::Always,
                    snapshot_every: 0,
                },
            )
            .unwrap();
            db.load_facts("E(a, b).").unwrap();
            db.load_facts("E(b, c).").unwrap();
        }
        // Tear the final record, as a crash mid-append would.
        let wal = dir.join("wal.sacwal");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

        let db = Database::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(report.truncated_bytes > 0, "the torn record was dropped");
        assert!(db.contains(&atom!("E", cst "a", cst "b")));
        assert!(
            !db.contains(&atom!("E", cst "b", cst "c")),
            "the torn (never-acknowledged) batch is gone"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_on_a_non_durable_database_is_an_error() {
        let db = Database::new();
        assert!(!db.is_durable());
        assert!(db.recovery_report().is_none());
        assert!(db.durable_views().is_empty());
        assert!(matches!(db.checkpoint(), Err(SacError::Persistence { .. })));
    }
}
