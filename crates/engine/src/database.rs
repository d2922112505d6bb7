//! [`Database`]: the concurrent, prepared-query service façade.
//!
//! A `Database` is `Send + Sync` and serves every request through `&self`,
//! so one instance behind an `Arc` — or plain borrows into scoped threads —
//! can absorb traffic from many threads at once:
//!
//! * the **instance** sits behind an `RwLock`: queries share a read guard
//!   for their whole execution, inserts take the write guard;
//! * the **plan cache** sits behind its own `RwLock`: hits are shared reads,
//!   planning happens outside any lock and the compiled [`Plan`] is
//!   published with a brief write;
//! * the **index cache** sits behind a `Mutex`, but is only locked for the
//!   short moment a run snapshots (and lazily builds) exactly the indexes
//!   its plan needs — execution itself works off the immutable
//!   [`Arc`]-backed snapshot with no lock held;
//! * **metrics** are atomics.
//!
//! Epoch tracking is preserved exactly: inserts advance the instance epoch
//! under the write guard and incrementally extend the touched predicate's
//! cached indexes before the guard is released (copy-on-write against
//! in-flight snapshots), so a snapshot taken under any read guard is always
//! consistent with the data it runs against.
//!
//! Lock order (outer to inner): `tgds` → `instance` → `views` registry →
//! per-view state → `indexes`, and `tgds` → `plans`; the plan cache is
//! never held while acquiring another lock.  Planning publishes into the
//! cache while still holding the tgds read guard, so [`Database::set_tgds`]
//! (write guard held across its cache clear) can never observe — or be
//! overtaken by — a plan compiled under constraints it just replaced.
//! Materialized-view maintenance runs under the same write guard as the
//! data change (see [`crate::view`]), so freshness is atomic with
//! visibility.
//!
//! **Fan-out** sits outside that order entirely: [`Database::run_batch`]
//! spawns its helpers with no engine lock held, and each fanned-out query
//! is an ordinary run that takes the instance read guard itself.  Nothing
//! persists between batches — the helpers are scoped to the call
//! (`fan_out` in `pool.rs`) — and a single run, a prepared execution, a
//! view refresh and a Datalog evaluation never spawn anything.

use crate::datalog::{self, DatalogOptions, DatalogRun, DatalogSource, PreparedDatalog};
use crate::durability::{
    self, CheckpointReport, DurabilityCore, DurabilityOptions, DurableState, RecoveryReport,
};
use crate::error::{SacError, SacResult};
use crate::exec;
use crate::index::IndexCache;
use crate::plan::{plan_query, Explain, Plan, Strategy};
use crate::pool::fan_out;
use crate::result::ResultSet;
use crate::view::{MaterializedView, RefreshMode, ViewCore, ViewOptions, ViewRefresh};
use sac_common::{Atom, Symbol};
use sac_core::SemAcConfig;
use sac_datalog::Certificate;
use sac_deps::Tgd;
use sac_query::ConjunctiveQuery;
use sac_storage::{Instance, InstanceStats};
use sac_telemetry::{bus, Event, Histogram, HistogramSnapshot, Phase, Probe, QueryTrace};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::Instant;

/// Incremental view maintenance stops paying off when the delta stops being
/// small: past this fraction of the total rows of the relations a view
/// reads, a refresh recomputes from scratch instead of pushing the delta
/// (the recompute also resets the delta-proportional bound for the next
/// refresh).  A constant, not an option: Δ/|D| says nothing about the join
/// fan-out that decides which path is cheaper (EXPERIMENTS.md, `hub-3rays`),
/// so no other value answers the question better.
const MAX_INCREMENTAL_FRACTION: f64 = 0.5;

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

/// Counters describing a session's workload so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Queries executed (batch and single runs alike).
    pub queries_run: usize,
    /// Plans compiled from scratch (plan-cache misses, whether the request
    /// came from [`Database::run`], [`Database::prepare`] or
    /// [`Database::explain`]).
    pub plans_built: usize,
    /// Plan requests served from the cache.
    pub plan_cache_hits: usize,
    /// Runs executed with [`Strategy::YannakakisDirect`].
    pub runs_yannakakis_direct: usize,
    /// Runs executed with [`Strategy::YannakakisWitness`].
    pub runs_yannakakis_witness: usize,
    /// Runs executed with [`Strategy::IndexedSearch`].
    pub runs_indexed_search: usize,
    /// Join-key indexes built over the session's lifetime.
    pub indexes_built: usize,
    /// Queries fanned out by [`Database::run_batch`]: one per query of a
    /// batch of at least two at [`Database::with_parallelism`] above 1.
    /// Zero for single runs, prepared executions, view refreshes and
    /// Datalog evaluations at any width.  Deterministic for a given
    /// workload.
    pub morsels_dispatched: usize,
    /// Constant 0: a fan-out has no queues to steal from.  The field
    /// exists only because the benchmark's traced pass reads it; it goes
    /// when `pool.morsel_steals` leaves the benchmark spec.
    pub morsel_steals: usize,
    /// Constant 0, kept for the same reason as `morsel_steals`
    /// (`pool.queue_wait_us` in the benchmark spec).
    pub pool_queue_wait_ns: u64,
    /// Materialized views registered over the session's lifetime
    /// ([`Database::materialize`] calls).
    pub views_registered: usize,
    /// View refreshes served by the incremental path (only the delta
    /// evaluated, on any rung).
    pub view_refreshes_incremental: usize,
    /// View refreshes served by full recompute (initial materializations,
    /// oversized deltas).
    pub view_refreshes_full: usize,
    /// Appended rows consumed by incremental view refreshes — the total
    /// "Δ" that maintenance was proportional to instead of the database.
    pub view_delta_rows: usize,
    /// Datalog fixpoint evaluations ([`Database::run_datalog`] /
    /// [`crate::PreparedDatalog::run`] calls).
    pub datalog_runs: usize,
    /// Semi-naive iterations across every Datalog run (all strata).
    pub datalog_iterations: usize,
    /// Facts derived on top of base instances across every Datalog run.
    pub datalog_facts_derived: usize,
    /// WAL records appended (durable databases only; see
    /// [`Database::open`]).
    pub wal_appends: usize,
    /// Framed WAL bytes written (headers included).
    pub wal_bytes: usize,
    /// Compacted snapshots written ([`Database::checkpoint`] calls plus
    /// automatic checkpoints).
    pub snapshots_written: usize,
    /// WAL records replayed during this database's recovery (0 on a fresh
    /// or non-durable database).
    pub recovery_replayed_batches: usize,
    /// Latency distribution of query runs (every [`Database::run`] /
    /// [`PreparedQuery::execute`] / batch-worker execution), excluding
    /// planning: `p50()` / `p90()` / `p99()` answer in nanoseconds.
    pub run_latency: HistogramSnapshot,
    /// Latency distribution of plan compilations (plan-cache misses only —
    /// cache hits are not planning work).
    pub prepare_latency: HistogramSnapshot,
    /// Latency distribution of view refreshes that did work (incremental
    /// delta pushes and full recomputes; already-fresh no-ops are skipped).
    pub view_refresh_latency: HistogramSnapshot,
    /// Latency distribution of whole Datalog fixpoint evaluations
    /// (planning, every iteration and certificate bookkeeping included).
    pub datalog_latency: HistogramSnapshot,
}

impl EngineMetrics {
    /// Fraction of plan requests served from the cache: hits over hits plus
    /// compilations (0 before the first request).  `prepare` and `explain`
    /// requests count like `run` ones — each either hits the cache or builds.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let requests = self.plan_cache_hits + self.plans_built;
        if requests == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / requests as f64
        }
    }

    /// Zeroes every counter, so a fresh measurement window can start without
    /// recreating the session ([`Database::reset_metrics`] does this for a
    /// live database).
    pub fn reset(&mut self) {
        *self = EngineMetrics::default();
    }
}

impl fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs ({} planned, {} cache hits, {:.0}% hit rate); strategies: {} direct / {} witness / {} fallback; {} indexes built; {} queries fanned out; {} views ({} incremental / {} full refreshes, {} delta rows)",
            self.queries_run,
            self.plans_built,
            self.plan_cache_hits,
            100.0 * self.plan_cache_hit_rate(),
            self.runs_yannakakis_direct,
            self.runs_yannakakis_witness,
            self.runs_indexed_search,
            self.indexes_built,
            self.morsels_dispatched,
            self.views_registered,
            self.view_refreshes_incremental,
            self.view_refreshes_full,
            self.view_delta_rows,
        )?;
        if self.datalog_runs > 0 {
            write!(
                f,
                "; datalog: {} runs, {} iterations, {} facts derived",
                self.datalog_runs, self.datalog_iterations, self.datalog_facts_derived,
            )?;
        }
        if self.wal_appends > 0 || self.snapshots_written > 0 || self.recovery_replayed_batches > 0
        {
            write!(
                f,
                "; durability: {} WAL appends ({} bytes), {} snapshots, {} batches replayed",
                self.wal_appends,
                self.wal_bytes,
                self.snapshots_written,
                self.recovery_replayed_batches,
            )?;
        }
        if !self.run_latency.is_empty() {
            write!(f, "; run latency: {}", self.run_latency)?;
        }
        if !self.prepare_latency.is_empty() {
            write!(f, "; prepare latency: {}", self.prepare_latency)?;
        }
        if !self.view_refresh_latency.is_empty() {
            write!(f, "; view refresh latency: {}", self.view_refresh_latency)?;
        }
        if !self.datalog_latency.is_empty() {
            write!(f, "; datalog latency: {}", self.datalog_latency)?;
        }
        Ok(())
    }
}

/// Lock-free counters backing [`Database::metrics`].
#[derive(Debug, Default)]
struct MetricCounters {
    queries_run: AtomicUsize,
    plans_built: AtomicUsize,
    plan_cache_hits: AtomicUsize,
    runs_yannakakis_direct: AtomicUsize,
    runs_yannakakis_witness: AtomicUsize,
    runs_indexed_search: AtomicUsize,
    morsels_dispatched: AtomicUsize,
    views_registered: AtomicUsize,
    view_refreshes_incremental: AtomicUsize,
    view_refreshes_full: AtomicUsize,
    view_delta_rows: AtomicUsize,
    datalog_runs: AtomicUsize,
    datalog_iterations: AtomicUsize,
    datalog_facts_derived: AtomicUsize,
    wal_appends: AtomicUsize,
    wal_bytes: AtomicUsize,
    snapshots_written: AtomicUsize,
    recovery_replayed_batches: AtomicUsize,
}

impl MetricCounters {
    fn record_run(&self, strategy: Strategy) {
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        match strategy {
            Strategy::YannakakisDirect => &self.runs_yannakakis_direct,
            Strategy::YannakakisWitness => &self.runs_yannakakis_witness,
            Strategy::IndexedSearch => &self.runs_indexed_search,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, indexes_built: usize) -> EngineMetrics {
        EngineMetrics {
            queries_run: self.queries_run.load(Ordering::Relaxed),
            plans_built: self.plans_built.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            runs_yannakakis_direct: self.runs_yannakakis_direct.load(Ordering::Relaxed),
            runs_yannakakis_witness: self.runs_yannakakis_witness.load(Ordering::Relaxed),
            runs_indexed_search: self.runs_indexed_search.load(Ordering::Relaxed),
            indexes_built,
            morsels_dispatched: self.morsels_dispatched.load(Ordering::Relaxed),
            morsel_steals: 0,
            pool_queue_wait_ns: 0,
            views_registered: self.views_registered.load(Ordering::Relaxed),
            view_refreshes_incremental: self.view_refreshes_incremental.load(Ordering::Relaxed),
            view_refreshes_full: self.view_refreshes_full.load(Ordering::Relaxed),
            view_delta_rows: self.view_delta_rows.load(Ordering::Relaxed),
            datalog_runs: self.datalog_runs.load(Ordering::Relaxed),
            datalog_iterations: self.datalog_iterations.load(Ordering::Relaxed),
            datalog_facts_derived: self.datalog_facts_derived.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            recovery_replayed_batches: self.recovery_replayed_batches.load(Ordering::Relaxed),
            // Filled in by `Database::metrics` from the live histograms.
            run_latency: HistogramSnapshot::default(),
            prepare_latency: HistogramSnapshot::default(),
            view_refresh_latency: HistogramSnapshot::default(),
            datalog_latency: HistogramSnapshot::default(),
        }
    }

    /// Zeroes the window.
    fn reset(&self) {
        self.queries_run.store(0, Ordering::Relaxed);
        self.plans_built.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.runs_yannakakis_direct.store(0, Ordering::Relaxed);
        self.runs_yannakakis_witness.store(0, Ordering::Relaxed);
        self.runs_indexed_search.store(0, Ordering::Relaxed);
        self.morsels_dispatched.store(0, Ordering::Relaxed);
        self.views_registered.store(0, Ordering::Relaxed);
        self.view_refreshes_incremental.store(0, Ordering::Relaxed);
        self.view_refreshes_full.store(0, Ordering::Relaxed);
        self.view_delta_rows.store(0, Ordering::Relaxed);
        self.datalog_runs.store(0, Ordering::Relaxed);
        self.datalog_iterations.store(0, Ordering::Relaxed);
        self.datalog_facts_derived.store(0, Ordering::Relaxed);
        self.wal_appends.store(0, Ordering::Relaxed);
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.snapshots_written.store(0, Ordering::Relaxed);
        self.recovery_replayed_batches.store(0, Ordering::Relaxed);
    }
}

/// The session's lock-free latency histograms (see
/// [`sac_telemetry::Histogram`]): recorded unconditionally — a record is
/// three relaxed atomic adds — and snapshotted into [`EngineMetrics`].
#[derive(Debug, Default)]
struct LatencyRecorders {
    run: Histogram,
    prepare: Histogram,
    view_refresh: Histogram,
    datalog: Histogram,
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
    instance: RwLock<Instance>,
    tgds: RwLock<Vec<Tgd>>,
    config: EngineConfig,
    /// Threads a [`Database::run_batch`] may use (1 = serial); see
    /// [`Database::with_parallelism`].
    parallelism: usize,
    plans: RwLock<HashMap<PlanKey, Arc<Plan>>>,
    indexes: Mutex<IndexCache>,
    /// Registered materialized views, held weakly: dropping every
    /// [`MaterializedView`] handle unregisters its view (dead entries are
    /// pruned on the next registration or growth).
    views: RwLock<Vec<Weak<ViewCore>>>,
    /// Strong pins for views recovered from disk: the weak registry alone
    /// would unregister them the moment the recovery-time handle dropped.
    /// [`Database::durable_views`] hands out fresh handles over these.
    pinned_views: Mutex<Vec<Arc<ViewCore>>>,
    /// The persistence engine; `None` on non-durable databases.
    durability: Option<DurabilityCore>,
    /// What recovery found, for databases created by [`Database::open`].
    recovery: Option<RecoveryReport>,
    metrics: MetricCounters,
    latency: LatencyRecorders,
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
            instance: RwLock::new(instance),
            tgds: RwLock::new(Vec::new()),
            config: EngineConfig::default(),
            parallelism: 1,
            plans: RwLock::new(HashMap::new()),
            indexes,
            views: RwLock::new(Vec::new()),
            pinned_views: Mutex::new(Vec::new()),
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
    /// contract.
    pub fn with_tgds(self, tgds: Vec<Tgd>) -> Database {
        self.set_tgds(tgds);
        self
    }

    /// Overrides the planner configuration (builder-style).
    pub fn with_config(mut self, config: EngineConfig) -> Database {
        self.config = config;
        self.plans
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
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
    pub fn set_tgds(&self, tgds: Vec<Tgd>) {
        // The tgds write guard is held across the clear, pairing with
        // `plan_arc` (which publishes under the tgds read guard): no plan
        // compiled under the old constraints can slip into the cache after
        // this clear.
        {
            let mut guard = self.write_tgds();
            *guard = tgds.clone();
            self.write_plans().clear();
        }
        if let Some(core) = &self.durability {
            // Checkpoints read this cached structural copy instead of the
            // tgds lock (which sits *before* the instance guard in the lock
            // order; see `crate::durability`).
            *core.lock_tgds_repr() = tgds.iter().map(durability::tgd_repr).collect();
        }
    }

    /// The constraints the planner reformulates under.
    pub fn tgds(&self) -> Vec<Tgd> {
        self.read_tgds().clone()
    }

    /// Runs `f` over the current instance under the read lock.  Keep `f`
    /// short: inserts wait while it runs.
    pub fn read<R>(&self, f: impl FnOnce(&Instance) -> R) -> R {
        f(&self.read_instance())
    }

    /// A point-in-time copy of the stored instance.
    pub fn snapshot(&self) -> Instance {
        self.read_instance().clone()
    }

    /// Total number of stored atoms.
    pub fn len(&self) -> usize {
        self.read_instance().len()
    }

    /// Whether no atoms are stored.
    pub fn is_empty(&self) -> bool {
        self.read_instance().is_empty()
    }

    /// Estimated heap footprint of the stored instance, dictionary
    /// included (see [`Instance::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.read_instance().heap_bytes()
    }

    /// Whether `atom` is stored.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.read_instance().contains(atom)
    }

    /// The instance's mutation epoch (see [`Instance::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.read_instance().epoch()
    }

    /// Summary statistics of the stored instance.
    pub fn stats(&self) -> InstanceStats {
        self.read_instance().stats()
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
    /// the write-ahead log before the instance write guard is released, so
    /// durability is atomic with visibility; see [`crate::durability`].
    pub fn insert(&self, atom: Atom) -> SacResult<bool> {
        let mut instance = self.write_instance();
        let cursor = self.durability.as_ref().map(|_| instance.delta_cursor());
        let added = instance.insert(atom)?;
        if added {
            self.publish_growth(&instance, cursor.as_ref())?;
        }
        Ok(added)
    }

    /// Bulk-inserts every atom of `other`; returns how many were new.
    ///
    /// The whole batch is applied under one instance write guard, so
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
        let mut instance = self.write_instance();
        let cursor = self.durability.as_ref().map(|_| instance.delta_cursor());
        let mut added = 0;
        for atom in other.atoms() {
            match instance.insert(atom) {
                Ok(true) => added += 1,
                Ok(false) => {}
                Err(e) => {
                    // Partial batch: catch the caches up AND persist the
                    // applied prefix — it is visible, so it must survive a
                    // crash like any other visible state.
                    self.publish_growth(&instance, cursor.as_ref())?;
                    return Err(e.into());
                }
            }
        }
        if added > 0 {
            self.publish_growth(&instance, cursor.as_ref())?;
        }
        Ok(added)
    }

    /// What every append owes its readers, under the instance write guard
    /// so no concurrent run can snapshot between the data change and the
    /// maintenance: cached indexes extended, auto-refresh views caught up,
    /// and — on a durable database, where `cursor` is the pre-mutation
    /// cursor — the growth appended to the WAL.
    fn publish_growth(
        &self,
        instance: &Instance,
        cursor: Option<&sac_storage::DeltaCursor>,
    ) -> SacResult<()> {
        self.lock_indexes().note_growth(instance);
        self.refresh_auto_views(instance);
        match cursor {
            Some(cursor) => self.persist_growth(instance, cursor),
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
    /// Cache misses time the compilation into the prepare-latency histogram
    /// and emit a [`Event::PlanBuilt`].
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
        // The tgds read guard is held across the publication below: this
        // orders every publication of a plan compiled under the old
        // constraints strictly before `set_tgds` can swap them and clear the
        // cache — a stale witness plan can never be re-published after the
        // invalidation.
        let tgds = self.read_tgds();
        let planning_started = Instant::now();
        let plan = {
            let instance = self.read_instance();
            Arc::new(plan_query(query, &tgds, &instance, &self.config))
        };
        let planning_elapsed = planning_started.elapsed();
        self.latency.prepare.record(planning_elapsed);
        bus::emit(|| Event::PlanBuilt {
            query: query.to_string(),
            strategy: plan.strategy().as_str().to_owned(),
            micros: u64::try_from(planning_elapsed.as_micros()).unwrap_or(u64::MAX),
        });
        self.metrics.plans_built.fetch_add(1, Ordering::Relaxed);
        let published = Arc::clone(
            self.write_plans()
                .entry(key)
                .or_insert_with(|| Arc::clone(&plan)),
        );
        drop(tgds);
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
    /// semi-naive loop, and folds the run into metrics, the latency
    /// histogram and the event bus.
    pub(crate) fn run_datalog_program(
        &self,
        program: &sac_datalog::DatalogProgram,
        options: DatalogOptions,
    ) -> SacResult<DatalogRun> {
        let started = Instant::now();
        let work = self.snapshot();
        let run = datalog::evaluate(program, work, &self.tgds(), &self.config, options)?;
        let elapsed = started.elapsed();
        self.latency.datalog.record(elapsed);
        self.metrics.datalog_runs.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .datalog_iterations
            .fetch_add(run.stats.iterations, Ordering::Relaxed);
        self.metrics
            .datalog_facts_derived
            .fetch_add(run.stats.facts_derived, Ordering::Relaxed);
        bus::emit(|| Event::DatalogCompleted {
            rules: run.stats.rules,
            strata: run.stats.strata,
            iterations: run.stats.iterations,
            facts_derived: run.stats.facts_derived,
            certificate_steps: run.certificate.as_ref().map_or(0, Certificate::len),
            micros: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        });
        Ok(run)
    }

    /// The single execution funnel.  Every run records its wall time into
    /// the run-latency histogram and announces itself on the event bus;
    /// with `trace` set, the attached probe additionally collects phase
    /// boundaries, cache outcomes and per-node rows into a [`QueryTrace`].
    fn run_plan_core(
        &self,
        plan: &Plan,
        trace: Option<TraceStart>,
    ) -> (ResultSet, Option<QueryTrace>) {
        self.metrics.record_run(plan.strategy());
        let run_started = Instant::now();
        let instance = self.read_instance();
        // Short locked section: build/fetch exactly the plan's indexes…
        let (mut ctx, cache_misses) = {
            let mut cache = self.lock_indexes();
            let built_before = cache.built();
            let ctx = exec::ExecContext::snapshot(plan, false, &instance, &mut cache);
            (ctx, cache.built() - built_before)
        };
        // …then execute lock-free (the instance read guard is still held, so
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
        let tuples = exec::execute_with(plan, &instance, &ctx);
        let result = ResultSet::from_tuples(Arc::clone(plan.columns()), tuples);
        let elapsed = run_started.elapsed();
        self.latency.run.record(elapsed);
        bus::emit(|| Event::RunCompleted {
            strategy: plan.strategy().as_str().to_owned(),
            answers: result.len(),
            micros: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        });
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

    /// Registers `source` as a [`MaterializedView`] with default
    /// [`ViewOptions`]: the answer set is computed now, stored, and then
    /// **maintained** under every append — incrementally on every rung
    /// (delta push through the cached join tree on the Yannakakis rungs,
    /// searches seeded at the delta rows on [`Strategy::IndexedSearch`]).
    /// See [`crate::view`] for the maintenance model.
    ///
    /// Cost shape to be aware of: with the default `auto_refresh`, every
    /// mutation call refreshes the view under the instance write guard, and
    /// a batch past half the rows the view reads recomputes it.  For
    /// per-fact `insert` loops prefer batched appends
    /// ([`Database::load_facts`] / [`Database::extend_from`] refresh once
    /// per batch) or [`Database::materialize_with`] with
    /// `auto_refresh: false` and one explicit refresh per batch.
    pub fn materialize<Q: QuerySource>(&self, source: Q) -> SacResult<MaterializedView<'_>> {
        self.materialize_with(source, ViewOptions::default())
    }

    /// [`Database::materialize`] with explicit maintenance options — e.g.
    /// `auto_refresh: false` for batch ingestion, where one explicit
    /// [`MaterializedView::refresh`] per append batch replaces per-insert
    /// maintenance.
    pub fn materialize_with<Q: QuerySource>(
        &self,
        source: Q,
        options: ViewOptions,
    ) -> SacResult<MaterializedView<'_>> {
        let core = self.register_view(source.into_query()?, options);
        if self.durability.is_some() {
            // View definitions live in snapshots, not the fact WAL; a
            // checkpoint here makes the registration itself durable.
            self.checkpoint()?;
        }
        Ok(MaterializedView::new(self, core))
    }

    /// Plans, materializes and registers a view — everything about a
    /// registration except making it durable, which recovery does once for
    /// all the views it brings back.
    fn register_view(&self, query: ConjunctiveQuery, options: ViewOptions) -> Arc<ViewCore> {
        let plan = self.plan_arc(&query);
        let core = Arc::new(ViewCore::new(query, plan, options));
        {
            // Initial materialization AND registration under one instance
            // read guard: an append between the two would run its
            // auto-refresh pass without seeing the view, leaving an
            // auto_refresh view silently stale at birth.
            let instance = self.read_instance();
            self.refresh_core(&core, &instance);
            let mut views = self.write_views();
            views.retain(|weak| weak.strong_count() > 0);
            views.push(Arc::downgrade(&core));
        }
        self.metrics
            .views_registered
            .fetch_add(1, Ordering::Relaxed);
        bus::emit(|| Event::ViewRegistered {
            query: core.query.to_string(),
            strategy: core.plan.strategy().as_str().to_owned(),
        });
        core
    }

    /// [`MaterializedView::refresh`]: catch one view up with the current
    /// data.
    pub(crate) fn view_refresh(&self, core: &ViewCore) -> ViewRefresh {
        let instance = self.read_instance();
        self.refresh_core(core, &instance)
    }

    /// [`MaterializedView::refresh_traced`]: the refresh report plus a
    /// [`QueryTrace`] over the maintenance work (phases of the delta push
    /// or recompute, refresh mode, delta rows).
    pub(crate) fn view_refresh_traced(&self, core: &ViewCore) -> (ViewRefresh, QueryTrace) {
        let instance = self.read_instance();
        let (refresh, trace) = self.refresh_core_traced(core, &instance, Some(Probe::start()));
        (
            refresh,
            trace.expect("traced refreshes always produce a trace"),
        )
    }

    /// [`MaterializedView::is_fresh`]: whether no relation the view reads
    /// has grown past the view's cursor.
    pub(crate) fn view_is_fresh(&self, core: &ViewCore) -> bool {
        let instance = self.read_instance();
        let state = core.lock_state();
        let Some(cursor) = &state.cursor else {
            return false;
        };
        if cursor.epoch() == instance.epoch() {
            return true;
        }
        instance
            .delta_since(cursor)
            .iter()
            .all(|delta| !core.relevant.contains(&delta.predicate))
    }

    /// Catches every live auto-refresh view up with `instance`.  Called by
    /// the mutation paths under the instance write guard, so a reader that
    /// can observe the new facts can also observe the refreshed views.
    fn refresh_auto_views(&self, instance: &Instance) {
        // Read lock only on the hot path; the registry is rewritten (to
        // prune) only when a dead weak was actually observed.
        let (cores, saw_dead) = {
            let views = self.read_views();
            if views.is_empty() {
                return; // the common no-views case: one read lock, no scan
            }
            let mut cores: Vec<Arc<ViewCore>> = Vec::with_capacity(views.len());
            let mut saw_dead = false;
            for weak in views.iter() {
                match weak.upgrade() {
                    Some(core) => cores.push(core),
                    None => saw_dead = true,
                }
            }
            (cores, saw_dead)
        };
        if saw_dead {
            self.write_views().retain(|weak| weak.strong_count() > 0);
        }
        for core in cores {
            if core.options.auto_refresh {
                self.refresh_core(&core, instance);
            }
        }
    }

    /// The maintenance workhorse: brings `core` up to date with `instance`
    /// (which the caller holds a guard over) and records what that took.
    ///
    /// Refresh decision, in order: not grown (or grown only off the view's
    /// schema) → nothing; an already-true Boolean view → nothing (CQs are
    /// monotone, true stays true); a delta within
    /// [`MAX_INCREMENTAL_FRACTION`] → evaluate the delta only, on whichever
    /// rung the plan is; otherwise → recompute.
    fn refresh_core(&self, core: &ViewCore, instance: &Instance) -> ViewRefresh {
        self.refresh_core_traced(core, instance, None).0
    }

    /// [`Database::refresh_core`] with an optional probe: refreshes that do
    /// work (delta push or recompute) are timed into the view-refresh
    /// histogram and announced on the event bus; with a probe attached the
    /// maintenance run additionally yields a [`QueryTrace`] carrying the
    /// refresh mode and delta rows.
    fn refresh_core_traced(
        &self,
        core: &ViewCore,
        instance: &Instance,
        probe: Option<Probe>,
    ) -> (ViewRefresh, Option<QueryTrace>) {
        // Assembles the trace for the no-work shortcuts below: no phases
        // beyond whatever the probe accumulated, current answer count.
        let fresh_trace = |probe: Option<Probe>, refresh: &ViewRefresh, answers: usize| {
            probe.map(|p| {
                let (phases, node_rows, total_ns) = p.finish();
                self.view_query_trace(core, refresh, phases, node_rows, total_ns, answers)
            })
        };
        let mut state = core.lock_state();
        if let Some(cursor) = &state.cursor {
            if cursor.epoch() == instance.epoch() {
                let answers = state.answers.len();
                drop(state);
                let trace = fresh_trace(probe, &ViewRefresh::FRESH, answers);
                return (ViewRefresh::FRESH, trace);
            }
        }
        let initialized = state.cursor.is_some();
        let mut watermarks: HashMap<Symbol, usize> = HashMap::new();
        let mut delta_rows = 0usize;
        if let Some(cursor) = &state.cursor {
            for delta in instance.delta_since(cursor) {
                if core.relevant.contains(&delta.predicate) {
                    delta_rows += delta.len();
                    watermarks.insert(delta.predicate, delta.from_row);
                }
            }
        }
        if initialized && watermarks.is_empty() {
            // Growth only on predicates the view never reads.
            state.cursor = Some(instance.delta_cursor());
            let answers = state.answers.len();
            drop(state);
            let trace = fresh_trace(probe, &ViewRefresh::FRESH, answers);
            return (ViewRefresh::FRESH, trace);
        }
        if initialized && core.plan.columns().is_empty() && !state.answers.is_empty() {
            // A satisfied Boolean view can never become unsatisfied under
            // appends: skip the evaluation entirely.
            state.cursor = Some(instance.delta_cursor());
            let refresh = ViewRefresh {
                mode: RefreshMode::Fresh,
                delta_rows,
                rows_added: 0,
            };
            let answers = state.answers.len();
            drop(state);
            let trace = fresh_trace(probe, &refresh, answers);
            return (refresh, trace);
        }

        let refresh_started = Instant::now();
        let relevant_rows: usize = core
            .relevant
            .iter()
            .filter_map(|p| instance.relation(*p))
            .map(|rel| rel.len())
            .sum();
        let small =
            initialized && (delta_rows as f64) <= MAX_INCREMENTAL_FRACTION * relevant_rows as f64;
        let before = state.answers.len();
        let mut ctx =
            exec::ExecContext::snapshot(&core.plan, small, instance, &mut self.lock_indexes());
        if let Some(mut p) = probe {
            p.mark(Phase::Snapshot);
            ctx = ctx.with_probe(p);
        }
        let mode = if small {
            let delta = exec::execute_delta(&core.plan, instance, &watermarks, &ctx);
            Arc::make_mut(&mut state.answers).extend(delta);
            self.metrics
                .view_refreshes_incremental
                .fetch_add(1, Ordering::Relaxed);
            self.metrics
                .view_delta_rows
                .fetch_add(delta_rows, Ordering::Relaxed);
            RefreshMode::Incremental
        } else {
            state.answers = Arc::new(exec::execute_with(&core.plan, instance, &ctx));
            self.metrics
                .view_refreshes_full
                .fetch_add(1, Ordering::Relaxed);
            RefreshMode::Full
        };
        state.cursor = Some(instance.delta_cursor());
        let refresh = ViewRefresh {
            mode,
            delta_rows,
            // Appends are monotone so this never truncates; saturate anyway
            // rather than panic if an oracle recompute ever shrinks.
            rows_added: state.answers.len().saturating_sub(before),
        };
        let answers = state.answers.len();
        drop(state);
        let elapsed = refresh_started.elapsed();
        self.latency.view_refresh.record(elapsed);
        bus::emit(|| Event::ViewRefreshed {
            mode: refresh.mode.to_string(),
            delta_rows: refresh.delta_rows,
            rows_added: refresh.rows_added,
            micros: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        });
        let trace = ctx.take_probe().map(|probe| {
            let (phases, node_rows, total_ns) = probe.finish();
            self.view_query_trace(core, &refresh, phases, node_rows, total_ns, answers)
        });
        (refresh, trace)
    }

    /// Assembles the [`QueryTrace`] for one view maintenance pass.
    fn view_query_trace(
        &self,
        core: &ViewCore,
        refresh: &ViewRefresh,
        phases: sac_telemetry::PhaseTimes,
        node_rows: Vec<sac_telemetry::NodeRows>,
        total_ns: u64,
        answers: usize,
    ) -> QueryTrace {
        QueryTrace {
            query: core.query.to_string(),
            strategy: core.plan.strategy().as_str().to_owned(),
            // The view's plan was pinned at materialization: by definition
            // every maintenance pass reuses it.
            plan_cache_hit: true,
            index_cache_hits: 0,
            index_cache_misses: 0,
            phases,
            total_ns,
            node_rows,
            answers,
            refresh_mode: Some(refresh.mode.to_string()),
            delta_rows: Some(refresh.delta_rows),
        }
    }

    /// Session counters (plan-cache hit rate, per-strategy runs, …) since
    /// the last [`Database::reset_metrics`].
    pub fn metrics(&self) -> EngineMetrics {
        let indexes_built = self.lock_indexes().built();
        let mut m = self.metrics.snapshot(indexes_built);
        m.run_latency = self.latency.run.snapshot();
        m.prepare_latency = self.latency.prepare.snapshot();
        m.view_refresh_latency = self.latency.view_refresh.snapshot();
        m.datalog_latency = self.latency.datalog.snapshot();
        m
    }

    /// Zeroes every metric counter, including the index-build counter.  The
    /// caches themselves are untouched (see [`Database::clear_caches`]).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
        self.lock_indexes().reset_built();
        self.latency.run.reset();
        self.latency.prepare.reset();
        self.latency.view_refresh.reset();
        self.latency.datalog.reset();
    }

    /// Maintenance hook: drops every cached plan and join index.  Subsequent
    /// queries replan and rebuild from the live data — correctness never
    /// depends on this, but it bounds memory after a schema or workload
    /// shift.  Metrics are untouched (see [`Database::reset_metrics`]).
    pub fn clear_caches(&self) {
        self.write_plans().clear();
        let instance = self.read_instance();
        self.lock_indexes().invalidate_all(&instance);
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.read_plans().len()
    }

    // ------------------------------------------------------------------
    // Durable persistence (see `crate::durability` for the model).
    // ------------------------------------------------------------------

    /// Opens (or creates) a durable database in directory `path` with
    /// default [`DurabilityOptions`]: every append fsynced, automatic
    /// snapshots.
    ///
    /// Recovery loads the newest snapshot — a newest file that does not
    /// verify is a [`SacError::Persistence`] naming it, never a silent
    /// fallback to an older one — replays the WAL tail
    /// (truncating a torn final record), re-registers and refreshes every
    /// persisted materialized view, warms the plan cache from the persisted
    /// query fingerprints, and checkpoints the rebuilt state so this
    /// process's dictionary codes become the on-disk baseline.  The
    /// constraint set is restored before any plan is warmed.
    pub fn open(path: impl AsRef<Path>) -> SacResult<Database> {
        Database::open_with(path, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit durability options.
    pub fn open_with(path: impl AsRef<Path>, options: DurabilityOptions) -> SacResult<Database> {
        let started = Instant::now();
        let dir = path.as_ref().to_path_buf();
        let disk = durability::load_disk_state(&dir, options)?;
        let mut report = disk.report;

        let mut db = Database::from_instance(disk.instance);
        let tgds = disk
            .tgds
            .iter()
            .map(durability::tgd_from_repr)
            .collect::<SacResult<Vec<_>>>()?;
        db.durability = Some(DurabilityCore {
            dir,
            options,
            state: Mutex::new(DurableState {
                wal: disk.wal,
                next_seq: disk.last_seq + 1,
                // 0 until the checkpoint below re-baselines: the persisted
                // dictionary codes belong to the dead process, not this one.
                dict_mark: 0,
                since_snapshot: 0,
            }),
            tgds_repr: Mutex::new(disk.tgds.clone()),
        });
        db.set_tgds(tgds);
        db.metrics
            .recovery_replayed_batches
            .fetch_add(report.replayed_batches, Ordering::Relaxed);

        // Re-register the persisted views (initial refresh included) and
        // pin them: the weak registry alone would unregister them as soon
        // as this loop drops its reference.  Nothing is written until every
        // view is back — a snapshot taken in between would list a prefix of
        // the view set and reset the WAL behind it.
        for view in &disk.views {
            let query = durability::query_from_repr(&view.query)?;
            let options = ViewOptions {
                auto_refresh: view.auto_refresh,
            };
            let core = db.register_view(query, options);
            db.pinned_views
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(core);
            report.views += 1;
        }

        // Warm the plan cache from the persisted fingerprints.  A repr the
        // current validation rejects (e.g. written by a newer build) is
        // skipped, not fatal: the cache is an optimization.
        for repr in &disk.plans {
            if let Ok(query) = durability::query_from_repr(repr) {
                db.plan_arc(&query);
                report.plans += 1;
            }
        }

        // Checkpoint the rebuilt state: the WAL is compacted away and the
        // dictionary watermark re-baselines to this process's codes.
        db.checkpoint()?;

        report.micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        bus::emit(|| Event::RecoveryCompleted {
            replayed_batches: report.replayed_batches,
            replayed_rows: report.replayed_rows,
            views: report.views,
            plans: report.plans,
            micros: report.micros,
        });
        db.recovery = Some(report);
        Ok(db)
    }

    /// Whether this database persists its mutations (created by
    /// [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// What recovery found and did, for databases created by
    /// [`Database::open`]; `None` on non-durable databases.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Fresh handles over the materialized views recovered from disk, in
    /// their persisted registration order.  Empty on non-durable databases
    /// and on durable ones that had no views.
    pub fn durable_views(&self) -> Vec<MaterializedView<'_>> {
        self.pinned_views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|core| MaterializedView::new(self, Arc::clone(core)))
            .collect()
    }

    /// Writes a compacted snapshot covering every append so far and
    /// truncates the WAL it covers.  Errors on a non-durable database.
    pub fn checkpoint(&self) -> SacResult<CheckpointReport> {
        let core = self
            .durability
            .as_ref()
            .ok_or_else(|| SacError::Persistence {
                message: "checkpoint on a non-durable database (use Database::open)".to_owned(),
            })?;
        // Same lock order as the append path: instance guard, then the
        // durability state.  A read guard suffices — appends (which hold
        // the write guard) serialize against us on the state mutex.
        let instance = self.read_instance();
        let mut state = core.lock_state();
        self.checkpoint_locked(core, &instance, &mut state)
    }

    /// Forces every WAL byte written so far to disk, regardless of the
    /// sync mode — the graceful-shutdown companion of
    /// [`SyncMode::Never`](sac_wal::SyncMode::Never).  No-op answer on a
    /// non-durable database.
    pub fn sync_wal(&self) -> SacResult<()> {
        if let Some(core) = &self.durability {
            core.lock_state().wal.sync()?;
        }
        Ok(())
    }

    /// The append-path durability hook: called by [`Database::insert`] /
    /// [`Database::extend_from`] **under the instance write guard** with
    /// the pre-mutation cursor; appends one WAL record covering exactly
    /// the growth, then checkpoints if the auto-snapshot threshold is hit.
    fn persist_growth(
        &self,
        instance: &Instance,
        cursor: &sac_storage::DeltaCursor,
    ) -> SacResult<()> {
        let core = self
            .durability
            .as_ref()
            .expect("persist_growth on a non-durable database");
        let mut state = core.lock_state();
        let seq = state.next_seq;
        let Some((batch, dict_len)) =
            durability::delta_batch(instance, cursor, seq, state.dict_mark)
        else {
            return Ok(());
        };
        let bytes = state.wal.append(&batch)?;
        state.next_seq += 1;
        state.dict_mark = dict_len;
        state.since_snapshot += 1;
        self.metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.metrics.wal_bytes.fetch_add(
            usize::try_from(bytes).unwrap_or(usize::MAX),
            Ordering::Relaxed,
        );
        bus::emit(|| Event::WalAppended {
            seq,
            bytes,
            rows: batch.rows(),
        });
        if core.options.snapshot_every > 0 && state.since_snapshot >= core.options.snapshot_every {
            self.checkpoint_locked(core, instance, &mut state)?;
        }
        Ok(())
    }

    /// The checkpoint workhorse; the caller holds an instance guard (read
    /// or write) and the durability state lock.
    fn checkpoint_locked(
        &self,
        core: &DurabilityCore,
        instance: &Instance,
        state: &mut DurableState,
    ) -> SacResult<CheckpointReport> {
        let started = Instant::now();
        let tgds = core.lock_tgds_repr().clone();
        // Live views (upgradable weaks), in registration order.  `views`
        // comes after `instance` in the lock order, so this is safe from
        // both checkpoint entry points.
        let views: Vec<_> = self
            .read_views()
            .iter()
            .filter_map(|weak| weak.upgrade())
            .map(|view| durability::view_repr(&view.query, view.options))
            .collect();
        // The plan cache is last and released before any I/O.
        let plans: Vec<_> = self
            .read_plans()
            .keys()
            .map(|(head, body)| durability::query_repr(None, head, body))
            .collect();
        let last_seq = state.next_seq.saturating_sub(1);
        let (snapshot, dict_len) = durability::snapshot_of(instance, last_seq, tgds, views, plans);
        let atoms = snapshot.atoms();
        let (path, bytes) = durability::persist_snapshot(&core.dir, &snapshot)?;
        // The snapshot is the baseline from here on, whether or not the
        // reset below succeeds: recovery skips the records it covers, so
        // the next record's dictionary delta must start where it ends.
        state.dict_mark = dict_len;
        state.wal.reset()?;
        state.since_snapshot = 0;
        self.metrics
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        bus::emit(|| Event::SnapshotWritten {
            seq: last_seq,
            bytes,
            atoms,
            micros,
        });
        Ok(CheckpointReport {
            seq: last_seq,
            path,
            bytes,
            atoms,
            micros,
        })
    }

    // Lock plumbing.  Poisoning is not propagated: a panicking query thread
    // leaves the structures it held in a consistent state (pure reads, or
    // completed cache updates), so later callers simply continue.

    fn read_instance(&self) -> std::sync::RwLockReadGuard<'_, Instance> {
        self.instance.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_instance(&self) -> std::sync::RwLockWriteGuard<'_, Instance> {
        self.instance.write().unwrap_or_else(|e| e.into_inner())
    }

    fn read_tgds(&self) -> std::sync::RwLockReadGuard<'_, Vec<Tgd>> {
        self.tgds.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_tgds(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Tgd>> {
        self.tgds.write().unwrap_or_else(|e| e.into_inner())
    }

    fn read_plans(&self) -> std::sync::RwLockReadGuard<'_, HashMap<PlanKey, Arc<Plan>>> {
        self.plans.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_plans(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<PlanKey, Arc<Plan>>> {
        self.plans.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_indexes(&self) -> std::sync::MutexGuard<'_, IndexCache> {
        self.indexes.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn read_views(&self) -> std::sync::RwLockReadGuard<'_, Vec<Weak<ViewCore>>> {
        self.views.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_views(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Weak<ViewCore>>> {
        self.views.write().unwrap_or_else(|e| e.into_inner())
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
        db.set_tgds(vec![sac_gen::collector_tgd()]);
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
            db.set_tgds(vec![sac_gen::collector_tgd()]);
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
            .map(|v| durability::view_repr(v.query(), v.options()));
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
