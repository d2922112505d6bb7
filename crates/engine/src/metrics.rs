//! [`EngineMetrics`]: the engine's one account of its own activity.
//!
//! Every operation bumps a relaxed atomic in [`MetricCounters`] and times
//! itself into one of the [`LatencyRecorders`] histograms;
//! [`Database::metrics`] snapshots both into an [`EngineMetrics`] value,
//! which is what tests, examples and the benchmark read.  Per-run detail
//! (phases, cache outcomes, per-node rows) is the [`crate::QueryTrace`] of
//! a traced run; recovery and checkpoints report through
//! [`crate::RecoveryReport`] and [`crate::CheckpointReport`].

use crate::database::Database;
use crate::plan::Strategy;
use crate::telemetry::{Histogram, HistogramSnapshot};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// [`crate::PreparedQuery::execute`] / batch-worker execution), excluding
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
pub(crate) struct MetricCounters {
    pub(crate) queries_run: AtomicUsize,
    pub(crate) plans_built: AtomicUsize,
    pub(crate) plan_cache_hits: AtomicUsize,
    pub(crate) runs_yannakakis_direct: AtomicUsize,
    pub(crate) runs_yannakakis_witness: AtomicUsize,
    pub(crate) runs_indexed_search: AtomicUsize,
    pub(crate) morsels_dispatched: AtomicUsize,
    pub(crate) views_registered: AtomicUsize,
    pub(crate) view_refreshes_incremental: AtomicUsize,
    pub(crate) view_refreshes_full: AtomicUsize,
    pub(crate) view_delta_rows: AtomicUsize,
    pub(crate) datalog_runs: AtomicUsize,
    pub(crate) datalog_iterations: AtomicUsize,
    pub(crate) datalog_facts_derived: AtomicUsize,
    pub(crate) wal_appends: AtomicUsize,
    pub(crate) wal_bytes: AtomicUsize,
    pub(crate) snapshots_written: AtomicUsize,
    pub(crate) recovery_replayed_batches: AtomicUsize,
}

impl MetricCounters {
    pub(crate) fn record_run(&self, strategy: Strategy) {
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
/// [`crate::telemetry::Histogram`]): recorded unconditionally — a record is
/// three relaxed atomic adds — and snapshotted into [`EngineMetrics`].
#[derive(Debug, Default)]
pub(crate) struct LatencyRecorders {
    pub(crate) run: Histogram,
    pub(crate) prepare: Histogram,
    pub(crate) view_refresh: Histogram,
    pub(crate) datalog: Histogram,
}

impl Database {
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
}
