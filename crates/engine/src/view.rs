//! Materialized views: standing queries maintained under fact appends.
//!
//! [`crate::Database::materialize`] registers a query as a
//! [`MaterializedView`]: its answer set is computed once, stored, and from
//! then on **maintained** instead of recomputed.  The storage layer's
//! per-relation delta logs ([`sac_storage::DeltaCursor`]) tell each view
//! exactly which facts appeared since its last refresh, and the executor's
//! delta path (`exec::execute_delta`) evaluates the standing query with one
//! occurrence of a grown relation at a time confined to those facts.
//! Conjunctive queries are monotone, so appends only ever **add** answers
//! and the maintained set is exactly the from-scratch answer set.
//!
//! The delta path exists on every rung.  A plan with a join tree — the
//! query's own on the [`Strategy::YannakakisDirect`] rung, the pinned
//! acyclic witness's on the [`Strategy::YannakakisWitness`] rung (the
//! witness is itself a monotone conjunctive query, so its answers over the
//! old facts united with what the delta adds are its answers over the new
//! facts — exactly what a recompute of the witness returns) — pushes the
//! delta through it: delta match sets at the dirty nodes, index-driven
//! restriction outward along the tree edges, then the ordinary semijoin
//! sweeps and join-back-up over the restricted (delta-sized) tables.  A
//! [`Strategy::IndexedSearch`] plan runs, per occurrence of a grown
//! relation, the search that starts at that occurrence's delta rows.  Only
//! the initial materialization and deltas past half the rows the view reads
//! recompute; [`ViewRefresh::mode`] reports which path ran, and the view
//! counters in [`crate::EngineMetrics`] aggregate them.
//!
//! Freshness is observable and maintenance is optional per view:
//! with [`ViewOptions::auto_refresh`] (the default) every append catches
//! registered views up under the same write guard that changed the data,
//! so any reader that can see the new facts also sees the refreshed view;
//! with `auto_refresh` off the view goes stale ([`MaterializedView::is_fresh`]
//! returns `false`) until [`MaterializedView::refresh`] is called — the
//! batch-ingestion shape, one incremental refresh per append batch.
//!
//! The maintenance side is an `impl Database` here: registration, the
//! append path's auto-refresh pass and explicit refreshes.  Each runs under
//! the database's state guard — the append's write guard, a registration's
//! own write guard, a read guard for an explicit refresh — and then the
//! view's own state mutex (lock order in [`crate::database`]).
//!
//! ```
//! use sac_engine::{Database, RefreshMode};
//!
//! let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
//! let view = db.materialize("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
//! assert_eq!(view.snapshot().len(), 1);
//!
//! // Appends keep the view current (auto_refresh is on by default)…
//! db.load_facts("E(c, d).").unwrap();
//! assert!(view.is_fresh());
//! assert_eq!(view.snapshot().len(), 2);
//!
//! // …and the maintenance was incremental, not a recompute.
//! assert_eq!(db.metrics().view_refreshes_incremental, 1);
//! assert_eq!(view.refresh().mode, RefreshMode::Fresh);
//! ```

use crate::database::{Database, QuerySource, State};
use crate::error::SacResult;
use crate::exec;
use crate::plan::{Explain, Plan, Strategy};
use crate::result::{CodeRows, ResultSet};
use sac_common::Symbol;
use sac_query::ConjunctiveQuery;
use sac_storage::{DeltaCursor, Instance};
use sac_telemetry::{NodeRows, Phase, PhaseTimes, Probe, QueryTrace};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Incremental view maintenance stops paying off when the delta stops being
/// small: past this fraction of the total rows of the relations a view
/// reads, a refresh recomputes from scratch instead of pushing the delta
/// (the recompute also resets the delta-proportional bound for the next
/// refresh).  A constant, not an option: Δ/|D| says nothing about the join
/// fan-out that decides which path is cheaper (EXPERIMENTS.md, `hub-3rays`),
/// so no other value answers the question better.
const MAX_INCREMENTAL_FRACTION: f64 = 0.5;

/// Per-view maintenance knobs, fixed at [`crate::Database::materialize_with`]
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewOptions {
    /// Refresh the view as part of every append (`insert` / `extend_from` /
    /// `load_facts`), under the same state write guard — the view is
    /// never observably stale.  Off, appends leave the view stale until
    /// [`MaterializedView::refresh`] runs; snapshots serve the last
    /// materialized state.  Default: on.
    pub auto_refresh: bool,
}

impl Default for ViewOptions {
    fn default() -> ViewOptions {
        ViewOptions { auto_refresh: true }
    }
}

/// How a [`MaterializedView::refresh`] brought the view up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Nothing needed doing: no relevant relation grew since the last
    /// refresh, or the view is a satisfied Boolean query (appends cannot
    /// unsatisfy a monotone query, so its delta is skipped outright — the
    /// skipped rows are still reported in [`ViewRefresh::delta_rows`]).
    Fresh,
    /// Only the delta was evaluated (the delta-proportional path): pushed
    /// through the cached join tree, or searched from on the indexed rung.
    Incremental,
    /// The answer set was recomputed from scratch: the initial
    /// materialization, or a delta of more than half the rows of the
    /// relations the view reads.
    Full,
}

impl fmt::Display for RefreshMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RefreshMode::Fresh => "fresh",
            RefreshMode::Incremental => "incremental",
            RefreshMode::Full => "full",
        })
    }
}

/// What one refresh did: which path ran, how many delta rows it consumed
/// (rows appended to the view's relevant relations since the previous
/// refresh) and how many answer rows it added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewRefresh {
    /// The path taken.
    pub mode: RefreshMode,
    /// Appended rows on the relations the view reads since the previous
    /// refresh: 0 when nothing relevant grew; nonzero with
    /// [`RefreshMode::Fresh`] only for a satisfied Boolean view, whose
    /// delta is skipped rather than evaluated.
    pub delta_rows: usize,
    /// Net new answer rows (appends are monotone: answers never leave).
    pub rows_added: usize,
}

impl ViewRefresh {
    pub(crate) const FRESH: ViewRefresh = ViewRefresh {
        mode: RefreshMode::Fresh,
        delta_rows: 0,
        rows_added: 0,
    };
}

impl fmt::Display for ViewRefresh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} delta rows -> +{} answers)",
            self.mode, self.delta_rows, self.rows_added
        )
    }
}

/// The maintained state of one view: where in the instance's growth the
/// answers are current to, and the answers themselves, as the executor's
/// sorted code rows.  They are behind an [`Arc`]: a
/// [`MaterializedView::snapshot`] shares them (decoding, if its reader
/// asks for terms, outside the state lock), and a refresh replaces them
/// with a merge of the old rows and the delta's.
#[derive(Debug)]
pub(crate) struct ViewState {
    /// `None` until the initial materialization ran.
    pub(crate) cursor: Option<DeltaCursor>,
    pub(crate) answers: Arc<CodeRows>,
}

/// The shared core of a registered view: the compiled plan plus the
/// mutex-guarded maintained state.  The [`crate::Database`] holds a weak
/// reference (dropping every [`MaterializedView`] handle unregisters the
/// view); handles hold it strongly.
#[derive(Debug)]
pub(crate) struct ViewCore {
    pub(crate) query: Arc<ConjunctiveQuery>,
    pub(crate) plan: Arc<Plan>,
    pub(crate) options: ViewOptions,
    /// Predicates whose growth can change the answers: the *executed*
    /// query's body (the witness's on the witness rung).  The plan is
    /// pinned, so this is an invariant — computed once here rather than on
    /// every append.
    pub(crate) relevant: BTreeSet<Symbol>,
    state: Mutex<ViewState>,
}

impl ViewCore {
    pub(crate) fn new(query: ConjunctiveQuery, plan: Arc<Plan>, options: ViewOptions) -> ViewCore {
        let relevant = plan
            .exec_query()
            .body
            .iter()
            .map(|atom| atom.predicate)
            .collect();
        let width = plan.columns().len();
        ViewCore {
            query: Arc::new(query),
            plan,
            options,
            relevant,
            state: Mutex::new(ViewState {
                cursor: None,
                answers: Arc::new(CodeRows::from_unsorted(width, 0, Vec::new())),
            }),
        }
    }

    pub(crate) fn lock_state(&self) -> MutexGuard<'_, ViewState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A standing query registered on a [`Database`]: its answers are
/// materialized once and then maintained under fact appends (see the
/// [module docs](self)).
///
/// The handle is cheap to clone and `Send + Sync`; every clone reads and
/// refreshes the same maintained state.  Dropping the last handle
/// unregisters the view.  Like a [`crate::PreparedQuery`], the plan is
/// pinned at registration: re-materialize after
/// [`Database::set_tgds`](crate::Database::set_tgds) changes the
/// constraints a witness plan was found under.
#[derive(Debug, Clone)]
pub struct MaterializedView<'db> {
    database: &'db Database,
    core: Arc<ViewCore>,
}

impl<'db> MaterializedView<'db> {
    pub(crate) fn new(database: &'db Database, core: Arc<ViewCore>) -> MaterializedView<'db> {
        MaterializedView { database, core }
    }

    /// The current materialized answers, as a typed [`ResultSet`].  No
    /// recomputation happens: this is a read of the maintained state (call
    /// [`MaterializedView::refresh`] first if the view may be stale and
    /// staleness matters).
    pub fn snapshot(&self) -> ResultSet {
        let answers = Arc::clone(&self.core.lock_state().answers);
        ResultSet::new(Arc::clone(self.core.plan.columns()), answers)
    }

    /// Brings the view up to date with the database and reports what that
    /// took: a no-op when fresh, a delta evaluation (on whichever rung the
    /// pinned plan is) when the delta is small, a recompute otherwise.
    pub fn refresh(&self) -> ViewRefresh {
        self.database.view_refresh(&self.core)
    }

    /// [`MaterializedView::refresh`] with a [`sac_telemetry::QueryTrace`]
    /// over the maintenance work: the trace's `refresh_mode` and
    /// `delta_rows` report which path ran, and — for refreshes that did
    /// work — the phase timers cover the delta push or recompute.
    pub fn refresh_traced(&self) -> (ViewRefresh, sac_telemetry::QueryTrace) {
        self.database.view_refresh_traced(&self.core)
    }

    /// Whether the view reflects every fact currently in the database.
    /// Always `true` between operations for auto-refresh views; a lazy view
    /// goes stale when a relevant relation grows.
    pub fn is_fresh(&self) -> bool {
        self.database.view_is_fresh(&self.core)
    }

    /// Number of currently materialized answer rows.
    pub fn len(&self) -> usize {
        self.core.lock_state().answers.len()
    }

    /// Whether the view currently holds no answers.
    pub fn is_empty(&self) -> bool {
        self.core.lock_state().answers.is_empty()
    }

    /// The Boolean reading of the maintained answers.
    pub fn is_true(&self) -> bool {
        !self.is_empty()
    }

    /// The standing query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.core.query
    }

    /// The strategy of the pinned plan (incremental maintenance applies on
    /// every rung).
    pub fn strategy(&self) -> Strategy {
        self.core.plan.strategy()
    }

    /// The planner's decision for the standing query, for inspection.
    pub fn explain(&self) -> &Explain {
        self.core.plan.explain()
    }

    /// The result columns every snapshot carries.
    pub fn columns(&self) -> &[String] {
        self.core.plan.columns().as_ref()
    }

    /// The view's maintenance options.
    pub fn options(&self) -> ViewOptions {
        self.core.options
    }
}

impl Database {
    /// Registers `source` as a [`MaterializedView`] with default
    /// [`ViewOptions`]: the answer set is computed now, stored, and then
    /// **maintained** under every append — incrementally on every rung
    /// (delta push through the cached join tree on the Yannakakis rungs,
    /// searches seeded at the delta rows on [`Strategy::IndexedSearch`]).
    /// See the [module docs](self) for the maintenance model.
    ///
    /// Cost shape to be aware of: with the default `auto_refresh`, every
    /// mutation call refreshes the view under the state write guard, and a
    /// batch past half the rows the view reads recomputes it.  For per-fact
    /// `insert` loops prefer batched appends ([`Database::load_facts`] /
    /// [`Database::extend_from`] refresh once per batch) or
    /// [`Database::materialize_with`] with `auto_refresh: false` and one
    /// explicit refresh per batch.
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
        if self.is_durable() {
            // View definitions live in snapshots, not the fact WAL; a
            // checkpoint here makes the registration itself durable.
            self.checkpoint()?;
        }
        Ok(MaterializedView::new(self, core))
    }

    /// Plans, materializes and registers a view — everything about a
    /// registration except making it durable, which recovery does once for
    /// all the views it brings back.
    pub(crate) fn register_view(
        &self,
        query: ConjunctiveQuery,
        options: ViewOptions,
    ) -> Arc<ViewCore> {
        let plan = self.plan_arc(&query);
        let core = Arc::new(ViewCore::new(query, plan, options));
        {
            // Initial materialization AND registration under one write
            // guard: an append between the two would run its auto-refresh
            // pass without seeing the view, leaving an auto_refresh view
            // silently stale at birth.
            let mut state = self.write_state();
            self.refresh_core(&core, &state.instance);
            state.views.retain(|weak| weak.strong_count() > 0);
            state.views.push(Arc::downgrade(&core));
        }
        self.metrics
            .views_registered
            .fetch_add(1, Ordering::Relaxed);
        core
    }

    /// [`MaterializedView::refresh`]: catch one view up with the current
    /// data.
    pub(crate) fn view_refresh(&self, core: &ViewCore) -> ViewRefresh {
        self.refresh_core(core, &self.read_state().instance)
    }

    /// [`MaterializedView::refresh_traced`]: the refresh report plus a
    /// [`QueryTrace`] over the maintenance work (phases of the delta push
    /// or recompute, refresh mode, delta rows).
    pub(crate) fn view_refresh_traced(&self, core: &ViewCore) -> (ViewRefresh, QueryTrace) {
        let state = self.read_state();
        let (refresh, trace) =
            self.refresh_core_traced(core, &state.instance, Some(Probe::start()));
        (
            refresh,
            trace.expect("traced refreshes always produce a trace"),
        )
    }

    /// [`MaterializedView::is_fresh`]: whether no relation the view reads
    /// has grown past the view's cursor.
    pub(crate) fn view_is_fresh(&self, core: &ViewCore) -> bool {
        let state = self.read_state();
        let view = core.lock_state();
        let Some(cursor) = &view.cursor else {
            return false;
        };
        if cursor.epoch() == state.instance.epoch() {
            return true;
        }
        state
            .instance
            .delta_since(cursor)
            .iter()
            .all(|delta| !core.relevant.contains(&delta.predicate))
    }

    /// Catches every live auto-refresh view up with the instance and drops
    /// the registrations whose last handle is gone.  Called by the append
    /// path under the state write guard, so a reader that can observe the
    /// new facts can also observe the refreshed views.
    pub(crate) fn refresh_auto_views(&self, state: &mut State) {
        let State {
            instance, views, ..
        } = state;
        views.retain(|weak| {
            let Some(core) = weak.upgrade() else {
                return false;
            };
            if core.options.auto_refresh {
                self.refresh_core(&core, instance);
            }
            true
        });
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
    /// histogram; with a probe attached the maintenance run additionally
    /// yields a [`QueryTrace`] carrying the refresh mode and delta rows.
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
            if !delta.is_empty() {
                state.answers = Arc::new(state.answers.union(&delta));
            }
            self.metrics
                .view_refreshes_incremental
                .fetch_add(1, Ordering::Relaxed);
            self.metrics
                .view_delta_rows
                .fetch_add(delta_rows, Ordering::Relaxed);
            RefreshMode::Incremental
        } else {
            state.answers = Arc::new(exec::execute_with(&core.plan, instance, &ctx, false));
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
        self.latency.view_refresh.record(refresh_started.elapsed());
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
        phases: PhaseTimes,
        node_rows: Vec<NodeRows>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{Database, EngineConfig};
    use sac_common::{atom, Term};
    use sac_query::evaluate;

    #[test]
    fn auto_views_track_inserts_incrementally() {
        let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
        let view = db.materialize("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
        assert_eq!(view.strategy(), Strategy::YannakakisDirect);
        assert_eq!(view.len(), 1);
        assert!(view.is_fresh());
        let m = db.metrics();
        assert_eq!(m.views_registered, 1);
        assert_eq!(m.view_refreshes_full, 1, "initial materialization");

        assert!(db.insert(atom!("E", cst "c", cst "d")).unwrap());
        assert!(view.is_fresh(), "auto view is refreshed by the insert");
        let rs = view.snapshot();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.columns(), &["X".to_owned(), "Z".to_owned()]);
        let m = db.metrics();
        assert_eq!(m.view_refreshes_incremental, 1);
        assert_eq!(m.view_delta_rows, 1);

        // A refresh on a fresh view is a no-op.
        assert_eq!(view.refresh(), ViewRefresh::FRESH);
    }

    #[test]
    fn lazy_views_go_stale_and_catch_up_on_refresh() {
        // Base large enough that a 2-row delta stays under the default
        // incremental-fraction gate (2 of 5 rows).
        let db = Database::from_facts("E(a, b). E(u, v). E(w, x).").unwrap();
        let view = db
            .materialize_with(
                "q(X, Z) :- E(X, Y), E(Y, Z).",
                ViewOptions {
                    auto_refresh: false,
                },
            )
            .unwrap();
        assert!(view.is_fresh());
        assert!(view.is_empty());

        db.load_facts("E(b, c). E(c, d).").unwrap();
        assert!(!view.is_fresh(), "lazy views stale out under appends");
        assert_eq!(view.len(), 0, "snapshot still serves the old state");

        let report = view.refresh();
        assert_eq!(report.mode, RefreshMode::Incremental);
        assert_eq!(report.delta_rows, 2);
        assert_eq!(report.rows_added, 2);
        assert!(view.is_fresh());
        assert_eq!(
            view.snapshot().into_tuples(),
            evaluate(view.query(), &db.snapshot())
        );
    }

    #[test]
    fn irrelevant_growth_leaves_views_fresh() {
        let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
        let view = db
            .materialize_with(
                "q(X, Z) :- E(X, Y), E(Y, Z).",
                ViewOptions {
                    auto_refresh: false,
                },
            )
            .unwrap();
        db.load_facts("Unrelated(u).").unwrap();
        assert!(view.is_fresh(), "growth off the view's schema is invisible");
        assert_eq!(view.refresh().mode, RefreshMode::Fresh);
        // The cursor advanced: later relevant growth reports only itself.
        db.load_facts("E(c, d).").unwrap();
        let report = view.refresh();
        assert_eq!(
            (report.mode, report.delta_rows),
            (RefreshMode::Incremental, 1)
        );
    }

    #[test]
    fn non_direct_rungs_refresh_by_full_recompute() {
        // (Name kept from when they did.)  Every rung takes a delta.
        // Witness rung: the looped triangle's core is the single loop atom,
        // whose join tree takes deltas like any other.
        let db = Database::from_facts("E(a, b). E(b, a).").unwrap();
        let view = db.materialize(sac_gen::looped_triangle_query()).unwrap();
        assert_eq!(view.strategy(), Strategy::YannakakisWitness);
        assert!(!view.is_true());
        db.load_facts("E(z, z).").unwrap();
        assert!(view.is_true());
        assert_eq!(db.metrics().view_refreshes_incremental, 1);
        // Indexed rung via the forced-fallback knob.
        let forced = Database::from_facts("E(a, b). E(b, c).")
            .unwrap()
            .with_config(EngineConfig {
                force_indexed: true,
                ..EngineConfig::default()
            });
        let view = forced.materialize("q(X) :- E(X, Y), E(Y, Z).").unwrap();
        assert_eq!(view.strategy(), Strategy::IndexedSearch);
        forced.load_facts("E(c, d).").unwrap();
        assert_eq!(view.len(), 2);
        let m = forced.metrics();
        assert_eq!(m.view_refreshes_full, 1, "the initial materialization");
        assert_eq!(m.view_refreshes_incremental, 1, "the seeded searches");
    }

    #[test]
    fn big_deltas_fall_back_to_recompute_by_the_fraction_gate() {
        let db = Database::from_facts("E(a, b).").unwrap();
        let view = db
            .materialize_with(
                "q(X, Z) :- E(X, Y), E(Y, Z).",
                ViewOptions {
                    auto_refresh: false,
                },
            )
            .unwrap();
        // One more row is exactly half of the two there are now: under the
        // gate.
        db.load_facts("E(b, c).").unwrap();
        assert_eq!(view.refresh().mode, RefreshMode::Incremental);
        // Tripling the relation is not: 4 delta rows of 6 are over it.
        db.load_facts("E(c, d). E(d, e). E(e, f). E(f, g).")
            .unwrap();
        let report = view.refresh();
        assert_eq!(report.mode, RefreshMode::Full);
        assert_eq!(report.delta_rows, 4);
        assert_eq!(
            view.snapshot().into_tuples(),
            evaluate(view.query(), &db.snapshot())
        );
    }

    #[test]
    fn boolean_views_short_circuit_once_true() {
        let db = Database::from_facts("E(a, b). E(b, c).").unwrap();
        let view = db.materialize(sac_gen::path_query(2)).unwrap();
        assert!(view.is_true());
        let before = db.metrics();
        db.load_facts("E(c, d).").unwrap();
        assert!(view.is_fresh());
        let after = db.metrics();
        assert_eq!(
            (after.view_refreshes_incremental, after.view_refreshes_full),
            (
                before.view_refreshes_incremental,
                before.view_refreshes_full
            ),
            "a true Boolean view never re-evaluates (monotone: true stays true)"
        );
    }

    #[test]
    fn dropped_handles_unregister_the_view() {
        let db = Database::from_facts("E(a, b).").unwrap();
        let view = db.materialize("q(X) :- E(X, Y).").unwrap();
        let clone = view.clone();
        drop(view);
        // A surviving clone keeps the view registered and maintained.
        db.load_facts("E(b, c).").unwrap();
        assert_eq!(clone.len(), 2);
        drop(clone);
        let before = db.metrics();
        db.load_facts("E(c, d).").unwrap();
        let after = db.metrics();
        assert_eq!(
            (after.view_refreshes_incremental, after.view_refreshes_full),
            (
                before.view_refreshes_incremental,
                before.view_refreshes_full
            ),
            "no registered view is maintained after the last handle drops"
        );
    }

    #[test]
    fn concurrent_appends_keep_views_exact() {
        let db = Database::from_facts("E(n0, n1).").unwrap();
        let view = db.materialize("q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
        let db = &db;
        let view = &view;
        std::thread::scope(|scope| {
            for t in 0..2 {
                scope.spawn(move || {
                    for i in 0..20 {
                        db.insert(sac_common::Atom::from_parts(
                            "E",
                            vec![
                                Term::constant(&format!("t{t}_{i}")),
                                Term::constant(&format!("t{t}_{}", i + 1)),
                            ],
                        ))
                        .unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..20 {
                    let _ = view.snapshot();
                }
            });
        });
        assert!(view.is_fresh());
        assert_eq!(
            view.snapshot().into_tuples(),
            evaluate(view.query(), &db.snapshot())
        );
    }

    #[test]
    fn view_metrics_show_in_the_display() {
        let db = Database::from_facts("E(a, b).").unwrap();
        let _view = db.materialize("q(X) :- E(X, Y).").unwrap();
        let text = format!("{}", db.metrics());
        assert!(text.contains("1 views"), "got: {text}");
    }
}
