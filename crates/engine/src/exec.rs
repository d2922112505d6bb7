//! The executor: run a compiled [`Plan`] over an indexed [`Instance`].
//!
//! The Yannakakis path is the full three-phase algorithm, with every phase a
//! hash operation rather than a scan — and every hash operation works on
//! rows of dictionary **codes** (`u32`, see [`sac_storage::dict`]), read
//! straight off the columnar relation buffers into flat row-major tables
//! ([`Table`]: one `Vec<u32>` and a width, hash keys of up to two columns
//! packed into a `u64`).  No execution builds a term: every one ends in
//! the answers as one sorted, deduplicated code-row buffer
//! ([`CodeRows`]), which [`crate::ResultSet`], views and Datalog take as
//! it is, and a term is decoded only when a caller reads one:
//!
//! 1. **match sets** — each join-tree node's atom is matched against its
//!    relation by sweeping the relevant column slices (code comparisons for
//!    repeated variables and constants, gather of the variable columns);
//!    atoms with constant positions probe a sidecar or cached multi-column
//!    index instead of scanning;
//! 2. **semijoin reduction** — an upward (leaf-to-root) sweep removes
//!    dangling tuples, then for non-Boolean queries a downward sweep makes
//!    every node consistent with its parent; both are hash semijoins that
//!    filter the code rows in place;
//! 3. **join-back-up** — non-Boolean answers are produced by hash-joining
//!    each subtree bottom-up, projecting eagerly onto the node's carry set
//!    (its subtree's head variables plus the join key with the parent), so
//!    intermediate tables stay output-bounded instead of exploding into a
//!    cross-product walk over the reduced tree.  The root's rows, projected
//!    onto the head, are sorted and deduplicated into the answer.
//!
//! The fallback path is the workspace's one homomorphism search
//! ([`sac_query::homomorphism`]) over the planner's fixed atom order: every
//! variable is a slot of one `[u32]` binding array that the steps overwrite
//! in place, a step's candidates come from the sidecar or snapshot index on
//! exactly its bound columns, keyed by the codes the array already holds,
//! each candidate row passes the same [`CodeShape::admits`] as a
//! Yannakakis match set, a Boolean head stops at the first homomorphism,
//! and the head rows are gathered into a flat table and finished into the
//! same sorted answer.
//!
//! A Boolean reading ([`execute_with`]'s `boolean`) stops early on every
//! rung: after the upward sweep on a join tree, at the first homomorphism
//! in the search.
//!
//! ## Compile time, run time
//!
//! The executor interprets; it decides nothing that depends only on the
//! query.  [`crate::plan`] has already turned every variable name into a
//! column position and every index key into a slot: a [`Table`] here is a
//! bare buffer of code rows with no schema of its own, a semijoin or join is
//! handed its key and emit columns ([`EdgeSpec`], [`JoinSpec`]), nodes with
//! identical match sets are listed in the plan, a search step is told which
//! slots it binds and probes with ([`SearchStep`]), and an index is
//! `ctx.indexes[slot]`.  What is left for run time is what depends on the
//! data: dictionary codes of constants, which operand of a join is smaller,
//! which relations grew.
//!
//! ## One path
//!
//! A plan execution is **serial**, at every [`crate::Database::with_parallelism`]
//! setting: [`crate::Database::run_batch`] fans out *across* the queries of
//! a batch, never inside one.  Splitting a single run by row range or
//! table chunk lost to this path in every committed measurement
//! (EXPERIMENTS.md: 0.41–0.95× over three designs — the per-range
//! `FxHashSet<Vec<u32>>` partials are re-hashed into one set), so the
//! executor spawns nothing and has no second branch to keep in step.
//!
//! Execution itself is **read-only**: [`execute_with`] and [`execute_delta`]
//! consume an immutable [`ExecContext`] snapshot, so the concurrent
//! [`crate::Database`] can run many queries at once without holding the
//! index-cache lock — the snapshot is assembled (and any missing indexes
//! built) in one short locked section beforehand, and which of the plan's
//! keys it covers is decided here ([`ExecContext::snapshot`]).
//! [`crate::IndexCache::snapshot`] fills every slot
//! whose relation exists with the atom's arity, and an atom over a missing
//! or mis-sized relation returns before it probes, so a probe never finds
//! its slot empty.

use crate::index::IndexCache;
use crate::plan::{EdgeSpec, ExecPlan, IndexedPlan, JoinSpec, Plan, YannakakisPlan};
use crate::result::{sort_dedup, CodeRows};
use sac_common::{FxHashMap, FxHashSet, Symbol};
use sac_query::homomorphism::{relation_of, search, CodeShape, SearchStep};
use sac_storage::{Instance, JoinIndex};
use sac_telemetry::{Phase, Probe};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything one plan execution works from: an immutable index snapshot
/// and, on traced runs, the probe collecting phase boundaries.
pub(crate) struct ExecContext {
    /// Aligned with the plan's index keys: [`Plan::index_keys`] for a delta
    /// execution, its [`Plan::probe_keys`] prefix for a full one.
    indexes: Vec<Option<Arc<JoinIndex>>>,
    /// Phase timers and per-node row counts for a traced run; `None` for
    /// ordinary runs, whose only tracing cost is this `Option` check.
    /// A context never leaves the thread of the run that built it; the
    /// cell is there because execution shares it as `&self`.
    probe: Option<RefCell<Probe>>,
}

impl ExecContext {
    /// Snapshots the indexes one execution of `plan` probes, building the
    /// missing ones: the probe keys for a full execution ([`execute_with`]),
    /// every key — edge and seeded-search keys too — for a `delta` one
    /// ([`execute_delta`]).
    pub(crate) fn snapshot(
        plan: &Plan,
        delta: bool,
        db: &Instance,
        cache: &mut IndexCache,
    ) -> ExecContext {
        let keys = if delta {
            &plan.index_keys
        } else {
            plan.probe_keys()
        };
        ExecContext {
            indexes: cache.snapshot(db, keys),
            probe: None,
        }
    }

    /// How many index slots the snapshot covers.
    pub(crate) fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Attaches `probe`: execution phases and per-node row counts are
    /// recorded into it from here on.
    pub(crate) fn with_probe(mut self, probe: Probe) -> ExecContext {
        self.probe = Some(RefCell::new(probe));
        self
    }

    /// Detaches the probe to read the collected trace back out.
    pub(crate) fn take_probe(&mut self) -> Option<Probe> {
        self.probe.take().map(RefCell::into_inner)
    }

    /// Whether a probe is attached (callers gate string formatting on it).
    fn probing(&self) -> bool {
        self.probe.is_some()
    }

    /// Ends `phase` on the attached probe, if any.
    pub(crate) fn mark(&self, phase: Phase) {
        if let Some(probe) = &self.probe {
            probe.borrow_mut().mark(phase);
        }
    }

    /// Records one join-tree node's rows in/out on the attached probe.
    fn note_node(&self, node: impl Into<String>, rows_in: usize, rows_out: usize) {
        if let Some(probe) = &self.probe {
            probe.borrow_mut().node(node, rows_in, rows_out);
        }
    }

    /// The snapshot index in `slot`; filled whenever a probe gets this far
    /// (see the module docs).
    fn index(&self, slot: usize) -> &JoinIndex {
        let index = self.indexes[slot].as_deref();
        index.expect("the snapshot fills every slot whose relation exists")
    }
}

/// Executes `plan` over `db` against a full-execution [`ExecContext::snapshot`].
///
/// With `boolean` set only the Boolean reading is computed — the empty row
/// when a homomorphism exists, nothing otherwise: the Yannakakis rungs stop
/// after the upward semijoin sweep, the search rung at the first
/// homomorphism, and nothing is joined back.
pub(crate) fn execute_with(
    plan: &Plan,
    db: &Instance,
    ctx: &ExecContext,
    boolean: bool,
) -> CodeRows {
    let answers = match &plan.exec {
        ExecPlan::Yannakakis(yp) => run_yannakakis(yp, db, ctx, boolean),
        ExecPlan::Indexed(ip) => {
            let head = if boolean { &[][..] } else { &ip.head_slots };
            run_indexed(ip, head, [(ip.steps.as_slice(), 0)], db, ctx)
        }
    };
    finish(answers, ctx)
}

/// Sorts and deduplicates the answer rows: the last step of every
/// execution, charged to the decode phase.
fn finish(answers: Table, ctx: &ExecContext) -> CodeRows {
    let answers = CodeRows::from_unsorted(answers.width, answers.len, answers.codes);
    ctx.mark(Phase::Decode);
    answers
}

/// An intermediate relation over query variables: `len` rows of `width`
/// dictionary codes, row-major in one buffer.  Which column holds which
/// variable is the plan's knowledge, not the table's; nothing in the
/// Yannakakis phases ever compares a [`sac_common::Term`] or a variable name.
///
/// A table is a set wherever a phase reads it: match sets are (a relation
/// holds no repeated row, and a match set keeps every column a shape does
/// not fix), semijoins only drop rows, and the projections and joins that
/// can repeat a row are deduplicated ([`Table::dedup`]) before anything
/// joins them.
#[derive(Debug, Clone, Default)]
struct Table {
    width: usize,
    len: usize,
    codes: Vec<u32>,
}

/// The projection of code row `t` onto `cols`.
#[inline]
fn gather(t: &[u32], cols: &[usize]) -> Vec<u32> {
    cols.iter().map(|c| t[*c]).collect()
}

/// The codes of `t` at `cols` packed into one integer — exact for keys of
/// at most two columns, the only ones it is used on.
#[inline]
fn pack(t: &[u32], cols: &[usize]) -> u64 {
    cols.iter().fold(0, |key, c| key << 32 | u64::from(t[*c]))
}

/// Rows past which an output that may repeat rows is deduplicated while it
/// is still being emitted (then again each time it doubles), so repeats
/// never hold more than about twice the distinct rows in memory.
const COMPACT_ROWS: usize = 1 << 16;

impl Table {
    fn new(width: usize) -> Table {
        Table {
            width,
            ..Table::default()
        }
    }

    /// The one-row table of width zero: "some homomorphism exists".
    fn unit() -> Table {
        Table {
            len: 1,
            ..Table::default()
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.codes[i * self.width..(i + 1) * self.width]
    }

    fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Appends one row of `width` codes.
    #[inline]
    fn push(&mut self, row: impl IntoIterator<Item = u32>) {
        self.codes.extend(row);
        self.len += 1;
    }

    /// Appends every row of `other` (of the same width).
    fn append(&mut self, mut other: Table) {
        self.codes.append(&mut other.codes);
        self.len += other.len;
    }

    /// Sorts the rows and drops repeats.
    fn dedup(&mut self) {
        self.len = sort_dedup(self.width, self.len, &mut self.codes);
    }

    /// Deduplicates once `*mark` rows are reached and moves the mark to
    /// twice what is left (see [`COMPACT_ROWS`]).
    #[inline]
    fn compact_past(&mut self, mark: &mut usize) {
        if self.len >= *mark {
            self.dedup();
            *mark = (*mark).max(2 * self.len);
        }
    }

    /// Keeps the rows `keep` accepts, in place.
    fn retain(&mut self, mut keep: impl FnMut(&[u32]) -> bool) {
        let width = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            let at = i * width;
            if keep(&self.codes[at..at + width]) {
                self.codes.copy_within(at..at + width, kept * width);
                kept += 1;
            }
        }
        self.len = kept;
        self.codes.truncate(kept * width);
    }

    /// Projects onto `cols`, deduplicating.
    fn project(&self, cols: &[usize]) -> Table {
        let mut out = Table::new(cols.len());
        for t in self.rows() {
            out.push(cols.iter().map(|c| t[*c]));
        }
        out.dedup();
        out
    }

    /// Hash semijoin: keeps only the rows whose `cols` equal some row of
    /// `other` on `other_cols` (aligned key columns).  With no key columns
    /// this is "keep all iff `other` is non-empty".  Keys of up to two
    /// columns — all of them on graph-shaped queries — are packed into a
    /// `u64`.
    fn semijoin(&mut self, cols: &[usize], other: &Table, other_cols: &[usize]) {
        if cols.len() <= 2 {
            let keys: FxHashSet<u64> = other.rows().map(|t| pack(t, other_cols)).collect();
            self.retain(|t| keys.contains(&pack(t, cols)));
        } else {
            let keys: FxHashSet<Vec<u32>> = other.rows().map(|t| gather(t, other_cols)).collect();
            self.retain(|t| keys.contains(&gather(t, cols)));
        }
    }

    /// Hash join by `spec` (`self` is the left operand): output rows are
    /// gathered directly onto the spec's emit columns, so an output-bounded
    /// join never materializes the wide intermediate only to project it
    /// away.  With no key columns this is the cross product.  The smaller
    /// operand is indexed and the larger probes.  The output may repeat
    /// rows where the emit drops a column; it is compacted as it grows past
    /// [`COMPACT_ROWS`], and the caller deduplicates it.
    fn join(&self, other: &Table, spec: &JoinSpec) -> Table {
        let mut out = Table::new(spec.emit.len());
        let mut mark = COMPACT_ROWS.max(self.len + other.len);
        let mut emit = |mine: &[u32], theirs: &[u32]| {
            let at =
                |&(from_other, p): &(bool, usize)| if from_other { theirs[p] } else { mine[p] };
            out.push(spec.emit.iter().map(at));
            out.compact_past(&mut mark);
        };
        let (left, right) = (spec.left_key.as_slice(), spec.right_key.as_slice());
        if self.len <= other.len {
            hash_join(self, left, other, right, &mut emit);
        } else {
            hash_join(other, right, self, left, |b, p| emit(p, b));
        }
        out
    }
}

/// Calls `pair(b, p)` for every row `b` of `build` and `p` of `probe` that
/// agree on their key columns (aligned).  `build` is indexed as chains of
/// row numbers off one hash map, with no allocation per key of up to two
/// columns.
fn hash_join(
    build: &Table,
    build_key: &[usize],
    probe: &Table,
    probe_key: &[usize],
    pair: impl FnMut(&[u32], &[u32]),
) {
    if build_key.len() <= 2 {
        chained_join(
            build,
            probe,
            |t| pack(t, build_key),
            |t| pack(t, probe_key),
            pair,
        );
    } else {
        let (b, p) = (build_key, probe_key);
        chained_join(build, probe, |t| gather(t, b), |t| gather(t, p), pair);
    }
}

fn chained_join<K: std::hash::Hash + Eq>(
    build: &Table,
    probe: &Table,
    build_key: impl Fn(&[u32]) -> K,
    probe_key: impl Fn(&[u32]) -> K,
    mut pair: impl FnMut(&[u32], &[u32]),
) {
    const END: usize = usize::MAX;
    let mut first: FxHashMap<K, usize> = FxHashMap::default();
    first.reserve(build.len);
    let mut next = vec![END; build.len];
    for (i, t) in build.rows().enumerate() {
        if let Some(previous) = first.insert(build_key(t), i) {
            next[i] = previous;
        }
    }
    for t in probe.rows() {
        let mut i = first.get(&probe_key(t)).copied().unwrap_or(END);
        while i != END {
            pair(build.row(i), t);
            i = next[i];
        }
    }
}

/// Computes a node's match set: the projection onto its distinct variables of
/// the relation tuples matching the atom's constants and repeated variables.
/// Constant positions are served by the relation's sidecar index (one
/// constant) or the node's snapshot index (several); without constants the
/// column slices are swept.
fn node_matches(plan: &YannakakisPlan, node: usize, db: &Instance, ctx: &ExecContext) -> Table {
    let shape = &plan.shapes[node];
    let mut table = Table::new(shape.vars.len());
    let Some(rel) = relation_of(&plan.tree.atoms[node], db) else {
        return table;
    };
    let Some(code_shape) = CodeShape::of(shape) else {
        return table; // a rigid term the dictionary never saw: no match
    };
    let const_codes = &code_shape.const_codes;
    let cols = rel.columns();
    if shape.const_positions.is_empty() {
        table.codes.reserve(rel.len() * table.width);
    }
    let mut admit = |row: usize| table.admit(&code_shape, &cols, row);
    if let Some(slot) = plan.probe_index[node] {
        for &row in ctx.index(slot).rows_codes(const_codes) {
            admit(row as usize);
        }
    } else if let Some(&position) = shape.const_positions.first() {
        // One constant: the storage layer's sidecar index serves it
        // incrementally — no cached copy needed.
        for &row in rel.rows_with_code(position, const_codes[0]) {
            admit(row as usize);
        }
    } else {
        (0..rel.len()).for_each(admit);
    }
    table
}

impl Table {
    /// Appends the match-set row of relation row `row`, if `shape` admits it.
    #[inline]
    fn admit(&mut self, shape: &CodeShape, cols: &[&[u32]], row: usize) {
        if shape.admit_row(cols, row, &mut self.codes) {
            self.len += 1;
        }
    }
}

/// Phase 1 of Yannakakis: one match-set [`Table`] per join-tree node.
/// Structurally identical nodes (common in self-join queries) are scanned
/// once and shared by clone: the first node of each class
/// ([`YannakakisPlan::match_leader`]) scans, later members copy.
fn match_tables(plan: &YannakakisPlan, db: &Instance, ctx: &ExecContext) -> Vec<Table> {
    let mut tables: Vec<Table> = Vec::with_capacity(plan.tree.len());
    for (node, &leader) in plan.match_leader.iter().enumerate() {
        let table = match tables.get(leader) {
            Some(scanned) => scanned.clone(),
            None => node_matches(plan, node, db, ctx),
        };
        tables.push(table);
    }
    tables
}

fn run_yannakakis(plan: &YannakakisPlan, db: &Instance, ctx: &ExecContext, boolean: bool) -> Table {
    if plan.tree.is_empty() {
        // The empty conjunction holds vacuously, with the empty answer tuple.
        return Table::unit();
    }
    // Phase 1: match sets…
    let tables = match_tables(plan, db, ctx);
    ctx.mark(Phase::MatchSets);
    // …then the semijoin sweeps and the join-back-up.
    yannakakis_phases(plan, tables, ctx, boolean)
}

/// Reports every node's rows in/out to an attached probe: match-set sizes
/// entering the semijoin sweeps vs the sizes in `tables` now.  A no-op
/// (including the display formatting) on untraced runs.
fn note_node_rows(plan: &YannakakisPlan, rows_in: &[usize], tables: &[Table], ctx: &ExecContext) {
    for (i, atom) in plan.tree.atoms.iter().enumerate() {
        ctx.note_node(atom.to_string(), rows_in[i], tables[i].len);
    }
}

/// Semijoins `tables[to]` by `tables[from]` in place, along `edge` (which
/// runs `from → to`).
fn semijoin_along(tables: &mut [Table], edge: &EdgeSpec, from: usize, to: usize) {
    let source = std::mem::take(&mut tables[from]);
    tables[to].semijoin(&edge.to_cols, &source, &edge.from_cols);
    tables[from] = source;
}

/// Phases 2–3 of Yannakakis over already-computed per-node tables: the
/// upward/downward semijoin sweeps and the output-bounded join-back-up.
/// Shared between the full path ([`run_yannakakis`], whose tables are the
/// complete match sets) and the incremental path ([`execute_delta`], whose
/// tables are restricted to tuples joining a relation delta).  Returns the
/// answers as head rows, possibly repeated and in no order; `boolean` (or
/// an empty head) stops after the upward sweep with the unit table.
fn yannakakis_phases(
    plan: &YannakakisPlan,
    mut tables: Vec<Table>,
    ctx: &ExecContext,
    boolean: bool,
) -> Table {
    // Match-set sizes entering the sweeps, for the trace's per-node rows.
    // Collected only under a probe so untraced runs pay one branch.
    let rows_in: Vec<usize> = if ctx.probing() {
        tables.iter().map(|t| t.len).collect()
    } else {
        Vec::new()
    };

    // Phase 2a: upward semijoin sweep (children into parents, leaves first).
    for &node in plan.order.iter().rev() {
        for &child in &plan.children[node] {
            let edge = plan.up[child].as_ref().expect("a child has an up edge");
            semijoin_along(&mut tables, edge, child, node);
        }
        if tables[node].is_empty() {
            ctx.mark(Phase::SemijoinUp);
            if ctx.probing() {
                note_node_rows(plan, &rows_in, &tables, ctx);
            }
            // No homomorphism covers this node.
            return Table::new(if boolean { 0 } else { plan.head_cols.len() });
        }
    }
    ctx.mark(Phase::SemijoinUp);
    if boolean || plan.query.head.is_empty() {
        if ctx.probing() {
            note_node_rows(plan, &rows_in, &tables, ctx);
        }
        return Table::unit();
    }

    // Phase 2b: downward sweep (parents into children, roots first).
    for &node in &plan.order {
        if let (Some(parent), Some(edge)) = (plan.tree.parent[node], &plan.down[node]) {
            semijoin_along(&mut tables, edge, parent, node);
        }
    }
    ctx.mark(Phase::SemijoinDown);
    if ctx.probing() {
        note_node_rows(plan, &rows_in, &tables, ctx);
    }

    // Phase 3: bottom-up hash join.  Each node's table is replaced by the
    // join of its subtree, projected onto its carry set as it is joined —
    // fused into the last join's emit, so the wide intermediate is never
    // materialized.  Joins follow the tree structure and stay
    // output-bounded, and every table entering one is a set: a join whose
    // emit drops a column may repeat rows, so its output is deduplicated —
    // but a root's last, which the root chain or the answer's own sort
    // deduplicates.
    for &node in plan.order.iter().rev() {
        let mut t = std::mem::take(&mut tables[node]);
        if let Some(cols) = &plan.leaf_cols[node] {
            t = t.project(cols);
        }
        let is_root = plan.tree.parent[node].is_none();
        let mut joins = plan.children[node].iter().zip(&plan.joins[node]).peekable();
        while let Some((&child, spec)) = joins.next() {
            let child_table = std::mem::take(&mut tables[child]);
            let full_width = t.width + child_table.width - spec.left_key.len();
            t = t.join(&child_table, spec);
            if spec.emit.len() < full_width && (joins.peek().is_some() || !is_root) {
                t.dedup();
            }
        }
        tables[node] = t;
    }
    // Chain the root tables; a single root (the connected-query case) moves
    // straight through.
    let mut roots = plan.tree.roots().into_iter();
    let first = roots.next().expect("non-empty tree has a root");
    let mut acc = std::mem::take(&mut tables[first]);
    for (root, spec) in roots.zip(&plan.root_joins) {
        acc.dedup();
        tables[root].dedup();
        acc = acc.join(&tables[root], spec);
    }
    ctx.mark(Phase::JoinBack);

    // The answers in head order (head variables may repeat).
    let mut answers = Table::new(plan.head_cols.len());
    for t in acc.rows() {
        answers.push(plan.head_cols.iter().map(|c| t[*c]));
    }
    answers
}

/// The tuples of `to`'s relation that join some tuple of the already
/// restricted `frontier` table along `edge`, as a match-set [`Table`]
/// (shape filters applied, projected onto distinct variables).
///
/// Lookups go through the narrowest structure there is: the relation's
/// sidecar index for one shared position, the edge's snapshot
/// [`crate::JoinIndex`] for several — keyed by the codes the frontier
/// already carries, each distinct key once, so no row is admitted twice.
/// With no shared variables the restriction is vacuous and the full match
/// set is returned.
fn restrict_via_edge(
    frontier: &Table,
    edge: &EdgeSpec,
    plan: &YannakakisPlan,
    to: usize,
    db: &Instance,
    ctx: &ExecContext,
) -> Table {
    let mut table = Table::new(plan.shapes[to].vars.len());
    let Some(rel) = relation_of(&plan.tree.atoms[to], db) else {
        return table;
    };
    if edge.to_positions.is_empty() {
        // Disconnected neighbour (no join key): every tuple participates.
        return node_matches(plan, to, db, ctx);
    }
    let Some(code_shape) = CodeShape::of(&plan.shapes[to]) else {
        return table;
    };
    let cols = rel.columns();
    let mut keys = Table::new(edge.from_cols.len());
    for t in frontier.rows() {
        keys.push(edge.from_cols.iter().map(|c| t[*c]));
    }
    keys.dedup();
    for key in keys.rows() {
        let rows = match edge.index {
            None => rel.rows_with_code(edge.to_positions[0], key[0]),
            Some(slot) => ctx.index(slot).rows_codes(key),
        };
        for &row in rows {
            table.admit(&code_shape, &cols, row as usize);
        }
    }
    table
}

/// The answers `plan` gains when the relations in `watermarks` grow past the
/// given row counts (their append-only delta), on every rung.  `ctx` must be
/// a delta [`ExecContext::snapshot`].
///
/// Conjunctive queries are monotone, so appended facts can only **add**
/// answers; the union of the returned set into a previously materialized
/// answer set is exactly the new answer set.  Any new homomorphism uses a
/// delta row at some body atom, so it is enough to evaluate, for each
/// occurrence of a grown relation, the query with that occurrence confined
/// to the delta rows, and to unite the results — work proportional to the
/// delta and its join fan-out, not to the database.  The results are
/// united by one sort of all their rows.
///
/// **With a join tree**, the dirty node's match set is computed from the
/// delta rows only (a tail sweep over the column buffers) and pushed
/// outward through the tree: each neighbour's table is restricted to tuples
/// joining the frontier (index lookups, not scans) — a superset of every
/// tuple that joins transitively with the delta, by connectedness of join
/// trees — and the restricted tables then run the ordinary semijoin sweeps
/// and join-back-up, which prune that superset exactly.
///
/// **On the search rung**, the plan holds one step list per body atom with
/// that atom first ([`IndexedPlan::seeded`]); it is run with its first step
/// starting at the watermark.
pub(crate) fn execute_delta(
    plan: &Plan,
    db: &Instance,
    watermarks: &HashMap<Symbol, usize>,
    ctx: &ExecContext,
) -> CodeRows {
    let yp = match &plan.exec {
        ExecPlan::Yannakakis(yp) => yp,
        ExecPlan::Indexed(ip) => {
            let seeds = ip.query.body.iter().zip(&ip.seeded);
            let grown = seeds.filter_map(|(atom, steps)| {
                let from_row = watermarks.get(&atom.predicate)?;
                Some((steps.as_slice(), *from_row))
            });
            return finish(run_indexed(ip, &ip.head_slots, grown, db, ctx), ctx);
        }
    };
    let n = yp.tree.len();
    // (No node, no delta: the empty conjunction's vacuous answer was
    // materialized up front and never changes.)
    let mut out = Table::new(yp.head_cols.len());
    for dirty in 0..n {
        let Some(&from_row) = watermarks.get(&yp.tree.atoms[dirty].predicate) else {
            continue;
        };
        let rel = relation_of(&yp.tree.atoms[dirty], db);
        let Some(rel) = rel.filter(|rel| from_row < rel.len()) else {
            continue;
        };
        // The dirty node's table: its match set over the delta rows only.
        let mut delta_table = Table::new(yp.shapes[dirty].vars.len());
        if let Some(code_shape) = CodeShape::of(&yp.shapes[dirty]) {
            let cols = rel.columns();
            for row in from_row..rel.len() {
                delta_table.admit(&code_shape, &cols, row);
            }
        }
        if delta_table.is_empty() {
            continue; // every appended row was filtered out by the shape
        }

        // Restrict the rest of the tree to tuples joining the delta: BFS
        // outward from the dirty node over the tree's edges (up to the
        // parent, down to each child), each step an index lookup keyed by
        // the frontier's projection onto the shared variables.
        let mut tables: Vec<Option<Table>> = vec![None; n];
        tables[dirty] = Some(delta_table);
        let mut queue = std::collections::VecDeque::from([dirty]);
        let mut contribution_possible = true;
        'bfs: while let Some(node) = queue.pop_front() {
            let up = yp.tree.parent[node].map(|parent| (parent, &yp.up[node]));
            let down = yp.children[node]
                .iter()
                .map(|&child| (child, &yp.down[child]));
            for (next, edge) in up.into_iter().chain(down) {
                if tables[next].is_some() {
                    continue;
                }
                let restricted = restrict_via_edge(
                    tables[node].as_ref().expect("visited nodes have tables"),
                    edge.as_ref().expect("adjacent nodes share an edge"),
                    yp,
                    next,
                    db,
                    ctx,
                );
                if restricted.is_empty() {
                    // Nothing joins the delta along this edge: this dirty
                    // node contributes no answers.
                    contribution_possible = false;
                    break 'bfs;
                }
                tables[next] = Some(restricted);
                queue.push_back(next);
            }
        }
        if !contribution_possible {
            continue;
        }
        // Join-tree components not reachable from the dirty node are
        // unrestricted by the delta: they contribute their full match sets
        // (the cross-product semantics of a disconnected query).
        let tables: Vec<Table> = tables
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.unwrap_or_else(|| node_matches(yp, i, db, ctx)))
            .collect();
        out.append(yannakakis_phases(yp, tables, ctx, false));
    }
    finish(out, ctx)
}

/// Runs the compiled search `steps` of `plan`, its first step confined to
/// rows at or above `from_row`: `visit` sees the binding array of every
/// homomorphism — of the first one only when `stop_at_first`, which a
/// Boolean reading needs no more than.
fn for_each_match(
    plan: &IndexedPlan,
    steps: &[SearchStep],
    from_row: usize,
    db: &Instance,
    ctx: &ExecContext,
    stop_at_first: bool,
    mut visit: impl FnMut(&[u32]),
) {
    let bindings = &mut vec![0; plan.slots];
    let index = |slot| ctx.index(slot);
    search(
        &plan.query.body,
        steps,
        db,
        index,
        from_row,
        bindings,
        |found| {
            visit(found);
            stop_at_first
        },
    );
}

/// Runs each of `searches` — a step list and the row its first step starts
/// at — and gathers the rows of `head` (binding slots) they find; an empty
/// `head` stops each search at its first homomorphism.
fn run_indexed<'a>(
    plan: &IndexedPlan,
    head: &[usize],
    searches: impl IntoIterator<Item = (&'a [SearchStep], usize)>,
    db: &Instance,
    ctx: &ExecContext,
) -> Table {
    let mut found = Table::new(head.len());
    let mut mark = COMPACT_ROWS;
    for (steps, from_row) in searches {
        for_each_match(
            plan,
            steps,
            from_row,
            db,
            ctx,
            head.is_empty(),
            |bindings| {
                found.push(head.iter().map(|s| bindings[*s]));
                found.compact_past(&mut mark);
            },
        );
    }
    ctx.mark(Phase::Search);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::EngineConfig;
    use crate::plan::plan_query;
    use sac_common::{atom, intern, Atom, Term};
    use sac_query::{evaluate, ConjunctiveQuery};
    use std::collections::BTreeSet;

    fn terms(answers: &CodeRows) -> BTreeSet<Vec<Term>> {
        answers.decode().into_iter().collect()
    }

    fn run(q: &ConjunctiveQuery, db: &Instance) -> BTreeSet<Vec<Term>> {
        let plan = plan_query(q, &[], db, &EngineConfig::default());
        let mut cache = IndexCache::new(db);
        let ctx = ExecContext::snapshot(&plan, false, db, &mut cache);
        terms(&execute_with(&plan, db, &ctx, false))
    }

    fn music_db() -> Instance {
        Instance::from_atoms(vec![
            atom!("Interest", cst "alice", cst "jazz"),
            atom!("Interest", cst "bob", cst "rock"),
            atom!("Class", cst "kind_of_blue", cst "jazz"),
            atom!("Class", cst "nevermind", cst "rock"),
            atom!("Owns", cst "alice", cst "kind_of_blue"),
            atom!("Owns", cst "bob", cst "kind_of_blue"),
        ])
        .unwrap()
    }

    #[test]
    fn acyclic_query_matches_naive_evaluation() {
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
        )
        .unwrap();
        let db = music_db();
        assert_eq!(run(&q, &db), evaluate(&q, &db));
    }

    #[test]
    fn cyclic_query_matches_naive_evaluation() {
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ],
        )
        .unwrap();
        let db = music_db();
        assert_eq!(run(&q, &db), evaluate(&q, &db));
    }

    #[test]
    fn constants_in_atoms_probe_indexes() {
        let q = ConjunctiveQuery::new(
            vec![intern("y")],
            vec![
                atom!("Interest", cst "alice", var "z"),
                atom!("Class", var "y", var "z"),
            ],
        )
        .unwrap();
        let db = music_db();
        let res = run(&q, &db);
        assert_eq!(res, evaluate(&q, &db));
        assert_eq!(res.len(), 1);
        assert!(res.contains(&vec![Term::constant("kind_of_blue")]));
    }

    #[test]
    fn constants_unknown_to_the_dictionary_match_nothing() {
        // A constant no relation (in any test) ever stored: the dictionary
        // lookup fails and the match set short-circuits to empty without
        // touching the relation.
        let db = music_db();
        let q = ConjunctiveQuery::new(
            vec![intern("z")],
            vec![atom!("Interest", cst "exec_never_stored_anywhere", var "z")],
        )
        .unwrap();
        assert!(run(&q, &db).is_empty());
        assert_eq!(run(&q, &db), evaluate(&q, &db));
    }

    #[test]
    fn execution_degrades_to_scans_without_a_snapshot() {
        // The executor has no scan fallback for a missing snapshot index
        // any more; what makes that safe is that `IndexCache::snapshot`
        // fills every slot whose relation exists with the atom's arity, and
        // that atoms over a missing or mis-sized relation match nothing
        // before they probe.  Multi-constant Yannakakis nodes and
        // multi-bound-column search steps, on present, absent and mis-sized
        // relations:
        let db = music_db();
        let mut cache = IndexCache::new(&db);
        for (q, filled) in [
            (
                ConjunctiveQuery::new(
                    vec![intern("y")],
                    vec![
                        atom!("Owns", cst "alice", var "y"),
                        atom!("Class", var "y", cst "jazz"),
                    ],
                )
                .unwrap(),
                true,
            ),
            (
                ConjunctiveQuery::boolean(vec![atom!("Owns", cst "alice", cst "kind_of_blue")])
                    .unwrap(),
                true,
            ),
            (
                ConjunctiveQuery::boolean(vec![
                    atom!("Interest", var "x", var "z"),
                    atom!("Class", var "y", var "z"),
                    atom!("Owns", var "x", var "y"),
                ])
                .unwrap(),
                true,
            ),
            (
                ConjunctiveQuery::boolean(vec![atom!("Absent", cst "alice", cst "jazz")]).unwrap(),
                false,
            ),
            (
                ConjunctiveQuery::boolean(vec![
                    atom!("Owns", cst "alice", cst "kind_of_blue", cst "jazz"),
                ])
                .unwrap(),
                false,
            ),
            (
                ConjunctiveQuery::boolean(vec![
                    atom!("Absent", var "x", var "y"),
                    atom!("Absent", var "y", var "z"),
                    atom!("Absent", var "z", var "x"),
                ])
                .unwrap(),
                false,
            ),
        ] {
            let plan = plan_query(&q, &[], &db, &EngineConfig::default());
            let snapshot = cache.snapshot(&db, &plan.index_keys);
            assert_eq!(snapshot.len(), plan.index_keys.len());
            for ((predicate, positions), slot) in plan.index_keys.iter().zip(&snapshot) {
                let fits = db
                    .relation(*predicate)
                    .is_some_and(|rel| positions.iter().all(|p| *p < rel.arity()));
                assert_eq!(
                    slot.is_some(),
                    fits,
                    "slot for {predicate}{positions:?} of {q}"
                );
                assert_eq!(fits, filled, "{q}");
                if let Some(index) = slot {
                    assert_eq!(index.positions(), positions.as_slice());
                }
            }
            let ctx = ExecContext::snapshot(&plan, false, &db, &mut cache);
            let answers = execute_with(&plan, &db, &ctx, false);
            assert_eq!(terms(&answers), evaluate(&q, &db), "{q}");
        }
    }

    #[test]
    fn repeated_variables_within_atoms_are_honoured() {
        let db = Instance::from_atoms(vec![
            atom!("R", cst "a", cst "a"),
            atom!("R", cst "a", cst "b"),
        ])
        .unwrap();
        let q =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("R", var "x", var "x")]).unwrap();
        assert_eq!(run(&q, &db), evaluate(&q, &db));
    }

    #[test]
    fn disconnected_queries_cross_product() {
        let db = Instance::from_atoms(vec![
            atom!("A", cst "1"),
            atom!("A", cst "2"),
            atom!("B", cst "x"),
        ])
        .unwrap();
        let q = ConjunctiveQuery::new(
            vec![intern("u"), intern("v")],
            vec![atom!("A", var "u"), atom!("B", var "v")],
        )
        .unwrap();
        assert_eq!(run(&q, &db), evaluate(&q, &db));
    }

    #[test]
    fn boolean_queries_and_empty_databases() {
        let q = ConjunctiveQuery::boolean(vec![atom!("Owns", var "x", var "y")]).unwrap();
        assert_eq!(run(&q, &music_db()).len(), 1);
        assert!(run(&q, &Instance::new()).is_empty());
        // The empty conjunction holds vacuously.
        let empty_q = ConjunctiveQuery::boolean(vec![]).unwrap();
        assert_eq!(run(&empty_q, &Instance::new()).len(), 1);
    }

    #[test]
    fn repeated_head_variables_produce_repeated_columns() {
        let db = music_db();
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("x")],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap();
        let res = run(&q, &db);
        assert_eq!(res, evaluate(&q, &db));
        assert!(res.iter().all(|t| t[0] == t[1]));
    }

    #[test]
    fn dangling_tuples_are_filtered_by_the_semijoin_sweeps() {
        let db = Instance::from_atoms(vec![
            atom!("E", cst "a", cst "b"),
            atom!("E", cst "b", cst "c"),
            atom!("E", cst "x", cst "y"),
        ])
        .unwrap();
        let q = ConjunctiveQuery::new(
            vec![intern("u")],
            vec![atom!("E", var "u", var "v"), atom!("E", var "v", var "w")],
        )
        .unwrap();
        let res = run(&q, &db);
        assert_eq!(res.len(), 1);
        assert!(res.contains(&vec![Term::constant("a")]));
    }

    #[test]
    fn projection_stays_output_bounded_on_star_joins() {
        // A star with many rays per hub: the carry projection keeps the
        // intermediate tables at hub-cardinality instead of ray^rays.
        let mut db = Instance::new();
        for h in 0..3 {
            for l in 0..20 {
                db.insert(Atom::from_parts(
                    "E",
                    vec![
                        Term::constant(&format!("h{h}")),
                        Term::constant(&format!("l{h}_{l}")),
                    ],
                ))
                .unwrap();
            }
        }
        let q = ConjunctiveQuery::new(
            vec![intern("c")],
            vec![
                atom!("E", var "c", var "l1"),
                atom!("E", var "c", var "l2"),
                atom!("E", var "c", var "l3"),
            ],
        )
        .unwrap();
        let res = run(&q, &db);
        assert_eq!(res.len(), 3);
        assert_eq!(res, evaluate(&q, &db));
    }

    #[test]
    fn larger_agreement_sweep_on_random_style_graphs() {
        let db = sac_gen::random_graph_database(12, 40, 7);
        for q in [
            sac_gen::path_query(3),
            sac_gen::star_query(3),
            sac_gen::cycle_query(3),
            sac_gen::cycle_query(4),
            sac_gen::clique_query(3),
        ] {
            assert_eq!(run(&q, &db), evaluate(&q, &db), "disagreement on {q}");
        }
    }

    /// Delta oracle: materialize at `base`, append `appends`, push the
    /// delta, and check the union equals a from-scratch evaluation.
    fn check_delta(q: &ConjunctiveQuery, base: &Instance, appends: &[Atom]) {
        let mut grown = base.clone();
        let cursor = grown.delta_cursor();
        let plan = plan_query(q, &[], &grown, &EngineConfig::default());
        let mut cache = IndexCache::new(&grown);
        let ctx = ExecContext::snapshot(&plan, false, &grown, &mut cache);
        let answers = execute_with(&plan, &grown, &ctx, false);
        for atom in appends {
            grown.insert(atom.clone()).unwrap();
        }
        cache.note_growth(&grown);
        let watermarks: HashMap<Symbol, usize> = grown
            .delta_since(&cursor)
            .into_iter()
            .map(|d| (d.predicate, d.from_row))
            .collect();
        let ctx = ExecContext::snapshot(&plan, true, &grown, &mut cache);
        let delta = execute_delta(&plan, &grown, &watermarks, &ctx);
        assert_eq!(
            terms(&answers.union(&delta)),
            evaluate(q, &grown),
            "incremental maintenance diverged on {q} after {} appends",
            appends.len()
        );
    }

    #[test]
    fn delta_execution_matches_recompute_on_graph_families() {
        let base = sac_gen::random_graph_database(10, 30, 5);
        let appends: Vec<Atom> = (0..6)
            .map(|i| {
                Atom::from_parts(
                    "E",
                    vec![
                        Term::constant(&format!("n{}", i % 10)),
                        Term::constant(&format!("fresh{i}")),
                    ],
                )
            })
            .collect();
        for q in [
            sac_gen::path_query(2),
            sac_gen::path_query(3),
            sac_gen::star_query(3),
            ConjunctiveQuery::new(
                vec![intern("x0"), intern("x2")],
                sac_gen::path_query(2).body,
            )
            .unwrap(),
        ] {
            check_delta(&q, &base, &appends);
        }
    }

    #[test]
    fn delta_execution_handles_constants_repeats_and_cross_products() {
        let base = Instance::from_atoms(vec![
            atom!("A", cst "1"),
            atom!("B", cst "x"),
            atom!("R", cst "a", cst "a"),
        ])
        .unwrap();
        // Disconnected query: growth in A must cross-product with all of B.
        let cross = ConjunctiveQuery::new(
            vec![intern("u"), intern("v")],
            vec![atom!("A", var "u"), atom!("B", var "v")],
        )
        .unwrap();
        check_delta(&cross, &base, &[atom!("A", cst "2"), atom!("B", cst "y")]);
        // Repeated variables: only the loop row may enter the match set.
        let diag =
            ConjunctiveQuery::new(vec![intern("x")], vec![atom!("R", var "x", var "x")]).unwrap();
        check_delta(
            &diag,
            &base,
            &[atom!("R", cst "b", cst "b"), atom!("R", cst "b", cst "c")],
        );
        // Constant-pinned atom joined to a growing relation.
        let pinned = ConjunctiveQuery::new(
            vec![intern("y")],
            vec![atom!("R", cst "a", var "x"), atom!("R", var "x", var "y")],
        )
        .unwrap();
        check_delta(
            &pinned,
            &base,
            &[atom!("R", cst "a", cst "b"), atom!("R", cst "b", cst "z")],
        );
    }

    #[test]
    fn delta_execution_finds_answers_spanning_two_delta_relations() {
        // The new answer needs delta tuples at *both* atoms at once.
        let base = Instance::from_atoms(vec![atom!("E", cst "a", cst "b")]).unwrap();
        let q = ConjunctiveQuery::new(
            vec![intern("x0"), intern("x2")],
            sac_gen::path_query(2).body,
        )
        .unwrap();
        check_delta(
            &q,
            &base,
            &[atom!("E", cst "p", cst "q"), atom!("E", cst "q", cst "r")],
        );
    }

    #[test]
    fn delta_execution_declines_indexed_plans() {
        // (Name kept from when it did decline.)  The search rung answers a
        // delta like the other two: one seeded search per body atom, their
        // index keys after the ones a full execution probes.
        let db = sac_gen::random_graph_database(8, 20, 3);
        let appends: Vec<Atom> = [("n0", "n1"), ("n1", "n2"), ("n2", "n0"), ("n3", "n3")]
            .iter()
            .map(|(s, t)| Atom::from_parts("E", vec![Term::constant(s), Term::constant(t)]))
            .collect();
        let with_head = |q: ConjunctiveQuery| {
            let head = q.body[0].variables_iter().collect();
            ConjunctiveQuery::new(head, q.body).unwrap()
        };
        for q in [
            sac_gen::clique_query(3),
            sac_gen::cycle_query(4),
            with_head(sac_gen::clique_query(3)),
            with_head(sac_gen::cycle_query(4)),
            with_head(sac_gen::clique_query(4)),
        ] {
            let plan = plan_query(&q, &[], &db, &EngineConfig::default());
            let ExecPlan::Indexed(ip) = &plan.exec else {
                panic!("{q} is cyclic");
            };
            assert_eq!(ip.seeded.len(), q.body.len());
            assert!(plan.probe_keys().len() < plan.index_keys.len());
            check_delta(&q, &db, &appends);
        }
    }

    #[test]
    fn boolean_heads_stop_the_search_at_the_first_homomorphism() {
        // A complete graph with loops: every assignment of the clique's
        // variables is a homomorphism.
        let nodes = ["a", "b", "c", "d", "e"];
        let edges = nodes.iter().flat_map(|s| nodes.iter().map(move |t| (s, t)));
        let db = Instance::from_atoms(
            edges.map(|(s, t)| Atom::from_parts("E", vec![Term::constant(s), Term::constant(t)])),
        )
        .unwrap();
        let boolean = sac_gen::clique_query(3);
        let all = ConjunctiveQuery::new(
            vec![intern("x0"), intern("x1"), intern("x2")],
            boolean.body.clone(),
        );
        for (q, expected_visits) in [(boolean, 1), (all.unwrap(), 125)] {
            let plan = plan_query(&q, &[], &db, &EngineConfig::default());
            let ExecPlan::Indexed(ip) = &plan.exec else {
                panic!("the clique is cyclic");
            };
            let ctx = ExecContext::snapshot(&plan, false, &db, &mut IndexCache::new(&db));
            let mut visits = 0;
            let stop_at_first = ip.head_slots.is_empty();
            for_each_match(ip, &ip.steps, 0, &db, &ctx, stop_at_first, |_| visits += 1);
            assert_eq!(visits, expected_visits, "{q}");
            let answers = execute_with(&plan, &db, &ctx, false);
            assert_eq!(terms(&answers), evaluate(&q, &db));
        }
    }

    #[test]
    fn delta_edge_indexes_cover_multi_variable_join_keys() {
        // S(x,y,z) child of T(x,y,w): the join key {x,y} needs a cached
        // two-column index in both directions — the plan's index keys past
        // the ones a full execution probes.
        let db = Instance::from_atoms(vec![
            atom!("S", cst "a", cst "b", cst "c"),
            atom!("T", cst "a", cst "b", cst "d"),
        ])
        .unwrap();
        let q = ConjunctiveQuery::boolean(vec![
            atom!("S", var "x", var "y", var "z"),
            atom!("T", var "x", var "y", var "w"),
        ])
        .unwrap();
        let plan = plan_query(&q, &[], &db, &EngineConfig::default());
        assert!(plan.probe_keys().is_empty(), "no constants, no probe keys");
        let edges = &plan.index_keys;
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(intern("S"), vec![0, 1])));
        assert!(edges.contains(&(intern("T"), vec![0, 1])));
        // And the delta path answers through them.
        check_delta(
            &q,
            &db,
            &[
                atom!("S", cst "u", cst "v", cst "w1"),
                atom!("T", cst "u", cst "v", cst "w2"),
            ],
        );
    }
}
