//! The executor: run a compiled [`Plan`] over an indexed [`Instance`].
//!
//! The Yannakakis path is the full three-phase algorithm, with every phase a
//! hash operation rather than a scan — and every hash operation works on
//! packed rows of dictionary **codes** (`u32`, see [`sac_storage::dict`]),
//! read straight off the columnar relation buffers; terms are materialized
//! exactly once, when the final answer set is decoded:
//!
//! 1. **match sets** — each join-tree node's atom is matched against its
//!    relation by sweeping the relevant column slices (code comparisons for
//!    repeated variables and constants, gather of the variable columns);
//!    atoms with constant positions probe a sidecar or cached multi-column
//!    index instead of scanning;
//! 2. **semijoin reduction** — an upward (leaf-to-root) sweep removes
//!    dangling tuples, then for non-Boolean queries a downward sweep makes
//!    every node consistent with its parent; both are hash semijoins over
//!    code rows;
//! 3. **join-back-up** — non-Boolean answers are produced by hash-joining
//!    each subtree bottom-up, projecting eagerly onto the node's carry set
//!    (its subtree's head variables plus the join key with the parent), so
//!    intermediate tables stay output-bounded instead of exploding into a
//!    cross-product walk over the reduced tree.
//!
//! The fallback path executes the planner's fixed atom order, fetching the
//! candidates of each step from a cached hash index on exactly the step's
//! bound columns.  It is the non-hot rung (cyclic cores only) and keeps the
//! simpler term-level representation via [`Substitution`].
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
//! Execution itself is **read-only**: [`execute_with`] consumes an immutable
//! [`ExecContext`] snapshot, so the concurrent [`crate::Database`] can run
//! many queries at once without holding the index-cache lock — the snapshot
//! is assembled (and any missing indexes built) in one short locked
//! section beforehand.  Snapshot entries that could not be built degrade
//! to filtered scans, never to wrong answers.

use crate::index::PlanIndexes;
use crate::plan::{ExecPlan, IndexedPlan, NodeShape, Plan, YannakakisPlan};
use sac_common::{FxHashMap, FxHashSet, Substitution, Symbol, Term};
use sac_storage::{dict, Instance, Relation};
use sac_telemetry::{Phase, Probe};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Everything one plan execution works from: an immutable index snapshot
/// and, on traced runs, the probe collecting phase boundaries.
pub(crate) struct ExecContext {
    pub(crate) indexes: PlanIndexes,
    /// Phase timers and per-node row counts for a traced run; `None` for
    /// ordinary runs, whose only tracing cost is this `Option` check.
    /// A context never leaves the thread of the run that built it; the
    /// cell is there because execution shares it as `&self`.
    probe: Option<RefCell<Probe>>,
}

impl ExecContext {
    pub(crate) fn new(indexes: PlanIndexes) -> ExecContext {
        ExecContext {
            indexes,
            probe: None,
        }
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
}

/// The multi-column index keys `plan` probes during execution — exactly the
/// entries [`crate::IndexCache::snapshot`] must provide for an index-served
/// run.
pub(crate) fn required_indexes(plan: &Plan) -> Vec<(Symbol, Vec<usize>)> {
    match &plan.exec {
        ExecPlan::Yannakakis(yp) => yp
            .shapes
            .iter()
            .zip(&yp.query.body)
            .filter(|(shape, _)| shape.const_positions.len() > 1)
            .map(|(shape, atom)| (atom.predicate, shape.const_positions.clone()))
            .collect(),
        ExecPlan::Indexed(ip) => ip
            .order
            .iter()
            .enumerate()
            .filter(|(step, _)| ip.bound_positions[*step].len() > 1)
            .map(|(step, &atom_idx)| {
                (
                    ip.query.body[atom_idx].predicate,
                    ip.bound_positions[step].clone(),
                )
            })
            .collect(),
    }
}

/// Executes `plan` over `db` against an immutable [`ExecContext`] snapshot
/// (see [`required_indexes`]).  Missing snapshot entries fall back to
/// scans.
pub(crate) fn execute_with(plan: &Plan, db: &Instance, ctx: &ExecContext) -> BTreeSet<Vec<Term>> {
    match &plan.exec {
        ExecPlan::Yannakakis(yp) => run_yannakakis(yp, db, ctx),
        ExecPlan::Indexed(ip) => run_indexed(ip, db, ctx),
    }
}

/// An intermediate relation over query variables.  Tuples are packed rows of
/// dictionary codes; nothing in the Yannakakis phases ever compares a
/// [`Term`].
#[derive(Debug, Clone)]
struct Table {
    vars: Vec<Symbol>,
    tuples: FxHashSet<Vec<u32>>,
}

impl Table {
    /// An empty table over `shape`'s distinct variables.
    fn empty(shape: &NodeShape) -> Table {
        Table {
            vars: shape.vars.clone(),
            tuples: FxHashSet::default(),
        }
    }

    /// The relation holding exactly the empty tuple (join identity).
    fn unit() -> Table {
        let mut tuples = FxHashSet::default();
        tuples.insert(Vec::new());
        Table {
            vars: Vec::new(),
            tuples,
        }
    }

    fn positions_of(&self, vars: &[Symbol]) -> Vec<usize> {
        vars.iter()
            .map(|v| {
                self.vars
                    .iter()
                    .position(|u| u == v)
                    .expect("variable present in table")
            })
            .collect()
    }

    /// Projects onto `keep` (must be a subset of the table's variables),
    /// deduplicating.
    fn project(&self, keep: &[Symbol]) -> Table {
        let positions = self.positions_of(keep);
        Table {
            vars: keep.to_vec(),
            tuples: self
                .tuples
                .iter()
                .map(|t| positions.iter().map(|p| t[*p]).collect())
                .collect(),
        }
    }

    /// Hash semijoin: keeps only tuples agreeing with some tuple of `other`
    /// on the shared variables.  With no shared variables this is "keep all
    /// iff `other` is non-empty".  Single-column join keys (the common case
    /// on graph-shaped queries) probe a `u32` set with no per-tuple
    /// allocation.
    fn semijoin(&mut self, other: &Table) {
        let shared: Vec<Symbol> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.vars.contains(v))
            .collect();
        if shared.is_empty() {
            if other.tuples.is_empty() {
                self.tuples.clear();
            }
            return;
        }
        let my_pos = self.positions_of(&shared);
        let other_pos = other.positions_of(&shared);
        if let ([mp], [op]) = (my_pos.as_slice(), other_pos.as_slice()) {
            let (mp, op) = (*mp, *op);
            let keys: FxHashSet<u32> = other.tuples.iter().map(|t| t[op]).collect();
            self.tuples.retain(|t| keys.contains(&t[mp]));
        } else {
            let keys: FxHashSet<Vec<u32>> = other
                .tuples
                .iter()
                .map(|t| other_pos.iter().map(|p| t[*p]).collect())
                .collect();
            self.tuples
                .retain(|t| keys.contains(&my_pos.iter().map(|p| t[*p]).collect::<Vec<_>>()));
        }
    }

    /// Hash join on the shared variables; the output's variables are
    /// `self.vars` followed by `other`'s non-shared variables.  With no
    /// shared variables this is the cross product.
    fn join(&self, other: &Table) -> Table {
        self.join_onto(other, None)
    }

    /// [`Table::join`] with the projection fused into the emit: with
    /// `keep` set, output tuples are gathered directly onto those variables
    /// (a subset of the joined variables), so an output-bounded join never
    /// materializes the wide intermediate only to project it away.
    /// Single-column join keys index a `u32` map with no per-key
    /// allocation.
    fn join_onto(&self, other: &Table, keep: Option<&[Symbol]>) -> Table {
        let shared: Vec<Symbol> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.vars.contains(v))
            .collect();
        let my_pos = self.positions_of(&shared);
        let other_pos = other.positions_of(&shared);
        let extra_pos: Vec<usize> = (0..other.vars.len())
            .filter(|p| !other_pos.contains(p))
            .collect();

        // The emitted columns: each is a side (false = self, true = other)
        // and a position within that side's tuple.
        let (vars, out_cols): (Vec<Symbol>, Vec<(bool, usize)>) = match keep {
            None => {
                let mut vars = self.vars.clone();
                vars.extend(extra_pos.iter().map(|p| other.vars[*p]));
                let mut cols: Vec<(bool, usize)> =
                    (0..self.vars.len()).map(|p| (false, p)).collect();
                cols.extend(extra_pos.iter().map(|p| (true, *p)));
                (vars, cols)
            }
            Some(keep) => {
                let cols = keep
                    .iter()
                    .map(|v| {
                        self.vars
                            .iter()
                            .position(|u| u == v)
                            .map(|p| (false, p))
                            .or_else(|| other.vars.iter().position(|u| u == v).map(|p| (true, p)))
                            .expect("carry variable present in the joined table")
                    })
                    .collect();
                (keep.to_vec(), cols)
            }
        };

        // Index the smaller operand's tuples by join key and probe with the
        // larger.
        let emit = |mine: &Vec<u32>, theirs: &Vec<u32>| -> Vec<u32> {
            out_cols
                .iter()
                .map(|&(from_other, p)| if from_other { theirs[p] } else { mine[p] })
                .collect()
        };
        let mut tuples = FxHashSet::default();
        let (build, probe, build_pos, probe_pos, build_is_self) =
            if self.tuples.len() <= other.tuples.len() {
                (&self.tuples, &other.tuples, &my_pos, &other_pos, true)
            } else {
                (&other.tuples, &self.tuples, &other_pos, &my_pos, false)
            };
        let pair = |b: &Vec<u32>, p: &Vec<u32>| {
            if build_is_self {
                emit(b, p)
            } else {
                emit(p, b)
            }
        };
        if let ([bp], [pp]) = (build_pos.as_slice(), probe_pos.as_slice()) {
            let (bp, pp) = (*bp, *pp);
            let mut by_key: FxHashMap<u32, Vec<&Vec<u32>>> = FxHashMap::default();
            for t in build {
                by_key.entry(t[bp]).or_default().push(t);
            }
            for t in probe {
                if let Some(matches) = by_key.get(&t[pp]) {
                    for m in matches {
                        tuples.insert(pair(m, t));
                    }
                }
            }
        } else {
            let mut by_key: FxHashMap<Vec<u32>, Vec<&Vec<u32>>> = FxHashMap::default();
            for t in build {
                let key: Vec<u32> = build_pos.iter().map(|p| t[*p]).collect();
                by_key.entry(key).or_default().push(t);
            }
            for t in probe {
                let key: Vec<u32> = probe_pos.iter().map(|p| t[*p]).collect();
                if let Some(matches) = by_key.get(&key) {
                    for m in matches {
                        tuples.insert(pair(m, t));
                    }
                }
            }
        }
        Table { vars, tuples }
    }

    /// [`Table::project`] by value: the identity projection (same variables,
    /// same order) is a move, not a copy.
    fn into_projected(self, keep: &[Symbol]) -> Table {
        if keep == self.vars {
            self
        } else {
            self.project(keep)
        }
    }
}

/// A [`NodeShape`] with its constant key pushed through the dictionary: the
/// executor's decode-free admission test over columnar rows.
///
/// `const_codes` is `None` when some rigid term of the atom was never
/// encoded — then no stored tuple can match and the node's match set is
/// empty without touching the relation (the dictionary's `None` is a
/// process-wide absence guarantee).
struct CodeShape<'a> {
    shape: &'a NodeShape,
    const_codes: Option<Vec<u32>>,
}

impl<'a> CodeShape<'a> {
    fn of(shape: &'a NodeShape) -> CodeShape<'a> {
        let const_codes = shape
            .const_key
            .iter()
            .map(|t| dict::lookup(*t))
            .collect::<Option<Vec<u32>>>();
        CodeShape { shape, const_codes }
    }

    /// The match-set projection of row `row` of `cols` (its codes at the
    /// distinct variables' first occurrences) when the row passes the
    /// shape's repeated-variable and constant filters, `None` otherwise.
    /// The one definition of "this relation row matches this atom", shared
    /// by the full scan and incremental (delta) paths so they can never
    /// disagree.
    #[inline]
    fn admit_row(&self, cols: &[&[u32]], row: usize) -> Option<Vec<u32>> {
        let codes = self.const_codes.as_ref()?;
        let shape = self.shape;
        let consistent = shape
            .eq_checks
            .iter()
            .all(|(a, b)| cols[*a][row] == cols[*b][row]);
        let constants = shape
            .const_positions
            .iter()
            .zip(codes)
            .all(|(p, k)| cols[*p][row] == *k);
        (consistent && constants).then(|| shape.var_first.iter().map(|p| cols[*p][row]).collect())
    }
}

/// The column slices of `rel`, gathered once per sweep so the row loop is
/// pure slice indexing.
fn columns_of(rel: &Relation) -> Vec<&[u32]> {
    (0..rel.arity()).map(|p| rel.column(p)).collect()
}

/// Computes a node's match set: the projection onto its distinct variables of
/// the relation tuples matching the atom's constants and repeated variables.
/// Constant positions are served by the relation's sidecar index (one
/// constant) or a snapshot index (several) when available; the fallback is a
/// keep-mask sweep over the column slices.
fn node_matches(
    shape: &NodeShape,
    predicate: Symbol,
    arity: usize,
    db: &Instance,
    indexes: &PlanIndexes,
) -> Table {
    let mut table = Table::empty(shape);
    let Some(rel) = db.relation(predicate) else {
        return table;
    };
    if rel.arity() != arity {
        return table;
    }
    let code_shape = CodeShape::of(shape);
    let Some(const_codes) = code_shape.const_codes.as_deref() else {
        return table; // a rigid term the dictionary never saw: no match
    };
    let cols = columns_of(rel);
    if shape.const_positions.is_empty() {
        table.tuples.reserve(rel.len());
    }
    let mut admit = |row: usize| {
        if let Some(projected) = code_shape.admit_row(&cols, row) {
            table.tuples.insert(projected);
        }
    };
    match shape.const_positions.len() {
        0 => {
            for row in 0..rel.len() {
                admit(row);
            }
        }
        // One constant: the storage layer's sidecar index serves it
        // incrementally — no cached copy needed.
        1 => {
            for &row in rel.rows_with_code(shape.const_positions[0], const_codes[0]) {
                admit(row as usize);
            }
        }
        _ => match indexes.get(&(predicate, shape.const_positions.clone())) {
            Some(index) => {
                for &row in index.rows_codes(const_codes) {
                    admit(row as usize);
                }
            }
            // No snapshot index (e.g. the cache could not build one):
            // degrade to a keep-mask sweep.
            None => {
                for row in 0..rel.len() {
                    admit(row);
                }
            }
        },
    }
    table
}

/// Whether nodes `i` and `j` provably have identical match-set *tuples*:
/// same relation, and the same structural shape (projection positions,
/// repeated-variable checks, constant filters).  Variable *names* may
/// differ — the star query's `E(c,l1), E(c,l2), E(c,l3)` shares one scan
/// three ways.
fn same_match_set(plan: &YannakakisPlan, i: usize, j: usize) -> bool {
    let (a, b) = (&plan.shapes[i], &plan.shapes[j]);
    plan.tree.atoms[i].predicate == plan.tree.atoms[j].predicate
        && a.var_first == b.var_first
        && a.eq_checks == b.eq_checks
        && a.const_positions == b.const_positions
        && a.const_key == b.const_key
}

/// Phase 1 of Yannakakis: one match-set [`Table`] per join-tree node.
/// Structurally identical nodes (common in self-join queries) are scanned
/// once and shared by tuple-set clone.
fn match_tables(plan: &YannakakisPlan, db: &Instance, indexes: &PlanIndexes) -> Vec<Table> {
    let mut tables: Vec<Table> = plan.shapes.iter().map(Table::empty).collect();
    for i in 0..plan.tree.len() {
        // The first node of each structural class scans; later members
        // copy its tuples instead of rescanning.
        match (0..i).find(|&j| same_match_set(plan, i, j)) {
            Some(leader) => tables[i].tuples = tables[leader].tuples.clone(),
            None => {
                let atom = &plan.tree.atoms[i];
                tables[i] =
                    node_matches(&plan.shapes[i], atom.predicate, atom.arity(), db, indexes);
            }
        }
    }
    tables
}

fn run_yannakakis(plan: &YannakakisPlan, db: &Instance, ctx: &ExecContext) -> BTreeSet<Vec<Term>> {
    if plan.tree.is_empty() {
        // The empty conjunction holds vacuously, with the empty answer tuple.
        return BTreeSet::from([Vec::new()]);
    }
    // Phase 1: match sets…
    let tables = match_tables(plan, db, &ctx.indexes);
    ctx.mark(Phase::MatchSets);
    // …then the semijoin sweeps and the join-back-up.
    yannakakis_phases(plan, tables, ctx)
}

/// Reports every node's rows in/out to an attached probe: match-set sizes
/// entering the semijoin sweeps vs the sizes in `tables` now.  A no-op
/// (including the display formatting) on untraced runs.
fn note_node_rows(plan: &YannakakisPlan, rows_in: &[usize], tables: &[Table], ctx: &ExecContext) {
    for (i, atom) in plan.tree.atoms.iter().enumerate() {
        ctx.note_node(atom.to_string(), rows_in[i], tables[i].tuples.len());
    }
}

/// Phases 2–3 of Yannakakis over already-computed per-node tables: the
/// upward/downward semijoin sweeps and the output-bounded join-back-up.
/// Shared between the full path ([`run_yannakakis`], whose tables are the
/// complete match sets) and the incremental path ([`execute_delta`], whose
/// tables are restricted to tuples joining a relation delta).  Answers are
/// decoded from codes to terms here, at the very end — the only
/// term-materialization point of the whole pipeline.
fn yannakakis_phases(
    plan: &YannakakisPlan,
    mut tables: Vec<Table>,
    ctx: &ExecContext,
) -> BTreeSet<Vec<Term>> {
    let n = plan.tree.len();
    let mut answers = BTreeSet::new();
    // Match-set sizes entering the sweeps, for the trace's per-node rows.
    // Collected only under a probe so untraced runs pay one branch.
    let rows_in: Vec<usize> = if ctx.probing() {
        tables.iter().map(|t| t.tuples.len()).collect()
    } else {
        Vec::new()
    };

    // Phase 2a: upward semijoin sweep (children into parents, leaves first).
    for &node in plan.order.iter().rev() {
        for &child in &plan.children[node] {
            let child_table = std::mem::replace(&mut tables[child], Table::unit());
            tables[node].semijoin(&child_table);
            tables[child] = child_table;
        }
        if tables[node].tuples.is_empty() {
            ctx.mark(Phase::SemijoinUp);
            if ctx.probing() {
                note_node_rows(plan, &rows_in, &tables, ctx);
            }
            return answers; // no homomorphism covers this node
        }
    }
    ctx.mark(Phase::SemijoinUp);
    if plan.query.head.is_empty() {
        if ctx.probing() {
            note_node_rows(plan, &rows_in, &tables, ctx);
        }
        answers.insert(Vec::new());
        return answers;
    }

    // Phase 2b: downward sweep (parents into children, roots first).
    for &node in &plan.order {
        if let Some(parent) = plan.tree.parent[node] {
            let parent_table = std::mem::replace(&mut tables[parent], Table::unit());
            tables[node].semijoin(&parent_table);
            tables[parent] = parent_table;
        }
    }
    ctx.mark(Phase::SemijoinDown);
    if ctx.probing() {
        note_node_rows(plan, &rows_in, &tables, ctx);
    }

    // Phase 3: bottom-up hash join, projecting each subtree onto its carry
    // set as it is joined — fused into the last join's emit, so the wide
    // intermediate is never materialized.  Joins follow the tree structure
    // and stay output-bounded.
    let mut joined: Vec<Option<Table>> = vec![None; n];
    for &node in plan.order.iter().rev() {
        let kids = &plan.children[node];
        let mut t = std::mem::replace(&mut tables[node], Table::unit());
        for (i, &child) in kids.iter().enumerate() {
            let child_table = joined[child].take().expect("children joined first");
            let keep = (i + 1 == kids.len()).then_some(plan.carry[node].as_slice());
            t = t.join_onto(&child_table, keep);
        }
        joined[node] = Some(if kids.is_empty() {
            t.into_projected(&plan.carry[node])
        } else {
            t
        });
    }
    // Chain the root tables; a single root (the connected-query case) moves
    // straight through.
    let mut acc: Option<Table> = None;
    for root in plan.tree.roots() {
        let root_table = joined[root].take().expect("roots joined last");
        acc = Some(match acc {
            None => root_table,
            Some(done) => done.join(&root_table),
        });
    }
    let acc = acc.expect("non-empty tree has a root");
    ctx.mark(Phase::JoinBack);

    // Materialize answers in head order (head variables may repeat),
    // decoding each projected code row under one dictionary guard.
    let head_pos = acc.positions_of(&plan.query.head);
    let decoder = dict::decoder();
    for t in &acc.tuples {
        answers.insert(
            head_pos
                .iter()
                .map(|p| decoder.decode(t[*p]))
                .collect::<Vec<Term>>(),
        );
    }
    ctx.mark(Phase::Decode);
    answers
}

/// The multi-column index keys the **incremental** path probes when walking
/// join-tree edges: for every (parent, child) edge and both directions, the
/// target atom's first-occurrence positions of the variables shared with the
/// source atom.  Single-column keys are served by the storage layer's
/// incremental sidecar indexes and need no cache entry.  Empty for
/// non-Yannakakis plans (the fallback rung recomputes in full).
pub(crate) fn delta_edge_indexes(plan: &Plan) -> Vec<(Symbol, Vec<usize>)> {
    let ExecPlan::Yannakakis(yp) = &plan.exec else {
        return Vec::new();
    };
    let mut out: Vec<(Symbol, Vec<usize>)> = Vec::new();
    for child in 0..yp.tree.len() {
        let Some(parent) = yp.tree.parent[child] else {
            continue;
        };
        for (source, target) in [(parent, child), (child, parent)] {
            let positions = shared_positions(&yp.shapes[source].vars, &yp.shapes[target])
                .into_iter()
                .map(|(pos, _)| pos)
                .collect::<Vec<usize>>();
            let key = (yp.tree.atoms[target].predicate, positions);
            if key.1.len() > 1 && !out.contains(&key) {
                out.push(key);
            }
        }
    }
    out
}

/// The join key between two adjacent nodes, from the target's side: for
/// every target variable also present in `source_vars`, the target atom's
/// first-occurrence position, ascending — paired with the variable so
/// callers can project the source table in matching order.
fn shared_positions(source_vars: &[Symbol], target: &NodeShape) -> Vec<(usize, Symbol)> {
    let mut shared: Vec<(usize, Symbol)> = target
        .vars
        .iter()
        .zip(&target.var_first)
        .filter(|(v, _)| source_vars.contains(v))
        .map(|(v, pos)| (*pos, *v))
        .collect();
    shared.sort_unstable();
    shared
}

/// The tuples of `target`'s relation that join some tuple of the already
/// restricted `frontier` table on the shared variables, as a match-set
/// [`Table`] (shape filters applied, projected onto distinct variables).
///
/// Lookups go through the narrowest structure available: the relation's
/// sidecar index for one shared position, a cached multi-column
/// [`crate::JoinIndex`] from the snapshot when present, and a
/// sparsest-sidecar-driven [`Relation::select_rows`] otherwise — all keyed
/// by the codes the frontier already carries.  With no shared variables the
/// restriction is vacuous and the full match set is returned.
fn restrict_via_edge(
    frontier: &Table,
    shape: &NodeShape,
    predicate: Symbol,
    arity: usize,
    db: &Instance,
    indexes: &PlanIndexes,
) -> Table {
    let mut table = Table::empty(shape);
    let Some(rel) = db.relation(predicate) else {
        return table;
    };
    if rel.arity() != arity {
        return table;
    }
    let shared = shared_positions(&frontier.vars, shape);
    if shared.is_empty() {
        // Disconnected neighbour (no join key): every tuple participates.
        return node_matches(shape, predicate, arity, db, indexes);
    }
    let code_shape = CodeShape::of(shape);
    if code_shape.const_codes.is_none() {
        return table;
    }
    let cols = columns_of(rel);
    let positions: Vec<usize> = shared.iter().map(|(pos, _)| *pos).collect();
    let shared_vars: Vec<Symbol> = shared.iter().map(|(_, v)| *v).collect();
    let key_pos = frontier.positions_of(&shared_vars);
    let keys: FxHashSet<Vec<u32>> = frontier
        .tuples
        .iter()
        .map(|t| key_pos.iter().map(|p| t[*p]).collect())
        .collect();

    let mut add_row = |row: usize| {
        if let Some(projected) = code_shape.admit_row(&cols, row) {
            table.tuples.insert(projected);
        }
    };
    let cached = if positions.len() > 1 {
        indexes.get(&(predicate, positions.clone()))
    } else {
        None
    };
    for key in keys {
        if positions.len() == 1 {
            for &row in rel.rows_with_code(positions[0], key[0]) {
                add_row(row as usize);
            }
        } else if let Some(index) = cached {
            for &row in index.rows_codes(&key) {
                add_row(row as usize);
            }
        } else {
            // No cached multi-column index: drive the lookup through the
            // sparsest sidecar and verify the rest against the columns.
            let bound: Vec<(usize, u32)> =
                positions.iter().copied().zip(key.iter().copied()).collect();
            for row in rel.select_rows(&bound) {
                add_row(row as usize);
            }
        }
    }
    table
}

/// Incremental Yannakakis: the answers `plan` gains when the relations in
/// `watermarks` grow past the given row counts (their append-only delta).
/// Returns `None` for non-Yannakakis plans — the fallback rung has no join
/// tree to push deltas through, so callers recompute in full.
///
/// For each join-tree node whose relation grew, the node's match set is
/// computed from the **delta rows only** (a tail sweep over the column
/// buffers) and pushed outward through the tree: each neighbour's table is
/// restricted to tuples joining the frontier (index lookups, not scans), so
/// the per-refresh work is proportional to the delta and its join fan-out,
/// not to the database.  The restricted tables then run the ordinary
/// semijoin sweeps and join-back-up, and contributions from all dirty nodes
/// are unioned.
///
/// Conjunctive queries are monotone, so appended facts can only **add**
/// answers; the union of the returned set into a previously materialized
/// answer set is exactly the new answer set.  Completeness: any new
/// homomorphism uses a delta tuple at some node `i`; walking the join tree
/// outward from `i` over shared-variable lookups reaches a superset of
/// every tuple that joins transitively with the delta (connectedness of
/// join trees), and the sweeps then prune that superset exactly.
pub(crate) fn execute_delta(
    plan: &Plan,
    db: &Instance,
    watermarks: &HashMap<Symbol, usize>,
    ctx: &ExecContext,
) -> Option<BTreeSet<Vec<Term>>> {
    let ExecPlan::Yannakakis(yp) = &plan.exec else {
        return None;
    };
    let n = yp.tree.len();
    let mut out = BTreeSet::new();
    if n == 0 {
        // The empty conjunction never changes; its (vacuous) answer was
        // materialized up front.
        return Some(out);
    }
    // Undirected adjacency over the join tree.
    let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); n];
    for child in 0..n {
        if let Some(parent) = yp.tree.parent[child] {
            adjacent[child].push(parent);
            adjacent[parent].push(child);
        }
    }

    for dirty in 0..n {
        let atom = &yp.tree.atoms[dirty];
        let Some(&from_row) = watermarks.get(&atom.predicate) else {
            continue;
        };
        let Some(rel) = db.relation(atom.predicate) else {
            continue;
        };
        if rel.arity() != atom.arity() || from_row >= rel.len() {
            continue;
        }
        // The dirty node's table: its match set over the delta rows only.
        let shape = &yp.shapes[dirty];
        let mut delta_table = Table::empty(shape);
        let code_shape = CodeShape::of(shape);
        if code_shape.const_codes.is_some() {
            let cols = columns_of(rel);
            for row in from_row..rel.len() {
                if let Some(projected) = code_shape.admit_row(&cols, row) {
                    delta_table.tuples.insert(projected);
                }
            }
        }
        if delta_table.tuples.is_empty() {
            continue; // every appended row was filtered out by the shape
        }

        // Restrict the rest of the tree to tuples joining the delta: BFS
        // outward from the dirty node, each step an index lookup keyed by
        // the frontier's projection onto the shared variables.
        let mut tables: Vec<Option<Table>> = vec![None; n];
        tables[dirty] = Some(delta_table);
        let mut queue = std::collections::VecDeque::from([dirty]);
        let mut contribution_possible = true;
        'bfs: while let Some(node) = queue.pop_front() {
            for &next in &adjacent[node] {
                if tables[next].is_some() {
                    continue;
                }
                let next_atom = &yp.tree.atoms[next];
                let restricted = restrict_via_edge(
                    tables[node].as_ref().expect("visited nodes have tables"),
                    &yp.shapes[next],
                    next_atom.predicate,
                    next_atom.arity(),
                    db,
                    &ctx.indexes,
                );
                if restricted.tuples.is_empty() {
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
            .map(|(i, t)| {
                t.unwrap_or_else(|| {
                    let atom = &yp.tree.atoms[i];
                    node_matches(
                        &yp.shapes[i],
                        atom.predicate,
                        atom.arity(),
                        db,
                        &ctx.indexes,
                    )
                })
            })
            .collect();
        out.extend(yannakakis_phases(yp, tables, ctx));
    }
    Some(out)
}

fn run_indexed(plan: &IndexedPlan, db: &Instance, ctx: &ExecContext) -> BTreeSet<Vec<Term>> {
    // Resolve each step's snapshot index once, so the recursion below does no
    // hashing on the (predicate, columns) key per visited node.
    let step_indexes: Vec<Option<&Arc<crate::index::JoinIndex>>> = plan
        .order
        .iter()
        .enumerate()
        .map(|(step, &atom_idx)| {
            let bp = &plan.bound_positions[step];
            if bp.len() > 1 {
                ctx.indexes
                    .get(&(plan.query.body[atom_idx].predicate, bp.clone()))
            } else {
                None
            }
        })
        .collect();

    let mut answers = BTreeSet::new();
    let mut state = Substitution::new();
    indexed_step(plan, db, &step_indexes, 0, &mut state, &mut answers);
    ctx.mark(Phase::Search);
    answers
}

/// Tries to extend `state` with `tuple` at step `depth`; on success recurses
/// into the next step.
fn try_match(
    plan: &IndexedPlan,
    db: &Instance,
    step_indexes: &[Option<&Arc<crate::index::JoinIndex>>],
    depth: usize,
    tuple: &[Term],
    state: &mut Substitution,
    answers: &mut BTreeSet<Vec<Term>>,
) {
    let atom = &plan.query.body[plan.order[depth]];
    let target = sac_common::Atom::new(atom.predicate, tuple.to_vec());
    let mut extended = state.clone();
    if extended.match_atom(atom, &target) {
        std::mem::swap(state, &mut extended);
        indexed_step(plan, db, step_indexes, depth + 1, state, answers);
        std::mem::swap(state, &mut extended);
    }
}

fn indexed_step(
    plan: &IndexedPlan,
    db: &Instance,
    step_indexes: &[Option<&Arc<crate::index::JoinIndex>>],
    depth: usize,
    state: &mut Substitution,
    answers: &mut BTreeSet<Vec<Term>>,
) {
    if depth == plan.order.len() {
        let tuple: Vec<Term> = plan
            .query
            .head
            .iter()
            .map(|v| state.apply(Term::Variable(*v)))
            .collect();
        if tuple.iter().all(|t| !t.is_variable()) {
            answers.insert(tuple);
        }
        return;
    }
    let atom_idx = plan.order[depth];
    let atom = &plan.query.body[atom_idx];
    let Some(rel) = db.relation(atom.predicate) else {
        return;
    };
    if rel.arity() != atom.arity() {
        return;
    }
    let bp = &plan.bound_positions[depth];

    if bp.is_empty() {
        for tuple in rel.iter() {
            try_match(plan, db, step_indexes, depth, &tuple, state, answers);
        }
        return;
    }
    let key: Vec<Term> = bp.iter().map(|&pos| state.apply(atom.args[pos])).collect();
    if key.iter().any(|t| t.is_variable()) {
        // The planner guarantees bound positions are bound; fall back to a
        // filtered scan if that invariant is ever violated.
        for tuple in scan_candidates(rel, atom, state) {
            try_match(plan, db, step_indexes, depth, &tuple, state, answers);
        }
        return;
    }
    if bp.len() == 1 {
        // Single bound column: the relation's sidecar index serves the
        // lookup directly.
        for &row in rel.rows_with(bp[0], key[0]) {
            let tuple = rel.row(row as usize).expect("indexed row exists");
            try_match(plan, db, step_indexes, depth, &tuple, state, answers);
        }
        return;
    }
    match step_indexes[depth] {
        Some(index) => {
            for &row in index.rows(&key) {
                let tuple = rel.row(row as usize).expect("indexed row exists");
                try_match(plan, db, step_indexes, depth, &tuple, state, answers);
            }
        }
        None => {
            for tuple in scan_candidates(rel, atom, state) {
                try_match(plan, db, step_indexes, depth, &tuple, state, answers);
            }
        }
    }
}

/// Fallback candidate enumeration through the relation's sidecar indexes
/// (used only if a snapshot multi-column index is unavailable).
fn scan_candidates(
    rel: &Relation,
    atom: &sac_common::Atom,
    state: &Substitution,
) -> Vec<Vec<Term>> {
    let bound: Vec<(usize, Term)> = atom
        .args
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            let image = state.apply(*t);
            (!image.is_variable()).then_some((i, image))
        })
        .collect();
    rel.select(&bound).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::EngineConfig;
    use crate::index::IndexCache;
    use crate::plan::plan_query;
    use sac_common::{atom, intern, Atom};
    use sac_query::{evaluate, ConjunctiveQuery};

    fn run(q: &ConjunctiveQuery, db: &Instance) -> BTreeSet<Vec<Term>> {
        let plan = plan_query(q, &[], db, &EngineConfig::default());
        let mut cache = IndexCache::new(db);
        let indexes = cache.snapshot(db, &required_indexes(&plan));
        execute_with(&plan, db, &ExecContext::new(indexes))
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
        // Force the no-snapshot path: execute plans against an empty
        // context and check answers are still exact.
        let db = music_db();
        for q in [
            ConjunctiveQuery::new(
                vec![intern("y")],
                vec![
                    atom!("Owns", cst "alice", var "y"),
                    atom!("Class", var "y", cst "jazz"),
                ],
            )
            .unwrap(),
            ConjunctiveQuery::boolean(vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ])
            .unwrap(),
        ] {
            let plan = plan_query(&q, &[], &db, &EngineConfig::default());
            let ctx = ExecContext::new(PlanIndexes::new());
            assert_eq!(execute_with(&plan, &db, &ctx), evaluate(&q, &db));
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
        let mut answers = {
            let indexes = cache.snapshot(&grown, &required_indexes(&plan));
            execute_with(&plan, &grown, &ExecContext::new(indexes))
        };
        for atom in appends {
            grown.insert(atom.clone()).unwrap();
        }
        cache.note_growth(&grown);
        let watermarks: HashMap<Symbol, usize> = grown
            .delta_since(&cursor)
            .into_iter()
            .map(|d| (d.predicate, d.from_row))
            .collect();
        let needed: Vec<_> = required_indexes(&plan)
            .into_iter()
            .chain(delta_edge_indexes(&plan))
            .collect();
        let indexes = cache.snapshot(&grown, &needed);
        let ctx = ExecContext::new(indexes);
        let delta = execute_delta(&plan, &grown, &watermarks, &ctx)
            .expect("acyclic queries compile to Yannakakis plans");
        answers.extend(delta);
        assert_eq!(
            answers,
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
        let db = sac_gen::random_graph_database(8, 20, 3);
        let plan = plan_query(
            &sac_gen::clique_query(3),
            &[],
            &db,
            &EngineConfig::default(),
        );
        let ctx = ExecContext::new(PlanIndexes::new());
        assert!(execute_delta(&plan, &db, &HashMap::new(), &ctx).is_none());
        assert!(delta_edge_indexes(&plan).is_empty());
    }

    #[test]
    fn delta_edge_indexes_cover_multi_variable_join_keys() {
        // S(x,y,z) child of T(x,y,w): the join key {x,y} needs a cached
        // two-column index in both directions.
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
        let edges = delta_edge_indexes(&plan);
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
