//! The planner: compile a [`ConjunctiveQuery`] into an executable [`Plan`].
//!
//! The strategy lattice, from strongest guarantee to weakest:
//!
//! 1. **[`Strategy::YannakakisDirect`]** — the query itself is acyclic
//!    (admits a join tree): evaluate it with the hash-join Yannakakis
//!    executor in time `O(|q|·|D|)` plus output cost (the paper's Section 2
//!    baseline for acyclic CQs).
//! 2. **[`Strategy::YannakakisWitness`]** — the query is cyclic but
//!    *semantically* acyclic: without constraints iff its core is acyclic
//!    (exact), and under tgds via the witness search of
//!    [`semantic_acyclicity_under_tgds`] (Propositions 8/15).  The verified
//!    acyclic witness `q'` with `q ≡Σ q'` is planned in place of `q` — this
//!    is Proposition 24's fixed-parameter tractable evaluation, with the
//!    (query-only) witness search amortized by the engine's plan cache.
//! 3. **[`Strategy::IndexedSearch`]** — no acyclic reformulation: fall back
//!    to the workspace's one homomorphism search (`sac_query::homomorphism`),
//!    compiled here with the atom order fixed at plan time from per-column
//!    distinct counts (most selective first) and each step's candidate
//!    lookups served by cached multi-column hash indexes.  The same ordering
//!    with each body atom forced first gives the searches a delta execution
//!    runs from that atom's appended rows.
//!
//! Every plan carries an [`Explain`] describing which rung was taken and why.
//!
//! ## The plan is the program
//!
//! Everything about an execution that depends only on the query is decided
//! here, once, and cached with the plan: which column of which intermediate
//! table holds which variable, and which index serves which probe.  A
//! compiled plan speaks in **column positions** and **index slots**, never in
//! variable names — per join-tree edge the key columns of both semijoin
//! sweeps and both delta-walk directions (`EdgeSpec`), per join of the
//! join-back-up the key and emit columns with the carry projection fused in
//! (`JoinSpec`), the head projection, the table of nodes that share a
//! match set; per search step the binding slots its variables are compared
//! with or written to and the probe key as constants and slots
//! (`SearchStep`, compiled by `sac_query::homomorphism::search_steps`); and
//! one `index_keys` list that nodes, edges and search
//! steps refer to by slot.  The executor resolves no name and hashes no key
//! description at run time; `IndexCache::snapshot` hands it a vector aligned
//! with the key list.

use crate::database::EngineConfig;
use sac_acyclic::{join_tree_of_atoms, JoinTree};
use sac_common::Symbol;
use sac_core::{
    is_semantically_acyclic_no_constraints, semantic_acyclicity_under_tgds, SemAcResult,
};
use sac_deps::Tgd;
use sac_query::homomorphism::{index_slot, search_steps, NodeShape, SearchStep};
use sac_query::ConjunctiveQuery;
use sac_storage::{IndexKey, Instance};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Which execution strategy a plan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The query is acyclic: hash-join Yannakakis on the query itself.
    YannakakisDirect,
    /// The query is semantically acyclic: hash-join Yannakakis on a verified
    /// acyclic witness (the core, or a Σ-witness under the engine's tgds).
    YannakakisWitness,
    /// Fallback: stats-ordered, index-accelerated homomorphism search.
    IndexedSearch,
}

impl Strategy {
    /// The strategy's stable display name, as used in traces, telemetry
    /// events and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::YannakakisDirect => "yannakakis-direct",
            Strategy::YannakakisWitness => "yannakakis-witness",
            Strategy::IndexedSearch => "indexed-search",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One directed join-tree edge `from → to`, compiled to positions: the
/// columns holding the shared variables in both nodes' match-set tables
/// (aligned, in `to`'s column order) and how the delta walk reaches `to`'s
/// relation rows from a `from` tuple.  Semijoining `to`'s table by `from`'s
/// keeps the tuples whose `to_cols` occur among `from`'s `from_cols`.
#[derive(Debug, Clone)]
pub(crate) struct EdgeSpec {
    pub from_cols: Vec<usize>,
    pub to_cols: Vec<usize>,
    /// `to`'s argument positions of the shared variables, ascending — the
    /// key of the delta walk's row lookup.
    pub to_positions: Vec<usize>,
    /// The [`Plan::index_keys`] slot serving that lookup when the key has
    /// several columns; one column is the relation's own sidecar index.
    pub index: Option<usize>,
}

/// One hash join of the join-back-up, compiled to positions.
#[derive(Debug, Clone)]
pub(crate) struct JoinSpec {
    /// The join-key columns of the left and the right operand, aligned
    /// (both empty: a cross product).
    pub left_key: Vec<usize>,
    pub right_key: Vec<usize>,
    /// The output columns: `(from_right, column)` per emitted position.
    pub emit: Vec<(bool, usize)>,
}

/// A compiled Yannakakis plan over an acyclic query (the input or a witness).
#[derive(Debug, Clone)]
pub(crate) struct YannakakisPlan {
    /// The acyclic query actually executed.
    pub query: ConjunctiveQuery,
    /// Its join tree (node `i` is `query.body[i]`).
    pub tree: JoinTree,
    /// Root-first preorder (parents before children).
    pub order: Vec<usize>,
    /// Children of each node.
    pub children: Vec<Vec<usize>>,
    /// Per-node atom shapes; a node's match-set table has one column per
    /// distinct variable, in `shapes[i].vars` order.
    pub shapes: Vec<NodeShape>,
    /// Per node, the index slot serving an atom with several constant
    /// positions (one constant is served by the relation's sidecar index).
    pub probe_index: Vec<Option<usize>>,
    /// Per node, the first node with provably identical match-set tuples:
    /// same relation and the same structural shape (projection positions,
    /// repeated-variable checks, constant filters).  Variable *names* may
    /// differ — the star query's `E(c,l1), E(c,l2), E(c,l3)` shares one scan
    /// three ways.  A node that leads its class names itself.
    pub match_leader: Vec<usize>,
    /// Per non-root node, the edge to its parent and the edge back.
    pub up: Vec<Option<EdgeSpec>>,
    pub down: Vec<Option<EdgeSpec>>,
    /// Per leaf, the columns its table is projected onto before it is joined
    /// into its parent; `None` when that projection is the identity.
    pub leaf_cols: Vec<Option<Vec<usize>>>,
    /// Per node, one join per child (aligned with `children`).  The last one
    /// emits the node's carry set — its subtree's head variables plus the
    /// join key with the parent — so the wide intermediate never exists.
    pub joins: Vec<Vec<JoinSpec>>,
    /// The joins chaining the second and later roots onto the first.
    pub root_joins: Vec<JoinSpec>,
    /// The head's columns in the final joined table (repeats preserved).
    pub head_cols: Vec<usize>,
}

/// A compiled fallback plan: backtracking search over a fixed atom order,
/// every variable a slot of one binding array.
#[derive(Debug, Clone)]
pub(crate) struct IndexedPlan {
    /// The query executed (always the input query).
    pub query: ConjunctiveQuery,
    /// The length of the binding array: one slot per distinct body variable.
    pub slots: usize,
    /// The steps of a full execution, most selective atom first.
    pub steps: Vec<SearchStep>,
    /// Per body atom, the steps of the search that starts at that atom (the
    /// same greedy order with the first choice forced): what a delta
    /// execution runs for each occurrence of a grown relation.
    pub seeded: Vec<Vec<SearchStep>>,
    /// The head's binding slots (repeats preserved).
    pub head_slots: Vec<usize>,
}

#[derive(Debug, Clone)]
pub(crate) enum ExecPlan {
    Yannakakis(Box<YannakakisPlan>),
    Indexed(IndexedPlan),
}

/// An executable physical plan, produced by the engine's planner and cached
/// by query fingerprint.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) exec: ExecPlan,
    pub(crate) explain: Explain,
    /// The multi-column index behind every probe site of the plan, as
    /// `(predicate, key positions)`; nodes, edges and steps name their index
    /// by slot in this list.  The keys a full execution probes come first,
    /// the ones only a delta execution uses — join-tree edge keys, the keys
    /// of the seeded searches — after them.
    pub(crate) index_keys: Vec<IndexKey>,
    full_run_keys: usize,
    /// Result column names, resolved once from the *input* query's head at
    /// plan time so runs on a cached plan allocate nothing for them.
    pub(crate) columns: Arc<[String]>,
}

impl Plan {
    /// The strategy this plan executes.
    pub fn strategy(&self) -> Strategy {
        self.explain.strategy
    }

    /// The inspectable description of the planner's choice.
    pub fn explain(&self) -> &Explain {
        &self.explain
    }

    /// The result columns every execution produces (the input query's head
    /// variables, repeats preserved).
    pub fn columns(&self) -> &Arc<[String]> {
        &self.columns
    }

    /// The index keys a full execution probes: the prefix of
    /// [`Plan::index_keys`] before the delta path's own.
    pub(crate) fn probe_keys(&self) -> &[IndexKey] {
        &self.index_keys[..self.full_run_keys]
    }

    /// The query the executor actually runs: the input query, or its
    /// acyclic witness on the [`Strategy::YannakakisWitness`] rung.  Growth
    /// on predicates outside this body can never change the plan's answers,
    /// which is what lets view maintenance skip irrelevant appends.
    pub(crate) fn exec_query(&self) -> &ConjunctiveQuery {
        match &self.exec {
            ExecPlan::Yannakakis(yp) => &yp.query,
            ExecPlan::Indexed(ip) => &ip.query,
        }
    }
}

/// The result column names of `query`: its head variables, resolved to
/// strings, repeats preserved.
pub(crate) fn head_columns(query: &ConjunctiveQuery) -> Arc<[String]> {
    query
        .head
        .iter()
        .map(|v| v.as_str())
        .collect::<Vec<String>>()
        .into()
}

/// Why the planner chose what it chose — the inspectable side of a [`Plan`].
#[derive(Debug, Clone)]
pub struct Explain {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Whether the input query was already acyclic.
    pub input_acyclic: bool,
    /// The acyclic witness executed instead of the input, when
    /// `strategy == YannakakisWitness`.
    pub witness: Option<ConjunctiveQuery>,
    /// Node/atom visit order: join-tree preorder for the Yannakakis
    /// strategies, the stats-driven atom order for the fallback.
    pub atom_order: Vec<usize>,
    /// A rough cost estimate from the database statistics at plan time
    /// (tuples touched; not a promise).
    pub estimated_cost: f64,
    /// The database epoch the plan (and its statistics) were computed at.
    pub planned_epoch: u64,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "strategy={} input_acyclic={} order={:?} est_cost={:.0}",
            self.strategy, self.input_acyclic, self.atom_order, self.estimated_cost
        )?;
        if let Some(w) = &self.witness {
            write!(f, " witness=[{w}]")?;
        }
        Ok(())
    }
}

/// The witness search under tgds is query-exponential: queries with more
/// body atoms than this skip it and fall to indexed search.  The
/// constraint-free core check is cheap and always runs.
const MAX_WITNESS_ATOMS: usize = 12;

/// Compiles `query` into a plan against `db` (whose statistics drive the
/// fallback atom order) under the engine's constraint set.
pub(crate) fn plan_query(
    query: &ConjunctiveQuery,
    tgds: &[Tgd],
    db: &Instance,
    config: &EngineConfig,
) -> Plan {
    // Result column names always follow the *input* head (a verified witness
    // has the same head tuple, or it would not be answer-equivalent).
    let columns = head_columns(query);
    let input_tree = join_tree_of_atoms(&query.body);
    let input_acyclic = input_tree.is_some();
    if config.force_indexed {
        // Differential-testing knob: skip both Yannakakis rungs and compile
        // the fallback unconditionally (it is correct on every query).
        return indexed_plan(query, db, input_acyclic, columns);
    }
    if let Some(tree) = input_tree {
        return yannakakis_plan(query.clone(), tree, None, db, columns);
    }

    let witness = if tgds.is_empty() {
        // Without constraints, semantic acyclicity is exactly "the core
        // is acyclic" — and core equivalence holds over every database.
        is_semantically_acyclic_no_constraints(query)
    } else if query.size() <= MAX_WITNESS_ATOMS {
        match semantic_acyclicity_under_tgds(query, tgds, config.semac) {
            SemAcResult::Witness(w) => Some(w),
            SemAcResult::NoWitness { .. } => None,
        }
    } else {
        None
    };
    if let Some(w) = witness {
        if let Some(tree) = join_tree_of_atoms(&w.body) {
            return yannakakis_plan(w.clone(), tree, Some(w), db, columns);
        }
    }

    indexed_plan(query, db, input_acyclic, columns)
}

/// The column of `v` — of each of `vars` — in a table laid out as `layout`.
fn column_of(layout: &[Symbol], v: &Symbol) -> usize {
    let column = layout.iter().position(|u| u == v);
    column.expect("variable present in the table layout")
}

fn columns_of(layout: &[Symbol], vars: &[Symbol]) -> Vec<usize> {
    vars.iter().map(|v| column_of(layout, v)).collect()
}

/// The columns of the variables two layouts share — `(in a, in b)`, aligned,
/// in `b`'s column order.
fn shared_cols(a: &[Symbol], b: &[Symbol]) -> (Vec<usize>, Vec<usize>) {
    (0..b.len())
        .filter_map(|j| a.iter().position(|v| *v == b[j]).map(|i| (i, j)))
        .unzip()
}

/// Compiles the hash join of a table laid out as `left` with one laid out
/// as `right`, and rewrites `left` to the output layout: `keep` when given
/// (the projection is fused into the emit), otherwise `left` followed by
/// `right`'s other variables.
fn join_spec(left: &mut Vec<Symbol>, right: &[Symbol], keep: Option<&[Symbol]>) -> JoinSpec {
    let (left_key, right_key) = shared_cols(left, right);
    let rest = right.iter().filter(|v| !left.contains(v));
    let out: Vec<Symbol> = match keep {
        Some(keep) => keep.to_vec(),
        None => left.iter().chain(rest).copied().collect(),
    };
    let emit = out
        .iter()
        .map(|v| match left.iter().position(|u| u == v) {
            Some(column) => (false, column),
            None => (true, column_of(right, v)),
        })
        .collect();
    *left = out;
    JoinSpec {
        left_key,
        right_key,
        emit,
    }
}

/// Compiles the Yannakakis plan of `exec_query` over its join tree: the
/// input query on the direct rung, `witness` itself on the witness rung.
fn yannakakis_plan(
    exec_query: ConjunctiveQuery,
    tree: JoinTree,
    witness: Option<ConjunctiveQuery>,
    db: &Instance,
    columns: Arc<[String]>,
) -> Plan {
    let n = tree.len();
    let children: Vec<Vec<usize>> = (0..n).map(|i| tree.children(i)).collect();
    let order = preorder(&tree, &children);
    let (head, body) = (&exec_query.head, &exec_query.body);
    let shapes: Vec<NodeShape> = body.iter().map(NodeShape::of_atom).collect();

    // carry[n]: what n's joined subtree table keeps — the head variables of
    // its subtree plus the join key with the parent (variables shared with
    // the parent atom).  Own variables first, then the children's head
    // variables bottom-up.
    let mut carry: Vec<BTreeSet<Symbol>> = (0..n)
        .map(|node| {
            let parent_vars = tree.parent[node].map_or(&[][..], |p| &shapes[p].vars);
            let kept = |v: &&Symbol| head.contains(v) || parent_vars.contains(v);
            shapes[node].vars.iter().filter(kept).copied().collect()
        })
        .collect();
    for &node in order.iter().rev() {
        if let Some(parent) = tree.parent[node] {
            let up = carry[node].iter().copied().filter(|v| head.contains(v));
            let up: Vec<Symbol> = up.collect();
            carry[parent].extend(up);
        }
    }
    let carry: Vec<Vec<Symbol>> = carry.into_iter().map(Vec::from_iter).collect();

    // Index slots: the constant probes of phase 1 first (all a full
    // execution needs), then the edge keys only the delta walk uses.
    let mut index_keys = Vec::new();
    let probe_index: Vec<Option<usize>> = (0..n)
        .map(|i| {
            index_slot(
                &mut index_keys,
                body[i].predicate,
                &shapes[i].const_positions,
            )
        })
        .collect();
    let full_run_keys = index_keys.len();
    let mut edge = |from: usize, to: usize| {
        let (from_cols, to_cols) = shared_cols(&shapes[from].vars, &shapes[to].vars);
        let to_positions: Vec<usize> = to_cols.iter().map(|c| shapes[to].var_first[*c]).collect();
        EdgeSpec {
            index: index_slot(&mut index_keys, body[to].predicate, &to_positions),
            from_cols,
            to_cols,
            to_positions,
        }
    };
    let down = (0..n).map(|c| tree.parent[c].map(|p| edge(p, c))).collect();
    let up = (0..n).map(|c| tree.parent[c].map(|p| edge(c, p))).collect();
    let class = |i: usize| {
        let s = &shapes[i];
        let filters = (&s.eq_checks, &s.const_positions, &s.const_key);
        (body[i].predicate, &s.var_first, filters)
    };
    let match_leader = (0..n)
        .map(|i| (0..i).find(|&j| class(j) == class(i)).unwrap_or(i))
        .collect();

    // The join-back-up, bottom-up: `layout[node]` is the variable layout of
    // the node's table, rewritten by each join below it.
    let mut layout: Vec<Vec<Symbol>> = shapes.iter().map(|s| s.vars.clone()).collect();
    let mut leaf_cols = vec![None; n];
    let mut joins: Vec<Vec<JoinSpec>> = vec![Vec::new(); n];
    for &node in order.iter().rev() {
        let kids = &children[node];
        if kids.is_empty() && carry[node] != layout[node] {
            leaf_cols[node] = Some(columns_of(&layout[node], &carry[node]));
            layout[node] = carry[node].clone();
        }
        for (i, &child) in kids.iter().enumerate() {
            let keep = (i + 1 == kids.len()).then_some(carry[node].as_slice());
            let right = std::mem::take(&mut layout[child]);
            joins[node].push(join_spec(&mut layout[node], &right, keep));
        }
    }
    let mut roots = tree.roots().into_iter();
    let mut joined = roots.next().map_or(Vec::new(), |r| layout[r].clone());
    let root_joins = roots
        .map(|r| join_spec(&mut joined, &layout[r], None))
        .collect();
    let head_cols = columns_of(&joined, head);

    // Yannakakis touches every relation a constant number of times.
    let estimated_cost: f64 = body
        .iter()
        .map(|a| db.relation(a.predicate).map(|r| r.len()).unwrap_or(0) as f64)
        .sum();

    let strategy = match witness {
        Some(_) => Strategy::YannakakisWitness,
        None => Strategy::YannakakisDirect,
    };
    let explain = Explain {
        strategy,
        input_acyclic: witness.is_none(),
        witness,
        atom_order: order.clone(),
        estimated_cost,
        planned_epoch: db.epoch(),
    };
    Plan {
        exec: ExecPlan::Yannakakis(Box::new(YannakakisPlan {
            query: exec_query,
            tree,
            order,
            children,
            shapes,
            probe_index,
            match_leader,
            up,
            down,
            leaf_cols,
            joins,
            root_joins,
            head_cols,
        })),
        explain,
        index_keys,
        full_run_keys,
        columns,
    }
}

/// Root-first preorder: every parent before its children, roots in index
/// order, children left to right (deterministic).
fn preorder(tree: &JoinTree, children: &[Vec<usize>]) -> Vec<usize> {
    let mut order = Vec::with_capacity(tree.len());
    let mut stack: Vec<usize> = tree.roots();
    stack.reverse();
    while let Some(node) = stack.pop() {
        order.push(node);
        for &c in children[node].iter().rev() {
            stack.push(c);
        }
    }
    order
}

/// Compiles the fallback plan: the stats-ordered search of a full execution
/// and, for the delta path, one search seeded at each body atom.
fn indexed_plan(
    query: &ConjunctiveQuery,
    db: &Instance,
    input_acyclic: bool,
    columns: Arc<[String]>,
) -> Plan {
    let layout: Vec<Symbol> = query.body_variables().into_iter().collect();
    // Index slots: the keys of the full order first (all a full execution
    // needs), then those of the seeded orders only the delta path runs.
    let mut index_keys = Vec::new();
    let body = &query.body;
    let (steps, estimated_cost) = search_steps(body, db, None, &layout, 0, &mut index_keys);
    let full_run_keys = index_keys.len();
    let mut seeded = |seed| search_steps(body, db, Some(seed), &layout, 0, &mut index_keys).0;
    let seeded = (0..query.body.len()).map(&mut seeded).collect();
    let explain = Explain {
        strategy: Strategy::IndexedSearch,
        input_acyclic,
        witness: None,
        atom_order: steps.iter().map(|step| step.atom).collect(),
        estimated_cost,
        planned_epoch: db.epoch(),
    };
    Plan {
        exec: ExecPlan::Indexed(IndexedPlan {
            query: query.clone(),
            slots: layout.len(),
            steps,
            seeded,
            head_slots: columns_of(&layout, &query.head),
        }),
        explain,
        index_keys,
        full_run_keys,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::EngineConfig;
    use sac_common::{atom, intern, Atom, Term};
    use sac_query::homomorphism::KeyPart;

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    fn graph_db(edges: &[(&str, &str)]) -> Instance {
        Instance::from_atoms(
            edges
                .iter()
                .map(|(s, t)| Atom::from_parts("E", vec![Term::constant(s), Term::constant(t)])),
        )
        .unwrap()
    }

    #[test]
    fn acyclic_queries_plan_as_direct_yannakakis() {
        let q = sac_gen::path_query(3);
        let db = graph_db(&[("a", "b")]);
        let plan = plan_query(&q, &[], &db, &config());
        assert_eq!(plan.strategy(), Strategy::YannakakisDirect);
        assert!(plan.explain().input_acyclic);
        assert!(plan.explain().witness.is_none());
    }

    #[test]
    fn cyclic_query_with_acyclic_core_plans_as_witness() {
        // R(x,y), R(x,y'), S(y,z), S(y',z'): hom-equivalent to its acyclic
        // core — actually take the classic redundant-triangle-free example:
        // E(x,y), E(x,y') has core E(x,y).
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x1", var "x2"),
            atom!("E", var "x2", var "x3"),
            atom!("E", var "x3", var "x1"),
        ])
        .unwrap();
        let db = graph_db(&[("a", "a")]);
        let plan = plan_query(&q, &[], &db, &config());
        // The triangle is its own core and stays cyclic: fallback.
        assert_eq!(plan.strategy(), Strategy::IndexedSearch);
        assert!(!plan.explain().input_acyclic);
    }

    #[test]
    fn collector_tgd_turns_example1_into_a_witness_plan() {
        let q = sac_gen::example1_triangle();
        let tgds = vec![sac_gen::collector_tgd()];
        let db = sac_gen::music_database(5, 10, 2);
        let plan = plan_query(&q, &tgds, &db, &config());
        assert_eq!(plan.strategy(), Strategy::YannakakisWitness);
        let w = plan.explain().witness.as_ref().expect("witness recorded");
        assert!(w.size() <= 2);
        assert!(format!("{}", plan.explain()).contains("yannakakis-witness"));
    }

    #[test]
    fn witness_search_respects_the_size_cap() {
        let tgds = vec![sac_gen::collector_tgd()];
        let db = sac_gen::music_database(5, 10, 2);
        let triangle = sac_gen::example1_triangle();
        let plan = plan_query(&triangle, &tgds, &db, &config());
        assert_eq!(plan.strategy(), Strategy::YannakakisWitness);

        // One atom over the cap: the triangle padded with redundant
        // Interest(x, zᵢ) atoms is equivalent to it, but skips the search.
        let mut body = triangle.body.clone();
        for i in body.len()..=MAX_WITNESS_ATOMS {
            body.push(Atom::from_parts(
                "Interest",
                vec![Term::variable("x"), Term::variable(&format!("z{i}"))],
            ));
        }
        let padded = ConjunctiveQuery::new(triangle.head.clone(), body).unwrap();
        assert_eq!(padded.size(), MAX_WITNESS_ATOMS + 1);
        let plan = plan_query(&padded, &tgds, &db, &config());
        assert_eq!(plan.strategy(), Strategy::IndexedSearch);
    }

    #[test]
    fn stats_ordering_starts_with_the_most_selective_atom() {
        // Small relation S (1 tuple) vs large relation E (many tuples): the
        // fallback order should begin with the S-atom.
        let mut db = Instance::new();
        for i in 0..50 {
            db.insert(Atom::from_parts(
                "E",
                vec![
                    Term::constant(&format!("a{i}")),
                    Term::constant(&format!("a{}", (i + 1) % 50)),
                ],
            ))
            .unwrap();
        }
        db.insert(atom!("S", cst "a0")).unwrap();
        // Cyclic query so planning falls through to the indexed strategy.
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "z", var "x"),
            atom!("S", var "x"),
        ])
        .unwrap();
        let plan = plan_query(&q, &[], &db, &config());
        assert_eq!(plan.strategy(), Strategy::IndexedSearch);
        assert_eq!(plan.explain().atom_order[0], 3, "S-atom drives the search");
    }

    #[test]
    fn bound_positions_grow_as_variables_are_bound() {
        let db = graph_db(&[("a", "b"), ("b", "c")]);
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "z", var "x"),
        ])
        .unwrap();
        let plan = plan_query(&q, &[], &db, &config());
        let ExecPlan::Indexed(ip) = &plan.exec else {
            panic!("triangle must fall back to indexed search");
        };
        assert!(ip.steps[0].key.is_empty(), "first atom scans");
        // Every later atom has at least one bound (index-keyed) position.
        let mut later = ip.steps[1..].iter();
        assert!(later.all(|step| !step.key.is_empty()));
    }

    #[test]
    fn force_indexed_compiles_the_fallback_even_for_acyclic_queries() {
        let db = graph_db(&[("a", "b"), ("b", "c")]);
        let q = sac_gen::path_query(3);
        let mut cfg = config();
        cfg.force_indexed = true;
        let plan = plan_query(&q, &[], &db, &cfg);
        assert_eq!(plan.strategy(), Strategy::IndexedSearch);
        assert!(
            plan.explain().input_acyclic,
            "the explain still reports the true shape"
        );
    }

    /// The distinct variables of `vars`, in order of first occurrence.
    fn distinct(vars: impl Iterator<Item = Symbol>) -> Vec<Symbol> {
        let mut seen = Vec::new();
        for v in vars {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// Where variable `v` first occurs in `atom`, found the slow way.
    fn first_occurrence(atom: &Atom, v: Symbol) -> usize {
        let at = atom.args.iter().position(|t| *t == Term::Variable(v));
        at.expect("variable occurs in the atom")
    }

    /// An index slot must name exactly `(predicate, positions)` when the key
    /// has several columns, and must be absent otherwise.
    fn check_slot(plan: &Plan, slot: Option<usize>, predicate: Symbol, positions: &[usize]) {
        match slot {
            None => assert!(positions.len() < 2),
            Some(slot) => assert_eq!(plan.index_keys[slot], (predicate, positions.to_vec())),
        }
    }

    /// Checks every compiled position of a Yannakakis plan by running the
    /// plan over variable *names* instead of codes — a node's table is the
    /// row of its variables — and comparing with definitions spelled out by
    /// name lookup.
    fn check_yannakakis_positions(plan: &Plan, yp: &YannakakisPlan) {
        let n = yp.tree.len();
        let body = &yp.query.body;
        let vars = |i: usize| distinct(body[i].variables_iter());
        let named = |layout: &[Symbol], cols: &[usize]| -> Vec<Symbol> {
            cols.iter().map(|c| layout[*c]).collect()
        };
        let set = |layout: &[Symbol]| -> BTreeSet<Symbol> { layout.iter().copied().collect() };

        // Phase 1: probe slots and match-set classes.
        for i in 0..n {
            let consts: Vec<usize> = (0..body[i].arity())
                .filter(|p| !body[i].args[*p].is_variable())
                .collect();
            check_slot(plan, yp.probe_index[i], body[i].predicate, &consts);
            assert!(yp.probe_index[i].is_none_or(|slot| slot < plan.probe_keys().len()));
            // Two atoms have the same match set iff they are equal up to
            // renaming variables by order of first occurrence.
            let canonical = |j: usize| {
                body[j].map_args(|t| match t {
                    Term::Variable(v) => {
                        let k = vars(j).iter().position(|u| *u == v).unwrap();
                        Term::variable(&format!("v{k}"))
                    }
                    rigid => rigid,
                })
            };
            let leader = (0..=i).find(|j| canonical(*j) == canonical(i)).unwrap();
            assert_eq!(yp.match_leader[i], leader, "leader of {}", body[i]);
        }

        // Phase 2 and the delta walk: both directions of every edge.
        for child in 0..n {
            let Some(parent) = yp.tree.parent[child] else {
                assert!(yp.up[child].is_none() && yp.down[child].is_none());
                continue;
            };
            for (edge, from, to) in [
                (&yp.up[child], child, parent),
                (&yp.down[child], parent, child),
            ] {
                let edge = edge.as_ref().expect("non-root nodes have both edges");
                let shared = named(&vars(to), &edge.to_cols);
                assert_eq!(named(&vars(from), &edge.from_cols), shared, "aligned");
                assert_eq!(shared.len(), set(&shared).len(), "no column twice");
                let both: BTreeSet<Symbol> = set(&vars(from))
                    .intersection(&set(&vars(to)))
                    .copied()
                    .collect();
                assert_eq!(set(&shared), both, "exactly the shared variables");
                let positions: Vec<usize> = shared
                    .iter()
                    .map(|v| first_occurrence(&body[to], *v))
                    .collect();
                assert_eq!(edge.to_positions, positions);
                assert!(positions.windows(2).all(|w| w[0] < w[1]), "ascending key");
                check_slot(plan, edge.index, body[to].predicate, &positions);
            }
        }

        // Phase 3: carry sets by definition, then the joins over name rows.
        let in_subtree = |node: usize, mut other: usize| loop {
            if other == node {
                break true;
            }
            match yp.tree.parent[other] {
                Some(up) => other = up,
                None => break false,
            }
        };
        let carry = |node: usize| -> Vec<Symbol> {
            let mut keep = BTreeSet::new();
            for other in (0..n).filter(|o| in_subtree(node, *o)) {
                keep.extend(
                    vars(other)
                        .into_iter()
                        .filter(|v| yp.query.head.contains(v)),
                );
            }
            if let Some(parent) = yp.tree.parent[node] {
                keep.extend(vars(node).into_iter().filter(|v| vars(parent).contains(v)));
            }
            keep.into_iter().collect()
        };
        let join = |left: &[Symbol], right: &[Symbol], spec: &JoinSpec| -> Vec<Symbol> {
            let key = named(left, &spec.left_key);
            assert_eq!(key, named(right, &spec.right_key), "aligned join key");
            assert_eq!(key.len(), set(&key).len());
            let both: BTreeSet<Symbol> = set(left).intersection(&set(right)).copied().collect();
            assert_eq!(set(&key), both, "the key is every shared variable");
            let emit = spec.emit.iter();
            emit.map(|&(from_right, c)| if from_right { right[c] } else { left[c] })
                .collect()
        };
        let unprojected = |left: &[Symbol], right: &[Symbol]| -> Vec<Symbol> {
            let rest = right.iter().filter(|v| !left.contains(v));
            left.iter().chain(rest).copied().collect()
        };
        let mut rows: Vec<Vec<Symbol>> = (0..n).map(vars).collect();
        for &node in yp.order.iter().rev() {
            let kids = &yp.children[node];
            assert_eq!(yp.joins[node].len(), kids.len());
            let mut row = rows[node].clone();
            match &yp.leaf_cols[node] {
                Some(cols) => {
                    assert!(kids.is_empty() && carry(node) != row, "a real projection");
                    row = named(&row, cols);
                }
                None => assert!(!kids.is_empty() || carry(node) == row),
            }
            for (i, (&child, spec)) in kids.iter().zip(&yp.joins[node]).enumerate() {
                let out = join(&row, &rows[child], spec);
                if i + 1 < kids.len() {
                    assert_eq!(out, unprojected(&row, &rows[child]));
                }
                row = out;
            }
            assert_eq!(
                row,
                carry(node),
                "subtree of {} emits its carry",
                body[node]
            );
            rows[node] = row;
        }
        let roots = yp.tree.roots();
        assert_eq!(yp.root_joins.len(), roots.len().saturating_sub(1));
        let mut acc = roots.first().map_or(Vec::new(), |r| rows[*r].clone());
        for (root, spec) in roots.iter().skip(1).zip(&yp.root_joins) {
            let out = join(&acc, &rows[*root], spec);
            assert_eq!(out, unprojected(&acc, &rows[*root]));
            acc = out;
        }
        assert_eq!(named(&acc, &yp.head_cols), yp.query.head, "head projection");
    }

    /// Replays every step list of the fallback — the full order and the one
    /// seeded at each body atom — over variable *names*: the binding array
    /// is the row of the body's distinct variables, and a step's binds and
    /// key are compared with what is bound by name at that point.
    fn check_indexed_positions(plan: &Plan, ip: &IndexedPlan) {
        let body = &ip.query.body;
        // The layout is read back from the binds of the full order: every
        // body variable is bound exactly once there.
        let mut layout: Vec<Option<Symbol>> = vec![None; ip.slots];
        for step in &ip.steps {
            for (column, slot) in &step.binds {
                assert!(layout[*slot].replace(step.shape.vars[*column]).is_none());
            }
        }
        let layout: Vec<Symbol> = layout.into_iter().map(Option::unwrap).collect();
        let all = distinct(body.iter().flat_map(Atom::variables_iter));
        assert_eq!(layout.iter().collect::<BTreeSet<_>>(), all.iter().collect());
        assert_eq!(ip.slots, all.len(), "one slot per variable");
        let head: Vec<Symbol> = ip.head_slots.iter().map(|slot| layout[*slot]).collect();
        assert_eq!(head, ip.query.head, "head projection");
        let full: Vec<usize> = ip.steps.iter().map(|step| step.atom).collect();
        assert_eq!(full, plan.explain().atom_order);
        assert_eq!(ip.seeded.len(), body.len(), "one seeded search per atom");

        let seeded = ip.seeded.iter().enumerate();
        let lists = std::iter::once((None, &ip.steps)).chain(seeded.map(|(i, s)| (Some(i), s)));
        for (seed, steps) in lists {
            let mut atoms: Vec<usize> = steps.iter().map(|step| step.atom).collect();
            assert!(
                seed.is_none_or(|seed| atoms[0] == seed),
                "forced first atom"
            );
            atoms.sort_unstable();
            assert_eq!(atoms, (0..body.len()).collect::<Vec<_>>(), "a permutation");
            let mut bound: BTreeSet<Symbol> = BTreeSet::new();
            for step in steps {
                let atom = &body[step.atom];
                let vars = distinct(atom.variables_iter());
                assert_eq!(step.shape.vars, vars);
                // The step binds exactly the variables no earlier step
                // did, each into the slot that carries its name.
                let binds = step.binds.iter();
                let bound_here: Vec<Symbol> = binds.map(|(column, _)| vars[*column]).collect();
                let unbound = vars.iter().filter(|v| !bound.contains(v));
                assert_eq!(bound_here, unbound.copied().collect::<Vec<_>>(), "{atom}");
                for (column, slot) in &step.binds {
                    assert_eq!(layout[*slot], vars[*column]);
                }
                // The key: constants and variables of earlier steps.
                let positions: Vec<usize> = (0..atom.arity())
                    .filter(|p| {
                        atom.args[*p]
                            .as_variable()
                            .is_none_or(|v| bound.contains(&v))
                    })
                    .collect();
                let keyed: Vec<usize> = step.key.iter().map(|(pos, _)| *pos).collect();
                assert_eq!(keyed, positions);
                for (pos, part) in &step.key {
                    let term = match part {
                        KeyPart::Const(i) => {
                            assert_eq!(step.shape.const_positions[*i], *pos);
                            step.shape.const_key[*i]
                        }
                        KeyPart::Slot(slot) => Term::Variable(layout[*slot]),
                    };
                    assert_eq!(term, atom.args[*pos], "key part {pos} of {atom}");
                }
                check_slot(plan, step.index, atom.predicate, &positions);
                // Only the full order's keys are in the prefix a full
                // execution snapshots.
                let in_prefix = |slot: usize| slot < plan.probe_keys().len();
                assert!(step
                    .index
                    .is_none_or(|slot| in_prefix(slot) == seed.is_none()));
                bound.extend(atom.variables_iter());
            }
        }
    }

    #[test]
    fn compiled_positions_agree_with_brute_force_name_lookup() {
        let with_head = |head: &[&str], body: Vec<Atom>| {
            ConjunctiveQuery::new(head.iter().map(|v| intern(v)).collect(), body).unwrap()
        };
        let graph = sac_gen::random_graph_database(8, 20, 3);
        let music = sac_gen::music_database(5, 10, 2);
        let collector = vec![sac_gen::collector_tgd()];
        let mut cases: Vec<(ConjunctiveQuery, &[Tgd], &Instance)> = Vec::new();
        for k in 1..=5 {
            cases.push((sac_gen::path_query(k), &[], &graph));
            cases.push((sac_gen::star_query(k), &[], &graph));
            // Non-Boolean readings of the same bodies: the carry sets and
            // the head projection only matter with a head.
            let path = sac_gen::path_query(k).body;
            cases.push((
                with_head(&["x0", &format!("x{k}")], path.clone()),
                &[],
                &graph,
            ));
            cases.push((
                with_head(&[&format!("x{k}"), "x0", "x0"], path),
                &[],
                &graph,
            ));
            let star = sac_gen::star_query(k).body;
            cases.push((with_head(&["c"], star.clone()), &[], &graph));
            cases.push((with_head(&["l0", "c"], star), &[], &graph));
        }
        for k in 3..=5 {
            cases.push((sac_gen::cycle_query(k), &[], &graph));
        }
        cases.push((sac_gen::clique_query(3), &[], &graph));
        cases.push((sac_gen::clique_query(4), &[], &graph));
        cases.push((sac_gen::looped_triangle_query(), &[], &graph));
        cases.push((sac_gen::example1_triangle(), &collector, &music));
        cases.push((sac_gen::example1_triangle(), &[], &music));
        // Multi-column join keys, constants, repeats, and a second root.
        cases.push((
            with_head(
                &["w", "x", "u"],
                vec![
                    atom!("S", var "x", var "y", var "z"),
                    atom!("T", var "y", cst "a", var "x", cst "b", var "w"),
                    atom!("T", var "y", cst "a", var "x", cst "b", var "w2"),
                    atom!("R", var "z", var "z"),
                    atom!("A", var "u"),
                ],
            ),
            &[],
            &graph,
        ));
        // The same on the search rung: a triangle the wide atom does not
        // cover.
        cases.push((
            with_head(
                &["w", "x", "x"],
                vec![
                    atom!("E", var "x", var "y"),
                    atom!("E", var "y", var "z"),
                    atom!("E", var "z", var "x"),
                    atom!("T", var "y", cst "a", var "x", cst "b", var "w"),
                    atom!("R", var "z", var "z"),
                ],
            ),
            &[],
            &graph,
        ));
        let (mut yannakakis, mut indexed) = (0, 0);
        for (q, tgds, db) in cases {
            let plan = plan_query(&q, tgds, db, &config());
            match &plan.exec {
                ExecPlan::Yannakakis(yp) => {
                    check_yannakakis_positions(&plan, yp);
                    yannakakis += 1;
                }
                ExecPlan::Indexed(ip) => {
                    check_indexed_positions(&plan, ip);
                    indexed += 1;
                }
            }
        }
        assert!(yannakakis >= 30 && indexed >= 7, "both rungs were checked");
    }

    #[test]
    fn node_shape_captures_constants_and_repetitions() {
        let shape = NodeShape::of_atom(&atom!("R", var "x", cst "a", var "x", var "y"));
        assert_eq!(shape.vars, vec![intern("x"), intern("y")]);
        assert_eq!(shape.var_first, vec![0, 3]);
        assert_eq!(shape.eq_checks, vec![(2, 0)]);
        assert_eq!(shape.const_positions, vec![1]);
        assert_eq!(shape.const_key, vec![Term::constant("a")]);
    }
}
