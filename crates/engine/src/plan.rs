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
//!    to backtracking homomorphism search, with the atom order fixed at plan
//!    time from per-column distinct counts (most selective first) and each
//!    step's candidate lookups served by cached multi-column hash indexes.
//!
//! Every plan carries an [`Explain`] describing which rung was taken and why.

use crate::database::EngineConfig;
use sac_acyclic::{join_tree_of_atoms, JoinTree};
use sac_common::{Atom, Symbol, Term};
use sac_core::{
    is_semantically_acyclic_no_constraints, semantic_acyclicity_under_tgds, SemAcResult,
};
use sac_deps::Tgd;
use sac_query::ConjunctiveQuery;
use sac_storage::Instance;
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

/// The shape of one atom, precomputed for the executor: distinct variables,
/// where they first occur, which positions must agree (repeated variables)
/// and which are pinned to constants.
#[derive(Debug, Clone)]
pub(crate) struct NodeShape {
    /// Distinct variables in first-occurrence order.
    pub vars: Vec<Symbol>,
    /// Position of the first occurrence of each variable (aligned with `vars`).
    pub var_first: Vec<usize>,
    /// `(later, first)` position pairs that must hold equal terms.
    pub eq_checks: Vec<(usize, usize)>,
    /// Positions holding a rigid (non-variable) term, ascending.
    pub const_positions: Vec<usize>,
    /// The rigid terms at `const_positions`, aligned.
    pub const_key: Vec<Term>,
}

impl NodeShape {
    pub(crate) fn of_atom(atom: &Atom) -> NodeShape {
        let mut vars = Vec::new();
        let mut var_first = Vec::new();
        let mut eq_checks = Vec::new();
        let mut const_positions = Vec::new();
        let mut const_key = Vec::new();
        for (pos, term) in atom.args.iter().enumerate() {
            match term {
                Term::Variable(v) => match vars.iter().position(|u| u == v) {
                    Some(i) => eq_checks.push((pos, var_first[i])),
                    None => {
                        vars.push(*v);
                        var_first.push(pos);
                    }
                },
                rigid => {
                    const_positions.push(pos);
                    const_key.push(*rigid);
                }
            }
        }
        NodeShape {
            vars,
            var_first,
            eq_checks,
            const_positions,
            const_key,
        }
    }
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
    /// Per-node atom shapes.
    pub shapes: Vec<NodeShape>,
    /// Variables each node's joined subtree table is projected onto: head
    /// variables of the subtree plus the join key shared with the parent.
    pub carry: Vec<Vec<Symbol>>,
}

/// A compiled fallback plan: fixed atom order + per-step index key columns.
#[derive(Debug, Clone)]
pub(crate) struct IndexedPlan {
    /// The query executed (always the input query).
    pub query: ConjunctiveQuery,
    /// Atom indices in evaluation order.
    pub order: Vec<usize>,
    /// For each step, the argument positions that are statically known to be
    /// bound when the step runs (constants, plus variables bound by earlier
    /// atoms), ascending — the key columns of the index used for the lookup.
    pub bound_positions: Vec<Vec<usize>>,
}

#[derive(Debug, Clone)]
pub(crate) enum ExecPlan {
    Yannakakis(YannakakisPlan),
    Indexed(IndexedPlan),
}

/// An executable physical plan, produced by the engine's planner and cached
/// by query fingerprint.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) exec: ExecPlan,
    pub(crate) explain: Explain,
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
        return yannakakis_plan(
            query.clone(),
            tree,
            Strategy::YannakakisDirect,
            None,
            db,
            columns,
        );
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
            return yannakakis_plan(
                w.clone(),
                tree,
                Strategy::YannakakisWitness,
                Some(w),
                db,
                columns,
            );
        }
    }

    indexed_plan(query, db, input_acyclic, columns)
}

fn yannakakis_plan(
    exec_query: ConjunctiveQuery,
    tree: JoinTree,
    strategy: Strategy,
    witness: Option<ConjunctiveQuery>,
    db: &Instance,
    columns: Arc<[String]>,
) -> Plan {
    let n = tree.len();
    let children: Vec<Vec<usize>> = (0..n).map(|i| tree.children(i)).collect();
    let order = preorder(&tree, &children);
    let shapes: Vec<NodeShape> = exec_query.body.iter().map(NodeShape::of_atom).collect();

    // subtree_head[n] = head variables occurring anywhere in n's subtree.
    let head_set: BTreeSet<Symbol> = exec_query.head.iter().copied().collect();
    let mut subtree_head: Vec<BTreeSet<Symbol>> = shapes
        .iter()
        .map(|s| {
            s.vars
                .iter()
                .copied()
                .filter(|v| head_set.contains(v))
                .collect()
        })
        .collect();
    for &node in order.iter().rev() {
        if let Some(parent) = tree.parent[node] {
            let up = subtree_head[node].clone();
            subtree_head[parent].extend(up);
        }
    }
    // carry[n]: what n's joined subtree table keeps — its head variables plus
    // the join key with the parent (variables shared with the parent atom).
    let carry: Vec<Vec<Symbol>> = (0..n)
        .map(|node| {
            let mut keep = subtree_head[node].clone();
            if let Some(parent) = tree.parent[node] {
                let parent_vars: BTreeSet<Symbol> = shapes[parent].vars.iter().copied().collect();
                keep.extend(
                    shapes[node]
                        .vars
                        .iter()
                        .copied()
                        .filter(|v| parent_vars.contains(v)),
                );
            }
            keep.into_iter().collect()
        })
        .collect();

    // Yannakakis touches every relation a constant number of times.
    let estimated_cost: f64 = exec_query
        .body
        .iter()
        .map(|a| db.relation(a.predicate).map(|r| r.len()).unwrap_or(0) as f64)
        .sum();

    let explain = Explain {
        strategy,
        input_acyclic: strategy == Strategy::YannakakisDirect,
        witness,
        atom_order: order.clone(),
        estimated_cost,
        planned_epoch: db.epoch(),
    };
    Plan {
        exec: ExecPlan::Yannakakis(YannakakisPlan {
            query: exec_query,
            tree,
            order,
            children,
            shapes,
            carry,
        }),
        explain,
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

/// Greedy stats-driven atom ordering for the fallback strategy: repeatedly
/// pick the unplanned atom with the smallest estimated candidate count given
/// the variables bound so far (relation cardinality divided by the distinct
/// count of every bound column), tie-breaking towards more bound positions.
fn indexed_plan(
    query: &ConjunctiveQuery,
    db: &Instance,
    input_acyclic: bool,
    columns: Arc<[String]>,
) -> Plan {
    let n = query.body.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut bound_vars: BTreeSet<Symbol> = BTreeSet::new();
    let mut order = Vec::with_capacity(n);
    let mut bound_positions = Vec::with_capacity(n);
    let mut estimated_cost = 0.0f64;
    let mut frontier = 1.0f64;

    while !remaining.is_empty() {
        let mut best: Option<(usize, Vec<usize>, f64, usize)> = None;
        for (slot, &atom_idx) in remaining.iter().enumerate() {
            let atom = &query.body[atom_idx];
            let bp: Vec<usize> = atom
                .args
                .iter()
                .enumerate()
                .filter(|(_, t)| match t {
                    Term::Variable(v) => bound_vars.contains(v),
                    _ => true,
                })
                .map(|(pos, _)| pos)
                .collect();
            let est = match db.relation(atom.predicate) {
                Some(rel) if rel.arity() == atom.arity() => {
                    let mut e = rel.len() as f64;
                    for &pos in &bp {
                        let d = rel.distinct_at(pos);
                        if d > 0 {
                            e /= d as f64;
                        }
                    }
                    e
                }
                // Missing relation (or arity clash): zero candidates — the
                // best possible atom to run first.
                _ => 0.0,
            };
            let better = match &best {
                None => true,
                Some((_, best_bp, best_est, _)) => {
                    est < *best_est || (est == *best_est && bp.len() > best_bp.len())
                }
            };
            if better {
                best = Some((slot, bp, est, atom_idx));
            }
        }
        let (slot, bp, est, atom_idx) = best.expect("remaining is non-empty");
        remaining.swap_remove(slot);
        order.push(atom_idx);
        bound_positions.push(bp);
        frontier *= est;
        estimated_cost += frontier;
        bound_vars.extend(query.body[atom_idx].variables_iter());
    }

    let explain = Explain {
        strategy: Strategy::IndexedSearch,
        input_acyclic,
        witness: None,
        atom_order: order.clone(),
        estimated_cost,
        planned_epoch: db.epoch(),
    };
    Plan {
        exec: ExecPlan::Indexed(IndexedPlan {
            query: query.clone(),
            order,
            bound_positions,
        }),
        explain,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::EngineConfig;
    use sac_common::{atom, intern};

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
        assert!(ip.bound_positions[0].is_empty(), "first atom scans");
        // Every later atom has at least one bound (index-keyed) position.
        assert!(ip.bound_positions[1..].iter().all(|bp| !bp.is_empty()));
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
