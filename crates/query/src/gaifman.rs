//! Gaifman graphs of conjunctive queries and instances.
//!
//! The Gaifman graph has the variables (resp. terms) as nodes, with an edge
//! between two nodes whenever they occur together in some atom.  It underlies
//! the paper's connectivity notions (Proposition 5, the connecting operator)
//! and the cyclicity measurements of Examples 2, 4 and 5 (clique/grid growth
//! after chasing).

use crate::cq::ConjunctiveQuery;
use sac_common::{Atom, Symbol};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An undirected graph over variable symbols.
#[derive(Debug, Clone, Default)]
pub struct GaifmanGraph {
    adjacency: BTreeMap<Symbol, BTreeSet<Symbol>>,
}

impl GaifmanGraph {
    /// Builds the Gaifman graph of a query.
    pub fn of_query(query: &ConjunctiveQuery) -> GaifmanGraph {
        GaifmanGraph::of_atoms(query.body.iter())
    }

    /// Builds the Gaifman graph of a set of atoms, using only the variables.
    pub fn of_atoms<'a>(atoms: impl IntoIterator<Item = &'a Atom>) -> GaifmanGraph {
        let mut g = GaifmanGraph::default();
        for atom in atoms {
            let vars: Vec<Symbol> = atom.variables().into_iter().collect();
            for v in &vars {
                g.adjacency.entry(*v).or_default();
            }
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    g.add_edge(vars[i], vars[j]);
                }
            }
        }
        g
    }

    /// Adds an undirected edge.
    pub fn add_edge(&mut self, a: Symbol, b: Symbol) {
        if a == b {
            self.adjacency.entry(a).or_default();
            return;
        }
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
    }

    /// The nodes of the graph.
    pub fn nodes(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.adjacency.keys().copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(|n| n.len()).sum::<usize>() / 2
    }

    /// The neighbours of `v`.
    pub fn neighbours(&self, v: Symbol) -> impl Iterator<Item = Symbol> + '_ {
        self.adjacency
            .get(&v)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Whether there is an edge between `a` and `b`.
    pub fn has_edge(&self, a: Symbol, b: Symbol) -> bool {
        self.adjacency.get(&a).is_some_and(|n| n.contains(&b))
    }

    /// Whether the graph is connected.  Graphs with at most one node are
    /// connected by convention.
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// The connected components (as sets of nodes), in deterministic order.
    pub fn components(&self) -> Vec<BTreeSet<Symbol>> {
        let mut seen: BTreeSet<Symbol> = BTreeSet::new();
        let mut out = Vec::new();
        for start in self.adjacency.keys().copied() {
            if seen.contains(&start) {
                continue;
            }
            let mut component = BTreeSet::new();
            let mut queue = VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                if !component.insert(v) {
                    continue;
                }
                seen.insert(v);
                for n in self.neighbours(v) {
                    if !component.contains(&n) {
                        queue.push_back(n);
                    }
                }
            }
            out.push(component);
        }
        out
    }

    /// Returns `true` if the nodes in `clique` are pairwise adjacent.
    pub fn contains_clique(&self, clique: &[Symbol]) -> bool {
        for i in 0..clique.len() {
            for j in (i + 1)..clique.len() {
                if !self.has_edge(clique[i], clique[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// The size of the largest clique found greedily (a lower bound on the
    /// clique number, adequate for the Example 2 measurements where the clique
    /// is explicit).
    pub fn greedy_clique_lower_bound(&self) -> usize {
        let mut best = usize::from(self.node_count() > 0);
        for v in self.nodes() {
            let mut clique = vec![v];
            for u in self.neighbours(v) {
                if clique.iter().all(|w| self.has_edge(u, *w)) {
                    clique.push(u);
                }
            }
            best = best.max(clique.len());
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    #[test]
    fn triangle_query_yields_triangle_graph() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "y", var "z"),
            atom!("T", var "z", var "x"),
        ])
        .unwrap();
        let g = q.gaifman_graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_connected());
        assert!(g.contains_clique(&[intern("x"), intern("y"), intern("z")]));
    }

    #[test]
    fn path_query_is_connected_but_not_clique() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("R", var "y", var "z"),
        ])
        .unwrap();
        let g = q.gaifman_graph();
        assert!(g.is_connected());
        assert!(!g.has_edge(intern("x"), intern("z")));
        assert_eq!(g.greedy_clique_lower_bound(), 2);
    }

    #[test]
    fn disconnected_components_are_detected() {
        let q = ConjunctiveQuery::boolean(vec![atom!("R", var "x", var "y"), atom!("S", var "u")])
            .unwrap();
        let g = q.gaifman_graph();
        assert!(!g.is_connected());
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn atom_with_single_variable_contributes_isolated_node() {
        let g = GaifmanGraph::of_atoms([&atom!("S", var "u", cst "a")]);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn wide_atom_creates_clique_among_its_variables() {
        let g = GaifmanGraph::of_atoms([&atom!("R", var "a", var "b", var "c", var "d")]);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.greedy_clique_lower_bound(), 4);
    }

    #[test]
    fn self_loop_edges_are_ignored() {
        let mut g = GaifmanGraph::default();
        g.add_edge(intern("x"), intern("x"));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}
