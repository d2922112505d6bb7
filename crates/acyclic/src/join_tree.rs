//! Join trees (really join *forests*, to accommodate disconnected inputs).
//!
//! A join tree of a set of atoms `A` is a forest whose nodes are labelled by
//! the atoms of `A` (one node per atom) such that for every *connectable*
//! term `t` (a variable or a labelled null — constants are exempt, exactly as
//! in the paper's definition, which only constrains nulls), the set of nodes
//! whose atom mentions `t` is connected.

use sac_common::{Atom, Term};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A join forest over a list of atoms.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// The atoms labelling the nodes; node ids are indexes into this vector.
    pub atoms: Vec<Atom>,
    /// `parent[i]` is the parent of node `i`, or `None` for roots.
    pub parent: Vec<Option<usize>>,
}

impl JoinTree {
    /// Creates a join forest from atoms and a parent vector.
    pub fn new(atoms: Vec<Atom>, parent: Vec<Option<usize>>) -> JoinTree {
        assert_eq!(atoms.len(), parent.len(), "parent vector length mismatch");
        JoinTree { atoms, parent }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The root node ids (nodes without a parent).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|i| self.parent[*i].is_none())
            .collect()
    }

    /// The children of node `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|j| self.parent[*j] == Some(i))
            .collect()
    }

    /// The set of ancestors of `i` (excluding `i` itself).
    pub fn ancestors(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.parent[i];
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent[p];
        }
        out
    }

    /// Undirected adjacency (parent-child edges).
    pub fn adjacency(&self) -> Vec<BTreeSet<usize>> {
        let mut adj = vec![BTreeSet::new(); self.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                adj[i].insert(*p);
                adj[*p].insert(i);
            }
        }
        adj
    }

    /// Checks the defining property: for every connectable term, the nodes
    /// mentioning it induce a connected subgraph, and the parent pointers are
    /// acyclic.
    pub fn is_valid(&self) -> bool {
        // Parent pointers must not create cycles.
        for i in 0..self.len() {
            let mut slow = Some(i);
            let mut seen = BTreeSet::new();
            while let Some(n) = slow {
                if !seen.insert(n) {
                    return false;
                }
                slow = self.parent[n];
            }
        }
        // Connectivity of every connectable term.
        let adj = self.adjacency();
        let mut term_nodes: BTreeMap<Term, Vec<usize>> = BTreeMap::new();
        for (i, atom) in self.atoms.iter().enumerate() {
            for t in atom.terms() {
                if connectable(t) {
                    term_nodes.entry(t).or_default().push(i);
                }
            }
        }
        term_nodes
            .values()
            .all(|nodes| is_connected_within(&adj, nodes))
    }
}

/// Whether a term participates in the join-tree connectivity requirement.
pub fn connectable(term: Term) -> bool {
    term.is_null() || term.is_variable()
}

/// Checks that `nodes` is connected in the subgraph of `adj` induced by
/// `nodes` themselves (the usual join-tree requirement: the path may only use
/// nodes that also contain the term — equivalently, connectivity within the
/// induced subgraph).
fn is_connected_within(adj: &[BTreeSet<usize>], nodes: &[usize]) -> bool {
    if nodes.len() <= 1 {
        return true;
    }
    let node_set: BTreeSet<usize> = nodes.iter().copied().collect();
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::from([nodes[0]]);
    while let Some(n) = queue.pop_front() {
        if !seen.insert(n) {
            continue;
        }
        for m in &adj[n] {
            if node_set.contains(m) && !seen.contains(m) {
                queue.push_back(*m);
            }
        }
    }
    seen.len() == node_set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::atom;

    #[test]
    fn valid_path_join_tree() {
        // R(x,y) - S(y,z) - T(z,w): a chain is a valid join tree.
        let atoms = vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "y", var "z"),
            atom!("T", var "z", var "w"),
        ];
        let tree = JoinTree::new(atoms, vec![None, Some(0), Some(1)]);
        assert!(tree.is_valid());
        assert_eq!(tree.roots(), vec![0]);
        assert_eq!(tree.children(0), vec![1]);
        assert_eq!(tree.ancestors(2), vec![1, 0]);
    }

    #[test]
    fn invalid_tree_breaks_connectivity() {
        // R(x,y), S(y,z), T(x,z) arranged as a path R - S - T is NOT a valid
        // join tree: x occurs in nodes 0 and 2 but not in node 1.
        let atoms = vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "y", var "z"),
            atom!("T", var "x", var "z"),
        ];
        let tree = JoinTree::new(atoms, vec![None, Some(0), Some(1)]);
        assert!(!tree.is_valid());
    }

    #[test]
    fn constants_do_not_constrain_connectivity() {
        // The constant "a" appears in two non-adjacent nodes; that is fine.
        let atoms = vec![
            atom!("R", cst "a", var "y"),
            atom!("S", var "y", var "z"),
            atom!("T", var "z", cst "a"),
        ];
        let tree = JoinTree::new(atoms, vec![None, Some(0), Some(1)]);
        assert!(tree.is_valid());
    }

    #[test]
    fn forest_with_two_roots_is_allowed() {
        let atoms = vec![atom!("R", var "x", var "y"), atom!("S", var "u")];
        let tree = JoinTree::new(atoms, vec![None, None]);
        assert!(tree.is_valid());
        assert_eq!(tree.roots().len(), 2);
    }

    #[test]
    fn cyclic_parent_pointers_are_invalid() {
        let atoms = vec![atom!("R", var "x", var "y"), atom!("S", var "y", var "z")];
        let tree = JoinTree::new(atoms, vec![Some(1), Some(0)]);
        assert!(!tree.is_valid());
    }

    #[test]
    fn empty_tree_is_valid() {
        let tree = JoinTree::new(vec![], vec![]);
        assert!(tree.is_valid());
        assert!(tree.is_empty());
    }
}
