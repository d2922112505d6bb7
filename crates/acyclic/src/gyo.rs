//! The GYO (Graham / Yu–Özsoyoğlu) reduction: deciding acyclicity and
//! constructing join trees.
//!
//! An atom set is acyclic iff repeatedly removing *ears* empties it.  An atom
//! `α` is an ear witnessed by another atom `β` when every connectable term of
//! `α` that is shared with some other remaining atom also occurs in `β`;
//! removing `α` and attaching it below `β` yields a join tree when the
//! process succeeds on all atoms.

use crate::join_tree::{connectable, JoinTree};
use sac_common::{Atom, Term};
use sac_query::ConjunctiveQuery;
use sac_storage::Instance;
use std::collections::{BTreeMap, BTreeSet};

/// Computes a join tree of `atoms`, or `None` if the atom set is cyclic.
pub fn join_tree_of_atoms(atoms: &[Atom]) -> Option<JoinTree> {
    let n = atoms.len();
    let vertex_sets: Vec<BTreeSet<Term>> = atoms
        .iter()
        .map(|a| a.terms().into_iter().filter(|t| connectable(*t)).collect())
        .collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut remaining = n;

    // Occurrence counts let us test "shared with some other remaining atom"
    // cheaply.
    let mut occurrence: BTreeMap<Term, usize> = BTreeMap::new();
    for vs in &vertex_sets {
        for t in vs {
            *occurrence.entry(*t).or_insert(0) += 1;
        }
    }

    while remaining > 0 {
        let mut progress = false;
        'search: for i in 0..n {
            if !alive[i] {
                continue;
            }
            // Terms of atom i that are shared with at least one other
            // remaining atom.
            let shared: BTreeSet<Term> = vertex_sets[i]
                .iter()
                .copied()
                .filter(|t| occurrence[t] > 1)
                .collect();
            if remaining == 1 {
                // Last atom standing becomes a root.
                alive[i] = false;
                remaining -= 1;
                progress = true;
                break 'search;
            }
            for j in 0..n {
                if i == j || !alive[j] {
                    continue;
                }
                if shared.is_subset(&vertex_sets[j]) {
                    parent[i] = Some(j);
                    alive[i] = false;
                    remaining -= 1;
                    for t in &vertex_sets[i] {
                        *occurrence.get_mut(t).expect("term was counted") -= 1;
                    }
                    progress = true;
                    break 'search;
                }
            }
        }
        if !progress {
            return None;
        }
    }
    Some(JoinTree::new(atoms.to_vec(), parent))
}

/// Whether a set of atoms is acyclic (admits a join tree).
pub fn is_acyclic_atoms(atoms: &[Atom]) -> bool {
    join_tree_of_atoms(atoms).is_some()
}

/// Whether a conjunctive query is acyclic: its body, viewed as an instance
/// with each variable replaced by a fresh null, admits a join tree.  Since
/// variables are "connectable" in our join-tree definition, no actual
/// freezing is needed.
pub fn is_acyclic_query(query: &ConjunctiveQuery) -> bool {
    is_acyclic_atoms(&query.body)
}

/// Whether an instance is acyclic (labelled nulls must satisfy the join-tree
/// connectivity; constants are exempt, per the paper's definition).
pub fn is_acyclic_instance(instance: &Instance) -> bool {
    is_acyclic_atoms(&instance.to_atoms())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::atom;
    use sac_common::intern;

    fn cq(atoms: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(atoms).unwrap()
    }

    #[test]
    fn path_queries_are_acyclic() {
        let q = cq(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "y", var "z"),
            atom!("T", var "z", var "w"),
        ]);
        assert!(is_acyclic_query(&q));
        let tree = join_tree_of_atoms(&q.body).unwrap();
        assert!(tree.is_valid());
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn triangle_query_is_cyclic() {
        // The Example 1 triangle: Interest(x,z), Class(y,z), Owns(x,y).
        let q = cq(vec![
            atom!("Interest", var "x", var "z"),
            atom!("Class", var "y", var "z"),
            atom!("Owns", var "x", var "y"),
        ]);
        assert!(!is_acyclic_query(&q));
        assert!(join_tree_of_atoms(&q.body).is_none());
    }

    #[test]
    fn example1_reformulation_is_acyclic() {
        // q'(x,y) :- Interest(x,z), Class(y,z) — the paper's acyclic
        // reformulation under the collector tgd.
        let q = cq(vec![
            atom!("Interest", var "x", var "z"),
            atom!("Class", var "y", var "z"),
        ]);
        assert!(is_acyclic_query(&q));
    }

    #[test]
    fn star_queries_are_acyclic() {
        let q = cq(vec![
            atom!("R", var "c", var "a"),
            atom!("R", var "c", var "b"),
            atom!("R", var "c", var "d"),
        ]);
        assert!(is_acyclic_query(&q));
        let tree = join_tree_of_atoms(&q.body).unwrap();
        assert!(tree.is_valid());
    }

    #[test]
    fn cycle_of_length_four_is_cyclic() {
        let q = cq(vec![
            atom!("E", var "a", var "b"),
            atom!("E", var "b", var "c"),
            atom!("E", var "c", var "d"),
            atom!("E", var "d", var "a"),
        ]);
        assert!(!is_acyclic_query(&q));
    }

    #[test]
    fn wide_guard_atom_makes_query_acyclic() {
        // A cyclic-looking query becomes acyclic when a guard atom contains
        // all variables.
        let q = cq(vec![
            atom!("E", var "a", var "b"),
            atom!("E", var "b", var "c"),
            atom!("E", var "c", var "a"),
            atom!("G", var "a", var "b", var "c"),
        ]);
        assert!(is_acyclic_query(&q));
        let tree = join_tree_of_atoms(&q.body).unwrap();
        assert!(tree.is_valid());
    }

    #[test]
    fn acyclic_example4_query_from_paper() {
        // Example 4: R(x,y), S(x,y,z), S(x,z,w), S(x,w,v), R(x,v) is acyclic.
        let q = cq(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "x", var "y", var "z"),
            atom!("S", var "x", var "z", var "w"),
            atom!("S", var "x", var "w", var "v"),
            atom!("R", var "x", var "v"),
        ]);
        assert!(is_acyclic_query(&q));
    }

    #[test]
    fn example4_after_key_chase_is_cyclic() {
        // After applying the key R: first attribute determines the second,
        // Example 4's query becomes R(x,y), S(x,y,z), S(x,z,w), S(x,w,y)
        // which is cyclic.
        let q = cq(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "x", var "y", var "z"),
            atom!("S", var "x", var "z", var "w"),
            atom!("S", var "x", var "w", var "y"),
        ]);
        assert!(!is_acyclic_query(&q));
    }

    #[test]
    fn single_atom_and_empty_are_acyclic() {
        assert!(is_acyclic_atoms(&[]));
        assert!(is_acyclic_atoms(&[atom!("R", var "x", var "y", var "z")]));
    }

    #[test]
    fn duplicate_atoms_do_not_break_the_reduction() {
        let atoms = vec![
            atom!("R", var "x", var "y"),
            atom!("R", var "x", var "y"),
            atom!("S", var "y", var "z"),
        ];
        assert!(is_acyclic_atoms(&atoms));
    }

    #[test]
    fn ground_instances_with_constants_are_acyclic() {
        // Constants are exempt from connectivity, so any set of ground
        // constant-only atoms is acyclic.
        let inst = Instance::from_atoms(vec![
            atom!("E", cst "a", cst "b"),
            atom!("E", cst "b", cst "c"),
            atom!("E", cst "c", cst "a"),
        ])
        .unwrap();
        assert!(is_acyclic_instance(&inst));
    }

    #[test]
    fn instance_with_null_cycle_is_cyclic() {
        let inst = Instance::from_atoms(vec![
            atom!("E", null 1, null 2),
            atom!("E", null 2, null 3),
            atom!("E", null 3, null 1),
        ])
        .unwrap();
        assert!(!is_acyclic_instance(&inst));
    }

    #[test]
    fn produced_join_trees_are_valid_on_random_acyclic_shapes() {
        // A caterpillar: path with pendant atoms.
        let mut atoms = Vec::new();
        for i in 0..6 {
            atoms.push(Atom::from_parts(
                "E",
                vec![
                    Term::Variable(intern(&format!("p{i}"))),
                    Term::Variable(intern(&format!("p{}", i + 1))),
                ],
            ));
            atoms.push(Atom::from_parts(
                "L",
                vec![
                    Term::Variable(intern(&format!("p{i}"))),
                    Term::Variable(intern(&format!("leaf{i}"))),
                ],
            ));
        }
        let tree = join_tree_of_atoms(&atoms).expect("caterpillar is acyclic");
        assert!(tree.is_valid());
        assert_eq!(tree.len(), atoms.len());
    }
}
