//! The Lemma 9 compaction: small acyclic witness queries.
//!
//! Lemma 9 (and its auxiliary Lemma 27) is the engine behind every
//! decidability result in the paper.  Given a CQ `q(x̄)`, an *acyclic*
//! instance `I`, and a homomorphism `h` from `q` into `I`, there exists an
//! acyclic CQ `q'(x̄)` with `q' ⊆ q`, `|q'| = O(|q|)`, and `h(x̄) ∈ q'(I)`.
//!
//! The construction: take a join tree `T` of `I`, restrict it to the nodes
//! hit by `h` and their ancestors (`T_q`), then keep only the "interesting"
//! nodes — the image nodes themselves, the roots and the branching nodes of
//! `T_q` — and reconnect them along ancestor paths.  The atoms of the kept
//! nodes, with nulls renamed to fresh variables, form `q'`.
//!
//! We keep the image nodes explicitly (the paper's Figure 3 does as well):
//! this guarantees `h` composes into a homomorphism `q → q'` and hence
//! `q' ⊆ q`.  The size bound becomes `|q'| ≤ 3·|q|` in the worst case
//! (images + branching nodes + roots), which is just as good for the
//! decidability arguments; the paper's finer bookkeeping achieves `2·|q|`.

use crate::gyo::join_tree_of_atoms;
use sac_common::{intern, Atom, Substitution, Symbol, Term};
use sac_query::ConjunctiveQuery;
use sac_storage::Instance;
use std::collections::{BTreeMap, BTreeSet};

/// Computes a compact acyclic witness query from a homomorphism `hom` of
/// `query` into the acyclic instance `instance`.
///
/// Returns `None` if `instance` is not acyclic, or if some atom of the query
/// is not actually mapped into the instance by `hom` (i.e. `hom` is not a
/// homomorphism).
///
/// The returned query `q'` satisfies:
/// * `q'` is acyclic,
/// * `q' ⊆ query` (classically, hence under any constraints),
/// * the tuple `hom(x̄)` is an answer of `q'` on `instance`,
/// * `|q'| ≤ 3·|query|`.
pub fn compact_acyclic_witness(
    query: &ConjunctiveQuery,
    instance: &Instance,
    hom: &Substitution,
) -> Option<ConjunctiveQuery> {
    let tree = join_tree_of_atoms(&instance.to_atoms())?;
    let tree_atoms = &tree.atoms;

    // The image atoms h(α) for every body atom α; each must exist in I.
    let mut image_atoms: BTreeSet<Atom> = BTreeSet::new();
    for atom in &query.body {
        let img = hom.apply_atom(atom);
        if !instance.contains(&img) {
            return None;
        }
        image_atoms.insert(img);
    }

    // Node ids of the join tree hit by the image.
    let image_nodes: BTreeSet<usize> = (0..tree_atoms.len())
        .filter(|i| image_atoms.contains(&tree_atoms[*i]))
        .collect();

    // T_q: image nodes plus all their ancestors.
    let mut tq: BTreeSet<usize> = image_nodes.clone();
    for &n in &image_nodes {
        tq.extend(tree.ancestors(n));
    }

    // Children counts within T_q.
    let mut tq_children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &n in &tq {
        if let Some(p) = tree.parent[n] {
            if tq.contains(&p) {
                tq_children.entry(p).or_default().push(n);
            }
        }
    }

    // Kept nodes: image nodes, roots of T_q, and branching nodes of T_q.
    let mut kept: BTreeSet<usize> = image_nodes.clone();
    for &n in &tq {
        let is_root = tree.parent[n].map(|p| !tq.contains(&p)).unwrap_or(true);
        let branching = tq_children.get(&n).map(|c| c.len()).unwrap_or(0) >= 2;
        if is_root || branching {
            kept.insert(n);
        }
    }

    // J: atoms of the kept nodes.
    let j_atoms: Vec<Atom> = kept.iter().map(|n| tree_atoms[*n].clone()).collect();

    // Rename every null of J to a dedicated variable; constants are kept.
    let mut null_var: BTreeMap<u64, Symbol> = BTreeMap::new();
    let rename = |t: Term, null_var: &mut BTreeMap<u64, Symbol>| match t {
        Term::Null(n) => {
            let v = *null_var
                .entry(n)
                .or_insert_with(|| intern(&format!("w#{n}")));
            Term::Variable(v)
        }
        other => other,
    };
    let body: Vec<Atom> = j_atoms
        .iter()
        .map(|a| a.map_args(|t| rename(t, &mut null_var)))
        .collect();

    // The head: rename the image of the original head tuple.  Head terms that
    // are constants cannot become head variables of a CQ; in every use inside
    // this toolkit the head images are frozen nulls, so we simply refuse the
    // degenerate case.
    let mut head = Vec::with_capacity(query.head.len());
    for v in &query.head {
        let image = hom.apply(Term::Variable(*v));
        match rename(image, &mut null_var) {
            Term::Variable(sym) => head.push(sym),
            _ => return None,
        }
    }

    let q_prime = ConjunctiveQuery::new_unchecked(head, body);
    debug_assert!(crate::gyo::is_acyclic_query(&q_prime));
    Some(q_prime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gyo::is_acyclic_query;
    use sac_common::atom;
    use sac_query::{contained_in, evaluate, FrozenQuery};

    /// Builds an acyclic "path with decorations" instance over nulls.
    fn path_instance(n: u64) -> Instance {
        let mut inst = Instance::new();
        for i in 0..n {
            inst.insert(Atom::from_parts(
                "E",
                vec![Term::Null(i), Term::Null(i + 1)],
            ))
            .unwrap();
        }
        inst
    }

    #[test]
    fn witness_for_edge_query_is_contained_and_acyclic() {
        let q = ConjunctiveQuery::boolean(vec![atom!("E", var "x", var "y")]).unwrap();
        let inst = path_instance(5);
        let frozen = FrozenQuery::freeze(&q);
        let _ = frozen;
        let hom = sac_query::all_homomorphisms(&q.body, &inst).remove(0);
        let w = compact_acyclic_witness(&q, &inst, &hom).unwrap();
        assert!(is_acyclic_query(&w));
        assert!(contained_in(&w, &q));
        assert!(!evaluate(&w, &inst).is_empty());
        assert!(w.size() <= 3 * q.size());
    }

    #[test]
    fn witness_reproduces_head_bindings() {
        // q(x) :- E(x, y), E(y, z): witness must keep x's image as an answer.
        let q = ConjunctiveQuery::new(
            vec![intern("x")],
            vec![atom!("E", var "x", var "y"), atom!("E", var "y", var "z")],
        )
        .unwrap();
        let inst = path_instance(6);
        let hom = sac_query::all_homomorphisms(&q.body, &inst).remove(0);
        let expected_head = hom.apply(Term::variable("x"));
        let w = compact_acyclic_witness(&q, &inst, &hom).unwrap();
        let answers = evaluate(&w, &inst);
        assert!(answers.contains(&vec![expected_head]));
        assert!(contained_in(&w, &q));
    }

    #[test]
    fn cyclic_instance_is_rejected() {
        let mut inst = Instance::new();
        inst.insert(atom!("E", null 0, null 1)).unwrap();
        inst.insert(atom!("E", null 1, null 2)).unwrap();
        inst.insert(atom!("E", null 2, null 0)).unwrap();
        let q = ConjunctiveQuery::boolean(vec![atom!("E", var "x", var "y")]).unwrap();
        let hom = sac_query::all_homomorphisms(&q.body, &inst).remove(0);
        assert!(compact_acyclic_witness(&q, &inst, &hom).is_none());
    }

    #[test]
    fn non_homomorphism_is_rejected() {
        let q = ConjunctiveQuery::boolean(vec![atom!("E", var "x", var "y")]).unwrap();
        let inst = path_instance(2);
        // A substitution that maps x, y to terms not forming an atom of I.
        let bogus = Substitution::from_pairs([
            (Term::variable("x"), Term::Null(0)),
            (Term::variable("y"), Term::Null(0)),
        ]);
        assert!(compact_acyclic_witness(&q, &inst, &bogus).is_none());
    }

    #[test]
    fn witness_size_is_linear_even_when_images_are_far_apart() {
        // Instance: a long path plus two unary markers at the far ends.  The
        // query asks for both markers; the witness must bridge them without
        // keeping the whole path.
        let n = 40;
        let mut inst = path_instance(n);
        inst.insert(atom!("Start", null 0)).unwrap();
        inst.insert(Atom::from_parts("End", vec![Term::Null(n)]))
            .unwrap();
        let q = ConjunctiveQuery::boolean(vec![atom!("Start", var "s"), atom!("End", var "e")])
            .unwrap();
        let hom = sac_query::all_homomorphisms(&q.body, &inst).remove(0);
        let w = compact_acyclic_witness(&q, &inst, &hom).unwrap();
        assert!(is_acyclic_query(&w));
        assert!(contained_in(&w, &q));
        assert!(
            w.size() <= 3 * q.size(),
            "witness of size {} exceeds bound for |q| = {}",
            w.size(),
            q.size()
        );
    }

    #[test]
    fn constants_in_the_instance_are_preserved() {
        let mut inst = Instance::new();
        inst.insert(atom!("R", null 0, cst "a")).unwrap();
        let q = ConjunctiveQuery::boolean(vec![atom!("R", var "x", cst "a")]).unwrap();
        let hom = sac_query::all_homomorphisms(&q.body, &inst).remove(0);
        let w = compact_acyclic_witness(&q, &inst, &hom).unwrap();
        assert!(w.body.iter().any(|a| a.args.contains(&Term::constant("a"))));
        assert!(contained_in(&w, &q));
    }
}
