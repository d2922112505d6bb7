//! Parameterized conjunctive-query families and the paper's named queries.

use sac_common::{intern, Atom, Term};
use sac_query::ConjunctiveQuery;

fn var(name: impl AsRef<str>) -> Term {
    Term::Variable(intern(name.as_ref()))
}

/// The Boolean path query `E(x0,x1), …, E(x_{n-1},x_n)` (acyclic).
pub fn path_query(n: usize) -> ConjunctiveQuery {
    let body = (0..n)
        .map(|i| Atom::from_parts("E", vec![var(format!("x{i}")), var(format!("x{}", i + 1))]))
        .collect();
    ConjunctiveQuery::boolean(body).expect("path query is well-formed")
}

/// The Boolean directed cycle query of length `n` (cyclic for `n ≥ 3`).
pub fn cycle_query(n: usize) -> ConjunctiveQuery {
    let body = (0..n)
        .map(|i| {
            Atom::from_parts(
                "E",
                vec![var(format!("x{i}")), var(format!("x{}", (i + 1) % n))],
            )
        })
        .collect();
    ConjunctiveQuery::boolean(body).expect("cycle query is well-formed")
}

/// The Boolean star query with `n` rays (acyclic).
pub fn star_query(n: usize) -> ConjunctiveQuery {
    let body = (0..n)
        .map(|i| Atom::from_parts("E", vec![var("c"), var(format!("l{i}"))]))
        .collect();
    ConjunctiveQuery::boolean(body).expect("star query is well-formed")
}

/// The Boolean `n`-clique query over a binary edge predicate (cyclic for
/// `n ≥ 3`).
pub fn clique_query(n: usize) -> ConjunctiveQuery {
    let mut body = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                body.push(Atom::from_parts(
                    "E",
                    vec![var(format!("x{i}")), var(format!("x{j}"))],
                ));
            }
        }
    }
    ConjunctiveQuery::boolean(body).expect("clique query is well-formed")
}

/// A cyclic body (the directed triangle) plus the loop atom `E(w, w)`:
/// every triangle variable retracts onto `w`, so the core is the single
/// loop atom — acyclic.  The query is therefore semantically acyclic with
/// **no constraints at all**, which makes it the canonical fixture for the
/// engine's witness rung outside of tgd reasoning (directed cycles cannot
/// serve: a `C_n` is its own core for every `n ≥ 3`, since the collapse
/// onto `C_2` is not an endomorphism).
pub fn looped_triangle_query() -> ConjunctiveQuery {
    ConjunctiveQuery::boolean(vec![
        Atom::from_parts("E", vec![var("x"), var("y")]),
        Atom::from_parts("E", vec![var("y"), var("z")]),
        Atom::from_parts("E", vec![var("z"), var("x")]),
        Atom::from_parts("E", vec![var("w"), var("w")]),
    ])
    .expect("looped triangle is well-formed")
}

/// Example 1's triangle query `q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)`.
pub fn example1_triangle() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        vec![intern("x"), intern("y")],
        vec![
            Atom::from_parts("Interest", vec![var("x"), var("z")]),
            Atom::from_parts("Class", vec![var("y"), var("z")]),
            Atom::from_parts("Owns", vec![var("x"), var("y")]),
        ],
    )
    .expect("Example 1 query is well-formed")
}

/// Example 2's query `P(x1) ∧ … ∧ P(xn)` (acyclic).
pub fn example2_query(n: usize) -> ConjunctiveQuery {
    let body = (0..n)
        .map(|i| Atom::from_parts("P", vec![var(format!("x{i}"))]))
        .collect();
    ConjunctiveQuery::boolean(body).expect("Example 2 query is well-formed")
}

/// Example 4's acyclic query
/// `R(x,y), S(x,y,z), S(x,z,w), S(x,w,v), R(x,v)`.
pub fn example4_query() -> ConjunctiveQuery {
    ConjunctiveQuery::boolean(vec![
        Atom::from_parts("R", vec![var("x"), var("y")]),
        Atom::from_parts("S", vec![var("x"), var("y"), var("z")]),
        Atom::from_parts("S", vec![var("x"), var("z"), var("w")]),
        Atom::from_parts("S", vec![var("x"), var("w"), var("v")]),
        Atom::from_parts("R", vec![var("x"), var("v")]),
    ])
    .expect("Example 4 query is well-formed")
}

/// A scalable version of the Example 4 / Example 5 phenomenon: an *acyclic*
/// "open ring" query that the key `R : {1} → {2}` chases into a genuinely
/// cyclic query (a ring of `S`-atoms around the hub `x`).
///
/// The query is
/// `R(x, y0), S(x, y0, y1), …, S(x, y_{n-1}, y_n), R(x, y_n)`;
/// Example 4 is exactly the case `n = 3`.  Figure 4's full grid construction
/// is largely graphical in the paper; this family reproduces its point — an
/// acyclic query whose chase under keys over ≥3-ary predicates is cyclic,
/// with the amount of cyclic structure growing with `n` — in a form that can
/// be swept over `n` (row e6 of EXPERIMENTS.md, "e1–e10: the paper's
/// examples").
pub fn key_ring_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 2, "the ring construction needs n ≥ 2");
    let y = |i: usize| var(format!("y{i}"));
    let mut body = vec![Atom::from_parts("R", vec![var("x"), y(0)])];
    for i in 0..n {
        body.push(Atom::from_parts("S", vec![var("x"), y(i), y(i + 1)]));
    }
    body.push(Atom::from_parts("R", vec![var("x"), y(n)]));
    ConjunctiveQuery::boolean(body).expect("ring query is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_acyclic::is_acyclic_query;

    #[test]
    fn path_and_star_are_acyclic_cycles_and_cliques_are_not() {
        assert!(is_acyclic_query(&path_query(5)));
        assert!(is_acyclic_query(&star_query(4)));
        assert!(!is_acyclic_query(&cycle_query(3)));
        assert!(!is_acyclic_query(&cycle_query(6)));
        assert!(!is_acyclic_query(&clique_query(4)));
    }

    #[test]
    fn sizes_match_parameters() {
        assert_eq!(path_query(7).size(), 7);
        assert_eq!(cycle_query(5).size(), 5);
        assert_eq!(star_query(3).size(), 3);
        assert_eq!(clique_query(3).size(), 6);
        assert_eq!(example2_query(9).size(), 9);
    }

    #[test]
    fn paper_queries_have_the_documented_shapes() {
        assert!(!is_acyclic_query(&example1_triangle()));
        assert!(is_acyclic_query(&example2_query(6)));
        assert!(is_acyclic_query(&example4_query()));
    }

    #[test]
    fn ring_query_is_acyclic_before_the_chase_and_matches_example4_at_n3() {
        for n in 2..=6 {
            let q = key_ring_query(n);
            assert!(is_acyclic_query(&q), "ring query n={n} must be acyclic");
            assert_eq!(q.size(), n + 2);
        }
        // n = 3 has the same shape as Example 4 (modulo variable names).
        assert_eq!(key_ring_query(3).size(), example4_query().size());
    }

    #[test]
    fn two_cycle_is_alpha_acyclic_edge_case() {
        // Documenting a known subtlety: the directed 2-cycle is α-acyclic.
        assert!(is_acyclic_query(&cycle_query(2)));
    }
}
