//! Evaluation of semantically acyclic CQs under constraints (Section 7):
//! the polynomial-time algorithm of Theorem 25.
//!
//! For guarded tgds (and FDs), a tuple `t̄` is an answer of a semantically
//! acyclic `q` iff the duplicator wins the existential 1-cover game between
//! `(q, x̄)` and `(D, t̄)` — no witness computation and no chase over the
//! database.  [`cover_game_evaluate`] is that algorithm; it assumes the
//! database satisfies the constraints (the paper's `SemAcEval` promise) and
//! does not verify it.
//!
//! Section 7's other result, the fixed-parameter tractable pipeline of
//! Proposition 24 (find an acyclic witness `q'` with `q ≡Σ q'`, then run
//! Yannakakis on it), is the engine's `yannakakis-witness` rung:
//! `sac_engine::Database::with_tgds(Σ).run(q)`.  The reference every
//! evaluator is compared against is [`sac_query::evaluate()`].

use sac_acyclic::{cover_equivalent, CoverGameInput};
use sac_common::Term;
use sac_query::ConjunctiveQuery;
use sac_storage::Instance;
use std::collections::BTreeSet;

/// Theorem 25's evaluation: `t̄ ∈ q(D)` iff `(q, x̄) ≡∃1c (D, t̄)`.
///
/// For Boolean queries a single game is played.  For queries with `k` answer
/// variables, every `k`-tuple over the active domain is tested with one game
/// each — polynomial for fixed `k` (data complexity), which is the regime of
/// Theorem 25.
pub fn cover_game_evaluate(query: &ConjunctiveQuery, database: &Instance) -> BTreeSet<Vec<Term>> {
    let head_terms: Vec<Term> = query.head.iter().map(|v| Term::Variable(*v)).collect();
    let mut answers = BTreeSet::new();
    if query.head.is_empty() {
        let input = CoverGameInput {
            atoms: &query.body,
            tuple: &[],
        };
        if cover_equivalent(input, database, &[]) {
            answers.insert(Vec::new());
        }
        return answers;
    }
    let domain: Vec<Term> = database.active_domain().into_iter().collect();
    let k = query.head.len();
    let mut tuple_indexes = vec![0usize; k];
    if domain.is_empty() {
        return answers;
    }
    loop {
        let tuple: Vec<Term> = tuple_indexes.iter().map(|i| domain[*i]).collect();
        let input = CoverGameInput {
            atoms: &query.body,
            tuple: &head_terms,
        };
        if cover_equivalent(input, database, &tuple) {
            answers.insert(tuple);
        }
        // Advance the odometer.
        let mut pos = k;
        loop {
            if pos == 0 {
                return answers;
            }
            pos -= 1;
            tuple_indexes[pos] += 1;
            if tuple_indexes[pos] < domain.len() {
                break;
            }
            tuple_indexes[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_chase::{tgd_chase, ChaseBudget};
    use sac_common::{atom, intern};
    use sac_deps::Tgd;
    use sac_query::evaluate;

    fn collector_tgd() -> Vec<Tgd> {
        vec![Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()]
    }

    fn example1_triangle() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ],
        )
        .unwrap()
    }

    /// A small music database that satisfies the collector tgd (closed under
    /// the chase).
    fn collector_db() -> Instance {
        let base = Instance::from_atoms(vec![
            atom!("Interest", cst "alice", cst "jazz"),
            atom!("Interest", cst "bob", cst "rock"),
            atom!("Class", cst "kind_of_blue", cst "jazz"),
            atom!("Class", cst "nevermind", cst "rock"),
            atom!("Class", cst "in_utero", cst "rock"),
        ])
        .unwrap();
        tgd_chase(&base, &collector_tgd(), ChaseBudget::small()).instance
    }

    #[test]
    fn cover_game_agrees_with_naive_on_example1() {
        // Example 1 is semantically acyclic under the (non-guarded, but
        // full) collector tgd and the database is closed under it: the game
        // decides exactly the answers of the cyclic triangle.
        let q = example1_triangle();
        let db = collector_db();
        let naive = evaluate(&q, &db);
        assert_eq!(cover_game_evaluate(&q, &db), naive);
        // alice owns kind_of_blue, bob owns both rock records.
        assert_eq!(naive.len(), 3);
    }

    #[test]
    fn cover_game_agrees_with_naive_for_acyclic_queries() {
        // Proposition 30 ground truth: for acyclic queries the game equals
        // evaluation on any database.
        let q = ConjunctiveQuery::new(
            vec![intern("x")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
        )
        .unwrap();
        let db = collector_db();
        assert_eq!(cover_game_evaluate(&q, &db), evaluate(&q, &db));
    }

    #[test]
    fn boolean_cover_game_evaluation() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("Interest", var "x", var "z"),
            atom!("Class", var "y", var "z"),
            atom!("Owns", var "x", var "y"),
        ])
        .unwrap();
        let db = collector_db();
        let answers = cover_game_evaluate(&q, &db);
        assert_eq!(answers.len(), 1);
        let empty_db = Instance::new();
        assert!(cover_game_evaluate(&q, &empty_db).is_empty());
    }
}
