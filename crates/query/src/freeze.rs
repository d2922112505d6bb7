//! Freezing a query into its canonical database.
//!
//! Throughout the paper (Lemma 1 and onwards) a CQ `q` is turned into a
//! database by replacing each variable `x` with a fresh constant `c(x)`.
//! Crucially, "these are special constants, which are treated as nulls during
//! the chase": the egd chase may identify them, and homomorphisms from other
//! queries may map onto them.  We therefore freeze variables into *labelled
//! nulls*, which have exactly this behaviour in the rest of the toolkit, and
//! keep the bijection `x ↦ c(x)` so that answers can be related back to the
//! query's free variables.

use crate::cq::ConjunctiveQuery;
use sac_common::{Substitution, Symbol, Term};
use sac_storage::Instance;
use std::collections::BTreeMap;

/// The canonical database of a query together with the freezing bijection.
#[derive(Debug, Clone)]
pub struct FrozenQuery {
    /// The canonical database `D_q`.
    pub instance: Instance,
    /// The freezing map `x ↦ c(x)`.
    pub var_map: BTreeMap<Symbol, Term>,
    /// The frozen head tuple `c(x̄)` (respecting repetitions and order).
    pub head: Vec<Term>,
}

impl FrozenQuery {
    /// Freezes `query`, assigning null labels starting from `first_label`.
    ///
    /// Callers that will later chase the frozen instance should pass a label
    /// base that leaves room for the chase's own fresh nulls (the chase uses
    /// [`Instance::max_null_label`] to stay clear, so `0` is always safe).
    pub fn freeze_with_base(query: &ConjunctiveQuery, first_label: u64) -> FrozenQuery {
        let mut var_map: BTreeMap<Symbol, Term> = BTreeMap::new();
        for (next, v) in (first_label..).zip(query.body_variables()) {
            var_map.insert(v, Term::Null(next));
        }
        let mut instance = Instance::new();
        for atom in &query.body {
            let frozen = atom.map_args(|t| match t {
                Term::Variable(v) => var_map[&v],
                other => other,
            });
            instance
                .insert(frozen)
                .expect("query validation guarantees consistent arities");
        }
        let head = query.head.iter().map(|v| var_map[v]).collect();
        FrozenQuery {
            instance,
            var_map,
            head,
        }
    }

    /// Freezes `query` with null labels starting at 0.
    pub fn freeze(query: &ConjunctiveQuery) -> FrozenQuery {
        FrozenQuery::freeze_with_base(query, 0)
    }

    /// The substitution sending each query variable to its frozen term.
    pub fn as_substitution(&self) -> Substitution {
        Substitution::from_pairs(self.var_map.iter().map(|(v, t)| (Term::Variable(*v), *t)))
    }

    /// Maps a frozen term back to the variable it came from, if any.
    pub fn unfreeze_term(&self, term: Term) -> Option<Symbol> {
        self.var_map
            .iter()
            .find_map(|(v, t)| (*t == term).then_some(*v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    fn query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![intern("x")],
            vec![atom!("R", var "x", var "y"), atom!("S", var "y", cst "a")],
        )
        .unwrap()
    }

    #[test]
    fn freezing_replaces_variables_with_nulls() {
        let f = FrozenQuery::freeze(&query());
        assert_eq!(f.instance.len(), 2);
        assert!(f.instance.is_ground());
        assert_eq!(f.var_map.len(), 2);
        assert_eq!(f.head.len(), 1);
        assert!(f.head[0].is_null());
    }

    #[test]
    fn constants_survive_freezing() {
        let f = FrozenQuery::freeze(&query());
        let has_const = f
            .instance
            .atoms()
            .any(|a| a.args.contains(&Term::constant("a")));
        assert!(has_const);
    }

    #[test]
    fn label_base_is_respected() {
        let f = FrozenQuery::freeze_with_base(&query(), 100);
        assert!(f.var_map.values().all(|t| t.as_null().unwrap() >= 100));
    }

    #[test]
    fn unfreeze_round_trips() {
        let f = FrozenQuery::freeze(&query());
        for (v, t) in &f.var_map {
            assert_eq!(f.unfreeze_term(*t), Some(*v));
        }
        assert_eq!(f.unfreeze_term(Term::constant("a")), None);
    }

    #[test]
    fn substitution_matches_var_map() {
        let f = FrozenQuery::freeze(&query());
        let s = f.as_substitution();
        for (v, t) in &f.var_map {
            assert_eq!(s.apply(Term::Variable(*v)), *t);
        }
    }

    #[test]
    fn shared_variables_freeze_to_the_same_null() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("R", var "y", var "x"),
        ])
        .unwrap();
        let f = FrozenQuery::freeze(&q);
        // Two atoms over exactly two nulls.
        assert_eq!(f.instance.len(), 2);
        assert_eq!(f.instance.active_domain().len(), 2);
    }
}
