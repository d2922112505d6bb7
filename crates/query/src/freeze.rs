//! Freezing a query into its canonical database, and reading a chased one
//! back.
//!
//! Throughout the paper (Lemma 1 and onwards) a CQ `q` is turned into a
//! database by replacing each variable `x` with a fresh constant `c(x)`.
//! Crucially, "these are special constants, which are treated as nulls during
//! the chase": the egd chase may identify them, and homomorphisms from other
//! queries may map onto them.  We therefore freeze variables into *labelled
//! nulls*, which have exactly this behaviour in the rest of the toolkit, and
//! keep the bijection `x ↦ c(x)` so that answers can be related back to the
//! query's free variables.  [`FrozenQuery::thaw`] is the way back: it reads
//! the canonical database — chased or not — as a query again.

use crate::cq::ConjunctiveQuery;
use sac_common::{intern, Substitution, Symbol, Term};
use sac_storage::Instance;
use std::collections::BTreeMap;

/// The canonical database of a query together with the freezing bijection.
///
/// A chase may replace `instance` by its result and `head` by where the
/// chase sent the frozen head tuple; `var_map` stays the freezing map.
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
    /// Freezes `query`, assigning null labels from 0.  A chase stays clear
    /// of them with [`Instance::max_null_label`].
    pub fn freeze(query: &ConjunctiveQuery) -> FrozenQuery {
        let mut var_map: BTreeMap<Symbol, Term> = BTreeMap::new();
        for (label, v) in (0..).zip(query.body_variables()) {
            var_map.insert(v, Term::Null(label));
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

    /// Reads the canonical database back as a query: a frozen null becomes
    /// the variable it froze, a null the chase invented becomes `v#<label>`,
    /// and constants stay.
    ///
    /// Returns `None` when a head term is a constant — an egd chase
    /// identified a head variable with one — since no query over variables
    /// has that head.
    pub fn thaw(&self) -> Option<ConjunctiveQuery> {
        let frozen: BTreeMap<Term, Symbol> = self.var_map.iter().map(|(v, t)| (*t, *v)).collect();
        let thaw = |t: Term| match (t, frozen.get(&t)) {
            (_, Some(v)) => Term::Variable(*v),
            (Term::Null(label), None) => Term::Variable(intern(&format!("v#{label}"))),
            (other, None) => other,
        };
        let head = self.head.iter().map(|t| thaw(*t).as_variable());
        let head = head.collect::<Option<Vec<Symbol>>>()?;
        let body = self.instance.atoms().map(|a| a.map_args(thaw)).collect();
        Some(ConjunctiveQuery::new_unchecked(head, body))
    }

    /// The substitution sending each query variable to its frozen term.
    pub fn as_substitution(&self) -> Substitution {
        Substitution::from_pairs(self.var_map.iter().map(|(v, t)| (Term::Variable(*v), *t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::atom;
    use std::collections::BTreeSet;

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
    fn unfreeze_round_trips() {
        let q = query();
        let thawed = FrozenQuery::freeze(&q).thaw().unwrap();
        assert_eq!(thawed.head, q.head);
        assert_eq!(
            thawed.body.iter().collect::<BTreeSet<_>>(),
            q.body.iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn thaw_names_invented_nulls_and_refuses_constant_heads() {
        let mut f = FrozenQuery::freeze(&query());
        let x = f.var_map[&intern("x")];
        f.instance.insert(atom!("T", null 7)).unwrap();
        let thawed = f.thaw().unwrap();
        assert!(thawed.body.contains(&atom!("T", var "v#7")));
        // A chase that sent the head to a constant leaves no query head.
        f.head = vec![Term::constant("a")];
        assert!(f.thaw().is_none());
        f.head = vec![x];
        assert!(f.thaw().is_some());
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
