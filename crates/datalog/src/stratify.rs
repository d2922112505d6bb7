//! Stratification of Datalog programs with negation.
//!
//! Assigns each intensional predicate a stratum such that a rule's head sits
//! no lower than any positively used predicate and strictly above any
//! negated one.  Programs where negation cycles through recursion admit no
//! such assignment and are rejected.

use crate::program::Rule;
use sac_common::{resolve, SacError, SacResult, Symbol};
use std::collections::{BTreeMap, BTreeSet};

/// Groups rule indices by stratum, lowest first.
///
/// The computation is a Bellman-Ford-style relaxation over the predicate
/// dependency graph: start every intensional predicate at stratum 0 and
/// repeatedly raise rule heads to satisfy `stratum(head) ≥ stratum(p)` for
/// positive body predicates and `stratum(head) ≥ stratum(q) + 1` for negated
/// ones (extensional predicates stay at stratum 0).  Any predicate pushed
/// above the number of intensional predicates lies on a negation cycle.
pub(crate) fn stratify(rules: &[Rule], idb: &BTreeSet<Symbol>) -> SacResult<Vec<Vec<usize>>> {
    let mut stratum: BTreeMap<Symbol, usize> = idb.iter().map(|&p| (p, 0)).collect();
    let bound = idb.len();
    loop {
        let mut changed = false;
        for rule in rules {
            let mut floor = 0;
            for atom in &rule.body {
                if let Some(&s) = stratum.get(&atom.predicate) {
                    floor = floor.max(s);
                }
            }
            for literal in &rule.negated {
                let s = stratum.get(&literal.predicate).copied().unwrap_or(0);
                floor = floor.max(s + 1);
            }
            let head = stratum
                .get_mut(&rule.head.predicate)
                .expect("head predicates are intensional by construction");
            if floor > *head {
                if floor > bound {
                    return Err(SacError::invalid(format!(
                        "program is not stratifiable: negation cycles through \
                         predicate {}",
                        resolve(rule.head.predicate)
                    )));
                }
                *head = floor;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Group rules by their head's stratum, compressing away empty levels so
    // callers can iterate strata densely.
    let mut levels: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (index, rule) in rules.iter().enumerate() {
        levels
            .entry(stratum[&rule.head.predicate])
            .or_default()
            .push(index);
    }
    Ok(levels.into_values().collect())
}

#[cfg(test)]
mod tests {
    use crate::DatalogProgram;

    #[test]
    fn doubly_negated_chains_stack_strata() {
        let p: DatalogProgram = "A(X) :- R(X).\n\
                                 B(X) :- R(X), not A(X).\n\
                                 C(X) :- R(X), not B(X)."
            .parse()
            .unwrap();
        assert_eq!(p.strata(), &[vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn negating_an_edb_predicate_still_stratifies() {
        let p: DatalogProgram = "Orphan(X) :- N(X), not E(X, X).".parse().unwrap();
        assert_eq!(p.strata().len(), 1);
    }

    #[test]
    fn positive_recursion_through_negation_target_is_rejected() {
        // T is recursive and Sep negates it while T reads Sep back: the
        // negation sits inside a dependency cycle.
        let err = "T(X, Y) :- E(X, Y).\n\
                   T(X, Z) :- Sep(X, Y), T(Y, Z).\n\
                   Sep(X, Y) :- E(X, Y), not T(X, Y)."
            .parse::<DatalogProgram>()
            .unwrap_err();
        assert!(err.to_string().contains("not stratifiable"), "got: {err}");
    }
}
