//! Property test: the compiled homomorphism search finds exactly the
//! homomorphisms the definition-level oracle enumerates.
//!
//! Random patterns over a small schema meet random instances: constants,
//! repeated variables, initial bindings (repeated, conflicting, or to a
//! constant no fact holds), a relation the instance never has and an atom
//! whose arity clashes with the stored relation.  The compiled search must
//! visit each oracle homomorphism consistent with the initial binding once,
//! stop at the first one when asked to, and keep agreeing after the
//! instance grows under it.

use proptest::collection::vec;
use proptest::prelude::*;
use sac_common::{intern, Atom, Substitution, Symbol, Term};
use sac_query::{all_homomorphisms, Homomorphisms};
use sac_storage::Instance;
use std::collections::BTreeSet;

/// Pattern terms: variables `x0..x3`, the stored constants `c0..c3`, and a
/// constant no fact ever holds (so the dictionary never sees it).
fn term(code: usize) -> Term {
    match code {
        0..=3 => Term::variable(&format!("x{code}")),
        4..=7 => Term::constant(&format!("c{}", code - 4)),
        _ => Term::constant("prop_search_never_stored"),
    }
}

/// Pattern atoms: mostly the stored `R/2` and `S/1`, sometimes `T/3`, which
/// the instance never has, or `R` with three arguments, which clashes with
/// the stored `R/2`.
fn pattern_atom(kind: usize, args: &[usize]) -> Atom {
    let (predicate, arity) = match kind {
        0..=3 => ("R", 2),
        4..=5 => ("S", 1),
        6 => ("T", 3),
        _ => ("R", 3),
    };
    Atom::from_parts(predicate, args[..arity].iter().map(|c| term(*c)).collect())
}

fn fact((kind, a, b): &(usize, usize, usize)) -> Atom {
    let (a, b) = (term(4 + a), term(4 + b));
    match kind {
        0 => Atom::from_parts("R", vec![a, b]),
        _ => Atom::from_parts("S", vec![a]),
    }
}

fn as_set(homs: &[Substitution]) -> BTreeSet<Vec<(Term, Term)>> {
    homs.iter().map(|h| h.iter().collect()).collect()
}

/// What the compiled search visits from `initial`, decoded.
fn compiled(search: &Homomorphisms<'_>, target: &Instance, initial: &[Term]) -> Vec<Substitution> {
    let mut found = Vec::new();
    search.search_terms(target, initial, |h| {
        found.push(search.substitution(h));
        false
    });
    found
}

/// The oracle's homomorphisms that agree with the initial binding.
fn expected(pattern: &[Atom], target: &Instance, fixed: &[(Symbol, Term)]) -> Vec<Substitution> {
    let homs = all_homomorphisms(pattern, target).into_iter();
    let agrees = |h: &Substitution| fixed.iter().all(|(v, t)| h.get_var(*v) == Some(*t));
    homs.filter(agrees).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_search_finds_exactly_the_oracles_homomorphisms(
        base in vec((0usize..2, 0usize..4, 0usize..4), 0..10),
        grown in vec((0usize..2, 0usize..4, 0usize..4), 0..6),
        pattern in vec((0usize..8, vec(0usize..9, 3usize)), 0..4),
        initial in vec((0usize..4, 4usize..9), 0..3),
    ) {
        let pattern: Vec<Atom> = pattern.iter().map(|(kind, args)| pattern_atom(*kind, args)).collect();
        // The initial binding names pattern variables only (repeats and
        // conflicts allowed); its values may be a constant no fact holds.
        let variables: BTreeSet<Symbol> = pattern.iter().flat_map(Atom::variables_iter).collect();
        let fixed: Vec<(Symbol, Term)> = initial
            .iter()
            .map(|(v, value)| (intern(&format!("x{v}")), term(*value)))
            .filter(|(v, _)| variables.contains(v))
            .collect();
        let (vars, terms): (Vec<Symbol>, Vec<Term>) = fixed.iter().copied().unzip();

        let mut target = Instance::from_atoms(base.iter().map(fact)).unwrap();
        let mut search = Homomorphisms::new(&pattern, &target, &vars);
        for round in 0..2 {
            let want = expected(&pattern, &target, &fixed);
            let found = compiled(&search, &target, &terms);
            prop_assert!(found.len() == as_set(&found).len(), "round {round}: a homomorphism twice");
            prop_assert_eq!((round, as_set(&found)), (round, as_set(&want)));

            // A Boolean search stops at the first homomorphism.
            let mut visits = 0;
            let stopped = search.search_terms(&target, &terms, |_| {
                visits += 1;
                true
            });
            prop_assert_eq!(stopped, !want.is_empty());
            prop_assert_eq!(visits, usize::from(stopped));

            // Grow the instance under the compiled search.
            for atom in grown.iter().map(fact) {
                target.insert(atom).unwrap();
            }
            search.note_growth(&target);
        }
    }
}
