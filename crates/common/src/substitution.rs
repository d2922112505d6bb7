//! Substitutions: finite maps from terms to terms.
//!
//! A substitution serves three roles across the toolkit:
//!
//! * a **homomorphism candidate** during query evaluation and containment
//!   (variables map to constants/nulls, constants are fixed),
//! * a **trigger** for a chase step (the body of a dependency is matched into
//!   the instance),
//! * a **unifier** inside the UCQ rewriting engine (terms map to terms).
//!
//! The map is keyed by [`Term`] rather than by variable symbol so that the
//! rewriting engine can also record identifications of frozen nulls; the
//! convenience methods for the common variable-keyed use are provided.

use crate::atom::Atom;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::BTreeMap;
use std::fmt;

/// A finite mapping from terms to terms.
///
/// Applying a substitution leaves unmapped terms unchanged.  Constants are
/// never remapped by the `bind_*` helpers (attempting to do so returns
/// `false`), matching the paper's requirement that homomorphisms are the
/// identity on constants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: BTreeMap<Term, Term>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Substitution {
        Substitution::default()
    }

    /// Builds a substitution from `(from, to)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Term, Term)>) -> Substitution {
        Substitution {
            map: pairs.into_iter().collect(),
        }
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the image of a term, if bound.
    pub fn get(&self, term: Term) -> Option<Term> {
        self.map.get(&term).copied()
    }

    /// Looks up the image of a variable, if bound.
    pub fn get_var(&self, var: Symbol) -> Option<Term> {
        self.get(Term::Variable(var))
    }

    /// Applies the substitution to a single term (identity if unbound).
    pub fn apply(&self, term: Term) -> Term {
        self.get(term).unwrap_or(term)
    }

    /// Applies the substitution to every argument of an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        atom.map_args(|t| self.apply(t))
    }

    /// Attempts to bind `from ↦ to`.
    ///
    /// Returns `false` (and leaves the substitution unchanged) if `from` is a
    /// rigid constant different from `to`, or if `from` is already bound to a
    /// different term.  Binding a term to itself always succeeds.
    pub fn bind(&mut self, from: Term, to: Term) -> bool {
        if from == to {
            return true;
        }
        if from.is_rigid() {
            return false;
        }
        match self.map.get(&from) {
            Some(existing) => *existing == to,
            None => {
                self.map.insert(from, to);
                true
            }
        }
    }

    /// Attempts to bind a variable to a term (see [`Substitution::bind`]).
    pub fn bind_var(&mut self, var: Symbol, to: Term) -> bool {
        self.bind(Term::Variable(var), to)
    }

    /// Iterates over `(from, to)` bindings in a deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Term, Term)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }

    /// Composition `other ∘ self`: first apply `self`, then `other`.
    ///
    /// The result maps every term `t` bound by either substitution to
    /// `other.apply(self.apply(t))`.
    pub fn compose(&self, other: &Substitution) -> Substitution {
        let mut out = Substitution::new();
        for (from, to) in self.iter() {
            out.map.insert(from, other.apply(to));
        }
        for (from, to) in other.iter() {
            out.map.entry(from).or_insert(to);
        }
        out
    }

    /// Extends this substitution by matching the pattern atom `pattern`
    /// against the ground-ish atom `target` argument by argument.
    ///
    /// Returns `false` (leaving self possibly partially extended — callers
    /// should clone first if they need rollback) if the predicates differ,
    /// the arities differ, or a binding conflict arises.
    pub fn match_atom(&mut self, pattern: &Atom, target: &Atom) -> bool {
        if pattern.predicate != target.predicate || pattern.arity() != target.arity() {
            return false;
        }
        for (p, t) in pattern.args.iter().zip(target.args.iter()) {
            let image = self.apply(*p);
            if image.is_variable() {
                if !self.bind(image, *t) {
                    return false;
                }
            } else if image != *t {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (from, to)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{from} ↦ {to}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::intern;

    #[test]
    fn apply_leaves_unbound_terms_alone() {
        let s = Substitution::new();
        assert_eq!(s.apply(Term::variable("x")), Term::variable("x"));
        assert_eq!(s.apply(Term::constant("a")), Term::constant("a"));
    }

    #[test]
    fn bind_respects_rigidity_and_conflicts() {
        let mut s = Substitution::new();
        assert!(s.bind_var(intern("x"), Term::constant("a")));
        // Rebinding to the same value is fine, to a different one is not.
        assert!(s.bind_var(intern("x"), Term::constant("a")));
        assert!(!s.bind_var(intern("x"), Term::constant("b")));
        // Constants are rigid.
        assert!(!s.bind(Term::constant("a"), Term::constant("b")));
        assert!(s.bind(Term::constant("a"), Term::constant("a")));
    }

    #[test]
    fn apply_atom_substitutes_all_positions() {
        let mut s = Substitution::new();
        s.bind_var(intern("x"), Term::constant("a"));
        let atom = Atom::from_parts("R", vec![Term::variable("x"), Term::variable("y")]);
        let out = s.apply_atom(&atom);
        assert_eq!(out.args, vec![Term::constant("a"), Term::variable("y")]);
    }

    #[test]
    fn match_atom_builds_homomorphism() {
        let pattern = Atom::from_parts("R", vec![Term::variable("x"), Term::variable("x")]);
        let target_ok = Atom::from_parts("R", vec![Term::constant("a"), Term::constant("a")]);
        let target_bad = Atom::from_parts("R", vec![Term::constant("a"), Term::constant("b")]);
        let mut s = Substitution::new();
        assert!(s.match_atom(&pattern, &target_ok));
        assert_eq!(s.get_var(intern("x")), Some(Term::constant("a")));
        let mut s2 = Substitution::new();
        assert!(!s2.match_atom(&pattern, &target_bad));
    }

    #[test]
    fn match_atom_rejects_wrong_predicate_or_arity() {
        let pattern = Atom::from_parts("R", vec![Term::variable("x")]);
        let other_pred = Atom::from_parts("S", vec![Term::constant("a")]);
        let other_arity = Atom::from_parts("R", vec![Term::constant("a"), Term::constant("b")]);
        let mut s = Substitution::new();
        assert!(!s.clone().match_atom(&pattern, &other_pred));
        assert!(!s.match_atom(&pattern, &other_arity));
    }

    #[test]
    fn compose_applies_left_then_right() {
        let s1 = Substitution::from_pairs([(Term::variable("x"), Term::variable("y"))]);
        let s2 = Substitution::from_pairs([(Term::variable("y"), Term::constant("a"))]);
        let c = s1.compose(&s2);
        assert_eq!(c.apply(Term::variable("x")), Term::constant("a"));
        assert_eq!(c.apply(Term::variable("y")), Term::constant("a"));
    }

    #[test]
    fn display_shows_bindings() {
        let s = Substitution::from_pairs([(Term::variable("x"), Term::constant("a"))]);
        assert_eq!(format!("{s}"), "{?x ↦ a}");
    }
}
