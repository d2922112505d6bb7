//! Relational atoms: a predicate applied to a tuple of terms.

use crate::symbol::{intern, Symbol};
use crate::term::Term;
use std::collections::BTreeSet;
use std::fmt;

/// An atom `R(t1, ..., tn)` over a relational schema.
///
/// Atoms are used uniformly for instance facts (containing constants and
/// nulls) and for query/dependency atoms (containing variables and
/// constants).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Predicate symbol.
    pub predicate: Symbol,
    /// Argument tuple.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates a new atom from a predicate symbol and arguments.
    pub fn new(predicate: Symbol, args: Vec<Term>) -> Atom {
        Atom { predicate, args }
    }

    /// Creates a new atom, interning the predicate name.
    pub fn from_parts(predicate: &str, args: Vec<Term>) -> Atom {
        Atom::new(intern(predicate), args)
    }

    /// The arity of the atom (number of arguments).
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterates over the variables occurring in the atom (with duplicates).
    pub fn variables_iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.args.iter().filter_map(|t| t.as_variable())
    }

    /// Returns the set of distinct variables occurring in the atom.
    pub fn variables(&self) -> BTreeSet<Symbol> {
        self.variables_iter().collect()
    }

    /// Returns the set of distinct labelled nulls occurring in the atom.
    pub fn nulls(&self) -> BTreeSet<u64> {
        self.args.iter().filter_map(|t| t.as_null()).collect()
    }

    /// Returns the set of distinct constants occurring in the atom.
    pub fn constants(&self) -> BTreeSet<Symbol> {
        self.args.iter().filter_map(|t| t.as_constant()).collect()
    }

    /// Returns the set of distinct terms occurring in the atom.
    pub fn terms(&self) -> BTreeSet<Term> {
        self.args.iter().copied().collect()
    }

    /// Returns `true` if the atom contains no variables (i.e. it is a fact
    /// built from constants and nulls only).
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| !t.is_variable())
    }

    /// Returns `true` if `var` occurs among the arguments.
    pub fn mentions_variable(&self, var: Symbol) -> bool {
        self.args.iter().any(|t| t.as_variable() == Some(var))
    }

    /// Applies `f` to every argument, producing a new atom over the same
    /// predicate.
    pub fn map_args(&self, mut f: impl FnMut(Term) -> Term) -> Atom {
        Atom {
            predicate: self.predicate,
            args: self.args.iter().map(|t| f(*t)).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, arg) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{arg}")?;
        }
        write!(f, ")")
    }
}

/// Convenience macro used pervasively in tests and examples:
/// `atom!("R", var "x", cst "a", null 3)`.
#[macro_export]
macro_rules! atom {
    ($pred:expr $(, $kind:ident $val:expr)* $(,)?) => {
        $crate::Atom::from_parts($pred, vec![$($crate::atom!(@term $kind $val)),*])
    };
    (@term var $v:expr) => { $crate::Term::variable($v) };
    (@term cst $v:expr) => { $crate::Term::constant($v) };
    (@term null $v:expr) => { $crate::Term::null($v) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Atom {
        Atom::from_parts(
            "R",
            vec![
                Term::variable("x"),
                Term::constant("a"),
                Term::variable("x"),
            ],
        )
    }

    #[test]
    fn arity_counts_arguments() {
        assert_eq!(sample().arity(), 3);
        assert_eq!(Atom::from_parts("P", vec![]).arity(), 0);
    }

    #[test]
    fn variable_and_constant_sets_deduplicate() {
        let a = sample();
        assert_eq!(a.variables().len(), 1);
        assert_eq!(a.constants().len(), 1);
        assert!(a.nulls().is_empty());
    }

    #[test]
    fn groundness_requires_no_variables() {
        assert!(!sample().is_ground());
        let fact = Atom::from_parts("R", vec![Term::constant("a"), Term::null(1)]);
        assert!(fact.is_ground());
    }

    #[test]
    fn mentions_and_positions() {
        let a = sample();
        assert!(a.mentions_variable(intern("x")));
        assert!(!a.mentions_variable(intern("y")));
    }

    #[test]
    fn map_args_preserves_predicate() {
        let a = sample();
        let b = a.map_args(|t| {
            if t.is_variable() {
                Term::constant("c")
            } else {
                t
            }
        });
        assert_eq!(b.predicate, a.predicate);
        assert!(b.is_ground());
    }

    #[test]
    fn display_formats_prolog_style() {
        let a = sample();
        assert_eq!(format!("{a}"), "R(?x, a, ?x)");
    }

    #[test]
    fn atom_macro_builds_expected_terms() {
        let a = atom!("Owns", var "x", cst "rec1", null 2);
        assert_eq!(a.predicate, intern("Owns"));
        assert_eq!(
            a.args,
            vec![Term::variable("x"), Term::constant("rec1"), Term::null(2)]
        );
    }
}
