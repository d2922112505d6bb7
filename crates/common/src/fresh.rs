//! Generators for fresh labelled nulls and fresh variable names.
//!
//! The chase invents a fresh null for every existentially quantified variable
//! of a fired tgd; the rewriting engine and several constructions (the
//! connecting operator, the PCP reduction) need fresh variable names that do
//! not clash with existing ones.  [`FreshSource`] centralizes both.

use crate::symbol::{intern, Symbol};
use crate::term::Term;

/// A monotone counter handing out fresh nulls and fresh variables.
#[derive(Debug, Clone, Default)]
pub struct FreshSource {
    next_null: u64,
    next_var: u64,
}

impl FreshSource {
    /// Creates a source starting at zero.
    pub fn new() -> FreshSource {
        FreshSource::default()
    }

    /// Creates a source whose nulls start strictly above `max_existing`,
    /// guaranteeing freshness with respect to an instance already containing
    /// nulls up to that label.
    pub fn starting_after_null(max_existing: u64) -> FreshSource {
        FreshSource {
            next_null: max_existing.saturating_add(1),
            next_var: 0,
        }
    }

    /// Returns a fresh labelled null.
    pub fn fresh_null(&mut self) -> Term {
        let n = self.next_null;
        self.next_null += 1;
        Term::Null(n)
    }

    /// Returns a fresh variable with the given prefix, e.g. `prefix = "z"`
    /// produces `z#0`, `z#1`, ….  The `#` makes collisions with user-written
    /// variables impossible as long as users avoid `#` in names (the parser
    /// rejects it).
    pub fn fresh_var(&mut self, prefix: &str) -> Symbol {
        let v = self.next_var;
        self.next_var += 1;
        intern(&format!("{prefix}#{v}"))
    }

    /// The label the next fresh null would receive (useful for tests).
    pub fn peek_null(&self) -> u64 {
        self.next_null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nulls_are_strictly_increasing() {
        let mut f = FreshSource::new();
        let a = f.fresh_null();
        let b = f.fresh_null();
        assert_ne!(a, b);
        assert_eq!(a, Term::Null(0));
        assert_eq!(b, Term::Null(1));
    }

    #[test]
    fn starting_after_skips_existing_labels() {
        let mut f = FreshSource::starting_after_null(41);
        assert_eq!(f.fresh_null(), Term::Null(42));
    }

    #[test]
    fn fresh_vars_do_not_collide() {
        let mut f = FreshSource::new();
        let a = f.fresh_var("z");
        let b = f.fresh_var("z");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("z#"));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = FreshSource::new();
        assert_eq!(f.peek_null(), 0);
        assert_eq!(f.peek_null(), 0);
        f.fresh_null();
        assert_eq!(f.peek_null(), 1);
    }
}
