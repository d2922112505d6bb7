//! Relational schemas: finite maps from predicate symbols to arities.

use crate::atom::Atom;
use crate::error::{SacError, SacResult};
use crate::symbol::{intern, Symbol};
use std::collections::BTreeMap;
use std::fmt;

/// A relational schema `σ`: a finite collection of predicate symbols, each
/// with a fixed arity.
///
/// A schema is optional for most of the toolkit (atoms carry their arity),
/// but it is useful for validation, for the generators, and for the
/// classifiers that reason about "fixed schema" / "fixed arity" regimes from
/// the paper's complexity statements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    predicates: BTreeMap<Symbol, usize>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Creates a schema from `(name, arity)` pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> Schema {
        let mut s = Schema::new();
        for (name, arity) in pairs {
            s.add_predicate(intern(name), arity);
        }
        s
    }

    /// Adds (or overwrites) a predicate with the given arity.
    pub fn add_predicate(&mut self, predicate: Symbol, arity: usize) {
        self.predicates.insert(predicate, arity);
    }

    /// Returns the arity of `predicate`, if declared.
    pub fn arity_of(&self, predicate: Symbol) -> Option<usize> {
        self.predicates.get(&predicate).copied()
    }

    /// Returns `true` if `predicate` is declared.
    pub fn contains(&self, predicate: Symbol) -> bool {
        self.predicates.contains_key(&predicate)
    }

    /// Number of declared predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the schema declares no predicates.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Iterates over `(predicate, arity)` pairs in a deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.predicates.iter().map(|(p, a)| (*p, *a))
    }

    /// The maximum arity over all declared predicates (0 for an empty schema).
    pub fn max_arity(&self) -> usize {
        self.predicates.values().copied().max().unwrap_or(0)
    }

    /// Builds the schema induced by a collection of atoms.  If the same
    /// predicate occurs with two different arities, an error is returned.
    pub fn induced_by<'a>(atoms: impl IntoIterator<Item = &'a Atom>) -> SacResult<Schema> {
        let mut s = Schema::new();
        for atom in atoms {
            match s.arity_of(atom.predicate) {
                None => s.add_predicate(atom.predicate, atom.arity()),
                Some(a) if a == atom.arity() => {}
                Some(a) => {
                    return Err(SacError::ArityMismatch {
                        predicate: atom.predicate.as_str(),
                        expected: a,
                        found: atom.arity(),
                    })
                }
            }
        }
        Ok(s)
    }

    /// Merges another schema into this one, failing on conflicting arities.
    pub fn merge(&mut self, other: &Schema) -> SacResult<()> {
        for (p, a) in other.iter() {
            match self.arity_of(p) {
                None => self.add_predicate(p, a),
                Some(existing) if existing == a => {}
                Some(existing) => {
                    return Err(SacError::ArityMismatch {
                        predicate: p.as_str(),
                        expected: existing,
                        found: a,
                    })
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (p, a) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{p}/{a}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn from_pairs_and_lookup() {
        let s = Schema::from_pairs([("R", 2), ("S", 3)]);
        assert_eq!(s.arity_of(intern("R")), Some(2));
        assert_eq!(s.arity_of(intern("S")), Some(3));
        assert_eq!(s.arity_of(intern("T")), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.max_arity(), 3);
    }

    #[test]
    fn induced_schema_detects_conflicts() {
        let a1 = Atom::from_parts("R", vec![Term::variable("x"), Term::variable("y")]);
        let a2 = Atom::from_parts("R", vec![Term::variable("x")]);
        assert!(Schema::induced_by([&a1, &a1]).is_ok());
        assert!(Schema::induced_by([&a1, &a2]).is_err());
    }

    #[test]
    fn merge_combines_and_detects_conflicts() {
        let mut s1 = Schema::from_pairs([("R", 2)]);
        let s2 = Schema::from_pairs([("S", 1)]);
        s1.merge(&s2).unwrap();
        assert!(s1.contains(intern("S")));
        let conflicting = Schema::from_pairs([("R", 3)]);
        assert!(s1.merge(&conflicting).is_err());
    }

    #[test]
    fn empty_schema_properties() {
        let s = Schema::new();
        assert!(s.is_empty());
        assert_eq!(s.max_arity(), 0);
        assert_eq!(format!("{s}"), "");
    }

    #[test]
    fn display_lists_predicates_with_arities() {
        let s = Schema::from_pairs([("Owns", 2)]);
        assert_eq!(format!("{s}"), "Owns/2");
    }
}
