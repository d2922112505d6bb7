//! Equality-generating dependencies.

use sac_common::{Atom, SacError, SacResult, Schema, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// An equality-generating dependency `φ(x̄) → x_i = x_j`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Egd {
    /// Body atoms `φ`.
    pub body: Vec<Atom>,
    /// Left-hand side of the equated pair.
    pub left: Symbol,
    /// Right-hand side of the equated pair.
    pub right: Symbol,
}

impl Egd {
    /// Creates an egd after validation: both equated variables must occur in
    /// the body, the body must be non-empty and null-free, arities must be
    /// consistent.
    pub fn new(body: Vec<Atom>, left: Symbol, right: Symbol) -> SacResult<Egd> {
        let egd = Egd { body, left, right };
        egd.validate()?;
        Ok(egd)
    }

    /// Validates the structural requirements.
    pub fn validate(&self) -> SacResult<()> {
        if self.body.is_empty() {
            return Err(SacError::invalid("egd with empty body"));
        }
        for atom in &self.body {
            if atom.args.iter().any(|t| t.is_null()) {
                return Err(SacError::invalid(format!(
                    "egd atom {atom} contains a labelled null"
                )));
            }
        }
        let vars = self.body_variables();
        if !vars.contains(&self.left) || !vars.contains(&self.right) {
            return Err(SacError::invalid(
                "equated variables must occur in the egd body",
            ));
        }
        Schema::induced_by(self.body.iter())?;
        Ok(())
    }

    /// Variables occurring in the body.
    pub fn body_variables(&self) -> BTreeSet<Symbol> {
        self.body.iter().flat_map(|a| a.variables()).collect()
    }

    /// Predicates occurring in the body.
    pub fn body_predicates(&self) -> BTreeSet<Symbol> {
        self.body.iter().map(|a| a.predicate).collect()
    }

    /// The schema induced by the egd body.
    pub fn schema(&self) -> Schema {
        Schema::induced_by(self.body.iter()).expect("validated egd has consistent arities")
    }

    /// Whether the egd is trivial (equates a variable with itself) and can be
    /// ignored by the chase.
    pub fn is_trivial(&self) -> bool {
        self.left == self.right
    }

    /// The maximum predicate arity mentioned in the body.
    pub fn max_arity(&self) -> usize {
        self.body.iter().map(|a| a.arity()).max().unwrap_or(0)
    }

    /// Whether the egd only mentions unary and binary predicates — the `K2`
    /// regime of Theorem 23 when the egds are keys.
    pub fn is_over_unary_binary_schema(&self) -> bool {
        self.max_arity() <= 2
    }
}

/// Builds an egd from a raw `body -> T = U.` statement (the semantic step
/// shared by [`std::str::FromStr`] and `sac::parser`): both equated terms
/// must be variables.
impl TryFrom<sac_common::RawStatement> for Egd {
    type Error = SacError;

    fn try_from(statement: sac_common::RawStatement) -> SacResult<Egd> {
        match statement {
            sac_common::RawStatement::Egd { body, left, right } => {
                let as_var = |t: sac_common::Term| {
                    t.as_variable().ok_or_else(|| {
                        SacError::invalid(format!("egds equate variables, found `{t}`"))
                    })
                };
                Egd::new(body, as_var(left)?, as_var(right)?)
            }
            other => Err(SacError::invalid(format!(
                "expected an egd, found a {}",
                other.kind()
            ))),
        }
    }
}

/// Parses the textual form `atom, …, atom -> X = Y.` (see
/// [`sac_common::syntax`]), so `"R(X, Y), R(X, Z) -> Y = Z.".parse::<Egd>()`
/// works anywhere without going through `sac::parser`.
impl std::str::FromStr for Egd {
    type Err = SacError;

    fn from_str(s: &str) -> SacResult<Egd> {
        sac_common::syntax::parse_statement(s)?.try_into()
    }
}

impl fmt::Display for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " -> {} = {}", self.left, self.right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    /// The key of Example 4: `R(x,y), R(x,z) → y = z`.
    fn example4_key() -> Egd {
        Egd::new(
            vec![atom!("R", var "x", var "y"), atom!("R", var "x", var "z")],
            intern("y"),
            intern("z"),
        )
        .unwrap()
    }

    #[test]
    fn from_str_parses_egds_and_rejects_other_statements() {
        let e: Egd = "R(X, Y), R(X, Z) -> Y = Z.".parse().unwrap();
        assert_eq!(e.body.len(), 2);
        assert_eq!(e.left, intern("Y"));
        assert_eq!(e.right, intern("Z"));
        assert!("R(X, Y) -> Y = z.".parse::<Egd>().is_err()); // constant rhs
        assert!("R(X) -> S(X).".parse::<Egd>().is_err()); // tgd
        assert!("R(X, Y) -> X = W.".parse::<Egd>().is_err()); // W not in body
    }

    #[test]
    fn construction_and_accessors() {
        let e = example4_key();
        assert_eq!(e.body_variables().len(), 3);
        assert_eq!(e.body_predicates().len(), 1);
        assert!(!e.is_trivial());
        assert_eq!(e.max_arity(), 2);
        assert!(e.is_over_unary_binary_schema());
    }

    #[test]
    fn validation_rejects_unbound_equated_variables() {
        let bad = Egd::new(
            vec![atom!("R", var "x", var "y")],
            intern("x"),
            intern("zz"),
        );
        assert!(bad.is_err());
        let empty = Egd::new(vec![], intern("x"), intern("y"));
        assert!(empty.is_err());
    }

    #[test]
    fn trivial_egd_detection() {
        let e = Egd::new(vec![atom!("R", var "x", var "y")], intern("x"), intern("x")).unwrap();
        assert!(e.is_trivial());
    }

    #[test]
    fn wide_predicates_are_flagged() {
        let e = Egd::new(
            vec![
                atom!("R", var "x", var "y", var "z", var "w"),
                atom!("R", var "x", var "y", var "z", var "w2"),
            ],
            intern("w"),
            intern("w2"),
        )
        .unwrap();
        assert_eq!(e.max_arity(), 4);
        assert!(!e.is_over_unary_binary_schema());
    }

    #[test]
    fn display_shows_equality() {
        let e = example4_key();
        let s = format!("{e}");
        assert!(s.contains("y = z"));
    }
}
