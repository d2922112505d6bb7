//! Tuple-generating dependencies.

use sac_common::{Atom, Error, Result, Schema, Symbol, Term};
use sac_query::GaifmanGraph;
use std::collections::BTreeSet;
use std::fmt;

/// A tuple-generating dependency `φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄)`.
///
/// * `body` is the conjunction `φ`,
/// * `head` is the conjunction `ψ`,
/// * the *frontier* variables `x̄` are those shared between body and head,
/// * the *existential* variables `z̄` are the head variables not occurring in
///   the body.
///
/// Following the paper we require every frontier variable to occur in some
/// head atom (vacuously true by definition) and disallow nulls.  Constants
/// are permitted in both body and head.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tgd {
    /// Body atoms `φ`.
    pub body: Vec<Atom>,
    /// Head atoms `ψ`.
    pub head: Vec<Atom>,
}

impl Tgd {
    /// Creates a tgd after validation.
    pub fn new(body: Vec<Atom>, head: Vec<Atom>) -> Result<Tgd> {
        let tgd = Tgd { body, head };
        tgd.validate()?;
        Ok(tgd)
    }

    /// Validates the structural requirements (non-empty body and head, no
    /// nulls, consistent arities across body and head).
    pub fn validate(&self) -> Result<()> {
        if self.body.is_empty() {
            return Err(Error::Malformed("tgd with empty body".into()));
        }
        if self.head.is_empty() {
            return Err(Error::Malformed("tgd with empty head".into()));
        }
        for atom in self.body.iter().chain(self.head.iter()) {
            if atom.args.iter().any(|t| t.is_null()) {
                return Err(Error::Malformed(format!(
                    "tgd atom {atom} contains a labelled null"
                )));
            }
        }
        Schema::induced_by(self.body.iter().chain(self.head.iter()))?;
        Ok(())
    }

    /// Variables occurring in the body.
    pub fn body_variables(&self) -> BTreeSet<Symbol> {
        self.body.iter().flat_map(|a| a.variables()).collect()
    }

    /// Variables occurring in the head.
    pub fn head_variables(&self) -> BTreeSet<Symbol> {
        self.head.iter().flat_map(|a| a.variables()).collect()
    }

    /// Frontier variables `x̄`: body variables that also occur in the head.
    pub fn frontier_variables(&self) -> BTreeSet<Symbol> {
        self.body_variables()
            .intersection(&self.head_variables())
            .copied()
            .collect()
    }

    /// Existential variables `z̄`: head variables not occurring in the body.
    pub fn existential_variables(&self) -> BTreeSet<Symbol> {
        self.head_variables()
            .difference(&self.body_variables())
            .copied()
            .collect()
    }

    /// A tgd is *full* if it has no existentially quantified variables
    /// (Datalog rule).
    pub fn is_full(&self) -> bool {
        self.existential_variables().is_empty()
    }

    /// A tgd is *guarded* if some body atom (the guard) contains every body
    /// variable.
    pub fn is_guarded(&self) -> bool {
        self.guard().is_some()
    }

    /// Returns a guard atom, if one exists.
    pub fn guard(&self) -> Option<&Atom> {
        let vars = self.body_variables();
        self.body.iter().find(|a| {
            let avars = a.variables();
            vars.iter().all(|v| avars.contains(v))
        })
    }

    /// A tgd is *linear* if its body consists of a single atom.
    pub fn is_linear(&self) -> bool {
        self.body.len() == 1
    }

    /// A tgd is an *inclusion dependency* if it is linear, has a single head
    /// atom, and neither the body atom nor the head atom repeats a variable.
    pub fn is_inclusion_dependency(&self) -> bool {
        if !self.is_linear() || self.head.len() != 1 {
            return false;
        }
        let no_repeats = |a: &Atom| {
            let vars: Vec<Symbol> = a.variables_iter().collect();
            let set: BTreeSet<Symbol> = vars.iter().copied().collect();
            vars.len() == set.len() && vars.len() == a.arity()
        };
        no_repeats(&self.body[0]) && no_repeats(&self.head[0])
    }

    /// A tgd is *body-connected* if the Gaifman graph of its body is
    /// connected (used by Proposition 5 and the connecting operator).
    pub fn is_body_connected(&self) -> bool {
        GaifmanGraph::of_atoms(self.body.iter()).is_connected()
    }

    /// Predicates occurring in the body.
    pub fn body_predicates(&self) -> BTreeSet<Symbol> {
        self.body.iter().map(|a| a.predicate).collect()
    }

    /// Predicates occurring in the head.
    pub fn head_predicates(&self) -> BTreeSet<Symbol> {
        self.head.iter().map(|a| a.predicate).collect()
    }

    /// The schema induced by the dependency.
    pub fn schema(&self) -> Schema {
        Schema::induced_by(self.body.iter().chain(self.head.iter()))
            .expect("validated tgd has consistent arities")
    }

    /// Renames every variable using `f` (used by the connecting operator and
    /// the rewriting engine to avoid clashes).
    pub fn rename_variables(&self, mut f: impl FnMut(Symbol) -> Symbol) -> Tgd {
        let map_atom = |a: &Atom, f: &mut dyn FnMut(Symbol) -> Symbol| {
            a.map_args(|t| match t {
                Term::Variable(v) => Term::Variable(f(v)),
                other => other,
            })
        };
        Tgd {
            body: self.body.iter().map(|a| map_atom(a, &mut f)).collect(),
            head: self.head.iter().map(|a| map_atom(a, &mut f)).collect(),
        }
    }
}

/// Builds a tgd from a raw `body -> head.` statement (the semantic step
/// shared by [`std::str::FromStr`] and `sac::parser`).
impl TryFrom<sac_common::RawStatement> for Tgd {
    type Error = Error;

    fn try_from(statement: sac_common::RawStatement) -> Result<Tgd> {
        match statement {
            sac_common::RawStatement::Tgd { body, head } => Tgd::new(body, head),
            other => Err(Error::Malformed(format!(
                "expected a tgd, found a {}",
                other.kind()
            ))),
        }
    }
}

/// Parses the textual form `atom, …, atom -> atom, …, atom.` (see
/// [`sac_common::syntax`]), so `"R(X) -> S(X).".parse::<Tgd>()` works
/// anywhere without going through `sac::parser`.
impl std::str::FromStr for Tgd {
    type Err = Error;

    fn from_str(s: &str) -> Result<Tgd> {
        sac_common::syntax::parse_statement(s)?.try_into()
    }
}

impl fmt::Display for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " -> ")?;
        let existential = self.existential_variables();
        if !existential.is_empty() {
            write!(f, "∃")?;
            for v in &existential {
                write!(f, " {v}")?;
            }
            write!(f, " . ")?;
        }
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::atom;

    /// Example 1's "compulsive collector" tgd:
    /// `Interest(x,z), Class(y,z) → Owns(x,y)`.
    fn collector_tgd() -> Tgd {
        Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()
    }

    #[test]
    fn from_str_parses_tgds_and_rejects_other_statements() {
        let t: Tgd = "Interest(X, Z), Class(Y, Z) -> Owns(X, Y)."
            .parse()
            .unwrap();
        assert!(t.is_full());
        assert_eq!(t.body.len(), 2);
        assert_eq!(t.frontier_variables().len(), 2);
        let existential: Tgd = "Person(X) -> HasParent(X, Z).".parse().unwrap();
        assert_eq!(existential.existential_variables().len(), 1);
        assert!("R(a).".parse::<Tgd>().is_err());
        assert!("R(X, Y) -> Y = Z.".parse::<Tgd>().is_err()); // egd, and bad one
        assert!("q(X) :- R(X).".parse::<Tgd>().is_err());
    }

    #[test]
    fn variable_classification() {
        let t = collector_tgd();
        assert_eq!(t.body_variables().len(), 3);
        assert_eq!(t.head_variables().len(), 2);
        assert_eq!(t.frontier_variables().len(), 2);
        assert!(t.existential_variables().is_empty());
        assert!(t.is_full());
    }

    #[test]
    fn guardedness_detection() {
        let t = collector_tgd();
        // No single body atom contains x, y and z: not guarded.
        assert!(!t.is_guarded());
        let guarded = Tgd::new(
            vec![
                atom!("G", var "x", var "y", var "z"),
                atom!("R", var "x", var "y"),
            ],
            vec![atom!("S", var "x")],
        )
        .unwrap();
        assert!(guarded.is_guarded());
        assert_eq!(guarded.guard().unwrap().predicate.as_str(), "G");
    }

    #[test]
    fn linear_and_inclusion_dependency_detection() {
        let linear = Tgd::new(
            vec![atom!("R", var "x", var "y")],
            vec![atom!("S", var "y", var "x")],
        )
        .unwrap();
        assert!(linear.is_linear());
        assert!(linear.is_guarded());
        assert!(linear.is_inclusion_dependency());

        let repeated = Tgd::new(
            vec![atom!("R", var "x", var "x")],
            vec![atom!("S", var "x")],
        )
        .unwrap();
        assert!(repeated.is_linear());
        assert!(!repeated.is_inclusion_dependency());

        assert!(!collector_tgd().is_linear());
    }

    #[test]
    fn existential_variables_make_a_tgd_non_full() {
        let t = Tgd::new(
            vec![atom!("Person", var "x")],
            vec![atom!("HasParent", var "x", var "z")],
        )
        .unwrap();
        assert!(!t.is_full());
        assert_eq!(t.existential_variables().len(), 1);
    }

    #[test]
    fn body_connectedness() {
        assert!(collector_tgd().is_body_connected());
        let disconnected = Tgd::new(
            vec![atom!("R", var "x", var "y"), atom!("S", var "u")],
            vec![atom!("T", var "x", var "u")],
        )
        .unwrap();
        assert!(!disconnected.is_body_connected());
    }

    #[test]
    fn validation_rejects_malformed_tgds() {
        assert!(Tgd::new(vec![], vec![atom!("R", var "x")]).is_err());
        assert!(Tgd::new(vec![atom!("R", var "x")], vec![]).is_err());
        assert!(Tgd::new(vec![atom!("R", null 1)], vec![atom!("S", var "x")]).is_err());
        assert!(Tgd::new(
            vec![atom!("R", var "x")],
            vec![atom!("R", var "x", var "y")]
        )
        .is_err());
    }

    #[test]
    fn renaming_affects_both_sides() {
        let t = collector_tgd();
        let renamed = t.rename_variables(|v| sac_common::intern(&format!("{}_r", v.as_str())));
        assert!(renamed
            .body_variables()
            .iter()
            .all(|v| v.as_str().ends_with("_r")));
        assert!(renamed
            .head_variables()
            .iter()
            .all(|v| v.as_str().ends_with("_r")));
        assert_eq!(renamed.body.len(), t.body.len());
    }

    #[test]
    fn display_is_readable() {
        let t = Tgd::new(
            vec![atom!("Person", var "x")],
            vec![atom!("HasParent", var "x", var "z")],
        )
        .unwrap();
        let s = format!("{t}");
        assert!(s.contains("->"));
        assert!(s.contains('∃'));
    }
}
