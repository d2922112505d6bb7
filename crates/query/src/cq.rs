//! The conjunctive query data model.

use crate::gaifman::GaifmanGraph;
use sac_common::{Atom, Error, Result, Schema, Symbol, Term};
use std::collections::BTreeSet;
use std::fmt;

/// A conjunctive query
/// `q(x̄) := ∃ȳ (R1(v̄1) ∧ … ∧ Rm(v̄m))`.
///
/// * `head` is the tuple `x̄` of free (answer) variables, possibly with
///   repetitions;
/// * `body` is the list of atoms.
///
/// A query with an empty head is *Boolean*.  Body atoms may contain constants
/// but not nulls (nulls only ever appear in instances).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// Optional human-readable name (used by parsers/pretty printers).
    pub name: Option<String>,
    /// The free variables `x̄`, in answer-tuple order.
    pub head: Vec<Symbol>,
    /// The body atoms.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates a query after validating it (see [`ConjunctiveQuery::validate`]).
    pub fn new(head: Vec<Symbol>, body: Vec<Atom>) -> Result<ConjunctiveQuery> {
        let q = ConjunctiveQuery {
            name: None,
            head,
            body,
        };
        q.validate()?;
        Ok(q)
    }

    /// Creates a Boolean query.
    pub fn boolean(body: Vec<Atom>) -> Result<ConjunctiveQuery> {
        ConjunctiveQuery::new(Vec::new(), body)
    }

    /// Creates a query without validation.  Intended for internal
    /// constructions that are correct by design (e.g. the Lemma 9 compaction,
    /// which introduces its own variables).
    pub fn new_unchecked(head: Vec<Symbol>, body: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: None,
            head,
            body,
        }
    }

    /// Sets a display name, builder-style.
    pub fn named(mut self, name: &str) -> ConjunctiveQuery {
        self.name = Some(name.to_owned());
        self
    }

    /// Validates the structural requirements of Section 2:
    /// * body atoms contain no nulls,
    /// * every head variable occurs in some body atom,
    /// * every predicate is used with a consistent arity.
    pub fn validate(&self) -> Result<()> {
        for atom in &self.body {
            if atom.args.iter().any(|t| t.is_null()) {
                return Err(Error::Malformed(format!(
                    "query atom {atom} contains a labelled null"
                )));
            }
        }
        let body_vars = self.body_variables();
        for v in &self.head {
            if !body_vars.contains(v) {
                return Err(Error::Malformed(format!(
                    "head variable {v} does not occur in the body"
                )));
            }
        }
        Schema::induced_by(self.body.iter())?;
        Ok(())
    }

    /// Whether the query is Boolean (no free variables).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Number of body atoms, written `|q|` in the paper.
    pub fn size(&self) -> usize {
        self.body.len()
    }

    /// All variables occurring in the body.
    pub fn body_variables(&self) -> BTreeSet<Symbol> {
        self.body.iter().flat_map(|a| a.variables()).collect()
    }

    /// The distinct free variables (head variables).
    pub fn free_variables(&self) -> BTreeSet<Symbol> {
        self.head.iter().copied().collect()
    }

    /// The existentially quantified variables `ȳ` (body minus head).
    pub fn existential_variables(&self) -> BTreeSet<Symbol> {
        let free = self.free_variables();
        self.body_variables()
            .into_iter()
            .filter(|v| !free.contains(v))
            .collect()
    }

    /// All constants occurring in the body.
    pub fn constants(&self) -> BTreeSet<Symbol> {
        self.body.iter().flat_map(|a| a.constants()).collect()
    }

    /// Predicates used by the query.
    pub fn predicates(&self) -> BTreeSet<Symbol> {
        self.body.iter().map(|a| a.predicate).collect()
    }

    /// The schema induced by the query body.
    pub fn schema(&self) -> Schema {
        Schema::induced_by(self.body.iter()).expect("validated query has consistent arities")
    }

    /// The Gaifman graph of the query (nodes = variables, edges = co-occurrence
    /// in some atom).
    pub fn gaifman_graph(&self) -> GaifmanGraph {
        GaifmanGraph::of_query(self)
    }

    /// Whether the query is connected, i.e. its Gaifman graph is connected
    /// (queries with at most one variable count as connected).
    pub fn is_connected(&self) -> bool {
        self.gaifman_graph().is_connected()
    }

    /// Splits the query into its maximally connected subqueries
    /// (Proposition 5 / Lemma 26 in the paper).  Atoms without variables each
    /// form their own component.  Head variables are retained in the component
    /// in which they occur.
    pub fn connected_components(&self) -> Vec<ConjunctiveQuery> {
        let graph = self.gaifman_graph();
        let var_components = graph.components();
        let mut used = vec![false; self.body.len()];
        let mut out = Vec::new();
        for component in &var_components {
            let mut atoms = Vec::new();
            for (i, atom) in self.body.iter().enumerate() {
                if used[i] {
                    continue;
                }
                if atom.variables().iter().any(|v| component.contains(v)) {
                    atoms.push(atom.clone());
                    used[i] = true;
                }
            }
            if atoms.is_empty() {
                continue;
            }
            let head: Vec<Symbol> = self
                .head
                .iter()
                .copied()
                .filter(|v| component.contains(v))
                .collect();
            out.push(ConjunctiveQuery::new_unchecked(head, atoms));
        }
        // Variable-free atoms form singleton components.
        for (i, atom) in self.body.iter().enumerate() {
            if !used[i] {
                out.push(ConjunctiveQuery::new_unchecked(
                    Vec::new(),
                    vec![atom.clone()],
                ));
            }
        }
        out
    }

    /// The conjunction `q ∧ q'` of two Boolean queries (used by
    /// Proposition 5).  The caller is responsible for ensuring the two
    /// queries do not share variables if disjointness is intended.
    pub fn conjoin(&self, other: &ConjunctiveQuery) -> ConjunctiveQuery {
        let mut head = self.head.clone();
        head.extend(other.head.iter().copied());
        let mut body = self.body.clone();
        body.extend(other.body.iter().cloned());
        ConjunctiveQuery::new_unchecked(head, body)
    }

    /// Renames every variable with the supplied function, head and body alike.
    pub fn rename_variables(&self, mut f: impl FnMut(Symbol) -> Symbol) -> ConjunctiveQuery {
        let head = self.head.iter().map(|v| f(*v)).collect();
        let body = self
            .body
            .iter()
            .map(|a| {
                a.map_args(|t| match t {
                    Term::Variable(v) => Term::Variable(f(v)),
                    other => other,
                })
            })
            .collect();
        ConjunctiveQuery {
            name: self.name.clone(),
            head,
            body,
        }
    }

    /// Renames all variables by appending `suffix`, producing a query with no
    /// variables in common with the original (as required e.g. by
    /// Proposition 5 and the connecting operator).
    pub fn with_variable_suffix(&self, suffix: &str) -> ConjunctiveQuery {
        self.rename_variables(|v| sac_common::intern(&format!("{}{}", v.as_str(), suffix)))
    }

    /// Returns a copy without duplicate body atoms.
    pub fn dedup_atoms(&self) -> ConjunctiveQuery {
        let mut seen = BTreeSet::new();
        let body: Vec<Atom> = self
            .body
            .iter()
            .filter(|a| seen.insert((*a).clone()))
            .cloned()
            .collect();
        ConjunctiveQuery {
            name: self.name.clone(),
            head: self.head.clone(),
            body,
        }
    }
}

/// Builds a query from a raw `head :- body.` statement (the semantic step
/// shared by [`std::str::FromStr`] and `sac::parser`): head arguments must
/// all be variables, and the head predicate becomes the display name.
impl TryFrom<sac_common::RawStatement> for ConjunctiveQuery {
    type Error = Error;

    fn try_from(statement: sac_common::RawStatement) -> Result<ConjunctiveQuery> {
        match statement {
            sac_common::RawStatement::Rule {
                head,
                body,
                negated,
            } => {
                if !negated.is_empty() {
                    return Err(Error::Malformed(format!(
                        "conjunctive queries cannot use negation (`not {}`); \
                         negated literals belong to Datalog rules",
                        negated[0]
                    )));
                }
                let head_vars: Result<Vec<Symbol>> = head
                    .args
                    .iter()
                    .map(|t| {
                        t.as_variable().ok_or_else(|| {
                            Error::Malformed(format!(
                                "query heads may only contain variables, found `{t}`"
                            ))
                        })
                    })
                    .collect();
                Ok(ConjunctiveQuery::new(head_vars?, body)?.named(&head.predicate.as_str()))
            }
            other => Err(Error::Malformed(format!(
                "expected a query, found a {}",
                other.kind()
            ))),
        }
    }
}

/// Parses the textual form `name(X, …) :- atom, …, atom.` (see
/// [`sac_common::syntax`]), so `"q(X) :- R(X, Y).".parse::<ConjunctiveQuery>()`
/// works anywhere without going through `sac::parser`.
impl std::str::FromStr for ConjunctiveQuery {
    type Err = Error;

    fn from_str(s: &str) -> Result<ConjunctiveQuery> {
        sac_common::syntax::parse_statement(s)?.try_into()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name.as_deref().unwrap_or("q");
        write!(f, "{name}(")?;
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{atom}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    #[test]
    fn from_str_parses_and_names_queries() {
        let q: ConjunctiveQuery = "q2(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y)."
            .parse()
            .unwrap();
        assert_eq!(q.size(), 3);
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.name.as_deref(), Some("q2"));
    }

    #[test]
    fn from_str_rejects_non_queries_and_constant_heads() {
        assert!("R(a, b).".parse::<ConjunctiveQuery>().is_err());
        assert!("R(X) -> S(X).".parse::<ConjunctiveQuery>().is_err());
        assert!("q(a) :- R(a).".parse::<ConjunctiveQuery>().is_err());
        assert!("q(X) :- R(X). q(Y) :- R(Y)."
            .parse::<ConjunctiveQuery>()
            .is_err());
    }

    /// The cyclic triangle query of Example 1:
    /// `q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)`.
    pub fn example1_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let q = example1_query();
        assert_eq!(q.size(), 3);
        assert!(!q.is_boolean());
        assert_eq!(q.free_variables().len(), 2);
        assert_eq!(q.existential_variables().len(), 1);
        assert_eq!(q.body_variables().len(), 3);
        assert_eq!(q.predicates().len(), 3);
        assert!(q.constants().is_empty());
    }

    #[test]
    fn validation_rejects_unsafe_head() {
        let bad = ConjunctiveQuery::new(vec![intern("w")], vec![atom!("R", var "x", var "y")]);
        assert!(bad.is_err());
    }

    #[test]
    fn validation_rejects_nulls_in_body() {
        let bad = ConjunctiveQuery::boolean(vec![atom!("R", null 1, var "x")]);
        assert!(bad.is_err());
    }

    #[test]
    fn validation_rejects_inconsistent_arities() {
        let bad =
            ConjunctiveQuery::boolean(vec![atom!("R", var "x"), atom!("R", var "x", var "y")]);
        assert!(bad.is_err());
    }

    #[test]
    fn connectivity_of_example1() {
        let q = example1_query();
        assert!(q.is_connected());
        assert_eq!(q.connected_components().len(), 1);
    }

    #[test]
    fn disconnected_query_splits_into_components() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "u", var "v"),
        ])
        .unwrap();
        assert!(!q.is_connected());
        let comps = q.connected_components();
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.size() == 1));
    }

    #[test]
    fn variable_free_atoms_are_their_own_components() {
        let q = ConjunctiveQuery::boolean(vec![atom!("R", cst "a", cst "b"), atom!("S", var "x")])
            .unwrap();
        assert_eq!(q.connected_components().len(), 2);
    }

    #[test]
    fn conjoin_concatenates() {
        let q1 = ConjunctiveQuery::boolean(vec![atom!("R", var "x", var "y")]).unwrap();
        let q2 = ConjunctiveQuery::boolean(vec![atom!("S", var "u")]).unwrap();
        let q = q1.conjoin(&q2);
        assert_eq!(q.size(), 2);
        assert!(q.is_boolean());
    }

    #[test]
    fn renaming_with_suffix_disjoins_variables() {
        let q = example1_query();
        let renamed = q.with_variable_suffix("_2");
        let shared: Vec<_> = q
            .body_variables()
            .intersection(&renamed.body_variables())
            .cloned()
            .collect();
        assert!(shared.is_empty());
        assert_eq!(renamed.size(), q.size());
        assert_eq!(renamed.head.len(), q.head.len());
    }

    #[test]
    fn dedup_removes_duplicate_atoms() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("R", var "x", var "y"),
            atom!("S", var "x"),
        ])
        .unwrap();
        assert_eq!(q.dedup_atoms().size(), 2);
    }

    #[test]
    fn display_is_rule_like() {
        let q = example1_query().named("q1");
        let s = format!("{q}");
        assert!(s.starts_with("q1(x, y) :- "));
        assert!(s.contains("Interest(?x, ?z)"));
    }
}
