//! Datalog rules and stratified programs.

use crate::stratify::stratify;
use sac_common::syntax::{parse_statements, RawStatement};
use sac_common::{Atom, Error, Result, Symbol};
use sac_deps::Tgd;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// A single Datalog rule `head :- body, not negated`.
///
/// Rules are *safe*: every variable in the head and in negated literals must
/// occur in at least one positive body atom, and every rule has at least one
/// positive body atom.  Constants are allowed anywhere; labelled nulls are
/// not (they belong to chase instances, not programs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The derived atom.
    pub head: Atom,
    /// The positive body conjunction (never empty).
    pub body: Vec<Atom>,
    /// The negated body atoms, in source order.
    pub negated: Vec<Atom>,
}

impl Rule {
    /// Creates a rule with negated literals, validating safety.
    pub fn new(head: Atom, body: Vec<Atom>, negated: Vec<Atom>) -> Result<Rule> {
        let rule = Rule {
            head,
            body,
            negated,
        };
        rule.validate()?;
        Ok(rule)
    }

    /// Creates a purely positive rule, validating safety.
    pub fn positive(head: Atom, body: Vec<Atom>) -> Result<Rule> {
        Rule::new(head, body, Vec::new())
    }

    fn validate(&self) -> Result<()> {
        if self.body.is_empty() {
            return Err(Error::Malformed(format!(
                "rule for {} needs at least one positive body atom",
                self.head
            )));
        }
        for atom in self.atoms() {
            if atom.args.iter().any(|t| t.is_null()) {
                return Err(Error::Malformed(format!(
                    "rule atom {atom} contains a labelled null; rules range over \
                     constants and variables only"
                )));
            }
        }
        let positive: BTreeSet<Symbol> = self
            .body
            .iter()
            .flat_map(|atom| atom.variables_iter())
            .collect();
        for var in self.head.variables_iter() {
            if !positive.contains(&var) {
                return Err(Error::Malformed(format!(
                    "unsafe rule: head variable {} of {} does not occur in a \
                     positive body atom",
                    sac_common::resolve(var),
                    self.head
                )));
            }
        }
        for literal in &self.negated {
            for var in literal.variables_iter() {
                if !positive.contains(&var) {
                    return Err(Error::Malformed(format!(
                        "unsafe rule: variable {} of negated literal {} does not \
                         occur in a positive body atom",
                        sac_common::resolve(var),
                        literal
                    )));
                }
            }
        }
        Ok(())
    }

    /// All atoms of the rule: head, positive body, then negated literals.
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> {
        std::iter::once(&self.head)
            .chain(self.body.iter())
            .chain(self.negated.iter())
    }

    /// Whether the rule has no negated literals.
    pub fn is_positive(&self) -> bool {
        self.negated.is_empty()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, atom) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{atom}")?;
        }
        for literal in &self.negated {
            write!(f, ", not {literal}")?;
        }
        write!(f, ".")
    }
}

impl TryFrom<RawStatement> for Rule {
    type Error = Error;

    fn try_from(statement: RawStatement) -> Result<Rule> {
        match statement {
            RawStatement::Rule {
                head,
                body,
                negated,
            } => Rule::new(head, body, negated),
            other => Err(Error::Malformed(format!(
                "expected a Datalog rule, found a {}",
                other.kind()
            ))),
        }
    }
}

impl FromStr for Rule {
    type Err = Error;

    fn from_str(input: &str) -> Result<Rule> {
        Rule::try_from(sac_common::syntax::parse_statement(input)?)
    }
}

/// A stratified Datalog program.
///
/// Construction validates every rule, checks that each predicate is used
/// with a consistent arity, and computes a stratification; programs whose
/// negation cycles through recursion are rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogProgram {
    rules: Vec<Rule>,
    /// Rule indices grouped by stratum, lowest first.  Within a stratum the
    /// original program order is preserved.
    strata: Vec<Vec<usize>>,
    /// Predicates that occur in some rule head (the intensional database).
    idb: BTreeSet<Symbol>,
}

impl DatalogProgram {
    /// Builds a program from rules, validating safety, arity consistency and
    /// stratifiability.
    pub fn new(rules: Vec<Rule>) -> Result<DatalogProgram> {
        if rules.is_empty() {
            return Err(Error::Malformed(
                "a Datalog program needs at least one rule".into(),
            ));
        }
        for rule in &rules {
            rule.validate()?;
        }
        let mut arities: BTreeMap<Symbol, usize> = BTreeMap::new();
        for atom in rules.iter().flat_map(Rule::atoms) {
            match arities.get(&atom.predicate) {
                Some(&seen) if seen != atom.arity() => {
                    return Err(Error::Malformed(format!(
                        "predicate {} used with arities {} and {}",
                        sac_common::resolve(atom.predicate),
                        seen,
                        atom.arity()
                    )));
                }
                Some(_) => {}
                None => {
                    arities.insert(atom.predicate, atom.arity());
                }
            }
        }
        let idb: BTreeSet<Symbol> = rules.iter().map(|rule| rule.head.predicate).collect();
        let strata = stratify(&rules, &idb)?;
        Ok(DatalogProgram { rules, strata, idb })
    }

    /// The program's rules in source order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Rule indices grouped by stratum, lowest stratum first.
    pub fn strata(&self) -> &[Vec<usize>] {
        &self.strata
    }

    /// The intensional predicates: those occurring in some rule head.
    pub fn idb_predicates(&self) -> &BTreeSet<Symbol> {
        &self.idb
    }

    /// The extensional predicates: body predicates never derived by a rule.
    pub fn edb_predicates(&self) -> BTreeSet<Symbol> {
        self.rules
            .iter()
            .flat_map(|rule| rule.body.iter().chain(rule.negated.iter()))
            .map(|atom| atom.predicate)
            .filter(|predicate| !self.idb.contains(predicate))
            .collect()
    }

    /// Whether the program uses no negation.
    pub fn is_positive(&self) -> bool {
        self.rules.iter().all(Rule::is_positive)
    }

    /// Builds a program from full tgds (one rule per head atom).
    ///
    /// Tgds with existential variables have no Datalog counterpart and are
    /// rejected.
    pub fn from_tgds(tgds: &[Tgd]) -> Result<DatalogProgram> {
        let mut rules = Vec::new();
        for tgd in tgds {
            if !tgd.is_full() {
                return Err(Error::Malformed(format!(
                    "tgd {tgd} has existential head variables; only full tgds \
                     translate to Datalog rules"
                )));
            }
            for head in &tgd.head {
                rules.push(Rule::positive(head.clone(), tgd.body.clone())?);
            }
        }
        DatalogProgram::new(rules)
    }

    /// Converts a positive program back to full tgds, one per rule.
    ///
    /// Returns `None` when the program uses negation, which tgds cannot
    /// express.
    pub fn to_tgds(&self) -> Option<Vec<Tgd>> {
        if !self.is_positive() {
            return None;
        }
        let tgds = self
            .rules
            .iter()
            .map(|rule| Tgd::new(rule.body.clone(), vec![rule.head.clone()]))
            .collect::<Result<Vec<Tgd>>>()
            .expect("safe positive rules are valid full tgds");
        Some(tgds)
    }
}

impl fmt::Display for DatalogProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl FromStr for DatalogProgram {
    type Err = Error;

    fn from_str(input: &str) -> Result<DatalogProgram> {
        let mut rules = Vec::new();
        for statement in parse_statements(input)? {
            match statement {
                rule @ RawStatement::Rule { .. } => rules.push(Rule::try_from(rule)?),
                other => {
                    return Err(Error::Malformed(format!(
                        "Datalog programs contain only rules; found a {} \
                         (facts belong to the database — see \
                         `sac::parser::parse_datalog_program` for mixed input)",
                        other.kind()
                    )));
                }
            }
        }
        DatalogProgram::new(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::Term;

    fn program(input: &str) -> Result<DatalogProgram> {
        input.parse()
    }

    #[test]
    fn reachability_parses_and_stratifies_into_one_stratum() {
        let p = program("T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z).").unwrap();
        assert_eq!(p.rule_count(), 2);
        assert_eq!(p.strata(), &[vec![0, 1]]);
        assert!(p.is_positive());
        assert_eq!(p.idb_predicates().len(), 1);
        assert_eq!(p.edb_predicates().len(), 1);
    }

    #[test]
    fn negation_pushes_dependents_to_a_later_stratum() {
        let p = program(
            "T(X, Y) :- E(X, Y).\n\
             T(X, Z) :- E(X, Y), T(Y, Z).\n\
             Sep(X, Y) :- N(X), N(Y), not T(X, Y).",
        )
        .unwrap();
        assert_eq!(p.strata().len(), 2);
        assert_eq!(p.strata()[0], vec![0, 1]);
        assert_eq!(p.strata()[1], vec![2]);
        assert!(!p.is_positive());
    }

    #[test]
    fn negation_cycles_are_rejected() {
        let err = program("P(X) :- R(X), not Q(X).\nQ(X) :- R(X), not P(X).").unwrap_err();
        assert!(err.to_string().contains("negation"), "got: {err}");
    }

    #[test]
    fn unsafe_head_variable_is_rejected() {
        let err = program("P(X, Y) :- R(X).").unwrap_err();
        assert!(err.to_string().contains("unsafe"), "got: {err}");
    }

    #[test]
    fn unsafe_negated_variable_is_rejected() {
        let err = program("P(X) :- R(X), not S(X, Y).").unwrap_err();
        assert!(err.to_string().contains("unsafe"), "got: {err}");
    }

    #[test]
    fn rules_need_a_positive_body_atom() {
        let head = Atom::from_parts("P", vec![Term::constant("a")]);
        let err = Rule::positive(head, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("positive body"), "got: {err}");
    }

    #[test]
    fn arity_mismatches_are_rejected() {
        let err = program("P(X) :- R(X).\nP(X, Y) :- R(X), R(Y).").unwrap_err();
        assert!(err.to_string().contains("arities"), "got: {err}");
    }

    #[test]
    fn facts_and_tgds_are_rejected_in_programs() {
        assert!(program("T(X, Y) :- E(X, Y).\nE(a, b).").is_err());
        assert!(program("E(X, Y) -> T(X, Y).").is_err());
    }

    #[test]
    fn tgd_round_trip_preserves_rules() {
        let p = program("T(X, Y) :- E(X, Y).\nT(X, Z) :- E(X, Y), T(Y, Z).").unwrap();
        let tgds = p.to_tgds().unwrap();
        assert_eq!(tgds.len(), 2);
        let back = DatalogProgram::from_tgds(&tgds).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn existential_tgds_do_not_translate() {
        let tgd =
            Tgd::try_from(sac_common::syntax::parse_statement("E(X, Y) -> E(Y, Z).").unwrap())
                .unwrap();
        assert!(DatalogProgram::from_tgds(&[tgd]).is_err());
    }

    #[test]
    fn display_follows_the_workspace_atom_notation() {
        let p = program(
            "T(X, Y) :- E(X, Y).\n\
             Sep(X, Y) :- N(X), N(Y), not T(X, Y).",
        )
        .unwrap();
        assert_eq!(
            p.to_string(),
            "T(?X, ?Y) :- E(?X, ?Y).\n\
             Sep(?X, ?Y) :- N(?X), N(?Y), not T(?X, ?Y)."
        );
    }
}
