//! Semantic assembly of parsed programs.
//!
//! The tokenizer and the raw statement grammar live in
//! [`sac_common::syntax`]; this module applies the semantic rules of each
//! statement kind (variables-only query heads, ground facts, dependency
//! well-formedness) and collects the results into a [`Program`].

use sac_common::syntax::{parse_statements_located, RawStatement};
use sac_common::{SacError, SacResult};
use sac_datalog::{DatalogProgram, Rule};
use sac_deps::{Egd, Tgd};
use sac_query::ConjunctiveQuery;
use sac_storage::Instance;

/// A parsed program: any mix of queries, tgds, egds and facts.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Named queries, in order of appearance.
    pub queries: Vec<ConjunctiveQuery>,
    /// Tgds, in order of appearance.
    pub tgds: Vec<Tgd>,
    /// Egds, in order of appearance.
    pub egds: Vec<Egd>,
    /// Ground facts, collected into an instance.
    pub database: Instance,
}

impl Program {
    /// Adds one raw statement, delegating the semantic validation to the
    /// same `TryFrom<RawStatement>` conversions that power the `FromStr`
    /// impls — the program parser and `str::parse` can never diverge.
    fn push(&mut self, statement: RawStatement) -> SacResult<()> {
        match statement {
            rule @ RawStatement::Rule { .. } => {
                self.queries.push(ConjunctiveQuery::try_from(rule)?);
            }
            tgd @ RawStatement::Tgd { .. } => {
                self.tgds.push(Tgd::try_from(tgd)?);
            }
            egd @ RawStatement::Egd { .. } => {
                self.egds.push(Egd::try_from(egd)?);
            }
            RawStatement::Fact(atom) => {
                if !atom.is_ground() {
                    return Err(SacError::invalid(format!(
                        "facts must be ground (constants only), found `{atom}`"
                    )));
                }
                self.database
                    .insert(atom)
                    .map_err(|e| SacError::invalid(format!("invalid fact: {e}")))?;
            }
        }
        Ok(())
    }
}

/// Parses a whole program (queries, dependencies and facts in any order).
/// Semantic failures (constant query heads, non-ground facts, malformed
/// dependencies) are reported as positioned parse errors at the offending
/// statement.
pub fn parse_program(input: &str) -> SacResult<Program> {
    let mut program = Program::default();
    for (statement, offset) in parse_statements_located(input)? {
        program
            .push(statement)
            .map_err(|e| SacError::parse_at(e.to_string(), input, offset))?;
    }
    Ok(program)
}

/// Parses a Datalog program together with its base facts.
///
/// Rule statements (`head :- body.`, optionally with `not` literals) become
/// the [`DatalogProgram`]; ground facts become the base [`Instance`].  Unlike
/// [`parse_program`], dependencies are rejected — a Datalog source is rules
/// and facts only — and the rule set must be safe and stratifiable, which is
/// validated here so the caller never holds an unevaluable program.
///
/// ```
/// use sac::parser::parse_datalog_program;
/// let (program, base) = parse_datalog_program(
///     "E(a, b). E(b, c).
///      T(X, Y) :- E(X, Y).
///      T(X, Z) :- E(X, Y), T(Y, Z).",
/// )
/// .unwrap();
/// assert_eq!(program.rule_count(), 2);
/// assert_eq!(base.len(), 2);
/// ```
pub fn parse_datalog_program(input: &str) -> SacResult<(DatalogProgram, Instance)> {
    let mut rules = Vec::new();
    let mut base = Instance::default();
    for (statement, offset) in parse_statements_located(input)? {
        match statement {
            rule @ RawStatement::Rule { .. } => {
                let rule = Rule::try_from(rule)
                    .map_err(|e| SacError::parse_at(e.to_string(), input, offset))?;
                rules.push(rule);
            }
            RawStatement::Fact(atom) => {
                if !atom.is_ground() {
                    return Err(SacError::parse_at(
                        format!("facts must be ground (constants only), found `{atom}`"),
                        input,
                        offset,
                    ));
                }
                base.insert(atom)
                    .map_err(|e| SacError::parse_at(format!("invalid fact: {e}"), input, offset))?;
            }
            RawStatement::Tgd { .. } | RawStatement::Egd { .. } => {
                return Err(SacError::parse_at(
                    "datalog programs contain only rules and facts, found a dependency",
                    input,
                    offset,
                ));
            }
        }
    }
    let program =
        DatalogProgram::new(rules).map_err(|e| SacError::parse_at(e.to_string(), input, 0))?;
    Ok((program, base))
}

/// Parses a single conjunctive query.  Equivalent to
/// `input.parse::<ConjunctiveQuery>()` when the input holds exactly one
/// statement.
pub fn parse_query(input: &str) -> SacResult<ConjunctiveQuery> {
    let program = parse_program(input)?;
    program
        .queries
        .into_iter()
        .next()
        .ok_or_else(|| SacError::parse_at("expected a query", input, 0))
}

/// Parses a single tgd.  Equivalent to `input.parse::<Tgd>()` when the input
/// holds exactly one statement.
pub fn parse_tgd(input: &str) -> SacResult<Tgd> {
    let program = parse_program(input)?;
    program
        .tgds
        .into_iter()
        .next()
        .ok_or_else(|| SacError::parse_at("expected a tgd", input, 0))
}

/// Parses a single egd.  Equivalent to `input.parse::<Egd>()` when the input
/// holds exactly one statement.
pub fn parse_egd(input: &str) -> SacResult<Egd> {
    let program = parse_program(input)?;
    program
        .egds
        .into_iter()
        .next()
        .ok_or_else(|| SacError::parse_at("expected an egd", input, 0))
}

/// Parses a database (a list of ground facts).  Unlike
/// `input.parse::<Instance>()`, valid non-fact statements (queries,
/// dependencies) are parsed and discarded rather than rejected, so a full
/// well-formed program can serve as a database source; statements that fail
/// validation still error.
pub fn parse_database(input: &str) -> SacResult<Instance> {
    Ok(parse_program(input)?.database)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    #[test]
    fn parses_example1_query() {
        let q = parse_query("q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).").unwrap();
        assert_eq!(q.size(), 3);
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.name.as_deref(), Some("q"));
        assert!(q.constants().is_empty());
    }

    #[test]
    fn parses_boolean_queries() {
        let q = parse_query("check() :- R(X, a), S(X).").unwrap();
        assert!(q.is_boolean());
        assert!(q.constants().contains(&intern("a")));
    }

    #[test]
    fn parses_tgds_with_existentials() {
        let t = parse_tgd("Person(X) -> HasParent(X, Z).").unwrap();
        assert!(!t.is_full());
        assert_eq!(t.existential_variables().len(), 1);
        let full = parse_tgd("Interest(X, Z), Class(Y, Z) -> Owns(X, Y).").unwrap();
        assert!(full.is_full());
    }

    #[test]
    fn parses_egds_and_keys() {
        let e = parse_egd("R(X, Y), R(X, Z) -> Y = Z.").unwrap();
        assert_eq!(e.body.len(), 2);
        assert_eq!(e.left, intern("Y"));
        assert_eq!(e.right, intern("Z"));
    }

    #[test]
    fn parses_facts_into_a_database() {
        let db = parse_database("Interest(alice, jazz). Class(kind_of_blue, jazz).").unwrap();
        assert_eq!(db.len(), 2);
        assert!(db.contains(&atom!("Interest", cst "alice", cst "jazz")));
    }

    #[test]
    fn parses_a_mixed_program() {
        let src = "
            % Example 1, end to end.
            Interest(alice, jazz).
            Class(kind_of_blue, jazz).
            Interest(X, Z), Class(Y, Z) -> Owns(X, Y).
            q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).
        ";
        let p = parse_program(src).unwrap();
        assert_eq!(p.database.len(), 2);
        assert_eq!(p.tgds.len(), 1);
        assert_eq!(p.queries.len(), 1);
        assert!(p.egds.is_empty());
    }

    #[test]
    fn case_determines_variables_vs_constants() {
        let q = parse_query("q() :- R(X, x, _tmp).").unwrap();
        let atom = &q.body[0];
        assert!(atom.args[0].is_variable());
        assert!(atom.args[1].is_constant());
        assert!(atom.args[2].is_variable());
    }

    #[test]
    fn reports_errors_with_positions() {
        assert!(parse_query("q(X) :- R(X,").is_err());
        assert!(parse_database("R(X).").is_err()); // non-ground fact
        assert!(parse_program("R(a) S(b).").is_err());
        assert!(parse_query("q(a) :- R(a).").is_err()); // constant in head

        // Positions are line/column-accurate, not just byte offsets.
        let err = parse_program("R(a).\nS(b) & T(c).").unwrap_err();
        let SacError::Parse { line, column, .. } = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!((line, column), (2, 6));

        // Semantic failures point at the offending statement too.
        let err = parse_program("R(a).\nq(a) :- R(a).").unwrap_err();
        let SacError::Parse { line, message, .. } = err else {
            panic!("expected a positioned error, got {err:?}");
        };
        assert_eq!(line, 2);
        assert!(message.contains("variables"), "got {message}");
    }

    #[test]
    fn parse_errors_are_std_errors_with_positions_in_the_message() {
        let err = parse_program("q(X) :- R(X,").unwrap_err();
        let dynamic: &dyn std::error::Error = &err;
        assert!(dynamic.to_string().contains("line 1"));
    }

    #[test]
    fn malformed_dependencies_are_rejected() {
        assert!(parse_program("R(X) -> Y = Z.").is_err()); // egd vars not in body
        assert!(parse_program("R(X), R(X, Y) -> S(X).").is_err()); // arity clash
    }

    #[test]
    fn parses_datalog_rules_and_facts_together() {
        let (program, base) = parse_datalog_program(
            "E(a, b). E(b, c).
             T(X, Y) :- E(X, Y).
             T(X, Z) :- E(X, Y), T(Y, Z).
             Isolated(X) :- N(X), not T(X, X).
             N(a).",
        )
        .unwrap();
        assert_eq!(program.rule_count(), 3);
        assert_eq!(program.strata().len(), 2);
        assert_eq!(base.len(), 3);
    }

    #[test]
    fn datalog_programs_reject_dependencies_and_bad_rules() {
        // A tgd is not a Datalog statement.
        let err = parse_datalog_program("E(a, b).\nE(X, Y) -> E(Y, X).").unwrap_err();
        assert!(err.to_string().contains("dependency"), "got {err}");
        // Unsafe rules are positioned parse errors, not panics downstream.
        assert!(parse_datalog_program("P(X) :- Q(Y).").is_err());
        // Unstratifiable negation is rejected at parse time.
        let err = parse_datalog_program("P(X) :- E(X), not P(X).").unwrap_err();
        assert!(err.to_string().contains("stratifiable"), "got {err}");
    }

    #[test]
    fn round_trip_through_display() {
        let q = parse_query("q(X) :- Interest(X, Z), Class(Y, Z).").unwrap();
        let printed = format!("{q}");
        assert!(printed.contains("Interest"));
        assert!(printed.contains("Class"));
    }
}
