//! The workspace's Datalog-style text syntax, at the *raw* (pre-semantic)
//! level: a tokenizer and a statement parser that classify input into rules,
//! dependencies and facts without imposing the semantic constraints of the
//! higher layers.
//!
//! Living in `sac-common` lets the crates that own the semantic types
//! implement [`std::str::FromStr`] by delegation — `sac-query` for
//! `ConjunctiveQuery`, `sac-deps` for `Tgd`/`Egd`, `sac-storage` for
//! `Instance` — while `sac::parser` assembles whole programs from the same
//! raw statements.  (Those impls cannot live in `sac::parser`: the orphan
//! rule requires them in the type's own crate, and the parser sits *above*
//! those crates in the dependency DAG.)
//!
//! Conventions (Prolog/Datalog style):
//! * identifiers starting with an **uppercase** letter or `_` are variables,
//! * identifiers starting with a lowercase letter or a digit are constants,
//! * predicates are identifiers (any case) applied to a parenthesised,
//!   comma-separated argument list,
//! * `%` starts a comment running to the end of the line.
//!
//! Grammar summary:
//! ```text
//! rule   :=  name(T1, …, Tk) :- literal, …, literal .   (k may be 0)
//! literal :=  atom  |  not atom                          (rule bodies only)
//! tgd    :=  atom, …, atom -> atom, …, atom .
//! egd    :=  atom, …, atom -> T = U .
//! fact   :=  atom .
//! ```
//!
//! `not` is a contextual keyword: it negates the following atom only when it
//! is immediately followed by another identifier (the atom's predicate), so
//! `not(X)` still parses as a positive atom whose predicate is `not`.
//!
//! Errors are [`SacError::Parse`] values carrying the byte offset plus the
//! 1-based line/column of the failure.

use crate::atom::Atom;
use crate::error::{SacError, SacResult};
use crate::symbol::intern;
use crate::term::Term;

/// A token of the surface syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    /// An identifier (predicate, variable or constant name).
    Ident(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    ColonDash,
    /// `->`
    Arrow,
    /// `=`
    Equals,
}

impl Token {
    fn describe(&self) -> &'static str {
        match self {
            Token::Ident(_) => "an identifier",
            Token::LParen => "`(`",
            Token::RParen => "`)`",
            Token::Comma => "`,`",
            Token::Dot => "`.`",
            Token::ColonDash => "`:-`",
            Token::Arrow => "`->`",
            Token::Equals => "`=`",
        }
    }
}

/// Whether `c` may start an identifier.
fn is_ident_start(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `c` may continue an identifier (`*` is continuation-only: it
/// appears in generated predicate names like `R*`, never first).
fn is_ident_char(c: char) -> bool {
    is_ident_start(c) || c == '*'
}

/// Tokenizes the input; `%`-to-end-of-line comments are skipped.  Iteration
/// is by `char`, so multi-byte identifiers (e.g. accented names) lex as
/// ordinary identifiers instead of slicing mid-character.
fn tokenize(input: &str) -> SacResult<Vec<(Token, usize)>> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {}
            '%' => {
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '(' => tokens.push((Token::LParen, i)),
            ')' => tokens.push((Token::RParen, i)),
            ',' => tokens.push((Token::Comma, i)),
            '.' => tokens.push((Token::Dot, i)),
            '=' => tokens.push((Token::Equals, i)),
            ':' => {
                if chars.next_if(|(_, c)| *c == '-').is_some() {
                    tokens.push((Token::ColonDash, i));
                } else {
                    return Err(SacError::parse_at("expected `:-`", input, i));
                }
            }
            '-' => {
                if chars.next_if(|(_, c)| *c == '>').is_some() {
                    tokens.push((Token::Arrow, i));
                } else {
                    return Err(SacError::parse_at("expected `->`", input, i));
                }
            }
            c if is_ident_start(c) => {
                let mut end = i + c.len_utf8();
                while let Some((j, c)) = chars.next_if(|(_, c)| is_ident_char(*c)) {
                    end = j + c.len_utf8();
                }
                tokens.push((Token::Ident(input[i..end].to_owned()), i));
            }
            other => {
                return Err(SacError::parse_at(
                    format!("unexpected character `{other}`"),
                    input,
                    i,
                ))
            }
        }
    }
    Ok(tokens)
}

/// One syntactic statement, classified by shape only.  Semantic validation
/// (variables-only heads, groundness of facts, frontier conditions, …)
/// belongs to the crates that own the corresponding types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawStatement {
    /// `head :- literal, …, literal.` — a query/rule.  The head is kept as a
    /// full atom; the query layer checks that its arguments are variables.
    /// Negated literals (`not P(…)`) are collected separately: conjunctive
    /// queries reject them, the Datalog layer stratifies them.
    Rule {
        /// The head pseudo-atom `name(args)`.
        head: Atom,
        /// The positive body conjunction.
        body: Vec<Atom>,
        /// The negated body atoms (`not P(…)`), in source order.
        negated: Vec<Atom>,
    },
    /// `atom, …, atom -> atom, …, atom.` — a tuple-generating dependency.
    Tgd {
        /// The body conjunction.
        body: Vec<Atom>,
        /// The head conjunction.
        head: Vec<Atom>,
    },
    /// `atom, …, atom -> T = U.` — an equality-generating dependency.  The
    /// equated terms are kept raw; the dependency layer checks they are
    /// variables.
    Egd {
        /// The body conjunction.
        body: Vec<Atom>,
        /// Left-hand side of the equation.
        left: Term,
        /// Right-hand side of the equation.
        right: Term,
    },
    /// `atom.` — a fact (the storage layer checks groundness where needed).
    Fact(Atom),
}

impl RawStatement {
    /// A short noun describing the statement's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            RawStatement::Rule { .. } => "query",
            RawStatement::Tgd { .. } => "tgd",
            RawStatement::Egd { .. } => "egd",
            RawStatement::Fact(_) => "fact",
        }
    }
}

struct RawParser<'a> {
    input: &'a str,
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl<'a> RawParser<'a> {
    fn new(input: &'a str) -> SacResult<RawParser<'a>> {
        Ok(RawParser {
            input,
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|(_, o)| *o)
            .unwrap_or(0)
    }

    fn error(&self, message: &str) -> SacError {
        SacError::parse_at(message, self.input, self.offset())
    }

    fn eat(&mut self, expected: &Token) -> SacResult<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {}", expected.describe())))
        }
    }

    fn ident(&mut self) -> SacResult<String> {
        match self.peek().cloned() {
            Some(Token::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error("expected an identifier")),
        }
    }

    fn term_of(name: &str) -> Term {
        let first = name.chars().next().unwrap_or('a');
        if first.is_uppercase() || first == '_' {
            Term::Variable(intern(name))
        } else {
            Term::Constant(intern(name))
        }
    }

    /// Parses `Pred(arg, …, arg)`; the argument list may be empty.
    fn atom(&mut self) -> SacResult<Atom> {
        let predicate = self.ident()?;
        self.eat(&Token::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                let name = self.ident()?;
                args.push(Self::term_of(&name));
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.eat(&Token::RParen)?;
        Ok(Atom::from_parts(&predicate, args))
    }

    fn atom_list(&mut self) -> SacResult<Vec<Atom>> {
        let mut atoms = vec![self.atom()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            atoms.push(self.atom()?);
        }
        Ok(atoms)
    }

    /// Whether the parser sits on a `not P` negation marker: the contextual
    /// keyword `not` followed by another identifier.  A lone `not(` is the
    /// start of a positive atom whose predicate happens to be `not`.
    fn at_negation(&self) -> bool {
        matches!(self.peek(), Some(Token::Ident(word)) if word == "not")
            && matches!(self.tokens.get(self.pos + 1), Some((Token::Ident(_), _)))
    }

    /// Parses a rule body: positive and negated literals in any order.
    fn literal_list(&mut self) -> SacResult<(Vec<Atom>, Vec<Atom>)> {
        let mut body = Vec::new();
        let mut negated = Vec::new();
        loop {
            if self.at_negation() {
                self.pos += 1;
                negated.push(self.atom()?);
            } else {
                body.push(self.atom()?);
            }
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok((body, negated))
    }

    /// Parses one statement ending with `.`.
    fn statement(&mut self) -> SacResult<RawStatement> {
        let start = self.pos;
        let first_atom = self.atom()?;
        match self.peek() {
            Some(Token::ColonDash) => {
                self.pos += 1;
                let (body, negated) = self.literal_list()?;
                self.eat(&Token::Dot)?;
                Ok(RawStatement::Rule {
                    head: first_atom,
                    body,
                    negated,
                })
            }
            Some(Token::Dot) => {
                self.pos += 1;
                Ok(RawStatement::Fact(first_atom))
            }
            Some(Token::Comma) | Some(Token::Arrow) => {
                // Dependency: re-parse the body from `start`.
                self.pos = start;
                let body = self.atom_list()?;
                self.eat(&Token::Arrow)?;
                // Egd if the right-hand side is `T = U`.
                let rhs_start = self.pos;
                if let Ok(left_name) = self.ident() {
                    if self.peek() == Some(&Token::Equals) {
                        self.pos += 1;
                        let right_name = self.ident()?;
                        self.eat(&Token::Dot)?;
                        return Ok(RawStatement::Egd {
                            body,
                            left: Self::term_of(&left_name),
                            right: Self::term_of(&right_name),
                        });
                    }
                }
                self.pos = rhs_start;
                let head = self.atom_list()?;
                self.eat(&Token::Dot)?;
                Ok(RawStatement::Tgd { body, head })
            }
            _ => Err(self.error("expected `.`, `:-`, `,` or `->`")),
        }
    }

    fn statements(&mut self) -> SacResult<Vec<(RawStatement, usize)>> {
        let mut out = Vec::new();
        while self.peek().is_some() {
            let start = self.offset();
            out.push((self.statement()?, start));
        }
        Ok(out)
    }
}

/// Parses every statement of `input` (rules, dependencies and facts, in any
/// order).
pub fn parse_statements(input: &str) -> SacResult<Vec<RawStatement>> {
    Ok(parse_statements_located(input)?
        .into_iter()
        .map(|(statement, _)| statement)
        .collect())
}

/// [`parse_statements`], with each statement's starting byte offset — so
/// callers doing their own semantic validation (e.g. `sac::parser`) can
/// report positioned errors for statements that parse but do not validate.
pub fn parse_statements_located(input: &str) -> SacResult<Vec<(RawStatement, usize)>> {
    RawParser::new(input)?.statements()
}

/// Parses exactly one statement; trailing statements are an error.
pub fn parse_statement(input: &str) -> SacResult<RawStatement> {
    let mut parser = RawParser::new(input)?;
    if parser.peek().is_none() {
        return Err(SacError::parse_at("expected a statement", input, 0));
    }
    let statement = parser.statement()?;
    if parser.peek().is_some() {
        return Err(SacError::parse_at(
            "expected a single statement",
            input,
            parser.offset(),
        ));
    }
    Ok(statement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;

    #[test]
    fn classifies_the_four_statement_shapes() {
        let parsed = parse_statements(
            "
            % Example 1, end to end.
            Interest(alice, jazz).
            Interest(X, Z), Class(Y, Z) -> Owns(X, Y).
            R(X, Y), R(X, Z) -> Y = Z.
            q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).
            ",
        )
        .unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].kind(), "fact");
        assert_eq!(parsed[1].kind(), "tgd");
        assert_eq!(parsed[2].kind(), "egd");
        assert_eq!(parsed[3].kind(), "query");
        let RawStatement::Rule {
            head,
            body,
            negated,
        } = &parsed[3]
        else {
            panic!("expected a rule");
        };
        assert_eq!(head.arity(), 2);
        assert_eq!(body.len(), 3);
        assert!(negated.is_empty());
    }

    #[test]
    fn case_determines_variables_vs_constants() {
        let RawStatement::Fact(atom) = parse_statement("R(X, x, _tmp).").unwrap() else {
            panic!("expected a fact");
        };
        assert!(atom.args[0].is_variable());
        assert!(atom.args[1].is_constant());
        assert!(atom.args[2].is_variable());
    }

    #[test]
    fn egd_right_hand_sides_keep_raw_terms() {
        let RawStatement::Egd { body, left, right } = parse_statement("R(X, Y) -> X = Y.").unwrap()
        else {
            panic!("expected an egd");
        };
        assert_eq!(body, vec![atom!("R", var "X", var "Y")]);
        assert_eq!(left, Term::variable("X"));
        assert_eq!(right, Term::variable("Y"));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_statements("R(a).\nS(b) & T(c).").unwrap_err();
        let SacError::Parse {
            offset,
            line,
            column,
            ..
        } = err
        else {
            panic!("expected a parse error");
        };
        assert_eq!(offset, 11);
        assert_eq!(line, 2);
        assert_eq!(column, 6);
    }

    #[test]
    fn multi_byte_identifiers_lex_without_panicking() {
        // Regression: the byte-wise lexer used to slice mid-character on
        // non-ASCII identifiers.  They now parse as ordinary identifiers…
        let RawStatement::Rule { head, body, .. } = parse_statement("q(X) :- Ré(X, öäü).").unwrap()
        else {
            panic!("expected a rule");
        };
        assert_eq!(head.predicate.as_str(), "q");
        assert_eq!(body[0].predicate.as_str(), "Ré");
        assert!(body[0].args[1].is_constant(), "ö is lowercase → constant");
        // …and stray non-identifier symbols still error instead of panicking.
        let err = parse_statement("q(X) :- R(X) ∧ S(X).").unwrap_err();
        assert!(matches!(err, SacError::Parse { .. }));
    }

    #[test]
    fn lone_dash_and_colon_are_errors() {
        assert!(parse_statements("R(a) - S(b)").is_err());
        assert!(parse_statements("R(a) : S(b)").is_err());
        assert!(parse_statements("R(a) S(b).").is_err());
    }

    #[test]
    fn star_continues_but_never_starts_identifiers() {
        let RawStatement::Fact(atom) = parse_statement("R*2(a).").unwrap() else {
            panic!("expected a fact");
        };
        assert_eq!(atom.predicate.as_str(), "R*2");
        assert!(parse_statement("*R(a).").is_err());
        assert!(parse_statement("q(X) :- R(X), *S(X).").is_err());
    }

    #[test]
    fn negated_literals_parse_in_rule_bodies() {
        let RawStatement::Rule {
            head,
            body,
            negated,
        } = parse_statement("alive(X) :- node(X), not dead(X).").unwrap()
        else {
            panic!("expected a rule");
        };
        assert_eq!(head.predicate.as_str(), "alive");
        assert_eq!(body, vec![atom!("node", var "X")]);
        assert_eq!(negated, vec![atom!("dead", var "X")]);
    }

    #[test]
    fn not_stays_a_predicate_when_directly_applied() {
        // `not(X)` — no following identifier, so `not` is an ordinary atom.
        let RawStatement::Rule { body, negated, .. } =
            parse_statement("q(X) :- not(X), R(X).").unwrap()
        else {
            panic!("expected a rule");
        };
        assert_eq!(body[0].predicate.as_str(), "not");
        assert!(negated.is_empty());
        // And `not not(X)` negates the `not` predicate.
        let RawStatement::Rule { body, negated, .. } =
            parse_statement("q(X) :- R(X), not not(X).").unwrap()
        else {
            panic!("expected a rule");
        };
        assert_eq!(body.len(), 1);
        assert_eq!(negated[0].predicate.as_str(), "not");
    }

    #[test]
    fn negation_is_rule_body_only() {
        // `not` in a tgd body is just an atom application; a dangling `not`
        // before an atom fails to parse as a dependency.
        assert!(parse_statement("R(X), not S(X) -> T(X).").is_err());
        // Facts cannot be negated.
        assert!(parse_statement("not R(a).").is_err());
    }

    #[test]
    fn single_statement_rejects_extras_and_emptiness() {
        assert!(parse_statement("R(a).").is_ok());
        assert!(parse_statement("R(a). S(b).").is_err());
        assert!(parse_statement("  % only a comment\n").is_err());
    }
}
