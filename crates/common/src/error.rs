//! The one error type of the workspace.
//!
//! Every layer — the parser (`sac::parser` and the `FromStr` impls), the
//! storage layer (arity checks), the chase (failure and budget exhaustion),
//! the durability layer and the engine itself — reports failures as a
//! [`SacError`], so callers of `sac::Database::query` handle exactly one
//! error type with `?`.

use std::fmt;

/// Result alias using [`SacError`].
pub type SacResult<T> = std::result::Result<T, SacError>;

/// Anything that can go wrong, from parsing a query to serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SacError {
    /// The query / program text did not parse.  Positions are 1-based.
    Parse {
        /// Explanation of what went wrong.
        message: String,
        /// Line of the error.
        line: usize,
        /// Column (in characters) of the error.
        column: usize,
        /// Byte offset into the input.
        offset: usize,
    },
    /// A predicate was used with two different arities.
    ArityMismatch {
        /// The offending predicate name.
        predicate: String,
        /// The arity the schema knows.
        expected: usize,
        /// The arity the offending atom used.
        found: usize,
    },
    /// A query, dependency or fact was structurally invalid.
    InvalidInput {
        /// Explanation of the structural problem.
        message: String,
    },
    /// The egd chase failed by equating two distinct constants.
    ChaseFailure {
        /// Explanation from the chase.
        message: String,
    },
    /// A resource budget (chase steps, rewriting candidates, …) ran out
    /// before a definite answer was reached.
    BudgetExhausted {
        /// Which budget, and where.
        message: String,
    },
    /// The durability layer failed: a WAL or snapshot I/O error, or
    /// corruption in the on-disk state that the torn-tail repair rule
    /// cannot absorb.
    Persistence {
        /// What failed, with the underlying cause folded in.
        message: String,
    },
}

impl SacError {
    /// Builds a [`SacError::Parse`] at `offset` into `input`, deriving the
    /// 1-based line/column from the input text.
    pub fn parse_at(message: impl Into<String>, input: &str, offset: usize) -> SacError {
        let (line, column) = position_of(input, offset);
        SacError::Parse {
            message: message.into(),
            line,
            column,
            offset,
        }
    }

    /// A [`SacError::InvalidInput`] with `message`.
    pub fn invalid(message: impl Into<String>) -> SacError {
        SacError::InvalidInput {
            message: message.into(),
        }
    }
}

/// The 1-based `(line, column)` of byte `offset` inside `input` (column
/// counted in characters).  Offsets past the end report the end position.
pub fn position_of(input: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(input.len());
    let mut line = 1;
    let mut column = 1;
    for (i, c) in input.char_indices() {
        if i >= offset {
            break;
        }
        if c == '\n' {
            line += 1;
            column = 1;
        } else {
            column += 1;
        }
    }
    (line, column)
}

impl fmt::Display for SacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SacError::Parse {
                message,
                line,
                column,
                ..
            } => write!(f, "parse error at line {line}, column {column}: {message}"),
            SacError::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch for `{predicate}`: expected {expected}, found {found}"
            ),
            SacError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            SacError::ChaseFailure { message } => write!(f, "chase failure: {message}"),
            SacError::BudgetExhausted { message } => write!(f, "budget exhausted: {message}"),
            SacError::Persistence { message } => write!(f, "persistence failure: {message}"),
        }
    }
}

impl std::error::Error for SacError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SacError::ArityMismatch {
            predicate: "R".into(),
            expected: 2,
            found: 3,
        };
        let msg = format!("{e}");
        assert!(msg.contains("R"));
        assert!(msg.contains('2'));
        assert!(msg.contains('3'));

        let p = SacError::parse_at("expected `)`", "q(X) :- R(X,\nS(", 13);
        let text = format!("{p}");
        assert!(text.contains("line 2"), "got {text}");
        assert!(text.contains("column 1"), "got {text}");

        for (e, expected) in [
            (SacError::invalid("m"), "invalid input: m"),
            (
                SacError::ChaseFailure {
                    message: "m".into(),
                },
                "chase failure: m",
            ),
            (
                SacError::BudgetExhausted {
                    message: "m".into(),
                },
                "budget exhausted: m",
            ),
            (
                SacError::Persistence {
                    message: "m".into(),
                },
                "persistence failure: m",
            ),
        ] {
            assert_eq!(e.to_string(), expected);
        }
    }

    #[test]
    fn positions_count_lines_and_columns_from_one() {
        assert_eq!(position_of("abc", 0), (1, 1));
        assert_eq!(position_of("abc", 2), (1, 3));
        assert_eq!(position_of("a\nbc", 2), (2, 1));
        assert_eq!(position_of("a\nbc", 3), (2, 2));
        // Past-the-end offsets clamp to the end position.
        assert_eq!(position_of("a\nb", 99), (2, 2));
    }

    #[test]
    fn sac_error_is_a_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>(_: &E) {}
        check(&SacError::invalid("x"));
    }

    #[test]
    fn error_implements_std_error() {
        // Boxed as a trait object, the error keeps its message and has no
        // further source: every variant is a leaf.
        let boxed: Box<dyn std::error::Error> = Box::new(SacError::invalid("x"));
        assert_eq!(boxed.to_string(), "invalid input: x");
        assert!(boxed.source().is_none());
    }
}
