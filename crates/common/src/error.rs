//! Error type shared by the workspace crates.

use std::fmt;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the semantic-acyclicity toolkit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An atom used a predicate with the wrong number of arguments.
    ArityMismatch {
        /// Predicate name.
        predicate: String,
        /// Declared arity.
        expected: usize,
        /// Arity found in the offending atom.
        found: usize,
    },
    /// A dependency or query was structurally malformed.
    Malformed(String),
    /// The egd chase failed by attempting to identify two distinct constants.
    ChaseFailure(String),
    /// A resource budget (chase steps, candidate count, …) was exhausted
    /// before the procedure could reach a definite answer.
    BudgetExhausted(String),
    /// Parsing error with a human-readable message and source position.
    Parse {
        /// Explanation of what went wrong.
        message: String,
        /// Byte offset into the input where the error was detected.
        offset: usize,
        /// 1-based line of the error position.
        line: usize,
        /// 1-based column (in characters) of the error position.
        column: usize,
    },
}

impl Error {
    /// Builds a [`Error::Parse`] at `offset` into `input`, deriving the
    /// 1-based line/column from the input text.
    pub fn parse_at(message: impl Into<String>, input: &str, offset: usize) -> Error {
        let (line, column) = position_of(input, offset);
        Error::Parse {
            message: message.into(),
            offset,
            line,
            column,
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

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch for `{predicate}`: expected {expected}, found {found}"
            ),
            Error::Malformed(msg) => write!(f, "malformed input: {msg}"),
            Error::ChaseFailure(msg) => write!(f, "chase failure: {msg}"),
            Error::BudgetExhausted(msg) => write!(f, "budget exhausted: {msg}"),
            Error::Parse {
                message,
                line,
                column,
                ..
            } => {
                write!(f, "parse error at line {line}, column {column}: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::ArityMismatch {
            predicate: "R".into(),
            expected: 2,
            found: 3,
        };
        let msg = format!("{e}");
        assert!(msg.contains("R"));
        assert!(msg.contains('2'));
        assert!(msg.contains('3'));

        let p = Error::parse_at("expected `)`", "q(X) :- R(X,\nS(", 13);
        let text = format!("{p}");
        assert!(text.contains("line 2"), "got {text}");
        assert!(text.contains("column 1"), "got {text}");
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
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&Error::Malformed("x".into()));
    }
}
