//! The unified service-level error type.
//!
//! Every layer a [`crate::Database`] call can pass through — the parser
//! (`sac::parser` / the `FromStr` impls), the storage layer (arity checks),
//! the chase (failure and budget exhaustion) and the engine itself — reports
//! failures as [`sac_common::Error`] values with layer-specific variants.
//! [`SacError`] folds them into one service-facing enum (hand-rolled
//! `thiserror` style: `Display` + `std::error::Error` + `From`), so callers
//! of [`crate::Database::query`] handle exactly one error type with `?`.

use std::fmt;

/// Result alias using [`SacError`].
pub type SacResult<T> = std::result::Result<T, SacError>;

/// Anything that can go wrong while serving a request through
/// [`crate::Database`].
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
        /// The arity the database knows.
        expected: usize,
        /// The arity the request used.
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
    /// cannot absorb (see [`crate::durability`]).
    Persistence {
        /// What failed, with the underlying cause folded in.
        message: String,
    },
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

impl From<sac_common::Error> for SacError {
    fn from(e: sac_common::Error) -> SacError {
        match e {
            sac_common::Error::Parse {
                message,
                line,
                column,
                offset,
            } => SacError::Parse {
                message,
                line,
                column,
                offset,
            },
            sac_common::Error::ArityMismatch {
                predicate,
                expected,
                found,
            } => SacError::ArityMismatch {
                predicate,
                expected,
                found,
            },
            sac_common::Error::Malformed(message) => SacError::InvalidInput { message },
            sac_common::Error::ChaseFailure(message) => SacError::ChaseFailure { message },
            sac_common::Error::BudgetExhausted(message) => SacError::BudgetExhausted { message },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_common_variant_folds_into_sac_error() {
        let cases: Vec<(sac_common::Error, &str)> = vec![
            (
                sac_common::Error::parse_at("expected `)`", "q(X\n :- R", 4),
                "line 2",
            ),
            (
                sac_common::Error::ArityMismatch {
                    predicate: "R".into(),
                    expected: 2,
                    found: 3,
                },
                "arity mismatch",
            ),
            (sac_common::Error::Malformed("m".into()), "invalid input"),
            (sac_common::Error::ChaseFailure("c".into()), "chase failure"),
            (
                sac_common::Error::BudgetExhausted("b".into()),
                "budget exhausted",
            ),
        ];
        for (source, needle) in cases {
            let folded: SacError = source.into();
            let text = folded.to_string();
            assert!(text.contains(needle), "`{text}` misses `{needle}`");
        }
    }

    #[test]
    fn parse_errors_keep_their_positions() {
        let folded: SacError = sac_common::Error::parse_at("boom", "ab\ncd", 4).into();
        let SacError::Parse {
            line,
            column,
            offset,
            ..
        } = folded
        else {
            panic!("expected a parse variant");
        };
        assert_eq!((line, column, offset), (2, 2, 4));
    }

    #[test]
    fn sac_error_is_a_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>(_: &E) {}
        check(&SacError::InvalidInput {
            message: "x".into(),
        });
    }
}
