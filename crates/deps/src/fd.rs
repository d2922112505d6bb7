//! Functional dependencies and keys, compiled into egds.
//!
//! A functional dependency `R : A → B` over an `n`-ary predicate asserts that
//! the attribute values at positions `B` are determined by those at positions
//! `A`.  A *key* is an FD with `A ∪ B = {1, …, n}`.  The paper's positive
//! egd results concern keys over unary/binary predicates (Theorem 23) and
//! unary FDs (`|A| = 1`, Figueira's independent result, mentioned after
//! Theorem 23).

use crate::egd::Egd;
use sac_common::{intern, SacError, SacResult, Symbol, Term};
use std::collections::BTreeSet;
use std::fmt;

/// A functional dependency `R : A → B` (attribute positions are 1-based, as
/// in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalDependency {
    /// The predicate the FD constrains.
    pub predicate: Symbol,
    /// Its arity.
    pub arity: usize,
    /// Determinant positions `A` (1-based).
    pub lhs: BTreeSet<usize>,
    /// Determined positions `B` (1-based).
    pub rhs: BTreeSet<usize>,
}

impl FunctionalDependency {
    /// Creates an FD after validating the attribute positions.
    pub fn new(
        predicate: Symbol,
        arity: usize,
        lhs: impl IntoIterator<Item = usize>,
        rhs: impl IntoIterator<Item = usize>,
    ) -> SacResult<FunctionalDependency> {
        let fd = FunctionalDependency {
            predicate,
            arity,
            lhs: lhs.into_iter().collect(),
            rhs: rhs.into_iter().collect(),
        };
        fd.validate()?;
        Ok(fd)
    }

    /// Convenience constructor interning the predicate name.
    pub fn from_parts(
        predicate: &str,
        arity: usize,
        lhs: impl IntoIterator<Item = usize>,
        rhs: impl IntoIterator<Item = usize>,
    ) -> SacResult<FunctionalDependency> {
        FunctionalDependency::new(intern(predicate), arity, lhs, rhs)
    }

    /// The key `R : A → {1..n} \ A`.
    pub fn key(
        predicate: &str,
        arity: usize,
        lhs: impl IntoIterator<Item = usize>,
    ) -> SacResult<FunctionalDependency> {
        let lhs: BTreeSet<usize> = lhs.into_iter().collect();
        let rhs: BTreeSet<usize> = (1..=arity).filter(|i| !lhs.contains(i)).collect();
        FunctionalDependency::new(intern(predicate), arity, lhs, rhs)
    }

    fn validate(&self) -> SacResult<()> {
        if self.arity == 0 {
            return Err(SacError::invalid("FD over a nullary predicate"));
        }
        if self.lhs.is_empty() {
            return Err(SacError::invalid("FD with an empty determinant"));
        }
        let in_range = |s: &BTreeSet<usize>| s.iter().all(|i| *i >= 1 && *i <= self.arity);
        if !in_range(&self.lhs) || !in_range(&self.rhs) {
            return Err(SacError::invalid(format!(
                "FD attribute positions out of range for arity {}",
                self.arity
            )));
        }
        Ok(())
    }

    /// Whether the FD is a key: `A ∪ B` covers all attribute positions.
    pub fn is_key(&self) -> bool {
        let mut all: BTreeSet<usize> = self.lhs.clone();
        all.extend(self.rhs.iter().copied());
        all.len() == self.arity
    }

    /// Whether the FD is unary (`|A| = 1`) — the class covered by Figueira's
    /// extension of Theorem 23.
    pub fn is_unary(&self) -> bool {
        self.lhs.len() == 1
    }

    /// Compiles the FD into one egd per determined attribute.
    ///
    /// `R : {1} → {3}` over a ternary `R` becomes
    /// `R(x1,x2,x3), R(x1,x2',x3') → x3 = x3'`.
    pub fn to_egds(&self) -> Vec<Egd> {
        let var = |prefix: &str, i: usize| Term::Variable(intern(&format!("{prefix}{i}")));
        let first: Vec<Term> = (1..=self.arity).map(|i| var("x", i)).collect();
        let second: Vec<Term> = (1..=self.arity)
            .map(|i| {
                if self.lhs.contains(&i) {
                    var("x", i)
                } else {
                    var("xp", i)
                }
            })
            .collect();
        let body = vec![
            sac_common::Atom::new(self.predicate, first),
            sac_common::Atom::new(self.predicate, second),
        ];
        self.rhs
            .iter()
            .filter(|i| !self.lhs.contains(i))
            .map(|i| {
                Egd::new(
                    body.clone(),
                    intern(&format!("x{i}")),
                    intern(&format!("xp{i}")),
                )
                .expect("generated egd is well-formed")
            })
            .collect()
    }
}

impl fmt::Display for FunctionalDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : {{", self.predicate)?;
        for (i, a) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}} -> {{")?;
        for (i, b) in self.rhs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_fd_compiles_to_expected_egd() {
        // R : {1} → {3} over ternary R is the egd
        // R(x,y,z), R(x,y',z') → z = z'.
        let fd = FunctionalDependency::from_parts("R", 3, [1], [3]).unwrap();
        assert!(!fd.is_key());
        assert!(fd.is_unary());
        let egds = fd.to_egds();
        assert_eq!(egds.len(), 1);
        let e = &egds[0];
        assert_eq!(e.body.len(), 2);
        assert_eq!(e.left.as_str(), "x3");
        assert_eq!(e.right.as_str(), "xp3");
        // The determinant position is shared between both body atoms.
        assert_eq!(e.body[0].args[0], e.body[1].args[0]);
        // The other positions are not.
        assert_ne!(e.body[0].args[2], e.body[1].args[2]);
    }

    #[test]
    fn key_constructor_covers_all_positions() {
        let key = FunctionalDependency::key("R", 2, [1]).unwrap();
        assert!(key.is_key());
        assert_eq!(key.rhs, BTreeSet::from([2]));
        let egds = key.to_egds();
        assert_eq!(egds.len(), 1);
        assert!(egds[0].is_over_unary_binary_schema());
    }

    #[test]
    fn wide_key_produces_one_egd_per_non_key_position() {
        let key = FunctionalDependency::key("R", 4, [1, 2]).unwrap();
        assert!(key.is_key());
        assert!(!key.is_unary());
        assert_eq!(key.to_egds().len(), 2);
    }

    #[test]
    fn validation_rejects_bad_positions() {
        assert!(FunctionalDependency::from_parts("R", 2, [0], [1]).is_err());
        assert!(FunctionalDependency::from_parts("R", 2, [1], [3]).is_err());
        assert!(FunctionalDependency::from_parts("R", 0, [1], [1]).is_err());
        assert!(FunctionalDependency::from_parts("R", 2, [], [2]).is_err());
    }

    #[test]
    fn rhs_positions_inside_lhs_do_not_produce_egds() {
        let fd = FunctionalDependency::from_parts("R", 2, [1], [1, 2]).unwrap();
        assert_eq!(fd.to_egds().len(), 1);
    }

    #[test]
    fn display_mentions_both_sides() {
        let fd = FunctionalDependency::from_parts("R", 3, [1], [2, 3]).unwrap();
        let s = format!("{fd}");
        assert!(s.contains("{1}"));
        assert!(s.contains("{2,3}"));
    }
}
