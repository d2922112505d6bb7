//! Summary statistics for instances and relations.
//!
//! [`InstanceStats`] is the coarse, whole-instance summary used by the
//! experiment reports; [`RelationStats`] adds the per-relation, per-column
//! distinct counts that the `sac-engine` planner uses to order atoms by
//! estimated selectivity.

use sac_common::Symbol;
use std::fmt;

/// Per-relation statistics: cardinality plus distinct counts per column.
///
/// The ratio `tuples / distinct_per_column[i]` estimates how many rows a
/// point lookup on column `i` returns — the planner's basic selectivity
/// signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    /// The relation's predicate.
    pub predicate: Symbol,
    /// The relation's arity.
    pub arity: usize,
    /// Number of (distinct) tuples.
    pub tuples: usize,
    /// Number of distinct terms occurring at each column.
    pub distinct_per_column: Vec<usize>,
}

impl RelationStats {
    /// Estimated number of rows matched by binding column `pos` to one value
    /// (the relation's cardinality divided by the column's distinct count).
    /// Returns the full cardinality when the column has no distinct values
    /// recorded (empty relation or out-of-range position).
    pub fn estimated_rows_per_value(&self, pos: usize) -> f64 {
        match self.distinct_per_column.get(pos) {
            Some(&d) if d > 0 => self.tuples as f64 / d as f64,
            _ => self.tuples as f64,
        }
    }

    /// Estimated cardinality after binding every column in `positions` to a
    /// point value, assuming independent columns (the textbook estimate).
    pub fn estimated_rows_with_bound(&self, positions: &[usize]) -> f64 {
        let mut est = self.tuples as f64;
        for &pos in positions {
            if let Some(&d) = self.distinct_per_column.get(pos) {
                if d > 0 {
                    est /= d as f64;
                }
            }
        }
        est
    }
}

impl fmt::Display for RelationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} tuples, distinct {:?}",
            self.predicate, self.arity, self.tuples, self.distinct_per_column
        )
    }
}

/// Summary statistics of an [`crate::Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceStats {
    /// Total number of atoms.
    pub atoms: usize,
    /// Number of distinct predicates.
    pub predicates: usize,
    /// Size of the active domain (distinct terms).
    pub domain_size: usize,
    /// Number of distinct labelled nulls in the active domain.
    pub nulls: usize,
    /// Maximum predicate arity.
    pub max_arity: usize,
    /// Distinct terms in the **process-wide** term dictionary (shared by
    /// every instance, so this is a process number, not an instance one;
    /// recovery debugging watches it to see dictionary growth).
    pub dict_len: usize,
    /// Estimated heap bytes of the process-wide term dictionary.
    pub dict_bytes: usize,
    /// Per-relation breakdown (in first-insertion predicate order).
    pub relations: Vec<RelationStats>,
}

impl InstanceStats {
    /// The per-relation statistics for `predicate`, if present.
    pub fn relation(&self, predicate: Symbol) -> Option<&RelationStats> {
        self.relations.iter().find(|r| r.predicate == predicate)
    }

    /// The relation holding the most tuples — the scan a trace's node-row
    /// report is dominated by.  `None` on an empty instance.
    pub fn largest_relation(&self) -> Option<&RelationStats> {
        self.relations.iter().max_by_key(|r| r.tuples)
    }
}

impl fmt::Display for InstanceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} atoms over {} predicates (domain {}, nulls {}, max arity {}); dict {} terms / {} bytes",
            self.atoms,
            self.predicates,
            self.domain_size,
            self.nulls,
            self.max_arity,
            self.dict_len,
            self.dict_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::intern;

    fn sample() -> InstanceStats {
        InstanceStats {
            atoms: 10,
            predicates: 3,
            domain_size: 7,
            nulls: 2,
            max_arity: 4,
            dict_len: 123,
            dict_bytes: 4096,
            relations: vec![RelationStats {
                predicate: intern("R"),
                arity: 2,
                tuples: 10,
                distinct_per_column: vec![5, 2],
            }],
        }
    }

    #[test]
    fn display_mentions_all_fields() {
        let out = format!("{}", sample());
        for needle in ["10", "3", "7", "2", "4", "123 terms", "4096 bytes"] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
    }

    #[test]
    fn relation_lookup_by_predicate() {
        let s = sample();
        assert!(s.relation(intern("R")).is_some());
        assert!(s.relation(intern("Missing")).is_none());
    }

    #[test]
    fn largest_relation_picks_the_biggest_scan() {
        let mut s = sample();
        assert_eq!(s.largest_relation().unwrap().predicate, intern("R"));
        s.relations.push(RelationStats {
            predicate: intern("Big"),
            arity: 1,
            tuples: 99,
            distinct_per_column: vec![99],
        });
        assert_eq!(s.largest_relation().unwrap().predicate, intern("Big"));
        s.relations.clear();
        assert!(s.largest_relation().is_none());
    }

    #[test]
    fn selectivity_estimates() {
        let r = sample().relations[0].clone();
        assert_eq!(r.estimated_rows_per_value(0), 2.0);
        assert_eq!(r.estimated_rows_per_value(1), 5.0);
        // Out of range falls back to the full cardinality.
        assert_eq!(r.estimated_rows_per_value(9), 10.0);
        assert_eq!(r.estimated_rows_with_bound(&[0, 1]), 1.0);
    }
}
