//! Typed query results: [`ResultSet`] and [`Row`], over the executor's
//! code rows.
//!
//! Every execution ends in one [`CodeRows`]: the answers as dictionary
//! codes (see [`sac_storage::dict`]), row-major in a single buffer, sorted
//! and deduplicated.  [`ResultSet`] shares that buffer with the columns of
//! the query head and answers `len`, `is_true`, `contains` and `==` on the
//! codes; a [`Term`] is built only when a caller reads one — the first
//! [`ResultSet::rows`] (or `iter`, `tuples`, `Display`, …) decodes every
//! row once and keeps them.  This file is the only place the engine
//! decodes.
//!
//! Rows come in code order: deterministic within a process, and across
//! processes exactly as deterministic as the dictionary's code assignment.

use sac_common::Term;
use sac_storage::dict;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// A set of answer rows as dictionary codes: `len` rows of `width` codes,
/// row-major in one buffer, strictly increasing (so free of repeats).  A
/// set of width zero holds the empty row or nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodeRows {
    width: usize,
    len: usize,
    codes: Vec<u32>,
}

impl CodeRows {
    /// The set of the `len` row-major rows of `width` codes in `codes`, in
    /// any order and with any repeats.
    pub(crate) fn from_unsorted(width: usize, len: usize, mut codes: Vec<u32>) -> CodeRows {
        let len = sort_dedup(width, len, &mut codes);
        CodeRows { width, len, codes }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The codes of row `i`.
    fn row(&self, i: usize) -> &[u32] {
        &self.codes[i * self.width..(i + 1) * self.width]
    }

    /// The rows, in increasing order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Whether `row` is one of the rows (a binary search).
    pub(crate) fn contains(&self, row: &[u32]) -> bool {
        let (mut low, mut high) = (0, self.len);
        while low < high {
            let mid = (low + high) / 2;
            match self.row(mid).cmp(row) {
                Ordering::Less => low = mid + 1,
                Ordering::Greater => high = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// The union of two sets of one width: a merge of the sorted buffers.
    pub(crate) fn union(&self, other: &CodeRows) -> CodeRows {
        debug_assert_eq!(self.width, other.width, "united sets share a width");
        if self.width == 0 {
            let len = self.len.max(other.len);
            return CodeRows {
                len,
                ..self.clone()
            };
        }
        let mut codes = Vec::with_capacity(self.codes.len() + other.codes.len());
        let (mut mine, mut theirs) = (self.iter().peekable(), other.iter().peekable());
        loop {
            let next = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) => match a.cmp(b) {
                    Ordering::Less => mine.next(),
                    Ordering::Greater => theirs.next(),
                    Ordering::Equal => {
                        theirs.next();
                        mine.next()
                    }
                },
                (Some(_), None) => mine.next(),
                (None, _) => theirs.next(),
            };
            let Some(row) = next else { break };
            codes.extend_from_slice(row);
        }
        CodeRows {
            width: self.width,
            len: codes.len() / self.width,
            codes,
        }
    }

    /// Every row decoded to terms, in code order, under one dictionary
    /// guard.
    pub(crate) fn decode(&self) -> Vec<Vec<Term>> {
        let decoder = dict::decoder();
        let decode = |row: &[u32]| row.iter().map(|&code| decoder.decode(code)).collect();
        self.iter().map(decode).collect()
    }
}

/// Sorts the `len` row-major rows of `width` codes in `codes` and removes
/// repeats, returning how many rows are left.  Rows of one or two codes
/// sort as single integers (two packed into a `u64`, whose order is the
/// rows' lexicographic order); wider rows sort through an index.
pub(crate) fn sort_dedup(width: usize, len: usize, codes: &mut Vec<u32>) -> usize {
    match width {
        0 => len.min(1),
        1 => {
            codes.sort_unstable();
            codes.dedup();
            codes.len()
        }
        2 => {
            let pack = |row: &[u32]| u64::from(row[0]) << 32 | u64::from(row[1]);
            let mut packed: Vec<u64> = codes.chunks_exact(2).map(pack).collect();
            packed.sort_unstable();
            packed.dedup();
            codes.clear();
            codes.extend(packed.iter().flat_map(|&p| [(p >> 32) as u32, p as u32]));
            packed.len()
        }
        _ => {
            let row = |i: usize| &codes[i * width..(i + 1) * width];
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            order.dedup_by(|a, b| row(*a) == row(*b));
            let sorted: Vec<u32> = order.iter().flat_map(|&i| row(i)).copied().collect();
            *codes = sorted;
            order.len()
        }
    }
}

/// One answer tuple, with access by position or by column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    columns: Arc<[String]>,
    values: Vec<Term>,
}

impl Row {
    /// The answer's terms, in head order.
    pub fn values(&self) -> &[Term] {
        &self.values
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no columns (the Boolean "yes" tuple).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The term at position `index`, if in range.
    pub fn get(&self, index: usize) -> Option<Term> {
        self.values.get(index).copied()
    }

    /// The term under column `name` (the first matching column, if the head
    /// repeats a variable).
    pub fn get_named(&self, name: &str) -> Option<Term> {
        let pos = self.columns.iter().position(|c| c == name)?;
        self.values.get(pos).copied()
    }

    /// The column names, aligned with [`Row::values`].
    pub fn columns(&self) -> &[String] {
        &self.columns
    }
}

impl Index<usize> for Row {
    type Output = Term;

    fn index(&self, index: usize) -> &Term {
        &self.values[index]
    }
}

impl Index<&str> for Row {
    type Output = Term;

    /// Panics when no column carries `name`; use [`Row::get_named`] for the
    /// fallible variant.
    fn index(&self, name: &str) -> &Term {
        let pos = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column named `{name}`"));
        &self.values[pos]
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// The answer set of one query run: named columns (from the query head,
/// possibly with repetitions) over the executor's code rows, decoded into
/// [`Row`]s the first time a caller reads them.
///
/// For a Boolean query the column list is empty and the set holds either the
/// single empty row (`true`) or nothing (`false`) — [`ResultSet::is_true`]
/// reads that directly.  Two result sets are equal when their columns and
/// their code rows are: the dictionary maps terms to codes one to one.
#[derive(Debug, Clone)]
pub struct ResultSet {
    columns: Arc<[String]>,
    answers: Arc<CodeRows>,
    /// The decoded rows, built by the first read.
    rows: OnceLock<Vec<Row>>,
}

impl ResultSet {
    /// A result set over `answers`, whose rows are in the head order
    /// described by `columns`.
    pub(crate) fn new(columns: Arc<[String]>, answers: Arc<CodeRows>) -> ResultSet {
        ResultSet {
            columns,
            answers,
            rows: OnceLock::new(),
        }
    }

    /// The column names, one per head variable (repeats preserved).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of answer rows.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether the answer set is empty.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The Boolean reading: whether at least one answer exists.
    pub fn is_true(&self) -> bool {
        !self.answers.is_empty()
    }

    /// The rows, in code order; decoded on the first call.
    pub fn rows(&self) -> &[Row] {
        self.rows.get_or_init(|| self.decode_rows())
    }

    fn decode_rows(&self) -> Vec<Row> {
        let rows = self.answers.decode().into_iter();
        rows.map(|values| Row {
            columns: Arc::clone(&self.columns),
            values,
        })
        .collect()
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows().iter()
    }

    /// Whether `tuple` is one of the answers.  Decodes nothing: a term the
    /// dictionary never saw is in no answer.
    pub fn contains(&self, tuple: &[Term]) -> bool {
        dict::lookup_row(tuple).is_some_and(|codes| self.answers.contains(&codes))
    }

    /// Converts back to the workspace's raw representation (what
    /// `sac_query::evaluate` returns), for interop and testing.
    pub fn into_tuples(self) -> BTreeSet<Vec<Term>> {
        self.into_iter().map(|r| r.values).collect()
    }

    /// Borrows the answers as raw tuples, in code order.
    pub fn tuples(&self) -> impl Iterator<Item = &[Term]> + '_ {
        self.iter().map(|r| r.values())
    }
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &ResultSet) -> bool {
        self.columns == other.columns && self.answers == other.answers
    }
}

impl Eq for ResultSet {}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for ResultSet {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;

    fn into_iter(mut self) -> Self::IntoIter {
        let rows = self.rows.take();
        rows.unwrap_or_else(|| self.decode_rows()).into_iter()
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.columns.is_empty() {
            return write!(f, "{}", self.is_true());
        }
        write!(f, "[{}]", self.columns.join(", "))?;
        for row in self {
            write!(f, " {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result set over `tuples`, encoded and handed over in the given
    /// order, repeats and all.
    fn result_set(columns: &[&str], tuples: &[&[&str]]) -> ResultSet {
        let codes: Vec<u32> = tuples
            .iter()
            .flat_map(|t| t.iter().map(|c| dict::encode(Term::constant(c))))
            .collect();
        let answers = CodeRows::from_unsorted(columns.len(), tuples.len(), codes);
        let columns: Vec<String> = columns.iter().map(|c| (*c).to_owned()).collect();
        ResultSet::new(columns.into(), Arc::new(answers))
    }

    fn sample() -> ResultSet {
        result_set(&["X", "Y"], &[&["a", "b"], &["a", "c"]])
    }

    fn terms(row: &[&str]) -> Vec<Term> {
        row.iter().map(|c| Term::constant(c)).collect()
    }

    #[test]
    fn named_and_positional_access_agree() {
        let rs = sample();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.columns(), &["X".to_owned(), "Y".to_owned()]);
        // Row order is code order; find the (a, b) row by content instead
        // of assuming a position.
        let row = rs
            .iter()
            .find(|r| r.get(1) == Some(Term::constant("b")))
            .expect("the (a, b) row exists");
        assert_eq!(row.get(0), Some(Term::constant("a")));
        assert_eq!(row.get_named("Y"), Some(Term::constant("b")));
        assert_eq!(row["X"], Term::constant("a"));
        assert_eq!(row[1], Term::constant("b"));
        assert_eq!(row.get_named("Z"), None);
        assert_eq!(row.get(5), None);
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn iteration_is_deterministic_and_round_trips() {
        let rs = sample();
        let codes: Vec<&[u32]> = rs.answers.iter().collect();
        assert!(codes[0] < codes[1], "rows keep the sorted code order");
        let decoded: Vec<Vec<Term>> = codes.iter().map(|c| dict::decode_row(c)).collect();
        let tuples: Vec<&[Term]> = rs.tuples().collect();
        assert_eq!(
            tuples,
            decoded.iter().map(Vec::as_slice).collect::<Vec<_>>()
        );
        let back = rs.clone().into_tuples();
        assert_eq!(back.len(), 2);
        assert!(rs.contains(&terms(&["a", "c"])));
        assert!(!rs.contains(&terms(&["b", "b"])));
        let collected: Vec<_> = (&rs).into_iter().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn code_rows_are_strictly_increasing_and_deduplicated() {
        for width in 0..5usize {
            // Rows over a small alphabet, handed over with repeats and in
            // reverse: 3^width distinct rows, each twice.
            let alphabet = ["r0", "r1", "r2"];
            let distinct = 3usize.pow(width as u32);
            let mut rows: Vec<Vec<u32>> = (0..distinct)
                .map(|n| {
                    let digit = |i: u32| n / 3usize.pow(i) % 3;
                    let term = |i| Term::constant(alphabet[digit(i)]);
                    (0..width as u32).map(|i| dict::encode(term(i))).collect()
                })
                .collect();
            rows.extend(rows.clone());
            rows.reverse();
            let answers = CodeRows::from_unsorted(width, rows.len(), rows.concat());
            assert_eq!(answers.len(), distinct, "width {width}");
            let listed: Vec<&[u32]> = answers.iter().collect();
            assert!(
                listed.windows(2).all(|w| w[0] < w[1]),
                "width {width}: {listed:?}"
            );
            assert!(rows.iter().all(|row| answers.contains(row)));
        }
    }

    #[test]
    fn contains_agrees_with_the_decoded_rows() {
        let rs = result_set(
            &["X", "Y"],
            &[&["c", "a"], &["a", "b"], &["b", "a"], &["a", "b"]],
        );
        assert_eq!(rs.len(), 3);
        // Every decoded row is contained…
        for tuple in rs.tuples() {
            assert!(rs.contains(tuple), "{tuple:?}");
        }
        // …misses over known terms are not, nor are rows of another width…
        for miss in [
            &["a", "a"][..],
            &["b", "b"],
            &["c", "c"],
            &["a"],
            &["a", "b", "c"],
        ] {
            let miss = terms(miss);
            assert!(!rs.tuples().any(|t| t == miss.as_slice()));
            assert!(!rs.contains(&miss), "{miss:?}");
        }
        // …and neither is a term the dictionary has never seen.
        assert!(!rs.contains(&terms(&["a", "result_rs_never_encoded_anywhere"])));
        assert_eq!(
            dict::lookup(Term::constant("result_rs_never_encoded_anywhere")),
            None
        );
    }

    #[test]
    fn equality_agrees_with_term_level_equality() {
        let sets = [
            result_set(&["X", "Y"], &[&["a", "b"], &["a", "c"]]),
            result_set(&["X", "Y"], &[&["a", "c"], &["a", "b"], &["a", "c"]]),
            result_set(&["X", "Y"], &[&["a", "b"]]),
            result_set(&["X", "Z"], &[&["a", "b"], &["a", "c"]]),
            result_set(&["X", "Y"], &[]),
        ];
        for left in &sets {
            for right in &sets {
                let by_terms = left.columns() == right.columns()
                    && left.clone().into_tuples() == right.clone().into_tuples();
                assert_eq!(left == right, by_terms, "{left} vs {right}");
            }
        }
        assert_eq!(sets[0], sets[1]);
    }

    #[test]
    fn rows_are_decoded_once_and_reused() {
        let rs = sample();
        let first = rs.rows().as_ptr();
        assert!(std::ptr::eq(first, rs.rows().as_ptr()));
        assert!(std::ptr::eq(first, rs.iter().next().expect("two rows")));
        // A clone taken after the decode keeps the decoded rows equal.
        assert_eq!(rs.clone().rows(), rs.rows());
    }

    #[test]
    fn unions_merge_sorted_sets() {
        let rows = |tuples: &[&[&str]]| {
            let codes: Vec<u32> = tuples
                .iter()
                .flat_map(|t| t.iter().map(|c| dict::encode(Term::constant(c))))
                .collect();
            CodeRows::from_unsorted(2, tuples.len(), codes)
        };
        let old = rows(&[&["a", "b"], &["b", "c"]]);
        let new = rows(&[&["b", "c"], &["c", "d"], &["a", "a"]]);
        let all = rows(&[&["a", "b"], &["b", "c"], &["c", "d"], &["a", "a"]]);
        assert_eq!(old.union(&new), all);
        assert_eq!(new.union(&old), all);
        assert_eq!(old.union(&rows(&[])), old);
        let unit = CodeRows::from_unsorted(0, 1, Vec::new());
        let none = CodeRows::from_unsorted(0, 0, Vec::new());
        assert_eq!(none.union(&unit), unit);
        assert_eq!(unit.union(&unit), unit);
    }

    #[test]
    fn boolean_shapes_read_as_truth_values() {
        let yes = result_set(&[], &[&[], &[]]);
        assert!(yes.is_true());
        assert_eq!(yes.len(), 1);
        assert!(yes.rows()[0].is_empty());
        assert_eq!(format!("{yes}"), "true");
        let no = result_set(&[], &[]);
        assert!(!no.is_true());
        assert_eq!(format!("{no}"), "false");
    }

    #[test]
    fn display_lists_columns_then_rows() {
        let text = format!("{}", sample());
        assert!(text.starts_with("[X, Y]"));
        assert!(text.contains("(a, b)"));
    }
}
