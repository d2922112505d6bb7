//! A single relation stored **columnar**: dictionary-coded flat columns with
//! a packed-row dedup table and per-column hash-bucket sidecar indexes.
//!
//! Tuples are rows of `u32` codes from the global [`crate::dict`] term
//! dictionary, laid out as `arity` parallel `Vec<u32>` buffers in insertion
//! order.  Three sidecar structures ride along, all keyed by codes:
//!
//! * `seen` — packed-row hash → row ids, the O(1) dedup test (candidates
//!   sharing a 64-bit [`sac_common::FxHasher`] hash are verified against the
//!   columns, so dedup is exact);
//! * `sidecars[pos]` — code → row ids whose `pos`-th column holds it, the
//!   incrementally maintained single-column index (and, as a byproduct, an
//!   exact per-column distinct count for [`Relation::stats`]);
//! * nothing else: multi-column [`JoinIndex`]es are built on demand from
//!   [`Relation::project_index`], and cached by `sac-engine`.
//!
//! The [`Term`]-level API (`insert` / `contains` / `iter` / `row` /
//! `select`) is a thin veneer — encode on append, decode on read — for the
//! definition-level oracle and for callers that hold terms, while every
//! homomorphism search (`sac_query::homomorphism`) reads the raw columns
//! ([`Relation::column`], [`Relation::rows_with_code`], [`JoinIndex`]) and
//! compares codes without ever touching a `Term`.

use crate::dict;
use crate::stats::RelationStats;
use sac_common::{FxHashMap, FxHasher, Symbol, Term};
use std::hash::Hasher;

/// No-match answer shared by every lookup miss.
const NO_ROWS: &[u32] = &[];

/// Deterministic content hash of one packed code row (length-prefixed so
/// rows of different arity never alias; only ever compared within the
/// process).
#[inline]
fn hash_codes(codes: &[u32]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_usize(codes.len());
    for &code in codes {
        hasher.write_u32(code);
    }
    hasher.finish()
}

/// The tuples of one predicate in columnar, dictionary-coded form.
#[derive(Debug, Clone)]
pub struct Relation {
    predicate: Symbol,
    arity: usize,
    /// Row count (kept separately so zero-arity relations — no columns —
    /// still count their single possible tuple).
    rows: u32,
    /// `columns[pos][row]` = the code of the `pos`-th component of `row`.
    columns: Vec<Vec<u32>>,
    /// Packed-row hash → row ids with that hash (dedup; exact via verify).
    seen: FxHashMap<u64, Vec<u32>>,
    /// `sidecars[pos][code]` = row ids whose `pos`-th component is `code`.
    sidecars: Vec<FxHashMap<u32, Vec<u32>>>,
}

impl Relation {
    /// Creates an empty relation for `predicate` with the given arity.
    pub fn new(predicate: Symbol, arity: usize) -> Relation {
        Relation {
            predicate,
            arity,
            rows: 0,
            columns: vec![Vec::new(); arity],
            seen: FxHashMap::default(),
            sidecars: vec![FxHashMap::default(); arity],
        }
    }

    /// The predicate this relation stores tuples for.
    pub fn predicate(&self) -> Symbol {
        self.predicate
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.rows as usize
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Inserts a tuple, encoding each term through the global dictionary;
    /// returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if the tuple's length differs from the relation's arity — the
    /// higher-level [`crate::Instance`] API validates this and returns an
    /// error instead.
    pub fn insert(&mut self, tuple: Vec<Term>) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity mismatch for {}",
            self.predicate
        );
        let codes: Vec<u32> = tuple.into_iter().map(dict::encode).collect();
        self.insert_codes(&codes)
    }

    /// Inserts an already-encoded row; returns `true` if it was new.  The
    /// fast path for code-preserving copies (bulk loads, scratch relations).
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the relation's arity.
    pub(crate) fn insert_codes(&mut self, codes: &[u32]) -> bool {
        assert_eq!(
            codes.len(),
            self.arity,
            "code row arity mismatch for {}",
            self.predicate
        );
        let hash = hash_codes(codes);
        if let Some(candidates) = self.seen.get(&hash) {
            if candidates.iter().any(|&row| self.row_eq(row, codes)) {
                return false;
            }
        }
        let row = self.rows;
        for (pos, &code) in codes.iter().enumerate() {
            self.columns[pos].push(code);
            self.sidecars[pos].entry(code).or_default().push(row);
        }
        self.seen.entry(hash).or_default().push(row);
        self.rows += 1;
        true
    }

    /// Whether the stored row `row` equals the code row `codes`.
    #[inline]
    fn row_eq(&self, row: u32, codes: &[u32]) -> bool {
        self.columns
            .iter()
            .zip(codes)
            .all(|(col, &code)| col[row as usize] == code)
    }

    /// O(1) membership test (decode-free: a term the dictionary has never
    /// seen cannot be stored anywhere).
    pub fn contains(&self, tuple: &[Term]) -> bool {
        dict::lookup_row(tuple).is_some_and(|codes| self.contains_codes(&codes))
    }

    /// O(1) membership test on an already-encoded row.
    pub(crate) fn contains_codes(&self, codes: &[u32]) -> bool {
        if codes.len() != self.arity {
            return false;
        }
        self.seen
            .get(&hash_codes(codes))
            .is_some_and(|candidates| candidates.iter().any(|&row| self.row_eq(row, codes)))
    }

    /// The row id storing exactly `tuple`, if present.  Relations are
    /// append-only and deduplicated, so a stored tuple has exactly one row
    /// id and it is stable for the relation's lifetime — which is what lets
    /// provenance records reference base facts by `(predicate, row)`.
    pub fn find_row(&self, tuple: &[Term]) -> Option<usize> {
        if tuple.len() != self.arity {
            return None;
        }
        let codes = dict::lookup_row(tuple)?;
        self.seen.get(&hash_codes(&codes)).and_then(|candidates| {
            candidates
                .iter()
                .find(|&&row| self.row_eq(row, &codes))
                .map(|&row| row as usize)
        })
    }

    /// The raw code column at `pos` — the engine's vectorized sweeps read
    /// these slices directly.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range for the relation's arity.
    pub fn column(&self, pos: usize) -> &[u32] {
        &self.columns[pos]
    }

    /// Every code column, in position order — gathered once per sweep so a
    /// row loop is pure slice indexing.
    pub fn columns(&self) -> Vec<&[u32]> {
        self.columns.iter().map(Vec::as_slice).collect()
    }

    /// Iterates over all tuples in insertion order, decoding each row.
    pub fn iter(&self) -> impl Iterator<Item = Vec<Term>> + '_ {
        (0..self.len()).map(|row| self.decode_row(row))
    }

    /// Returns the tuple stored at `row`, decoded.
    pub fn row(&self, row: usize) -> Option<Vec<Term>> {
        (row < self.len()).then(|| self.decode_row(row))
    }

    fn decode_row(&self, row: usize) -> Vec<Term> {
        let codes: Vec<u32> = self.columns.iter().map(|col| col[row]).collect();
        dict::decode_row(&codes)
    }

    /// Iterates over the tuples appended at or after row `start`, in
    /// insertion order — the relation's **delta log** since a watermark.
    /// Relations are append-only (tuples are never removed or reordered),
    /// so `rows_from(w)` is exactly the growth since `len()` was `w`.
    /// A `start` beyond the current length yields nothing.
    pub fn rows_from(&self, start: usize) -> impl Iterator<Item = Vec<Term>> + '_ {
        (start.min(self.len())..self.len()).map(|row| self.decode_row(row))
    }

    /// Row ids of tuples whose `pos`-th component equals `term`.
    pub fn rows_with(&self, pos: usize, term: Term) -> &[u32] {
        match dict::lookup(term) {
            Some(code) => self.rows_with_code(pos, code),
            None => NO_ROWS,
        }
    }

    /// Row ids of tuples whose `pos`-th component holds `code` — the
    /// decode-free twin of [`Relation::rows_with`].
    pub fn rows_with_code(&self, pos: usize, code: u32) -> &[u32] {
        self.sidecars
            .get(pos)
            .and_then(|sidecar| sidecar.get(&code))
            .map(|rows| rows.as_slice())
            .unwrap_or(NO_ROWS)
    }

    /// Row ids matching a partial binding of codes: every `(pos, code)` pair
    /// in `bound` must hold.  Drives the scan off the sparsest bound
    /// sidecar and verifies the remaining positions against the columns;
    /// with no bindings, every row matches.  Row ids come back ascending.
    fn select_rows(&self, bound: &[(usize, u32)]) -> Vec<u32> {
        if bound.is_empty() {
            return (0..self.rows).collect();
        }
        let (drive_pos, drive_code) = bound
            .iter()
            .copied()
            .min_by_key(|(pos, code)| self.rows_with_code(*pos, *code).len())
            .expect("bound is non-empty");
        self.rows_with_code(drive_pos, drive_code)
            .iter()
            .copied()
            .filter(|&row| {
                bound
                    .iter()
                    .all(|(pos, code)| self.columns[*pos][row as usize] == *code)
            })
            .collect()
    }

    /// Iterates over the tuples matching a partial binding: every `(pos,
    /// term)` pair in `bound` must hold.  A bound term unknown to the
    /// dictionary matches nothing.
    pub fn select<'a>(
        &'a self,
        bound: &[(usize, Term)],
    ) -> Box<dyn Iterator<Item = Vec<Term>> + 'a> {
        let terms: Vec<Term> = bound.iter().map(|(_, term)| *term).collect();
        let Some(codes) = dict::lookup_row(&terms) else {
            return Box::new(std::iter::empty());
        };
        let bound: Vec<(usize, u32)> = bound.iter().map(|(pos, _)| *pos).zip(codes).collect();
        let rows = self.select_rows(&bound);
        Box::new(rows.into_iter().map(|row| self.decode_row(row as usize)))
    }

    /// Number of distinct terms occurring at position `pos` — exact, read
    /// straight off the sidecar's key count.
    pub fn distinct_at(&self, pos: usize) -> usize {
        self.sidecars
            .get(pos)
            .map(|sidecar| sidecar.len())
            .unwrap_or(0)
    }

    /// Builds a hash index over the projection of the relation onto
    /// `positions`: each key is the **code** tuple at those positions,
    /// mapped to the row ids sharing it.
    ///
    /// This is the building block for multi-column (join-key) indexes.  The
    /// single-column case is already maintained incrementally
    /// ([`Relation::rows_with_code`]); multi-column indexes are built on
    /// demand by this method and cached by the caller — `sac-engine` keeps
    /// them in an epoch-validated cache so a batch of queries builds each
    /// index at most once.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range for the relation's arity.
    pub fn project_index(&self, positions: &[usize]) -> FxHashMap<Vec<u32>, Vec<u32>> {
        assert!(
            positions.iter().all(|p| *p < self.arity),
            "projection position out of range for {}/{}",
            self.predicate,
            self.arity
        );
        let mut index: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
        let cols: Vec<&[u32]> = positions
            .iter()
            .map(|p| self.columns[*p].as_slice())
            .collect();
        for row in 0..self.rows {
            let key: Vec<u32> = cols.iter().map(|col| col[row as usize]).collect();
            index.entry(key).or_default().push(row);
        }
        index
    }

    /// Per-relation statistics: cardinality and distinct counts per column.
    pub fn stats(&self) -> RelationStats {
        RelationStats {
            predicate: self.predicate,
            arity: self.arity,
            tuples: self.len(),
            distinct_per_column: (0..self.arity).map(|p| self.distinct_at(p)).collect(),
        }
    }

    /// Estimated heap footprint: column buffers, the dedup table and the
    /// sidecar indexes (bucket overhead approximated; the global
    /// dictionary's share is reported separately by
    /// [`crate::dict::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        let u32s = std::mem::size_of::<u32>();
        let columns: usize = self.columns.iter().map(|c| c.capacity() * u32s).sum();
        let map_entry = std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>();
        let seen: usize = self.seen.capacity() * map_entry
            + self
                .seen
                .values()
                .map(|v| v.capacity() * u32s)
                .sum::<usize>();
        let sidecars: usize = self
            .sidecars
            .iter()
            .map(|sidecar| {
                sidecar.capacity() * map_entry
                    + sidecar.values().map(|v| v.capacity() * u32s).sum::<usize>()
            })
            .sum();
        columns + seen + sidecars
    }
}

/// What identifies a multi-column index: the relation and the key columns.
pub type IndexKey = (Symbol, Vec<usize>);

/// A hash index over the projection of one relation onto a set of columns:
/// key tuple → row ids sharing it, ascending.
///
/// Keys are rows of dictionary **codes**, so a search probes with the codes
/// it already carries — no term materialization per lookup.  The engine
/// caches these per instance; a one-off search over a small instance builds
/// the few it needs.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    positions: Vec<usize>,
    map: FxHashMap<Vec<u32>, Vec<u32>>,
    /// How many rows of the backing relation the index covers (relations are
    /// append-only, so `rows_covered..rel.len()` is exactly the new tail).
    rows_covered: usize,
}

impl JoinIndex {
    /// Indexes `rel` on `positions` (see [`Relation::project_index`]).
    pub fn build(rel: &Relation, positions: &[usize]) -> JoinIndex {
        JoinIndex {
            positions: positions.to_vec(),
            map: rel.project_index(positions),
            rows_covered: rel.len(),
        }
    }

    /// Appends the rows the backing relation gained since the index was
    /// built or last extended.  Row ids are pushed in ascending order, so the
    /// result is identical to a from-scratch [`Relation::project_index`].
    pub fn extend_from(&mut self, rel: &Relation) {
        for row in self.rows_covered..rel.len() {
            let key: Vec<u32> = self.positions.iter().map(|p| rel.column(*p)[row]).collect();
            self.map.entry(key).or_default().push(row as u32);
        }
        self.rows_covered = rel.len();
    }

    /// The indexed column positions, in key order.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Row ids whose projection onto the indexed columns equals the code
    /// tuple `key`.
    pub fn rows_codes(&self, key: &[u32]) -> &[u32] {
        self.map.get(key).map_or(NO_ROWS, |v| v.as_slice())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// How many rows of the backing relation the index covers.
    pub fn rows_covered(&self) -> usize {
        self.rows_covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::intern;

    fn rel() -> Relation {
        let mut r = Relation::new(intern("R"), 2);
        r.insert(vec![Term::constant("a"), Term::constant("b")]);
        r.insert(vec![Term::constant("a"), Term::constant("c")]);
        r.insert(vec![Term::constant("d"), Term::constant("b")]);
        r
    }

    fn code(name: &str) -> u32 {
        dict::encode(Term::constant(name))
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = rel();
        assert_eq!(r.len(), 3);
        assert!(!r.insert(vec![Term::constant("a"), Term::constant("b")]));
        assert_eq!(r.len(), 3);
        assert!(r.insert(vec![Term::constant("x"), Term::constant("y")]));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn contains_after_insert() {
        let r = rel();
        assert!(r.contains(&[Term::constant("a"), Term::constant("c")]));
        assert!(!r.contains(&[Term::constant("c"), Term::constant("a")]));
        assert!(!r.contains(&[
            Term::constant("never_encoded_term_xyz"),
            Term::constant("a")
        ]));
        assert!(
            !r.contains(&[Term::constant("a")]),
            "arity mismatch is absent"
        );
    }

    #[test]
    fn positional_index_finds_rows() {
        let r = rel();
        assert_eq!(r.rows_with(0, Term::constant("a")).len(), 2);
        assert_eq!(r.rows_with(1, Term::constant("b")).len(), 2);
        assert_eq!(r.rows_with(1, Term::constant("zzz")).len(), 0);
        assert_eq!(r.rows_with_code(0, code("a")), &[0, 1]);
    }

    #[test]
    fn columns_hold_the_codes_in_insertion_order() {
        let r = rel();
        assert_eq!(r.column(0), &[code("a"), code("a"), code("d")]);
        assert_eq!(r.column(1), &[code("b"), code("c"), code("b")]);
    }

    #[test]
    fn insert_codes_agrees_with_term_insert() {
        let mut r = Relation::new(intern("R"), 2);
        assert!(r.insert_codes(&[code("a"), code("b")]));
        assert!(!r.insert(vec![Term::constant("a"), Term::constant("b")]));
        assert!(r.contains_codes(&[code("a"), code("b")]));
        assert!(!r.contains_codes(&[code("b"), code("a")]));
        assert!(!r.contains_codes(&[code("a")]));
    }

    #[test]
    fn select_honours_all_bindings() {
        let r = rel();
        let hits: Vec<_> = r
            .select(&[(0, Term::constant("a")), (1, Term::constant("b"))])
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], vec![Term::constant("a"), Term::constant("b")]);
        let empty: Vec<_> = r
            .select(&[(0, Term::constant("d")), (1, Term::constant("c"))])
            .collect();
        assert!(empty.is_empty());
        let unknown: Vec<_> = r
            .select(&[(0, Term::constant("select_unknown_term"))])
            .collect();
        assert!(unknown.is_empty());
    }

    #[test]
    fn select_with_no_bindings_scans_everything() {
        let r = rel();
        assert_eq!(r.select(&[]).count(), 3);
        assert_eq!(r.select_rows(&[]), vec![0, 1, 2]);
    }

    #[test]
    fn distinct_counts() {
        let r = rel();
        assert_eq!(r.distinct_at(0), 2);
        assert_eq!(r.distinct_at(1), 2);
    }

    #[test]
    fn project_index_groups_rows_by_key() {
        let r = rel();
        let by_first = r.project_index(&[0]);
        assert_eq!(by_first.len(), 2);
        assert_eq!(by_first[&vec![code("a")]].len(), 2);
        let by_both = r.project_index(&[0, 1]);
        assert_eq!(by_both.len(), 3);
        // Reversed position order produces reversed keys.
        let reversed = r.project_index(&[1, 0]);
        assert!(reversed.contains_key(&vec![code("b"), code("a")]));
    }

    #[test]
    fn project_index_on_no_positions_groups_everything() {
        let r = rel();
        let all = r.project_index(&[]);
        assert_eq!(all.len(), 1);
        assert_eq!(all[&Vec::new()].len(), 3);
    }

    #[test]
    #[should_panic]
    fn project_index_rejects_out_of_range_positions() {
        rel().project_index(&[2]);
    }

    #[test]
    fn stats_report_distinct_counts_per_column() {
        let st = rel().stats();
        assert_eq!(st.tuples, 3);
        assert_eq!(st.arity, 2);
        assert_eq!(st.distinct_per_column, vec![2, 2]);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(intern("R"), 2);
        r.insert(vec![Term::constant("a")]);
    }

    #[test]
    fn zero_arity_relations_hold_at_most_one_tuple() {
        let mut r = Relation::new(intern("P"), 0);
        assert!(r.is_empty());
        assert!(r.insert(Vec::new()));
        assert!(!r.insert(Vec::new()));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![Vec::<Term>::new()]);
    }

    #[test]
    fn rows_decode_back_to_their_terms() {
        let r = rel();
        assert_eq!(
            r.row(2),
            Some(vec![Term::constant("d"), Term::constant("b")])
        );
        assert_eq!(r.row(3), None);
        let all: Vec<_> = r.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], vec![Term::constant("a"), Term::constant("b")]);
    }

    #[test]
    fn find_row_returns_stable_insertion_order_ids() {
        let mut r = Relation::new(intern("FR"), 2);
        let t0 = vec![Term::constant("a"), Term::constant("b")];
        let t1 = vec![Term::constant("b"), Term::constant("c")];
        assert!(r.insert(t0.clone()));
        assert!(r.insert(t1.clone()));
        assert_eq!(r.find_row(&t0), Some(0));
        assert_eq!(r.find_row(&t1), Some(1));
        // Appends never move existing rows.
        r.insert(vec![Term::constant("c"), Term::constant("d")]);
        assert_eq!(r.find_row(&t0), Some(0));
        // Absent tuples, wrong arities and never-encoded terms miss cleanly.
        assert_eq!(
            r.find_row(&[Term::constant("a"), Term::constant("z")]),
            None
        );
        assert_eq!(r.find_row(&[Term::constant("a")]), None);
        assert_eq!(
            r.find_row(&[
                Term::constant("never-encoded-anywhere"),
                Term::constant("b"),
            ]),
            None
        );
    }

    #[test]
    fn heap_bytes_grows_with_the_relation() {
        let mut r = Relation::new(intern("HB"), 2);
        let empty = r.heap_bytes();
        for i in 0..100 {
            r.insert(vec![
                Term::constant(&format!("hb{i}")),
                Term::constant(&format!("hb{}", i / 2)),
            ]);
        }
        assert!(r.heap_bytes() > empty);
        // Flat columns: at least 2 columns x 100 rows x 4 bytes of data.
        assert!(r.heap_bytes() >= 800);
    }
}
