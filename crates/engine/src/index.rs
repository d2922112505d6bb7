//! Lazily built, epoch-validated join-key indexes over an [`Instance`].
//!
//! `sac-storage` maintains single-column positional indexes incrementally on
//! every insert.  Multi-column (join-key) indexes are too numerous to build
//! eagerly — which column sets matter depends on the queries — so the engine
//! builds [`JoinIndex`]es **on demand** and caches them here, keyed by
//! `(predicate, column set)`.  Join indexes are all the cache holds.
//!
//! Staleness is tracked with the instance's mutation [`Instance::epoch`]:
//! the cache remembers the epoch it was built against, and
//! [`IndexCache::note_growth`] lets the owner (the [`crate::Database`], which
//! routes every mutation) advance the epoch while **incrementally extending**
//! every cached index with its relation's appended rows —
//! relations only ever grow, and they grow at the tail, so untouched
//! predicates are an O(1) no-op and a single fact append is a handful of
//! hash inserts instead of a full rebuild.  Nothing is dropped, the whole
//! cache stays warm, and the catch-up covers even growth the owner forgot
//! to announce earlier.  If the cache observes an unannounced epoch through
//! [`IndexCache::ensure`], it still clears itself entirely — correctness
//! never depends on the owner's diligence.
//!
//! Indexes are stored behind [`Arc`] so the concurrent [`crate::Database`]
//! can hand an executing query a cheap snapshot of exactly what its plan
//! needs — a vector aligned with the plan's index-key list, so the executor
//! reaches an index by slot — and the run never touches the cache (no lock
//! held), while later incremental updates copy-on-write (`Arc::make_mut`)
//! and leave in-flight snapshots intact.

use sac_common::Symbol;
use sac_storage::{IndexKey, Instance, JoinIndex};
use std::collections::HashMap;
use std::sync::Arc;

/// An epoch-validated cache of [`JoinIndex`]es for one instance.
#[derive(Debug, Default)]
pub struct IndexCache {
    epoch: u64,
    indexes: HashMap<IndexKey, Arc<JoinIndex>>,
    built: usize,
}

impl IndexCache {
    /// Creates an empty cache synchronized with `db`'s current epoch.
    pub fn new(db: &Instance) -> IndexCache {
        IndexCache {
            epoch: db.epoch(),
            ..IndexCache::default()
        }
    }

    /// Number of indexes currently cached.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Whether the cache holds no indexes.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Total number of indexes built over the cache's lifetime (cache
    /// misses; incremental extensions are not builds).
    pub fn built(&self) -> usize {
        self.built
    }

    /// Resets the lifetime build counter (the cached indexes stay).
    pub fn reset_built(&mut self) {
        self.built = 0;
    }

    /// Records that `db` grew (one or more [`Instance::insert`]s that
    /// returned `true`): **every** cached index is extended in place with
    /// its relation's appended rows — an idempotent
    /// no-op for predicates whose `rows_covered` already matches, a few
    /// hash inserts for the ones that grew.  Nothing is invalidated,
    /// nothing needs rebuilding, and because no caller bookkeeping of
    /// *which* predicates changed is involved, an earlier unannounced
    /// mutation can never be masked: this call catches every structure up
    /// to the current data.  Structures shared with an in-flight snapshot
    /// are copied on write, so running queries keep their consistent view.
    pub fn note_growth(&mut self, db: &Instance) {
        // A vanished relation cannot happen through `Database`, which only
        // inserts — but drop its derived structures rather than serve stale
        // rows if a direct caller ever swaps the instance out from under us.
        self.indexes.retain(|(p, _), _| db.relation(*p).is_some());
        for ((p, _), index) in self.indexes.iter_mut() {
            let rel = db.relation(*p).expect("retained above");
            // Only touch grown structures: `Arc::make_mut` would clone a
            // snapshot-shared index even when there is nothing to append.
            if index.rows_covered() < rel.len() {
                Arc::make_mut(index).extend_from(rel);
            }
        }
        self.epoch = db.epoch();
    }

    /// Drops every cached index and resynchronizes with `db`'s epoch.
    pub fn invalidate_all(&mut self, db: &Instance) {
        self.indexes.clear();
        self.epoch = db.epoch();
    }

    fn check_epoch(&mut self, db: &Instance) {
        if db.epoch() != self.epoch {
            // Unannounced mutation: discard everything rather than risk
            // serving stale rows.
            self.invalidate_all(db);
        }
    }

    /// Ensures the index for `(predicate, positions)` exists and is current,
    /// building it from `db` if needed.  Returns `false` when `db` has no
    /// relation for `predicate` (nothing to index).
    pub fn ensure(&mut self, db: &Instance, predicate: Symbol, positions: &[usize]) -> bool {
        self.ensured(db, predicate, positions).is_some()
    }

    fn ensured(
        &mut self,
        db: &Instance,
        predicate: Symbol,
        positions: &[usize],
    ) -> Option<&Arc<JoinIndex>> {
        self.check_epoch(db);
        let rel = db.relation(predicate)?;
        if positions.iter().any(|p| *p >= rel.arity()) {
            return None;
        }
        let built = &mut self.built;
        let index = self
            .indexes
            .entry((predicate, positions.to_vec()))
            .or_insert_with(|| {
                *built += 1;
                Arc::new(JoinIndex::build(rel, positions))
            });
        Some(index)
    }

    /// The cached index for `(predicate, positions)`, if [`IndexCache::ensure`]
    /// built one.
    pub fn get(&self, predicate: Symbol, positions: &[usize]) -> Option<&JoinIndex> {
        self.indexes
            .get(&(predicate, positions.to_vec()))
            .map(|arc| &**arc)
    }

    /// Ensures every index in `keys` and returns an immutable snapshot
    /// aligned with it: slot `i` holds the index for `keys[i]`.  A slot is
    /// `None` only when the key cannot be built — no relation for the
    /// predicate, or a key position past its arity — and the executor
    /// returns before probing in exactly those cases (an atom over a
    /// missing relation, or one of the wrong arity, matches nothing).
    pub(crate) fn snapshot(
        &mut self,
        db: &Instance,
        keys: &[IndexKey],
    ) -> Vec<Option<Arc<JoinIndex>>> {
        keys.iter()
            .map(|(predicate, positions)| self.ensured(db, *predicate, positions).cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern, Term};
    use sac_storage::dict;

    /// The rows of `index` under the constants `key`; a constant the
    /// dictionary has never seen occurs in no row.
    fn rows<'a>(index: &'a JoinIndex, key: &[&str]) -> &'a [u32] {
        let codes = key.iter().map(|c| dict::lookup(Term::constant(c)));
        match codes.collect::<Option<Vec<u32>>>() {
            Some(codes) => index.rows_codes(&codes),
            None => &[],
        }
    }

    fn db() -> Instance {
        Instance::from_atoms(vec![
            atom!("R", cst "a", cst "b"),
            atom!("R", cst "a", cst "c"),
            atom!("R", cst "d", cst "b"),
            atom!("S", cst "a"),
        ])
        .unwrap()
    }

    #[test]
    fn ensure_builds_once_and_serves_lookups() {
        let db = db();
        let mut cache = IndexCache::new(&db);
        assert!(cache.ensure(&db, intern("R"), &[0]));
        assert!(cache.ensure(&db, intern("R"), &[0]));
        assert_eq!(cache.built(), 1);
        let idx = cache.get(intern("R"), &[0]).unwrap();
        assert_eq!(rows(idx, &["a"]).len(), 2);
        assert_eq!(rows(idx, &["zzz"]).len(), 0);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.rows_covered(), 3);
    }

    #[test]
    fn missing_predicate_or_bad_positions_are_rejected() {
        let db = db();
        let mut cache = IndexCache::new(&db);
        assert!(!cache.ensure(&db, intern("Missing"), &[0]));
        assert!(!cache.ensure(&db, intern("S"), &[1]));
        assert!(cache.is_empty());
    }

    #[test]
    fn announced_inserts_extend_indexes_in_place() {
        let mut db = db();
        let mut cache = IndexCache::new(&db);
        cache.ensure(&db, intern("R"), &[0]);
        cache.ensure(&db, intern("S"), &[0]);
        assert_eq!(cache.len(), 2);

        assert!(db.insert(atom!("R", cst "e", cst "f")).unwrap());
        cache.note_growth(&db);
        assert_eq!(cache.len(), 2, "nothing is dropped");
        assert_eq!(cache.built(), 2, "no rebuild happened");

        // The extended index serves the new row without a rebuild.
        let idx = cache.get(intern("R"), &[0]).unwrap();
        assert_eq!(rows(idx, &["e"]), &[3]);
        assert_eq!(idx.rows_covered(), 4);
        // The untouched predicate's index is untouched.
        assert!(cache.get(intern("S"), &[0]).is_some());
    }

    #[test]
    fn incremental_extension_matches_a_from_scratch_build() {
        let mut db = db();
        let mut cache = IndexCache::new(&db);
        cache.ensure(&db, intern("R"), &[0, 1]);
        for (x, y) in [("e", "f"), ("a", "z"), ("e", "f")] {
            db.insert(sac_common::Atom::from_parts(
                "R",
                vec![Term::constant(x), Term::constant(y)],
            ))
            .unwrap();
            cache.note_growth(&db);
        }
        let mut fresh = IndexCache::new(&db);
        fresh.ensure(&db, intern("R"), &[0, 1]);
        let incremental = cache.get(intern("R"), &[0, 1]).unwrap();
        let rebuilt = fresh.get(intern("R"), &[0, 1]).unwrap();
        assert_eq!(incremental.distinct_keys(), rebuilt.distinct_keys());
        let rel = db.relation(intern("R")).unwrap();
        for row in 0..rel.len() {
            let key = [rel.column(0)[row], rel.column(1)[row]];
            assert_eq!(incremental.rows_codes(&key), rebuilt.rows_codes(&key));
        }
    }

    #[test]
    fn note_growth_catches_up_earlier_unannounced_growth() {
        // Regression: growth that was never announced must not be masked by
        // a later announcement about a *different* predicate — note_growth
        // catches every cached structure up, not just the caller's hint.
        let mut db = db();
        let mut cache = IndexCache::new(&db);
        cache.ensure(&db, intern("R"), &[0]);
        // Unannounced R growth…
        assert!(db.insert(atom!("R", cst "u", cst "v")).unwrap());
        // …followed by an announcement prompted by an S insert.
        assert!(db.insert(atom!("S", cst "u")).unwrap());
        cache.note_growth(&db);
        let idx = cache.get(intern("R"), &[0]).unwrap();
        assert_eq!(rows(idx, &["u"]), &[3]);
        assert_eq!(idx.rows_covered(), 4);
        // The cache is fully synchronized: ensure keeps it warm.
        assert!(cache.ensure(&db, intern("R"), &[0]));
        assert_eq!(cache.built(), 1, "no rebuild was needed");
    }

    #[test]
    fn unannounced_mutations_clear_the_whole_cache() {
        let mut db = db();
        let mut cache = IndexCache::new(&db);
        cache.ensure(&db, intern("R"), &[0]);
        cache.ensure(&db, intern("S"), &[0]);
        // Mutate without telling the cache; the next ensure detects the epoch
        // mismatch and starts from scratch.
        assert!(db.insert(atom!("T", cst "x")).unwrap());
        assert!(cache.ensure(&db, intern("T"), &[0]));
        assert_eq!(cache.len(), 1);
        let idx = cache.get(intern("T"), &[0]).unwrap();
        assert_eq!(rows(idx, &["x"]).len(), 1);
    }

    #[test]
    fn multi_column_keys_join_on_full_tuples() {
        let db = db();
        let mut cache = IndexCache::new(&db);
        cache.ensure(&db, intern("R"), &[0, 1]);
        let idx = cache.get(intern("R"), &[0, 1]).unwrap();
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(rows(idx, &["a", "c"]).len(), 1);
    }

    #[test]
    fn snapshots_keep_their_view_across_incremental_updates() {
        let mut db = db();
        let mut cache = IndexCache::new(&db);
        let needed = vec![(intern("R"), vec![0usize, 1]), (intern("Missing"), vec![0])];
        let snapshot = cache.snapshot(&db, &needed);
        assert!(snapshot[1].is_none(), "unbuildable slots stay empty");
        // Extend the cache: the snapshot's Arc forces copy-on-write, so the
        // in-flight view stays pinned at the old rows while the cache serves
        // the new ones.
        assert!(db.insert(atom!("R", cst "z", cst "z")).unwrap());
        cache.note_growth(&db);
        let old = snapshot[0].as_ref().unwrap();
        assert_eq!(rows(old, &["z", "z"]), &[]);
        assert_eq!(old.rows_covered(), 3);
        let new = cache.get(intern("R"), &[0, 1]).unwrap();
        assert_eq!(rows(new, &["z", "z"]), &[3]);
    }

    #[test]
    fn built_counters_reset_independently_of_contents() {
        let db = db();
        let mut cache = IndexCache::new(&db);
        cache.ensure(&db, intern("R"), &[0]);
        assert_eq!(cache.built(), 1);
        cache.reset_built();
        assert_eq!(cache.built(), 0);
        assert_eq!(cache.len(), 1, "indexes stay cached");
    }
}
