//! Instances: finite collections of ground-ish atoms grouped by predicate.

use crate::relation::Relation;
use crate::stats::InstanceStats;
use sac_common::{Atom, SacError, SacResult, Schema, Symbol, Term};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A finite instance: a set of atoms over constants and labelled nulls.
///
/// The paper distinguishes instances (possibly infinite) from databases
/// (finite).  `Instance` is the materialized, finite object; the chase
/// engine's budgets guarantee we only ever hold finite prefixes of possibly
/// infinite chase results.
///
/// Atoms containing variables are accepted as well — this is deliberate:
/// frozen queries ("canonical databases") are represented by mapping each
/// variable to a fresh constant at the query layer, but a few internal
/// constructions (notably the cover game, which plays directly on query
/// atoms) find it convenient to store variable atoms.  Use
/// [`Instance::is_ground`] when groundness matters.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    relations: HashMap<Symbol, Relation>,
    /// Predicates in first-insertion order, for deterministic iteration.
    order: Vec<Symbol>,
    size: usize,
    /// Mutation counter: incremented exactly when an insert actually adds a
    /// new atom.  Derived structures (e.g. the `sac-engine` index cache) use
    /// it to detect staleness without hashing the whole instance.
    epoch: u64,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from an iterator of atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> SacResult<Instance> {
        let mut inst = Instance::new();
        for atom in atoms {
            inst.insert(atom)?;
        }
        Ok(inst)
    }

    /// Inserts an atom.  Returns `Ok(true)` if the atom was new, `Ok(false)`
    /// if it was already present, and an error if the predicate was already
    /// used with a different arity.
    pub fn insert(&mut self, atom: Atom) -> SacResult<bool> {
        let arity = atom.arity();
        let rel = match self.relations.get_mut(&atom.predicate) {
            Some(rel) => {
                if rel.arity() != arity {
                    return Err(SacError::ArityMismatch {
                        predicate: atom.predicate.as_str(),
                        expected: rel.arity(),
                        found: arity,
                    });
                }
                rel
            }
            None => {
                self.order.push(atom.predicate);
                self.relations
                    .entry(atom.predicate)
                    .or_insert_with(|| Relation::new(atom.predicate, arity))
            }
        };
        let inserted = rel.insert(atom.args);
        if inserted {
            self.size += 1;
            self.epoch += 1;
        }
        Ok(inserted)
    }

    /// The mutation epoch: starts at 0 and increments on every insert that
    /// actually added a new atom (duplicate inserts leave it unchanged).
    ///
    /// Callers that cache per-relation derived structures can combine the
    /// epoch with [`Instance::insert`]'s return value to invalidate precisely:
    /// an unchanged epoch guarantees every cached index is still valid, and a
    /// `true` insert result pinpoints the single predicate whose indexes went
    /// stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Membership test.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.relations
            .get(&atom.predicate)
            .is_some_and(|rel| rel.arity() == atom.arity() && rel.contains(&atom.args))
    }

    /// Total number of atoms.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the instance holds no atoms.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The relation for `predicate`, if any tuples were inserted for it.
    pub fn relation(&self, predicate: Symbol) -> Option<&Relation> {
        self.relations.get(&predicate)
    }

    /// Predicates present in the instance, in first-insertion order.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.order.iter().copied()
    }

    /// Iterates over every atom of the instance (deterministic order).
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        self.order.iter().flat_map(move |p| {
            let rel = &self.relations[p];
            rel.iter().map(move |tuple| Atom::new(*p, tuple))
        })
    }

    /// Collects every atom into a vector.
    pub fn to_atoms(&self) -> Vec<Atom> {
        self.atoms().collect()
    }

    /// The set of all terms occurring in the instance (the *active domain*).
    pub fn active_domain(&self) -> BTreeSet<Term> {
        self.atoms()
            .flat_map(|a| a.terms().into_iter().collect::<Vec<_>>())
            .collect()
    }

    /// The largest null label occurring in the instance, if any.
    pub fn max_null_label(&self) -> Option<u64> {
        self.atoms()
            .flat_map(|a| a.nulls().into_iter().collect::<Vec<_>>())
            .max()
    }

    /// Whether every atom is ground (no variables).
    pub fn is_ground(&self) -> bool {
        self.atoms().all(|a| a.is_ground())
    }

    /// The schema induced by the stored atoms.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for (p, rel) in self.order.iter().map(|p| (*p, &self.relations[p])) {
            s.add_predicate(p, rel.arity());
        }
        s
    }

    /// Summary statistics, used by the experiment reports and the
    /// `sac-engine` planner (per-column distinct counts drive atom ordering).
    pub fn stats(&self) -> InstanceStats {
        InstanceStats {
            atoms: self.len(),
            predicates: self.order.len(),
            domain_size: self.active_domain().len(),
            nulls: self.active_domain().iter().filter(|t| t.is_null()).count(),
            max_arity: self
                .relations
                .values()
                .map(|r| r.arity())
                .max()
                .unwrap_or(0),
            dict_len: crate::dict::len(),
            dict_bytes: crate::dict::heap_bytes(),
            relations: self
                .order
                .iter()
                .map(|p| self.relations[p].stats())
                .collect(),
        }
    }

    /// Estimated heap footprint of the instance's storage: the per-relation
    /// column buffers, dedup tables and sidecar indexes, plus the global
    /// term dictionary ([`crate::dict::heap_bytes`]).  The dictionary is
    /// process-wide and shared by every instance, so summing `heap_bytes`
    /// over several instances double-counts its share; the number is an
    /// estimate for capacity planning and benchmark reports, not an exact
    /// allocator measurement.
    pub fn heap_bytes(&self) -> usize {
        let relations: usize = self.relations.values().map(|r| r.heap_bytes()).sum();
        relations + crate::dict::heap_bytes()
    }

    /// Applies a term-level renaming to every atom, producing a new instance.
    /// Used by the egd chase to identify nulls.
    pub fn rename(&self, mut f: impl FnMut(Term) -> Term) -> Instance {
        let mut out = Instance::new();
        for atom in self.atoms() {
            out.insert(atom.map_args(&mut f))
                .expect("renaming preserves arities");
        }
        out
    }

    /// A [`DeltaCursor`] marking the instance's current position in its
    /// append-only growth: the mutation epoch plus one row watermark per
    /// relation.  Pair with [`Instance::delta_since`] to read exactly the
    /// facts appended after this point.
    pub fn delta_cursor(&self) -> DeltaCursor {
        DeltaCursor {
            epoch: self.epoch,
            rows: self
                .order
                .iter()
                .map(|p| (*p, self.relations[p].len()))
                .collect(),
        }
    }

    /// The per-relation delta logs since `cursor`: for every relation that
    /// grew past its watermark, a [`RelationDelta`] exposing exactly the
    /// appended tail (relations are append-only, so the tail *is* the
    /// delta).  Relations unknown to the cursor report their full contents.
    ///
    /// The cursor must come from this instance's own growth history
    /// (inserts only — [`Instance::rename`] builds a fresh instance and
    /// starts a fresh history).  A cursor from an unrelated instance maps
    /// watermarks onto rows they never described, and the "delta" is
    /// garbage.
    pub fn delta_since<'a>(&'a self, cursor: &DeltaCursor) -> Vec<RelationDelta<'a>> {
        self.order
            .iter()
            .filter_map(|p| {
                let rel = &self.relations[p];
                let from_row = cursor.rows_covered(*p);
                (from_row < rel.len()).then_some(RelationDelta {
                    predicate: *p,
                    relation: rel,
                    from_row,
                })
            })
            .collect()
    }

    /// Merges all atoms of `other` into `self`.
    pub fn extend_from(&mut self, other: &Instance) -> SacResult<usize> {
        let mut added = 0;
        for atom in other.atoms() {
            if self.insert(atom)? {
                added += 1;
            }
        }
        Ok(added)
    }
}

/// A position in an instance's append-only growth: the mutation
/// [`Instance::epoch`] plus a row watermark per relation.
///
/// Taken with [`Instance::delta_cursor`] and consumed by
/// [`Instance::delta_since`]; the `sac-engine` materialized views use one
/// cursor per view to turn "what changed since my last refresh?" into a
/// handful of tail reads instead of a diff.  [`DeltaCursor::default`] sits
/// before all growth: `delta_since(&DeltaCursor::default())` is the whole
/// instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaCursor {
    epoch: u64,
    rows: HashMap<Symbol, usize>,
}

impl DeltaCursor {
    /// The epoch the cursor was taken at (0 for the default cursor).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The watermark for `predicate`: how many of its rows the cursor
    /// covers (0 for relations the cursor never saw).
    pub fn rows_covered(&self, predicate: Symbol) -> usize {
        self.rows.get(&predicate).copied().unwrap_or(0)
    }
}

/// One relation's delta log: the tuples a relation gained since a
/// [`DeltaCursor`] was taken (see [`Instance::delta_since`]).
#[derive(Debug, Clone, Copy)]
pub struct RelationDelta<'a> {
    /// The grown relation's predicate.
    pub predicate: Symbol,
    /// The full relation the delta is a tail of (so callers can probe its
    /// indexes and stats as well as read the new rows).
    pub relation: &'a Relation,
    /// The first appended row: `relation.row(from_row..)` is the delta.
    pub from_row: usize,
}

impl RelationDelta<'_> {
    /// Number of appended tuples.
    pub fn len(&self) -> usize {
        self.relation.len() - self.from_row
    }

    /// Whether the delta is empty (never true for deltas returned by
    /// [`Instance::delta_since`], which skips ungrown relations).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over exactly the appended tuples, in insertion order
    /// (decoded from the relation's columns).
    pub fn rows(&self) -> impl Iterator<Item = Vec<Term>> + '_ {
        self.relation.rows_from(self.from_row)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for atom in self.atoms() {
            writeln!(f, "  {atom}")?;
        }
        write!(f, "}}")
    }
}

/// Parses a database: a list of ground facts `Pred(c, …, c).` (see
/// [`sac_common::syntax`]), so `"E(a, b). E(b, c).".parse::<Instance>()`
/// works anywhere without going through `sac::parser`.
impl std::str::FromStr for Instance {
    type Err = SacError;

    fn from_str(s: &str) -> SacResult<Instance> {
        let mut instance = Instance::new();
        for statement in sac_common::syntax::parse_statements(s)? {
            match statement {
                sac_common::RawStatement::Fact(atom) if atom.is_ground() => {
                    instance.insert(atom)?;
                }
                sac_common::RawStatement::Fact(atom) => {
                    return Err(SacError::invalid(format!(
                        "facts must be ground (constants only), found `{atom}`"
                    )))
                }
                other => {
                    return Err(SacError::invalid(format!(
                        "databases contain only facts, found a {}",
                        other.kind()
                    )))
                }
            }
        }
        Ok(instance)
    }
}

impl FromIterator<Atom> for Instance {
    /// Panics on arity conflicts; use [`Instance::from_atoms`] for the
    /// fallible variant.
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Instance {
        Instance::from_atoms(iter).expect("conflicting arities while collecting instance")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    fn sample() -> Instance {
        Instance::from_atoms(vec![
            atom!("R", cst "a", cst "b"),
            atom!("R", cst "b", cst "c"),
            atom!("S", cst "a"),
        ])
        .unwrap()
    }

    #[test]
    fn from_str_parses_ground_facts_only() {
        let inst: Instance = "R(a, b). R(b, c). S(a).".parse().unwrap();
        assert_eq!(inst.len(), 3);
        assert!(inst.contains(&atom!("R", cst "a", cst "b")));
        assert!("R(X).".parse::<Instance>().is_err()); // non-ground
        assert!("R(a) -> S(a).".parse::<Instance>().is_err()); // tgd
        assert!("R(a). R(a, b).".parse::<Instance>().is_err()); // arity clash
    }

    #[test]
    fn insert_and_contains() {
        let inst = sample();
        assert_eq!(inst.len(), 3);
        assert!(inst.contains(&atom!("R", cst "a", cst "b")));
        assert!(!inst.contains(&atom!("R", cst "c", cst "a")));
        assert!(!inst.contains(&atom!("T", cst "a")));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut inst = sample();
        assert!(!inst.insert(atom!("S", cst "a")).unwrap());
        assert_eq!(inst.len(), 3);
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let mut inst = sample();
        assert!(inst.insert(atom!("R", cst "a")).is_err());
    }

    #[test]
    fn atoms_round_trip() {
        let inst = sample();
        let atoms = inst.to_atoms();
        assert_eq!(atoms.len(), 3);
        let rebuilt = Instance::from_atoms(atoms).unwrap();
        assert_eq!(rebuilt.len(), inst.len());
        for a in inst.atoms() {
            assert!(rebuilt.contains(&a));
        }
    }

    #[test]
    fn active_domain_and_nulls() {
        let mut inst = sample();
        inst.insert(atom!("S", null 7)).unwrap();
        let dom = inst.active_domain();
        assert_eq!(dom.len(), 4); // a, b, c, null 7
        assert_eq!(inst.max_null_label(), Some(7));
        assert!(inst.is_ground());
    }

    #[test]
    fn groundness_detects_variables() {
        let mut inst = sample();
        inst.insert(atom!("S", var "x")).unwrap();
        assert!(!inst.is_ground());
    }

    #[test]
    fn schema_reflects_contents() {
        let inst = sample();
        let schema = inst.schema();
        assert_eq!(schema.arity_of(intern("R")), Some(2));
        assert_eq!(schema.arity_of(intern("S")), Some(1));
    }

    #[test]
    fn rename_substitutes_terms() {
        let inst = sample();
        let renamed = inst.rename(|t| {
            if t == Term::constant("a") {
                Term::constant("z")
            } else {
                t
            }
        });
        assert!(renamed.contains(&atom!("R", cst "z", cst "b")));
        assert!(renamed.contains(&atom!("S", cst "z")));
        assert!(!renamed.contains(&atom!("S", cst "a")));
    }

    #[test]
    fn rename_can_merge_atoms() {
        // Renaming b ↦ c merges R(a,b) and R(a,c) if both existed; here it
        // merges R(b,c) into R(c,c) and the size may shrink.
        let mut inst = Instance::new();
        inst.insert(atom!("R", cst "a", cst "b")).unwrap();
        inst.insert(atom!("R", cst "a", cst "c")).unwrap();
        let renamed = inst.rename(|t| {
            if t == Term::constant("b") {
                Term::constant("c")
            } else {
                t
            }
        });
        assert_eq!(renamed.len(), 1);
    }

    #[test]
    fn extend_from_counts_new_atoms() {
        let mut inst = sample();
        let other = Instance::from_atoms(vec![atom!("S", cst "a"), atom!("S", cst "b")]).unwrap();
        let added = inst.extend_from(&other).unwrap();
        assert_eq!(added, 1);
        assert_eq!(inst.len(), 4);
    }

    #[test]
    fn stats_summarize() {
        let inst = sample();
        let st = inst.stats();
        assert_eq!(st.atoms, 3);
        assert_eq!(st.predicates, 2);
        assert_eq!(st.domain_size, 3);
        assert_eq!(st.max_arity, 2);
        assert_eq!(st.nulls, 0);
        assert_eq!(st.relations.len(), 2);
        let r = st.relation(intern("R")).unwrap();
        assert_eq!(r.tuples, 2);
        assert_eq!(r.distinct_per_column, vec![2, 2]);
    }

    #[test]
    fn delta_cursor_reads_exactly_the_appended_tail() {
        let mut inst = sample();
        let cursor = inst.delta_cursor();
        assert_eq!(cursor.epoch(), inst.epoch());
        assert_eq!(cursor.rows_covered(intern("R")), 2);
        assert!(inst.delta_since(&cursor).is_empty(), "no growth yet");

        // Duplicate inserts are not growth.
        assert!(!inst.insert(atom!("S", cst "a")).unwrap());
        assert!(inst.delta_since(&cursor).is_empty());

        // Grow R by one, S by one, and introduce a new predicate T.
        assert!(inst.insert(atom!("R", cst "c", cst "d")).unwrap());
        assert!(inst.insert(atom!("S", cst "b")).unwrap());
        assert!(inst.insert(atom!("T", cst "t")).unwrap());
        let deltas = inst.delta_since(&cursor);
        assert_eq!(deltas.len(), 3);
        let r = deltas.iter().find(|d| d.predicate == intern("R")).unwrap();
        assert_eq!((r.from_row, r.len()), (2, 1));
        assert_eq!(
            r.rows().collect::<Vec<_>>(),
            vec![vec![Term::constant("c"), Term::constant("d")]]
        );
        // The unseen predicate's delta is its whole relation.
        let t = deltas.iter().find(|d| d.predicate == intern("T")).unwrap();
        assert_eq!((t.from_row, t.len()), (0, 1));
        assert!(!t.is_empty());

        // Advancing the cursor drains the delta.
        let cursor = inst.delta_cursor();
        assert!(inst.delta_since(&cursor).is_empty());
    }

    #[test]
    fn cursor_on_an_empty_instance_sees_all_later_growth() {
        // The WAL recovery path takes its first cursor before any insert —
        // an empty instance must hand out a cursor that later reports the
        // entire contents as delta.
        let mut inst = Instance::new();
        let cursor = inst.delta_cursor();
        assert_eq!(cursor.epoch(), 0);
        assert!(inst.delta_since(&cursor).is_empty());

        assert!(inst.insert(atom!("R", cst "a", cst "b")).unwrap());
        assert!(inst.insert(atom!("S", cst "a")).unwrap());
        let deltas = inst.delta_since(&cursor);
        assert_eq!(deltas.len(), 2);
        let total: usize = deltas.iter().map(|d| d.len()).sum();
        assert_eq!(
            total,
            inst.len(),
            "everything after an empty cursor is delta"
        );
        for delta in &deltas {
            assert_eq!(delta.from_row, 0);
        }
    }

    #[test]
    fn cursor_spans_relations_created_after_it() {
        // A WAL append batch may introduce a brand-new predicate; the
        // durability hook's pre-insert cursor must report the new
        // relation's full contents, watermark 0, even across repeated
        // growth of that relation.
        let mut inst = sample();
        let cursor = inst.delta_cursor();
        assert_eq!(
            cursor.rows_covered(intern("Later")),
            0,
            "never-seen predicate"
        );

        assert!(inst.insert(atom!("Later", cst "x")).unwrap());
        assert!(inst.insert(atom!("Later", cst "y")).unwrap());
        let deltas = inst.delta_since(&cursor);
        assert_eq!(deltas.len(), 1);
        assert_eq!((deltas[0].from_row, deltas[0].len()), (0, 2));

        // A fresh cursor taken *between* the new relation's rows covers
        // only the prefix it saw.
        let mid = inst.delta_cursor();
        assert_eq!(mid.rows_covered(intern("Later")), 2);
        assert!(inst.insert(atom!("Later", cst "z")).unwrap());
        let deltas = inst.delta_since(&mid);
        assert_eq!(deltas.len(), 1);
        assert_eq!((deltas[0].from_row, deltas[0].len()), (2, 1));
    }

    #[test]
    fn delta_since_spans_checkpoint_style_boundaries() {
        // Recovery interleaves checkpoints with appends: a cursor taken
        // before a snapshot boundary keeps describing growth correctly
        // after it, because relations are append-only and a checkpoint
        // reads — never rewrites — the instance.
        let mut inst = sample();
        let before = inst.delta_cursor();
        assert!(inst.insert(atom!("R", cst "c", cst "d")).unwrap());

        // "Checkpoint": a full read pass over the instance (what snapshot
        // dumping does), which must not disturb the growth history.
        let dumped: Vec<_> = inst.atoms().collect();
        assert_eq!(dumped.len(), inst.len());

        assert!(inst.insert(atom!("R", cst "d", cst "e")).unwrap());
        let deltas = inst.delta_since(&before);
        assert_eq!(deltas.len(), 1);
        let r = &deltas[0];
        assert_eq!((r.from_row, r.len()), (2, 2), "both sides of the boundary");
        // A cursor taken at the boundary sees only the post-boundary row.
        let at_boundary_rows = r.relation.rows_from(3).collect::<Vec<_>>();
        assert_eq!(
            at_boundary_rows,
            vec![vec![Term::constant("d"), Term::constant("e")]]
        );
    }

    #[test]
    fn default_cursor_covers_the_whole_instance() {
        let inst = sample();
        let deltas = inst.delta_since(&DeltaCursor::default());
        let total: usize = deltas.iter().map(|d| d.len()).sum();
        assert_eq!(total, inst.len());
        assert_eq!(DeltaCursor::default().epoch(), 0);
        assert_eq!(DeltaCursor::default().rows_covered(intern("R")), 0);
    }

    #[test]
    fn relation_rows_from_is_the_tail() {
        let inst = sample();
        let rel = inst.relation(intern("R")).unwrap();
        assert_eq!(rel.rows_from(0).count(), 2);
        assert_eq!(rel.rows_from(1).count(), 1);
        assert_eq!(rel.rows_from(2).count(), 0);
        assert_eq!(rel.rows_from(99).count(), 0, "past-the-end is empty");
    }

    #[test]
    fn epoch_counts_only_real_insertions() {
        let mut inst = Instance::new();
        assert_eq!(inst.epoch(), 0);
        assert!(inst.insert(atom!("R", cst "a", cst "b")).unwrap());
        assert_eq!(inst.epoch(), 1);
        // Duplicate insert: reported as not-new, epoch unchanged.
        assert!(!inst.insert(atom!("R", cst "a", cst "b")).unwrap());
        assert_eq!(inst.epoch(), 1);
        assert!(inst.insert(atom!("S", cst "a")).unwrap());
        assert_eq!(inst.epoch(), 2);
        // Failed inserts (arity conflict) leave the epoch unchanged.
        assert!(inst.insert(atom!("S", cst "a", cst "b")).is_err());
        assert_eq!(inst.epoch(), 2);
    }
}
