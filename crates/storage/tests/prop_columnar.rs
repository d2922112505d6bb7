//! Model-based property tests for the columnar tuple core: a
//! [`sac_storage::Relation`] driven by a random operation sequence must
//! agree, observation for observation, with a trivially-correct reference
//! model (`Vec<Vec<Term>>` with linear-scan membership).  The model knows
//! nothing about dictionaries, packed-row hashing or sidecar indexes, so
//! any disagreement pins a bug in exactly those structures.
//!
//! A second block checks the dictionary itself: encode∘decode is the
//! identity, and codes are stable — re-encoding a term later (after
//! arbitrary other interning) returns the same code.

use proptest::prelude::*;
use sac_common::{intern, Term};
use sac_storage::{dict, Relation};

/// The reference model: insertion-ordered distinct tuples.
#[derive(Default)]
struct Model {
    tuples: Vec<Vec<Term>>,
}

impl Model {
    fn insert(&mut self, tuple: Vec<Term>) -> bool {
        if self.tuples.contains(&tuple) {
            false
        } else {
            self.tuples.push(tuple);
            true
        }
    }

    fn rows_with(&self, pos: usize, term: Term) -> Vec<u32> {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| t[pos] == term)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// A small constant universe: dense enough that random sequences hit
/// duplicates (exercising dedup) and repeated column values (exercising
/// the sidecars and `project_index`).
fn small_term() -> impl Strategy<Value = Term> {
    (0u8..7).prop_map(|n| Term::constant(&format!("pc{n}")))
}

fn tuples(arity: usize, len: usize) -> impl Strategy<Value = Vec<Vec<Term>>> {
    proptest::collection::vec(proptest::collection::vec(small_term(), arity), 0..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert/dedup/scan: after any insert sequence the columnar relation
    /// holds exactly the model's distinct tuples, in insertion order, with
    /// matching membership answers.
    #[test]
    fn insert_and_iteration_match_the_model(
        arity in 1usize..4,
        seq in tuples(3, 50),
    ) {
        let mut rel = Relation::new(intern("P"), arity);
        let mut model = Model::default();
        for tuple in &seq {
            let tuple: Vec<Term> = tuple.iter().take(arity).cloned().collect();
            prop_assert_eq!(rel.insert(tuple.clone()), model.insert(tuple));
        }
        prop_assert_eq!(rel.len(), model.tuples.len());
        let scanned: Vec<Vec<Term>> = rel.iter().collect();
        prop_assert_eq!(&scanned, &model.tuples);
        for (i, tuple) in model.tuples.iter().enumerate() {
            prop_assert!(rel.contains(tuple));
            let row = rel.row(i);
            prop_assert_eq!(row.as_ref(), Some(tuple));
        }
        prop_assert!(rel.row(model.tuples.len()).is_none());
        // A tuple outside the inserted set is absent from both.
        let foreign = vec![Term::constant("prop_columnar_never_inserted"); arity];
        prop_assert_eq!(rel.contains(&foreign), model.tuples.contains(&foreign));
    }

    /// The sidecar lookups agree with model filtering at every position.
    #[test]
    fn sidecar_lookups_match_model_filtering(
        arity in 1usize..4,
        seq in tuples(3, 50),
    ) {
        let mut rel = Relation::new(intern("P"), arity);
        let mut model = Model::default();
        for tuple in &seq {
            let tuple: Vec<Term> = tuple.iter().take(arity).cloned().collect();
            rel.insert(tuple.clone());
            model.insert(tuple);
        }
        for pos in 0..arity {
            for n in 0u8..7 {
                let term = Term::constant(&format!("pc{n}"));
                prop_assert_eq!(
                    rel.rows_with(pos, term).to_vec(),
                    model.rows_with(pos, term)
                );
            }
            // distinct_at is exact (sidecar key count == model distinct).
            let distinct: std::collections::BTreeSet<Term> =
                model.tuples.iter().map(|t| t[pos]).collect();
            prop_assert_eq!(rel.distinct_at(pos), distinct.len());
        }
    }

    /// `project_index` groups row ids exactly like grouping the model by
    /// the projected columns (keys compared through the dictionary).
    #[test]
    fn project_index_matches_model_grouping(
        arity in 2usize..4,
        seq in tuples(3, 50),
        p0 in 0usize..4,
        p1 in 0usize..4,
    ) {
        let positions = vec![p0 % arity, p1 % arity];
        let mut rel = Relation::new(intern("P"), arity);
        let mut model = Model::default();
        for tuple in &seq {
            let tuple: Vec<Term> = tuple.iter().take(arity).cloned().collect();
            rel.insert(tuple.clone());
            model.insert(tuple);
        }
        let index = rel.project_index(&positions);
        let mut grouped: std::collections::HashMap<Vec<Term>, Vec<u32>> =
            std::collections::HashMap::new();
        for (i, tuple) in model.tuples.iter().enumerate() {
            let key: Vec<Term> = positions.iter().map(|p| tuple[*p]).collect();
            grouped.entry(key).or_default().push(i as u32);
        }
        prop_assert_eq!(index.len(), grouped.len());
        for (key, rows) in &index {
            let decoded: Vec<Term> = key.iter().map(|&c| dict::decode(c)).collect();
            prop_assert_eq!(Some(rows), grouped.get(&decoded));
        }
    }

    /// `rows_from` yields exactly the model's suffix — the append-only
    /// delta contract the incremental engine relies on.
    #[test]
    fn rows_from_yields_the_model_suffix(
        arity in 1usize..4,
        seq in tuples(3, 50),
        start_pick in 0usize..64,
    ) {
        let mut rel = Relation::new(intern("P"), arity);
        let mut model = Model::default();
        for tuple in &seq {
            let tuple: Vec<Term> = tuple.iter().take(arity).cloned().collect();
            rel.insert(tuple.clone());
            model.insert(tuple);
        }
        let start = start_pick % (model.tuples.len() + 1);
        let suffix: Vec<Vec<Term>> = rel.rows_from(start).collect();
        prop_assert_eq!(&suffix[..], &model.tuples[start..]);
    }

    /// Sidecars maintained insert by insert agree with a one-pass rebuild
    /// of the same tuples, with `project_index` built from scratch, and
    /// with a plain column scan — by code and by term.
    #[test]
    fn incremental_positional_indexes_match_a_from_scratch_rebuild(
        arity in 1usize..4,
        seq in tuples(3, 50),
    ) {
        let mut rel = Relation::new(intern("P"), arity);
        for tuple in &seq {
            rel.insert(tuple.iter().take(arity).cloned().collect());
        }
        let mut rebuilt = Relation::new(rel.predicate(), rel.arity());
        for tuple in rel.iter() {
            rebuilt.insert(tuple);
        }
        prop_assert_eq!(rebuilt.len(), rel.len());
        for pos in 0..arity {
            prop_assert_eq!(rel.distinct_at(pos), rebuilt.distinct_at(pos));
            for (key, rows) in &rel.project_index(&[pos]) {
                prop_assert_eq!(rel.rows_with_code(pos, key[0]), rows.as_slice());
                prop_assert_eq!(rel.rows_with(pos, dict::decode(key[0])), rows.as_slice());
                let scan: Vec<u32> = (0..rel.len() as u32)
                    .filter(|&row| rel.column(pos)[row as usize] == key[0])
                    .collect();
                prop_assert_eq!(rows.as_slice(), scan.as_slice());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode∘decode is the identity, and a term's code never changes —
    /// re-encoding after arbitrary other interning returns the first code.
    #[test]
    fn dictionary_roundtrip_and_code_stability(
        terms in proptest::collection::vec(small_term(), 1..40),
        noise in proptest::collection::vec(0u32..1000, 0..40),
    ) {
        let first: Vec<u32> = terms.iter().map(|t| dict::encode(*t)).collect();
        for (term, &code) in terms.iter().zip(&first) {
            prop_assert_eq!(dict::decode(code), *term);
            prop_assert_eq!(dict::lookup(*term), Some(code));
        }
        // Intern unrelated terms in between…
        for n in &noise {
            dict::encode(Term::constant(&format!("dict_noise_{n}")));
        }
        // …and the original codes must be unchanged (append-only dict).
        let again: Vec<u32> = terms.iter().map(|t| dict::encode(*t)).collect();
        prop_assert_eq!(first, again);
        // decode_row decodes a packed row element-wise.
        let codes: Vec<u32> = terms.iter().map(|t| dict::encode(*t)).collect();
        prop_assert_eq!(dict::decode_row(&codes), terms);
    }
}
