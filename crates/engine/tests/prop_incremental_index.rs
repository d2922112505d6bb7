//! Property tests for the engine's incremental cache maintenance: after a
//! random insert sequence announced through [`IndexCache::note_growth`],
//! every cached join index must be identical to one built from scratch on
//! the final instance — the invariant that lets a
//! fact append cost a few hash inserts instead of a cache invalidation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_common::{Atom, Term};
use sac_engine::IndexCache;
use sac_storage::Instance;

fn term(n: u64) -> Term {
    Term::constant(&format!("t{}", n % 9))
}

/// Grows an instance atom by atom over two binary predicates, announcing
/// every real insertion, then compares each cached structure against a
/// fresh build.
fn check_sequence(inserts: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut db = Instance::new();
    // Seed both predicates so indexes exist before the growth starts.
    db.insert(Atom::from_parts("R", vec![term(0), term(1)]))
        .unwrap();
    db.insert(Atom::from_parts("S", vec![term(2), term(3)]))
        .unwrap();
    let mut cache = IndexCache::new(&db);
    let r = sac_common::intern("R");
    let s = sac_common::intern("S");
    prop_assert!(cache.ensure(&db, r, &[0, 1]));
    prop_assert!(cache.ensure(&db, s, &[1, 0]));

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..inserts {
        let predicate = if rng.gen_bool(0.5) { "R" } else { "S" };
        let atom = Atom::from_parts(
            predicate,
            vec![term(rng.gen_range(0u64..9)), term(rng.gen_range(0u64..9))],
        );
        if db.insert(atom).unwrap() {
            cache.note_growth(&db);
        }
    }

    let mut fresh = IndexCache::new(&db);
    fresh.ensure(&db, r, &[0, 1]);
    fresh.ensure(&db, s, &[1, 0]);

    for (predicate, positions) in [(r, vec![0usize, 1]), (s, vec![1usize, 0])] {
        let incremental = cache.get(predicate, &positions).unwrap();
        let rebuilt = fresh.get(predicate, &positions).unwrap();
        prop_assert_eq!(incremental.distinct_keys(), rebuilt.distinct_keys());
        let rel = db.relation(predicate).unwrap();
        prop_assert_eq!(incremental.rows_covered(), rel.len());
        for row in 0..rel.len() {
            let key: Vec<u32> = positions.iter().map(|p| rel.column(*p)[row]).collect();
            prop_assert_eq!(incremental.rows_codes(&key), rebuilt.rows_codes(&key));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_maintenance_matches_from_scratch_rebuilds(
        inserts in 0usize..40,
        seed in 0u64..10_000,
    ) {
        check_sequence(inserts, seed)?;
    }
}
