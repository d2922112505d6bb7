//! Property tests for materialized-view maintenance: under a random append
//! sequence, an incrementally maintained view must always equal a
//! from-scratch evaluation of its query — for auto-refresh and lazy views,
//! Boolean and non-Boolean heads, and every strategy rung the generated
//! queries reach.  Two more properties pin the policy of the other rungs: a
//! view whose plan is an acyclic witness takes deltas through the witness's
//! join tree, a genuinely cyclic view takes them through the searches
//! seeded at the delta rows, and both stay equal to a recompute.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_common::{intern, Atom, Term};
use sac_engine::{Database, RefreshMode, Strategy, ViewOptions};
use sac_query::{evaluate, ConjunctiveQuery};
use sac_storage::Instance;

fn node(n: u64) -> Term {
    Term::constant(&format!("n{}", n % 12))
}

fn view_queries() -> Vec<ConjunctiveQuery> {
    vec![
        sac_gen::path_query(2),           // Boolean, direct rung
        sac_gen::star_query(3),           // Boolean, shared hub
        sac_gen::looped_triangle_query(), // witness rung, Boolean
        sac_gen::clique_query(3),         // indexed rung, Boolean
        ConjunctiveQuery::new(
            vec![intern("x0"), intern("x2")],
            sac_gen::path_query(2).body,
        )
        .unwrap(), // non-Boolean, direct rung
        ConjunctiveQuery::new(vec![intern("c")], sac_gen::star_query(2).body).unwrap(),
        ConjunctiveQuery::new(vec![intern("x0")], sac_gen::cycle_query(4).body).unwrap(), // indexed rung
    ]
}

fn check_sequence(
    base_edges: usize,
    appends: usize,
    lazy: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng| {
        Atom::from_parts(
            "E",
            vec![node(rng.gen_range(0u64..12)), node(rng.gen_range(0u64..12))],
        )
    };
    let mut reference = Instance::new();
    // Seed E so every view has a relation to plan against.
    reference.insert(draw(&mut rng)).unwrap();
    for _ in 0..base_edges {
        let _ = reference.insert(draw(&mut rng)).unwrap();
    }
    let db = Database::from_instance(reference.clone());
    let options = ViewOptions {
        auto_refresh: !lazy,
    };
    let queries = view_queries();
    let views: Vec<_> = queries
        .iter()
        .map(|q| db.materialize_with(q, options).unwrap())
        .collect();

    for step in 0..appends {
        let atom = draw(&mut rng);
        reference.insert(atom.clone()).unwrap();
        db.insert(atom).unwrap();
        // Lazy views refresh every third append (so staleness windows of
        // more than one batch are exercised); auto views are always fresh.
        let refresh_now = !lazy || step % 3 == 2 || step + 1 == appends;
        for view in &views {
            if refresh_now {
                view.refresh();
                prop_assert!(view.is_fresh());
                prop_assert_eq!(
                    view.snapshot().into_tuples(),
                    evaluate(view.query(), &reference)
                );
            }
        }
    }
    Ok(())
}

/// Example 1's triangle under the collector tgd, maintained lazily while
/// whole customers arrive (an interest plus every record the tgd makes them
/// own, so the database is constraint-closed at every refresh — the witness
/// rung's contract).  The plan has a join tree, the witness's, so every
/// batch must go through it.
fn check_witness_sequence(
    customers: usize,
    records: usize,
    styles: usize,
    batches: usize,
) -> Result<(), TestCaseError> {
    let mut reference = sac_gen::music_database(customers, records, styles);
    let db = Database::from_instance(reference.clone()).with_tgds(vec![sac_gen::collector_tgd()]);
    let options = ViewOptions {
        auto_refresh: false,
    };
    let query = sac_gen::example1_triangle();
    let view = db.materialize_with(&query, options).unwrap();
    prop_assert_eq!(view.strategy(), Strategy::YannakakisWitness);
    for batch in 1..=batches {
        let grown = sac_gen::music_database(customers + batch, records, styles);
        for atom in grown.atoms().filter(|a| !reference.contains(a)) {
            db.insert(atom).unwrap();
        }
        reference = grown;
        prop_assert_eq!(view.refresh().mode, RefreshMode::Incremental);
        prop_assert_eq!(view.snapshot(), db.run(&query)); // maintained vs recomputed
        prop_assert_eq!(view.snapshot().into_tuples(), evaluate(&query, &reference));
    }
    Ok(())
}

/// The constraint-free triangle and 4-cycle with heads — their own cores,
/// so on the search rung with no knob forced — maintained lazily under
/// batches that stay below the fraction gate: every batch must be answered
/// from its delta.
fn check_cyclic_sequence(
    base_edges: usize,
    batches: usize,
    batch_edges: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (base, stream) =
        sac_gen::streaming_graph_workload(9, base_edges, batches, batch_edges, seed);
    let db = Database::from_instance(base.clone());
    let options = ViewOptions {
        auto_refresh: false,
    };
    let views: Vec<_> = [(["x0", "x1"], 3), (["x0", "x2"], 4)]
        .into_iter()
        .map(|(head, n)| {
            let head = head.iter().map(|v| intern(v)).collect();
            let query = ConjunctiveQuery::new(head, sac_gen::cycle_query(n).body).unwrap();
            db.materialize_with(query, options).unwrap()
        })
        .collect();
    let mut reference = base;
    for batch in stream.iter().filter(|batch| !batch.is_empty()) {
        for atom in batch {
            db.insert(atom.clone()).unwrap();
            reference.insert(atom.clone()).unwrap();
        }
        for view in &views {
            prop_assert_eq!(view.strategy(), Strategy::IndexedSearch);
            prop_assert_eq!(view.refresh().mode, RefreshMode::Incremental);
            prop_assert_eq!(view.snapshot(), db.run(view.query()));
            prop_assert_eq!(
                view.snapshot().into_tuples(),
                evaluate(view.query(), &reference)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cyclic_views_search_from_deltas_and_equal_the_recompute(
        base_edges in 8usize..40,
        batches in 1usize..5,
        batch_edges in 1usize..5,
        seed in 0u64..10_000,
    ) {
        check_cyclic_sequence(base_edges, batches, batch_edges, seed)?;
    }

    #[test]
    fn witness_rung_views_push_deltas_and_equal_the_recompute(
        customers in 2usize..10,
        records in 2usize..14,
        styles in 1usize..4,
        batches in 1usize..5,
    ) {
        check_witness_sequence(customers, records, styles, batches)?;
    }

    #[test]
    fn maintained_views_always_equal_from_scratch_evaluation(
        base_edges in 0usize..30,
        appends in 1usize..20,
        lazy_bit in 0u8..2,
        seed in 0u64..10_000,
    ) {
        check_sequence(base_edges, appends, lazy_bit == 1, seed)?;
    }
}
