//! Property tests: the database is answer-for-answer identical to naive
//! homomorphism enumeration on random query/database pairs from `sac-gen`,
//! across every strategy the planner can pick, and stays identical as the
//! instance mutates underneath the caches.

use proptest::prelude::*;
use sac_common::{intern, Atom, Symbol, Term};
use sac_engine::{Database, EngineConfig, ResultSet, Strategy};
use sac_query::{evaluate, ConjunctiveQuery};
use sac_storage::dict;

/// The generated query families, over the `E` graph schema of
/// `sac_gen::random_graph_database`.  Mixes acyclic shapes (path, star),
/// cyclic ones (cycle, clique) and non-Boolean variants, so the sweep
/// exercises the direct-Yannakakis, witness and fallback strategies.
fn query_for(kind: usize, size: usize) -> ConjunctiveQuery {
    match kind % 6 {
        0 => sac_gen::path_query(size),
        1 => sac_gen::star_query(size),
        2 => sac_gen::cycle_query(size.max(3)),
        3 => sac_gen::clique_query(3),
        4 => {
            // Non-Boolean path: endpoints as answer variables.
            let body = sac_gen::path_query(size).body;
            ConjunctiveQuery::new(vec![intern("x0"), intern(&format!("x{size}"))], body)
                .expect("path endpoints occur in the body")
        }
        _ => {
            // Non-Boolean cycle: one answer variable on a cyclic query, so
            // the fallback strategy is exercised with projection.
            let body = sac_gen::cycle_query(size.max(3)).body;
            ConjunctiveQuery::new(vec![intern("x0")], body)
                .expect("cycle variables occur in the body")
        }
    }
}

/// A random conjunctive query over `E`: one atom per pair, whose entries
/// 0–4 name the variables `x0`–`x4` and 5 the constant `n0`; the head keeps
/// the body variables whose bit is set in `head_mask`, the first of them
/// twice when `repeat` is set.
fn random_query(atoms: &[(usize, usize)], head_mask: usize, repeat: bool) -> ConjunctiveQuery {
    let term = |i: usize| match i {
        5 => Term::constant("n0"),
        _ => Term::variable(&format!("x{i}")),
    };
    let body: Vec<Atom> = atoms
        .iter()
        .map(|&(a, b)| Atom::from_parts("E", vec![term(a), term(b)]))
        .collect();
    let mut head: Vec<Symbol> = Vec::new();
    for atom in &body {
        for v in atom.variables_iter() {
            let bit = v.as_str()[1..]
                .parse::<usize>()
                .expect("variables are x0..x4");
            if head_mask >> bit & 1 == 1 && !head.contains(&v) {
                head.push(v);
            }
        }
    }
    if repeat {
        head.extend(head.first().copied());
    }
    ConjunctiveQuery::new(head, body).expect("head variables occur in the body")
}

/// `q` with an alternating 4-cycle glued onto its first atom `E(u, v)` of
/// two distinct variables: `E(c, v), E(c, d), E(u, d)` over fresh `c, d`.
/// The body turns cyclic, and `c ↦ u, d ↦ v` folds the cycle back onto
/// `E(u, v)`, so the query is equivalent to `q` and its core is `q`'s — on
/// the witness rung whenever `q` is acyclic.  `None` without such an atom.
fn with_folding_cycle(q: &ConjunctiveQuery) -> Option<ConjunctiveQuery> {
    let (u, v) = q.body.iter().find_map(|atom| {
        let (u, v) = (atom.args[0], atom.args[1]);
        (u.is_variable() && v.is_variable() && u != v).then_some((u, v))
    })?;
    let (c, d) = (Term::variable("c"), Term::variable("d"));
    let mut body = q.body.clone();
    for args in [vec![c, v], vec![c, d], vec![u, d]] {
        body.push(Atom::from_parts("E", args));
    }
    Some(ConjunctiveQuery::new(q.head.clone(), body).expect("the head is unchanged"))
}

/// Whether the rows come out in strictly increasing code order — sorted
/// and free of repeats.
fn rows_strictly_increase(result: &ResultSet) -> bool {
    let codes: Vec<Vec<u32>> = result
        .tuples()
        .map(|t| dict::lookup_row(t).expect("answers hold stored terms"))
        .collect();
    codes.windows(2).all(|pair| pair[0] < pair[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random CQs on all three rungs — the planner's pick (direct
    /// Yannakakis on an acyclic body, the search on a cyclic one), the
    /// forced search, and the witness rung through a cycle that folds
    /// away — answer the oracle's term set, in strictly increasing code
    /// order.
    #[test]
    fn random_queries_answer_sorted_code_rows_on_every_rung(
        atoms in proptest::collection::vec((0usize..6, 0usize..6), 1..5),
        head_mask in 0usize..32,
        repeat in prop::bool::ANY,
        nodes in 2usize..8,
        edges in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let q = random_query(&atoms, head_mask, repeat);
        let reference = sac_gen::random_graph_database(nodes, edges, seed);
        let expected = evaluate(&q, &reference);
        let planned = Database::from_instance(reference.clone());
        let forced = Database::from_instance(reference.clone()).with_config(EngineConfig {
            force_indexed: true,
        });
        let mut runs = vec![(q.clone(), planned.run(&q)), (q.clone(), forced.run(&q))];
        if let Some(folded) = with_folding_cycle(&q) {
            if planned.explain(&q).strategy == Strategy::YannakakisDirect {
                prop_assert_eq!(
                    planned.explain(&folded).strategy,
                    Strategy::YannakakisWitness
                );
            }
            runs.push((folded.clone(), planned.run(&folded)));
        }
        for (query, result) in runs {
            prop_assert!(rows_strictly_increase(&result), "{query}: {result}");
            prop_assert_eq!(result.into_tuples(), expected.clone());
        }
    }

    #[test]
    fn database_matches_naive_evaluation(
        kind in 0usize..6,
        size in 1usize..5,
        nodes in 2usize..10,
        edges in 1usize..30,
        seed in 0u64..10_000,
    ) {
        let q = query_for(kind, size);
        let reference = sac_gen::random_graph_database(nodes, edges, seed);
        let db = Database::from_instance(reference.clone());
        prop_assert_eq!(db.run(&q).into_tuples(), evaluate(&q, &reference));
    }

    #[test]
    fn batch_runs_with_interleaved_inserts_stay_consistent(
        nodes in 2usize..8,
        edges in 1usize..20,
        seed in 0u64..10_000,
        extra_src in 0usize..8,
        extra_dst in 0usize..8,
    ) {
        let start = sac_gen::random_graph_database(nodes, edges, seed);
        let workload = [
            sac_gen::path_query(2),
            sac_gen::cycle_query(3),
            sac_gen::star_query(2),
        ];
        let db = Database::from_instance(start.clone());
        // First pass: plans and indexes warm up.
        db.run_batch(&workload);
        // Mutate the database through the session (precise invalidation)…
        let extra = Atom::from_parts(
            "E",
            vec![
                Term::constant(&format!("n{extra_src}")),
                Term::constant(&format!("n{extra_dst}")),
            ],
        );
        let mut reference = start;
        reference.insert(extra.clone()).unwrap();
        db.insert(extra).unwrap();
        // …then every cached plan must see the new fact.
        for q in &workload {
            prop_assert_eq!(db.run(q).into_tuples(), evaluate(q, &reference));
        }
    }
}

/// The deterministic end of the sweep: the database equals naive evaluation
/// on the full generated family sweep (not just sampled cases), including
/// the semantically-acyclic Example 1 workload under its constraint.
#[test]
fn full_generated_family_sweep_matches_naive() {
    let reference = sac_gen::random_graph_database(14, 60, 42);
    let db = Database::from_instance(reference.clone());
    let mut checked = 0;
    for n in 1..=4 {
        for q in [
            sac_gen::path_query(n),
            sac_gen::star_query(n),
            sac_gen::cycle_query(n.max(2)),
            sac_gen::example2_query(n),
        ] {
            assert_eq!(
                db.run(&q).into_tuples(),
                evaluate(&q, &reference),
                "disagreement on {q}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 16);

    let music = sac_gen::music_database(40, 80, 5);
    let db = Database::from_instance(music.clone()).with_tgds(vec![sac_gen::collector_tgd()]);
    assert_eq!(
        db.run(&sac_gen::example1_triangle()).into_tuples(),
        evaluate(&sac_gen::example1_triangle(), &music)
    );
}
