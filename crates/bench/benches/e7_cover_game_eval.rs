//! E7 — Theorem 25: Boolean evaluation of the semantically acyclic Example 1
//! query via the existential 1-cover game vs naive evaluation vs
//! rewrite-then-Yannakakis (the engine's witness rung, prepared once), as
//! the database grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sac::prelude::*;

fn bench(c: &mut Criterion) {
    let q = ConjunctiveQuery::boolean(sac::gen::example1_triangle().body).unwrap();
    let tgds = vec![sac::gen::collector_tgd()];
    let mut group = c.benchmark_group("e7_cover_game_eval");
    for customers in [10usize, 30, 90] {
        let db = sac::gen::music_database(customers, customers, 10);
        group.bench_with_input(BenchmarkId::new("cover_game", customers), &db, |b, db| {
            b.iter(|| cover_game_evaluate(&q, db).len())
        });
        group.bench_with_input(BenchmarkId::new("naive", customers), &db, |b, db| {
            b.iter(|| evaluate_boolean(&q, db))
        });
        let engine = Database::from_instance(db.clone()).with_tgds(tgds.clone());
        let prepared = engine.prepare(&q).expect("Example 1 prepares");
        assert_eq!(prepared.strategy(), PlanStrategy::YannakakisWitness);
        group.bench_function(BenchmarkId::new("yannakakis_witness", customers), |b| {
            b.iter(|| prepared.execute_boolean())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = sac_bench::quick_criterion();
    targets = bench
}
criterion_main!(benches);
