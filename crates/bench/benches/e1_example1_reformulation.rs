//! E1 — Example 1: evaluating the cyclic triangle query naively vs the
//! acyclic reformulation found by the decider and run by the engine's
//! Yannakakis executor (the `yannakakis-witness` rung, prepared once), as
//! the database grows.  Paper prediction: the reformulation scales linearly
//! in |D|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sac::prelude::*;

fn bench(c: &mut Criterion) {
    let q = sac::gen::example1_triangle();
    let tgds = vec![sac::gen::collector_tgd()];
    let mut group = c.benchmark_group("e1_example1_reformulation");
    for customers in [50usize, 200, 800] {
        let db = sac::gen::music_database(customers, customers * 2, 20);
        group.bench_with_input(BenchmarkId::new("naive_cyclic", customers), &db, |b, db| {
            b.iter(|| evaluate(&q, db).len())
        });
        let engine = Database::from_instance(db.clone()).with_tgds(tgds.clone());
        let prepared = engine.prepare(&q).expect("Example 1 prepares");
        assert_eq!(prepared.strategy(), PlanStrategy::YannakakisWitness);
        group.bench_function(BenchmarkId::new("yannakakis_witness", customers), |b| {
            b.iter(|| prepared.execute().len())
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
