//! E8 — Proposition 24: fixed-parameter tractable evaluation.  With q and Σ
//! fixed, the cost of the full pipeline (decide + Yannakakis) grows linearly
//! in |D|.  The pipeline is the engine's witness rung run **cold**: every
//! iteration drops the plan and index caches first, so it pays the witness
//! search and the index builds again.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sac::prelude::*;

fn bench(c: &mut Criterion) {
    let q = sac::gen::example1_triangle();
    let tgds = vec![sac::gen::collector_tgd()];

    let mut group = c.benchmark_group("e8_fpt_evaluation");
    for customers in [100usize, 400, 1600] {
        let db = sac::gen::music_database(customers, customers, 25);
        group.throughput(Throughput::Elements(db.len() as u64));
        let engine = Database::from_instance(db.clone()).with_tgds(tgds.clone());
        assert_eq!(engine.explain(&q).strategy, PlanStrategy::YannakakisWitness);
        group.bench_function(BenchmarkId::new("fpt_pipeline", db.len()), |b| {
            b.iter(|| {
                engine.clear_caches();
                engine.run(&q).len()
            })
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
