//! The Example 1 workload at scale: shows the performance gap between
//! evaluating the original cyclic query naively and serving it through the
//! engine, whose planner finds the acyclic reformulation once and runs
//! Yannakakis on it (Proposition 24, the `yannakakis-witness` rung).
//!
//! Run with `cargo run --release --example music_collector`.

use sac::prelude::*;
use std::time::Instant;

fn main() {
    let q = sac::gen::example1_triangle();
    let tgds = vec![sac::gen::collector_tgd()];

    println!("original:  {q}");
    // The planner's decision depends on q and Σ only, never on the data.
    let explain = Database::new().with_tgds(tgds.clone()).explain(&q);
    assert_eq!(explain.strategy, PlanStrategy::YannakakisWitness);
    println!("witness :  {}", explain.witness.expect("recorded"));
    println!(
        "{:>10} {:>10} {:>14} {:>14} {:>8}",
        "customers", "atoms", "naive (ms)", "engine (ms)", "equal"
    );
    for customers in [100usize, 300, 1_000, 3_000] {
        let data = sac::gen::music_database(customers, customers * 2, 25);

        let t0 = Instant::now();
        let slow = evaluate(&q, &data);
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3;

        // The witness search depends on |q| + |Σ| only and runs once, at
        // prepare time; the timed part is the linear-time evaluation.
        let db = Database::from_instance(data).with_tgds(tgds.clone());
        let prepared = db.prepare(&q).expect("a validated query prepares");
        let t1 = Instant::now();
        let fast = prepared.execute();
        let fast_ms = t1.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:>10} {:>10} {:>14.2} {:>14.2} {:>8}",
            customers,
            db.len(),
            naive_ms,
            fast_ms,
            slow == fast.into_tuples()
        );
    }
}
