//! Streaming ingestion with materialized views: standing queries kept
//! current under append batches.
//!
//! A base graph is loaded, three standing queries are registered with
//! `Database::materialize` — one per strategy rung — and a stream of edge
//! batches is ingested.  After every batch the auto-refresh views are
//! already fresh (maintenance ran under the same write guard as the
//! append), the lazy view is refreshed explicitly, and the refresh reports
//! show which path ran.  Every rung is maintained **incrementally**: the
//! acyclic view by a delta push through its join tree (work proportional to
//! the batch), the witness-rung view through its witness's, and the cyclic
//! view with no acyclic witness by searching from each appended edge.  A
//! from-scratch `query()` at the end double-checks that maintenance never
//! drifted.
//!
//! Run with `cargo run --release --example streaming_ingest`.

use sac::prelude::*;
use std::time::Instant;

fn main() {
    // An append-heavy workload: a base graph plus a reproducible stream of
    // disjoint edge batches.
    let (base, stream) = sac::gen::streaming_graph_workload(400, 4_000, 12, 200, 23);
    let db = Database::from_instance(base);
    println!("base: {}", db.stats());
    println!("stream: {} batches of 200 edges\n", stream.len());

    // Three standing queries, one per strategy rung.
    //
    // Acyclic (direct Yannakakis), lazy: goes stale under appends, one
    // incremental refresh per batch — the batch-ingestion shape.  Its
    // answer set is large (all 2-step reachability pairs), which is
    // exactly where maintaining beats re-deriving everything.
    let reachable = db
        .materialize_with(
            "q(X, Z) :- E(X, Y), E(Y, Z).",
            ViewOptions {
                auto_refresh: false,
            },
        )
        .expect("valid standing query");
    // Semantically acyclic (witness rung): deltas go through the join tree
    // of the acyclic witness the plan pinned.
    let looped = db
        .materialize(sac::gen::looped_triangle_query())
        .expect("valid standing query");
    // Cyclic, with no acyclic witness (indexed search), auto-refresh: every
    // insert searches for the triangles through the appended edge.
    let triangles = db
        .materialize("q(X) :- E(X, Y), E(Y, Z), E(Z, X).")
        .expect("valid standing query");
    for view in [&reachable, &looped, &triangles] {
        println!(
            "view {} → {} ({} rows materialized)",
            view.query(),
            view.explain(),
            view.len()
        );
    }

    println!(
        "\n{:>6} {:>9} {:>7} {:>36} {:>12} {:>10}",
        "batch", "db rows", "on a △", "lazy 2-path refresh", "refresh µs", "fresh?"
    );
    let mut maintenance_micros = 0.0f64;
    for (i, batch) in stream.iter().enumerate() {
        // Ingest: the auto-refresh views are caught up inside the inserts.
        for atom in batch {
            db.insert(atom.clone()).expect("schema-consistent append");
        }
        let stale_before = reachable.is_fresh();
        let start = Instant::now();
        let report = reachable.refresh();
        let micros = start.elapsed().as_secs_f64() * 1e6;
        maintenance_micros += micros;
        println!(
            "{:>6} {:>9} {:>7} {:>36} {:>12.0} {:>10}",
            i + 1,
            db.len(),
            triangles.len(),
            report.to_string(),
            micros,
            !stale_before && reachable.is_fresh(),
        );
    }

    // The differential gate: maintained views equal a from-scratch run.
    for view in [&reachable, &looped, &triangles] {
        let recomputed = db.run(view.query());
        assert_eq!(
            view.snapshot(),
            recomputed,
            "maintained view drifted from recomputation"
        );
    }
    println!("\nall {} views identical to from-scratch query() ✓", 3);

    // What maintenance cost, versus what recomputation would have.
    let start = Instant::now();
    for _ in 0..stream.len() {
        std::hint::black_box(db.run(reachable.query()).len());
    }
    let recompute_micros = start.elapsed().as_secs_f64() * 1e6;
    println!(
        "lazy 2-path view: {:.0} µs of incremental refreshes vs {:.0} µs of per-batch recomputes ({:.1}x)",
        maintenance_micros,
        recompute_micros,
        recompute_micros / maintenance_micros.max(1.0),
    );
    println!("\nmetrics: {}", db.metrics());
}
