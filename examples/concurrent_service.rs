//! A query service under concurrent traffic: one shared `sac::Database`
//! driven from N threads through `&self` (scoped threads, no `Arc` needed).
//!
//! Each thread hammers the same mix of prepared queries — acyclic shapes,
//! genuinely cyclic ones, and the semantically-acyclic Example 1 triangle
//! whose witness reformulation was paid once at prepare time — and the main
//! thread reports aggregate queries/sec as the thread count grows.
//!
//! Run with `cargo run --release --example concurrent_service`.

use sac::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

fn main() {
    // One database serving two schemas at once: the Example 1 music-collector
    // data (closed under the collector tgd by construction) plus a random
    // graph over the binary predicate E.
    let mut seed = sac::gen::music_database(150, 300, 10);
    seed.extend_from(&sac::gen::random_graph_database(60, 400, 7))
        .expect("disjoint schemas merge cleanly");
    let db = Database::from_instance(seed).with_tgds(vec![sac::gen::collector_tgd()]);
    println!("database: {}", db.stats());

    // Prepare the traffic mix once; the handles are cheap clones sharing the
    // cached plans (the Example 1 witness search runs here, exactly once).
    let shapes = [
        sac::gen::path_query(2),
        sac::gen::path_query(4),
        sac::gen::star_query(3),
        sac::gen::cycle_query(3),
        sac::gen::clique_query(3),
        sac::gen::example1_triangle(),
    ];
    let prepared: Vec<PreparedQuery<'_>> = shapes
        .iter()
        .map(|q| db.prepare(q).expect("generated queries are valid"))
        .collect();
    for p in &prepared {
        println!("  {}\n    → {}", p.query(), p.explain());
    }
    println!(
        "\nprepared {} shapes: {} plans built, cache {} entries",
        prepared.len(),
        db.metrics().plans_built,
        db.cached_plans()
    );

    // Drive the same wall-clock window with 1, 2, 4, 8 threads and report
    // aggregate throughput.  All threads share `&db` — no locks in user
    // code, no `Arc`, no clones of the data.
    let window = Duration::from_millis(400);
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    println!("\ndriving the shared database ({cores} core(s) available):");
    println!(
        "{:>8} {:>12} {:>14} {:>10} {:>10} {:>10}",
        "threads", "queries", "queries/sec", "p50", "p99", "max"
    );
    let mut single = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        // A fresh histogram window per thread count: the percentiles
        // describe this configuration's latencies, not the whole session.
        db.reset_metrics();
        let done = AtomicUsize::new(0);
        let start = Instant::now();
        thread::scope(|scope| {
            for t in 0..threads {
                let prepared = &prepared;
                let done = &done;
                scope.spawn(move || {
                    let mut i = t; // stagger the mix across threads
                    while start.elapsed() < window {
                        let answers = prepared[i % prepared.len()].execute();
                        std::hint::black_box(answers.len());
                        done.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let total = done.load(Ordering::Relaxed);
        let rate = total as f64 / elapsed;
        if threads == 1 {
            single = rate;
        }
        let latency = db.metrics().run_latency;
        println!(
            "{threads:>8} {total:>12} {rate:>14.0} {:>10} {:>10} {:>10}   ({:.2}x vs 1 thread)",
            fmt_ns(latency.p50()),
            fmt_ns(latency.p99()),
            fmt_ns(latency.max_ns),
            rate / single
        );
    }

    println!(
        "\nplan cache: {} entries pinned by the prepared handles (no re-planning under traffic)",
        db.cached_plans()
    );

    // One traced execution shows where a request's time goes under the
    // warmed caches: plan phase empty (prepared), snapshot, then the
    // Yannakakis sweeps.
    let (_, trace) = prepared[0].run_traced();
    println!("sample trace: {trace}");

    // The other axis of parallelism: a single client, but every batch fans
    // out over scoped helper threads, one query per claim (each query
    // itself runs the one serial executor path).  Both sides are timed the
    // same way — median of five batches after one warm-up batch, so plans
    // and indexes are cached on both — and the ratio is the fan-out's
    // speedup.  On a 1-core host it will not exceed 1 —
    // `morsels_dispatched` shows the fan-out happened.
    let par_db = Database::from_instance(db.snapshot())
        .with_tgds(vec![sac::gen::collector_tgd()])
        .with_parallelism(4);
    let batch: Vec<ConjunctiveQuery> = (0..8).flat_map(|_| shapes.clone()).collect();
    let median_batch = |db: &Database| {
        let answers = db.run_batch(&batch);
        db.reset_metrics();
        let mut times: Vec<Duration> = (0..5)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(db.run_batch(&batch));
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        (answers, times[times.len() / 2])
    };
    let (serial_answers, serial) = median_batch(&db);
    let (parallel_answers, parallel) = median_batch(&par_db);
    println!(
        "\nbatch of {} queries: serial {serial:.1?}, parallelism {} {parallel:.1?} — {:.2}x ({cores} core(s))",
        batch.len(),
        par_db.parallelism(),
        serial.as_secs_f64() / parallel.as_secs_f64()
    );
    println!(
        "  identical to the serial batch: {}",
        serial_answers == parallel_answers
    );
    let pm = par_db.metrics();
    println!(
        "  fan-out: {} queries dispatched over {} threads",
        pm.morsels_dispatched,
        par_db.parallelism()
    );
    println!(
        "  run latency: p50 {} / p99 {} over {} runs",
        fmt_ns(pm.run_latency.p50()),
        fmt_ns(pm.run_latency.p99()),
        pm.run_latency.count
    );

    // Sanity: concurrent serving returned exactly the naive answers.
    let q = sac::gen::example1_triangle();
    let served = db.run(&q);
    let reference = db.snapshot();
    println!(
        "\nExample 1 triangle: {} answers via {} — equal to naive: {}",
        served.len(),
        db.explain(&q).strategy,
        served.into_tuples() == evaluate(&q, &reference)
    );
}
