//! E13 — parallel partitioned execution: queries/sec per worker-pool width.
//!
//! One mixed workload (acyclic star and path → row-range Yannakakis match
//! sets, a cyclic clique → row-range fallback search, the Example 1 triangle
//! under its tgd → witness Yannakakis) runs through `Database::run_batch`
//! with `parallelism` ∈ {1, 2, 4, 8}.  Results are asserted identical to
//! the serial batch before anything is timed — a perf experiment must not
//! quietly measure wrong answers.
//!
//! The experiment always writes `BENCH_e13.json` at the workspace root
//! (queries/sec per pool width, plus the morsel/steal/queue-wait metrics
//! of the persistent pool) and prints the same table; `--json` additionally
//! echoes the JSON to stdout.
//!
//! Every row records `available_cores` so a reader can tell a genuine
//! scaling regression from a 1-core container where speedup *cannot* show.
//! `--smoke` (the CI merge gate) runs a reduced sweep to a temp-dir report
//! and exits non-zero on a violated gate:
//!
//! - **always**: every parallelism level must return the serial answers —
//!   correctness does not depend on the core count;
//! - **only when `available_cores >= 2`**: batch `speedup_vs_serial >= 1.0`
//!   at parallelism 2 and 4 — on a 1-core host the pool can only add
//!   scheduling overhead, and gating wall clock there normalizes a red
//!   benchmark nobody can act on.

use sac::prelude::*;
use sac_bench::{json_document, json_object, median_secs, write_workspace_file};

const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// Sweep sizes: `(batch repeat, timing samples, data scale)`.  Smoke keeps
/// the same query shapes but shrinks the data and sampling so the gate
/// runs in seconds.
fn sweep(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (4, 3, 100)
    } else {
        (12, 5, 300)
    }
}

fn build_data(scale: usize) -> Instance {
    // At full scale the scanned relations clear the default
    // `min_parallel_rows` morsel granule (512): the benchmark measures the
    // production configuration, not a forced-parallel small-data regime.
    let mut data = sac::gen::music_database(scale, scale * 2, 10);
    data.extend_from(&sac::gen::random_graph_database(scale, scale * 7, 7))
        .expect("disjoint schemas merge cleanly");
    data
}

fn workload(batch_repeat: usize) -> Vec<ConjunctiveQuery> {
    let shapes = [
        sac::gen::star_query(3),
        sac::gen::path_query(3),
        sac::gen::clique_query(3),
        sac::gen::example1_triangle(),
    ];
    (0..batch_repeat).flat_map(|_| shapes.clone()).collect()
}

fn main() {
    let smoke = sac_bench::flag("--smoke");
    let (batch_repeat, samples, scale) = sweep(smoke);
    let data = build_data(scale);
    let tgds = vec![sac::gen::collector_tgd()];
    let queries = workload(batch_repeat);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Correctness gate: every parallelism level returns the serial batch.
    let serial = Database::from_instance(data.clone()).with_tgds(tgds.clone());
    let expected = serial.run_batch(&queries);

    // Axis 1: batch fan-out — one morsel per query on the persistent pool,
    // inner runs serial (the thread budget is spent once, see
    // `Database::run_batch`).
    println!(
        "e13 axis 1 — batch fan-out ({} queries/batch, {cores} core(s) available):",
        queries.len()
    );
    println!(
        "{:>12} {:>14} {:>10} {:>8} {:>9} {:>8} {:>12}",
        "parallelism", "queries/sec", "speedup", "pool", "morsels", "stolen", "queue-wait"
    );
    let mut rows = Vec::new();
    let mut batch_speedups: Vec<(usize, f64)> = Vec::new();
    let mut single = 0.0f64;
    for parallelism in PARALLELISM_LEVELS {
        let db = Database::from_instance(data.clone())
            .with_tgds(tgds.clone())
            .with_parallelism(parallelism);
        assert_eq!(
            expected,
            db.run_batch(&queries),
            "parallelism {parallelism} drifted from the serial answers"
        );
        let secs = median_secs(samples, || {
            std::hint::black_box(db.run_batch(&queries).len());
        });
        let rate = queries.len() as f64 / secs;
        if parallelism == 1 {
            single = rate;
        }
        let speedup = rate / single;
        batch_speedups.push((parallelism, speedup));
        // Metrics for exactly one batch (median_secs accumulates warm-up +
        // samples, which would inflate the per-batch counters 6x).
        db.reset_metrics();
        std::hint::black_box(db.run_batch(&queries).len());
        let m = db.metrics();
        println!(
            "{parallelism:>12} {rate:>14.0} {:>9.2}x {:>8} {:>9} {:>8} {:>10}us",
            speedup,
            m.threads_spawned,
            m.morsels_dispatched,
            m.morsel_steals,
            m.pool_queue_wait_ns / 1_000,
        );
        rows.push(json_object(&[
            ("axis", "\"batch\"".to_owned()),
            ("parallelism", parallelism.to_string()),
            ("available_cores", cores.to_string()),
            ("queries", queries.len().to_string()),
            ("median_batch_secs", format!("{secs:.6}")),
            ("queries_per_sec", format!("{rate:.1}")),
            ("speedup_vs_serial", format!("{speedup:.3}")),
            ("threads_spawned", m.threads_spawned.to_string()),
            ("morsels_dispatched", m.morsels_dispatched.to_string()),
            ("morsel_steals", m.morsel_steals.to_string()),
            (
                "pool_queue_wait_micros",
                (m.pool_queue_wait_ns / 1_000).to_string(),
            ),
        ]));
    }

    // Axis 2: morsel-driven parallelism inside single runs — match sets
    // and fallback roots split across row ranges of the scanned relation,
    // semijoin sweeps across table chunks, one morsel each.
    let singles = [sac::gen::star_query(3), sac::gen::clique_query(3)];
    println!("\ne13 axis 2 — row-range single runs:");
    println!(
        "{:>24} {:>12} {:>12} {:>10} {:>12} {:>9} {:>8}",
        "query", "parallelism", "runs/sec", "speedup", "shard_tasks", "morsels", "stolen"
    );
    for query in &singles {
        let reference = serial.run(query);
        let mut single = 0.0f64;
        for parallelism in PARALLELISM_LEVELS {
            let db = Database::from_instance(data.clone())
                .with_tgds(tgds.clone())
                .with_parallelism(parallelism);
            assert_eq!(
                reference,
                db.run(query),
                "parallelism {parallelism} drifted from the serial answers on {query}"
            );
            let secs = median_secs(samples, || {
                std::hint::black_box(db.run(query).len());
            });
            let rate = 1.0 / secs;
            if parallelism == 1 {
                single = rate;
            }
            // Metrics for exactly one run (see the batch axis above), plus a
            // traced run: the per-phase timers say *where* the time goes at
            // each pool width, and the pool's queue-wait figure separates
            // "morsels waited for a worker" from "the work itself was slow"
            // — the diagnosis for any scaling plateau.
            db.reset_metrics();
            std::hint::black_box(db.run(query).len());
            let m = db.metrics();
            let (_, trace) = db.run_traced(query);
            let (dominant, dominant_ns) = trace.phases.dominant().unwrap_or((Phase::Plan, 0));
            let phase_fields: Vec<(&str, String)> = Phase::ALL
                .iter()
                .map(|p| (p.as_str(), (trace.phases.get(*p) / 1_000).to_string()))
                .collect();
            let label = format!("{}-atom body", query.size());
            println!(
                "{label:>24} {parallelism:>12} {rate:>12.0} {:>9.2}x {:>12} {:>9} {:>8}  dominant: {dominant} ({}%), queue-wait {}us",
                rate / single,
                m.shard_tasks,
                m.morsels_dispatched,
                m.morsel_steals,
                100 * dominant_ns / trace.total_ns.max(1),
                m.pool_queue_wait_ns / 1_000,
            );
            let mut fields: Vec<(&str, String)> = vec![
                ("axis", "\"single\"".to_owned()),
                ("query_atoms", query.size().to_string()),
                ("parallelism", parallelism.to_string()),
                ("available_cores", cores.to_string()),
                ("median_run_secs", format!("{secs:.6}")),
                ("runs_per_sec", format!("{rate:.1}")),
                ("speedup_vs_serial", format!("{:.3}", rate / single)),
                ("shard_tasks", m.shard_tasks.to_string()),
                ("threads_spawned", m.threads_spawned.to_string()),
                ("morsels_dispatched", m.morsels_dispatched.to_string()),
                ("morsel_steals", m.morsel_steals.to_string()),
                ("dominant_phase", format!("\"{dominant}\"")),
                (
                    "pool_queue_wait_micros",
                    (m.pool_queue_wait_ns / 1_000).to_string(),
                ),
            ];
            for (phase, micros) in &phase_fields {
                fields.push((phase, micros.to_string()));
            }
            rows.push(json_object(&fields));
        }
    }

    let doc = json_document(
        "e13_parallel_speedup",
        &[
            ("available_cores", cores.to_string()),
            ("batch_queries", queries.len().to_string()),
            ("samples", samples.to_string()),
            ("smoke", smoke.to_string()),
        ],
        &rows,
    );
    let path = if smoke {
        // Smoke runs are a pass/fail gate; their report is a scratch
        // artifact and must not dirty the workspace tree.
        let path = std::env::temp_dir().join("BENCH_e13_smoke.json");
        std::fs::write(&path, &doc)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        path
    } else {
        write_workspace_file("BENCH_e13.json", &doc)
    };
    println!("\nwrote {}", path.display());
    if sac_bench::json_flag() {
        print!("{doc}");
    }

    if smoke {
        // Correctness was already gated above (the assert_eq on every
        // level runs unconditionally).  Wall-clock speedup is only a
        // meaningful gate when the host can actually run morsels
        // concurrently.
        if cores >= 2 {
            let mut violations = Vec::new();
            for &(parallelism, speedup) in &batch_speedups {
                if (parallelism == 2 || parallelism == 4) && speedup < 1.0 {
                    violations.push(format!(
                        "parallelism {parallelism}: speedup_vs_serial {speedup:.2} < 1.0"
                    ));
                }
            }
            if !violations.is_empty() {
                eprintln!(
                    "bench smoke FAILED on a {cores}-core host: {}",
                    violations.join("; ")
                );
                std::process::exit(1);
            }
            eprintln!("bench smoke ok: batch speedups {batch_speedups:?} on {cores} core(s)");
        } else {
            eprintln!(
                "bench smoke ok (correctness only): 1 core available, wall-clock speedup \
                 gates skipped — parallel answers matched serial at every level"
            );
        }
    } else if cores == 1 {
        println!(
            "(1-core host: validate the fan-out via morsels_dispatched/threads_spawned, not wall clock)"
        );
    }
}
