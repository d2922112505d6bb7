//! E13 — batch fan-out: queries/sec per batch width.
//!
//! One mixed workload (acyclic star and path → direct Yannakakis, a cyclic
//! clique → indexed search, the Example 1 triangle under its tgd → witness
//! Yannakakis) runs through `Database::run_batch` with `parallelism` ∈
//! {1, 2, 4, 8}: the queries fan out over scoped helper threads, every
//! query the one serial executor path.  Results are asserted identical to the
//! serial batch before anything is timed — a perf experiment must not
//! quietly measure wrong answers.  A single run is never split (see
//! EXPERIMENTS.md for the measurements behind that), so there is no
//! per-run axis.
//!
//! The experiment always writes `BENCH_e13.json` at the workspace root
//! (queries/sec per width, plus the dispatch count) and prints the same
//! table; `--json` additionally echoes the JSON to stdout.
//!
//! Every row records `available_cores` so a reader can tell a genuine
//! scaling regression from a 1-core container where speedup *cannot* show.
//! `--smoke` (the CI merge gate) runs a reduced sweep to a temp-dir report
//! and gates **correctness only**: every parallelism level must return the
//! serial answers, or the process panics.  The batch `speedup_vs_serial`
//! figures are reported, not gated: on the reduced smoke sweep a shared
//! 2-core runner measured below 1.0 in most runs (scheduler noise on a
//! ~50 ms batch), and a gate that is red on any real CI runner teaches
//! people to ignore it.  The committed full sweep is the evidence.

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

    // Batch fan-out: every query an ordinary serial run (see
    // `Database::run_batch`).
    println!(
        "e13 — batch fan-out ({} queries/batch, {cores} core(s) available):",
        queries.len()
    );
    println!(
        "{:>12} {:>14} {:>10} {:>11}",
        "parallelism", "queries/sec", "speedup", "dispatched"
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
            "{parallelism:>12} {rate:>14.0} {speedup:>9.2}x {:>11}",
            m.morsels_dispatched,
        );
        rows.push(json_object(&[
            ("axis", "\"batch\"".to_owned()),
            ("parallelism", parallelism.to_string()),
            ("available_cores", cores.to_string()),
            ("queries", queries.len().to_string()),
            ("median_batch_secs", format!("{secs:.6}")),
            ("queries_per_sec", format!("{rate:.1}")),
            ("speedup_vs_serial", format!("{speedup:.3}")),
            ("morsels_dispatched", m.morsels_dispatched.to_string()),
        ]));
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

    // Correctness was gated above (the assert_eq on every level runs
    // unconditionally); wall clock is reported, never gated.
    if smoke {
        let speedups: Vec<String> = batch_speedups
            .iter()
            .map(|(parallelism, speedup)| format!("p={parallelism} {speedup:.2}x"))
            .collect();
        eprintln!(
            "bench smoke ok: parallel batches matched serial at every level \
             (report-only speedups on {cores} core(s): {})",
            speedups.join(", ")
        );
    } else if cores == 1 {
        println!("(1-core host: validate the fan-out via morsels_dispatched, not wall clock)");
    }
}
