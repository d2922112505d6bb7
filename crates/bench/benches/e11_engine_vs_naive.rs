//! E11 — the execution engine against its baseline.  The workspace's two CQ
//! evaluators on the same query/database pairs at growing database sizes:
//!
//! * `naive` — homomorphism enumeration (`sac_query::evaluate`), the oracle;
//! * `engine` — `sac-engine` serving from its plan and index caches, the way
//!   repeated traffic hits it.
//!
//! Section A: an acyclic star query over random graphs.  Section B: the
//! semantically acyclic Example 1 triangle under the collector tgd, where the
//! engine's cached witness plan amortizes the reformulation the baseline
//! cannot use at all (naive pays the cyclic-join cost every call).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use sac::prelude::*;

fn bench_acyclic(c: &mut Criterion) {
    let q = sac::gen::star_query(3);
    let mut group = c.benchmark_group("e11_acyclic_star");
    for nodes in [50usize, 200, 800] {
        let db = sac::gen::random_graph_database(nodes, nodes * 4, 11);
        group.throughput(Throughput::Elements(db.len() as u64));
        group.bench_with_input(BenchmarkId::new("naive", db.len()), &db, |b, db| {
            b.iter(|| evaluate(&q, db).len())
        });
        let engine = Database::from_instance(db.clone());
        engine.run(&q); // warm the plan and index caches
        group.bench_with_input(BenchmarkId::new("engine", db.len()), &db, |b, _| {
            b.iter(|| engine.run(&q).len())
        });
    }
    group.finish();
}

fn bench_semantically_acyclic(c: &mut Criterion) {
    let q = sac::gen::example1_triangle();
    let tgds = vec![sac::gen::collector_tgd()];
    let mut group = c.benchmark_group("e11_semac_triangle");
    for customers in [50usize, 200, 800] {
        let db = sac::gen::music_database(customers, customers * 2, 10);
        group.throughput(Throughput::Elements(db.len() as u64));
        group.bench_with_input(BenchmarkId::new("naive", db.len()), &db, |b, db| {
            b.iter(|| evaluate(&q, db).len())
        });
        let engine = Database::from_instance(db.clone()).with_tgds(tgds.clone());
        engine.run(&q); // pay the witness search once, outside the timing
        group.bench_with_input(BenchmarkId::new("engine", db.len()), &db, |b, _| {
            b.iter(|| engine.run(&q).len())
        });
    }
    group.finish();
}

/// One JSON row: self-timed median plus the speedup over the naive
/// evaluator on the same database (naive rows carry `1.00`) and the
/// database's columnar heap footprint.
fn json_row(
    rows: &mut Vec<String>,
    section: &str,
    evaluator: &str,
    db_atoms: usize,
    heap_bytes: usize,
    secs: f64,
    naive_secs: f64,
) {
    rows.push(sac_bench::json_object(&[
        ("section", format!("\"{section}\"")),
        ("evaluator", format!("\"{evaluator}\"")),
        ("db_atoms", db_atoms.to_string()),
        ("heap_bytes", heap_bytes.to_string()),
        ("median_secs", format!("{secs:.6}")),
        ("runs_per_sec", format!("{:.1}", 1.0 / secs.max(1e-9))),
        (
            "speedup_vs_naive",
            format!("{:.2}", naive_secs / secs.max(1e-9)),
        ),
    ]));
}

/// The `--json` sweep: self-timed medians for the same two evaluators,
/// written to `BENCH_e11.json` at the workspace root.
///
/// With `smoke` set (the CI `--smoke` mode) only the smallest acyclic-star
/// size runs, the document goes to a temp-dir `BENCH_e11_smoke.json` (the
/// workspace tree stays clean), and the process exits non-zero unless the
/// cached engine beats the naive evaluator — a cheap merge gate against
/// engine-path regressions.
fn json_report(smoke: bool) {
    let mut rows = Vec::new();
    let mut star_engine_speedups = Vec::new();

    let q = sac::gen::star_query(3);
    let sizes: &[usize] = if smoke { &[50] } else { &[50, 200, 800] };
    for &nodes in sizes {
        let db = sac::gen::random_graph_database(nodes, nodes * 4, 11);
        let atoms = db.len();
        let heap = db.heap_bytes();
        let naive_secs = sac_bench::median_secs(5, || {
            std::hint::black_box(evaluate(&q, &db).len());
        });
        json_row(
            &mut rows,
            "acyclic_star",
            "naive",
            atoms,
            heap,
            naive_secs,
            naive_secs,
        );
        let engine = Database::from_instance(db.clone());
        engine.run(&q);
        let engine_secs = sac_bench::median_secs(5, || {
            std::hint::black_box(engine.run(&q).len());
        });
        json_row(
            &mut rows,
            "acyclic_star",
            "engine",
            atoms,
            heap,
            engine_secs,
            naive_secs,
        );
        star_engine_speedups.push(naive_secs / engine_secs.max(1e-9));
    }

    if !smoke {
        let q = sac::gen::example1_triangle();
        let tgds = vec![sac::gen::collector_tgd()];
        for customers in [50usize, 200, 800] {
            let db = sac::gen::music_database(customers, customers * 2, 10);
            let atoms = db.len();
            let heap = db.heap_bytes();
            let naive_secs = sac_bench::median_secs(5, || {
                std::hint::black_box(evaluate(&q, &db).len());
            });
            json_row(
                &mut rows,
                "semac_triangle",
                "naive",
                atoms,
                heap,
                naive_secs,
                naive_secs,
            );
            let engine = Database::from_instance(db.clone()).with_tgds(tgds.clone());
            engine.run(&q);
            let engine_secs = sac_bench::median_secs(5, || {
                std::hint::black_box(engine.run(&q).len());
            });
            json_row(
                &mut rows,
                "semac_triangle",
                "engine",
                atoms,
                heap,
                engine_secs,
                naive_secs,
            );
        }
    }

    let doc = sac_bench::json_document("e11_engine_vs_naive", &[], &rows);
    let path = if smoke {
        // Smoke runs are a pass/fail gate; their report is a scratch
        // artifact and must not dirty the workspace tree.
        let path = std::env::temp_dir().join("BENCH_e11_smoke.json");
        std::fs::write(&path, &doc)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        path
    } else {
        sac_bench::write_workspace_file("BENCH_e11.json", &doc)
    };
    print!("{doc}");
    eprintln!("wrote {}", path.display());

    if smoke {
        let worst = star_engine_speedups
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if worst < 1.0 {
            eprintln!(
                "bench smoke FAILED: engine speedup_vs_naive {worst:.2} < 1.0 on acyclic_star"
            );
            std::process::exit(1);
        }
        eprintln!("bench smoke ok: engine speedup_vs_naive {worst:.2} on acyclic_star");
    }
}

criterion_group! {
    name = benches;
    config = sac_bench::quick_criterion();
    targets = bench_acyclic, bench_semantically_acyclic
}

fn main() {
    if sac_bench::flag("--smoke") {
        json_report(true);
    } else if sac_bench::json_flag() {
        json_report(false);
    } else {
        benches();
    }
}
