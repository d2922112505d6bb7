//! `serve_acyclic` and `serve_semac`: prepared queries executed round-robin
//! against a database that fits the program's caches.
//!
//! A request is one `PreparedQuery::execute`.  Set-up is
//! `Database::from_instance` + constraints + `prepare` per shape + warm-up
//! executions (which build the indexes).  Every answer is compared with the
//! first answer of its shape, and that one with the oracle
//! `sac::query::evaluate` by row count and digest.

use super::{
    add_phase_medians, anchor_nodes, digest_oracle, digest_result, index_build_ns, read_rows,
    run_rounds, Ctx, Recorder,
};
use crate::stats::{median_ns, p50_ns_of, timed, SplitMix};
use sac::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone)]
pub struct Shape {
    pub name: &'static str,
    /// `exec.shape_p50_us.<name>`.
    pub metric: &'static str,
    pub text: String,
}

pub struct ServeInputs {
    pub instance: Instance,
    pub tgds: Vec<Tgd>,
    /// The shapes the untraced run serves…
    pub shapes: Vec<Shape>,
    /// …and the order it serves them in, as indexes into `shapes`, repeated.
    pub cycle: Vec<usize>,
    /// Variants only the traced pass runs.
    pub traced_only: Vec<Shape>,
    pub rounds_per_run: usize,
    pub block: usize,
    pub warmup: usize,
    pub traced_reps: usize,
    /// The first shape materialises a large answer: the traced pass probes
    /// `result` and `pool` on it.
    pub full_output: bool,
}

/// Four acyclic shapes with tiny outputs on a 3 000-edge random graph,
/// served in a cycle of five (`star3_bool` twice): with two of five requests
/// in one class the median of the mix falls inside that class instead of on
/// the boundary between two.  The anchored shapes hang off a node of degree
/// (5, 5) — among the first such nodes, the one whose anchored 2-path has
/// closest to 125 answers — so their work does not depend on which node a
/// seed happens to favour.
pub fn acyclic_inputs(ctx: &Ctx) -> ServeInputs {
    let (nodes, edges) = (ctx.size(600, 60), ctx.size(3_000, 300));
    let instance = sac::gen::random_graph_database(nodes, edges, ctx.seed);
    let path2 = |c: &str| format!("q(X, Z) :- E(X, Y), E(Y, Z), E(X, {c}).");
    let c = anchor_nodes(&instance, 5)
        .into_iter()
        .take(16)
        .min_by_key(|c| {
            let query: ConjunctiveQuery = path2(c).parse().expect("valid query");
            evaluate(&query, &instance).len().abs_diff(125)
        })
        .expect("a graph with edges");
    let shape = |name, metric, text: String| Shape { name, metric, text };
    ServeInputs {
        shapes: vec![
            shape(
                "star3_bool",
                "exec.shape_p50_us.star3_bool",
                "q() :- E(X, A), E(X, B), E(X, C).".to_owned(),
            ),
            shape(
                "path4_bool",
                "exec.shape_p50_us.path4_bool",
                "q() :- E(A, B), E(B, C), E(C, D), E(D, F).".to_owned(),
            ),
            shape(
                "path2_anchored",
                "exec.shape_p50_us.path2_anchored",
                path2(&c),
            ),
            shape(
                "star_anchored",
                "exec.shape_p50_us.star_anchored",
                format!("q(A, B) :- E({c}, A), E({c}, B), E({c}, C)."),
            ),
        ],
        cycle: vec![0, 1, 2, 3, 0],
        traced_only: Vec::new(),
        instance,
        tgds: Vec::new(),
        rounds_per_run: 14,
        block: ctx.size(2_400, 40),
        warmup: 5,
        traced_reps: ctx.size(1_200, 16),
        full_output: false,
    }
}

/// The paper's Example 1: the cyclic collector triangle, semantically
/// acyclic under the collector tgd, full output, on a music database that
/// satisfies the tgd by construction.  `sac::gen::music_database` takes no
/// seed; the seed fixes the order its atoms are loaded in.
pub fn semac_inputs(ctx: &Ctx) -> ServeInputs {
    let generated = sac::gen::music_database(ctx.size(400, 30), ctx.size(800, 60), 10);
    let mut atoms = generated.to_atoms();
    SplitMix(ctx.seed).shuffle(&mut atoms);
    let instance = Instance::from_atoms(atoms).expect("consistent arities");
    ServeInputs {
        instance,
        tgds: vec![sac::gen::collector_tgd()],
        shapes: vec![Shape {
            name: "semac_full",
            metric: "exec.shape_p50_us.semac_full",
            text: "q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).".to_owned(),
        }],
        cycle: vec![0],
        traced_only: vec![Shape {
            name: "semac_bound",
            metric: "exec.shape_p50_us.semac_bound",
            text: "q(Y) :- Interest(cust7, Z), Class(Y, Z), Owns(cust7, Y).".to_owned(),
        }],
        rounds_per_run: 12,
        block: ctx.size(70, 6),
        warmup: 3,
        traced_reps: ctx.size(100, 6),
        full_output: true,
    }
}

fn open(inputs: &ServeInputs, instance: Instance) -> Database {
    Database::from_instance(instance).with_tgds(inputs.tgds.clone())
}

fn prepare_all<'db>(db: &'db Database, shapes: &[Shape], warmup: usize) -> Vec<PreparedQuery<'db>> {
    let prepared: Vec<PreparedQuery<'db>> = shapes
        .iter()
        .map(|shape| db.prepare(&shape.text).expect("workload query is valid"))
        .collect();
    for _ in 0..warmup {
        for query in &prepared {
            std::hint::black_box(query.execute().len());
        }
    }
    prepared
}

/// Checks the first answer of every shape against the oracle and records
/// its digest.
fn verify_against_oracle(
    inputs: &ServeInputs,
    shapes: &[Shape],
    first: &[Option<ResultSet>],
    rec: &mut Recorder,
) {
    for (shape, answer) in shapes.iter().zip(first) {
        let Some(answer) = answer else {
            rec.fail(|| format!("{}: never answered", shape.name));
            continue;
        };
        let query: ConjunctiveQuery = shape.text.parse().expect("workload query is valid");
        let expected = digest_oracle(&query, &inputs.instance);
        let got = digest_result(answer, "");
        rec.check(got == expected, || {
            format!("{}: engine {got:?} != oracle {expected:?}", shape.name)
        });
        rec.count(&format!("rows.{}", shape.name), got.0);
        rec.digest(shape.name, got.1);
    }
}

pub fn run(inputs: &ServeInputs, ctx: &Ctx, rec: &mut Recorder) {
    let rounds = ctx.rounds(inputs.rounds_per_run);
    let mut first: Vec<Option<ResultSet>> = inputs.shapes.iter().map(|_| None).collect();
    run_rounds(rec, rounds, inputs.block, |_, rec| {
        let instance = inputs.instance.clone();
        let start = Instant::now();
        let db = open(inputs, instance);
        let prepared = prepare_all(&db, &inputs.shapes, inputs.warmup);
        rec.setup_done(start);
        for op in 0..inputs.block {
            let shape = inputs.cycle[op % inputs.cycle.len()];
            let Some(answer) = rec.request(|| Ok(prepared[shape].execute())) else {
                continue;
            };
            match &first[shape] {
                Some(expected) => rec.check(&answer == expected, || {
                    format!(
                        "{}: answer changed between requests",
                        inputs.shapes[shape].name
                    )
                }),
                None => first[shape] = Some(answer),
            }
        }
        let metrics = db.metrics();
        rec.check(metrics.plans_built == inputs.shapes.len(), || {
            format!(
                "{} plans built for {} shapes",
                metrics.plans_built,
                inputs.shapes.len()
            )
        });
    });
    rec.count("rounds", rounds);
    rec.count("requests_per_round", inputs.block);
    rec.count("atoms", inputs.instance.len());
    verify_against_oracle(inputs, &inputs.shapes, &first, rec);
}

/// The traced pass: per shape, untraced (`execute`) and traced requests
/// (`run_traced`: one request span with the phase partition as children) in
/// alternation, then the probes into `index`, `result` and `pool`.
pub fn trace(inputs: &ServeInputs, ctx: &Ctx, rec: &mut Recorder) {
    let reps = inputs.traced_reps;
    let db = open(inputs, inputs.instance.clone());
    let shapes: Vec<Shape> = inputs
        .shapes
        .iter()
        .chain(&inputs.traced_only)
        .cloned()
        .collect();
    let prepared = prepare_all(&db, &shapes, inputs.warmup);
    let served = inputs.shapes.len();
    let mut phase_totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut untraced_pool, mut traced_pool) = (Vec::new(), Vec::new());
    let mut untraced_once = Vec::new();
    let (mut hits, mut misses, mut rows_in, mut answers) = (0usize, 0usize, 0usize, 0usize);
    let (mut phase_sum, mut total_sum) = (0u64, 0u64);
    let mut cheapest = f64::MAX;
    let mut first: Vec<Option<ResultSet>> = Vec::new();
    let mut op_id = 0u32;
    let mut plan_hits = 0usize;
    for (index, (shape, query)) in shapes.iter().zip(&prepared).enumerate() {
        // Untraced and traced requests alternate, so drift in the process
        // (heap layout, clock speed) lands on both sides alike.
        let mut untraced = Vec::with_capacity(reps);
        let mut traces = Vec::with_capacity(reps);
        let mut kept = None;
        for _ in 0..reps {
            let (ns, answer) = timed(|| query.execute());
            untraced.push(ns);
            drop(answer);
            rec.attempted += 1;
            let (answer, trace) = if index < served {
                rec.spans.scope(op_id, "request", None, |spans, root| {
                    let (answer, trace) = query.run_traced();
                    spans.add_phases(op_id, root, &trace.phases);
                    (answer, trace)
                })
            } else {
                query.run_traced()
            };
            plan_hits += usize::from(trace.plan_cache_hit);
            phase_sum += trace.phases.total_ns();
            total_sum += trace.total_ns;
            traces.push(trace);
            // Holding an answer while the next request runs changes what
            // the allocator does: keep the first, drop the rest at once.
            kept.get_or_insert(answer);
            op_id += 1;
        }
        let last = traces.last().expect("at least one traced request");
        hits += last.index_cache_hits;
        misses += last.index_cache_misses;
        rows_in += last.node_rows.iter().map(|n| n.rows_in).sum::<usize>();
        answers += last.answers;
        first.push(kept);
        let shape_p50 = median_ns(&mut untraced);
        rec.set(shape.metric, shape_p50 / 1e3);
        cheapest = cheapest.min(shape_p50);
        if index < served {
            untraced_once.extend(&untraced);
        }
        // A shape counts as often as the mix serves it.
        for _ in inputs.cycle.iter().filter(|slot| **slot == index) {
            add_phase_medians(&mut phase_totals, &traces);
            untraced_pool.extend(&untraced);
            traced_pool.extend(traces.iter().map(|t| t.total_ns));
        }
    }
    // The per-request phase time of the mix: the per-shape medians weighted
    // by how often the mix serves each shape.
    for (metric, total) in phase_totals {
        rec.set(metric, total / inputs.cycle.len() as f64);
    }
    rec.check(phase_sum == total_sum, || {
        format!("run_traced phases sum to {phase_sum} ns, totals to {total_sum} ns")
    });
    rec.set(
        "exec.phase_sum_vs_total",
        phase_sum as f64 / total_sum.max(1) as f64,
    );
    rec.set(
        "exec.rows_in_per_answer",
        rows_in as f64 / answers.max(1) as f64,
    );
    rec.set("exec.fixed_overhead_ns", cheapest);
    rec.set(
        "index.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rec.set(
        "plan.cache_hit_rate",
        plan_hits as f64 / (shapes.len() * reps) as f64,
    );
    let mean = |pool: &[u64]| pool.iter().sum::<u64>() as f64 / pool.len() as f64;
    let (untraced_mean, traced_mean) = (mean(&untraced_pool), mean(&traced_pool));
    rec.set(
        "telemetry.traced_overhead_pct",
        (traced_mean - untraced_mean) / untraced_mean * 100.0,
    );
    rec.count("rows_in", rows_in);
    rec.count("answers", answers);
    verify_against_oracle(inputs, &shapes, &first, rec);

    rec.set(
        "index.build_us",
        index_build_ns(&inputs.instance, ctx.size(20, 2)) / 1e3,
    );
    rec.set(
        "storage.heap_bytes_per_row",
        db.heap_bytes() as f64 / db.len().max(1) as f64,
    );
    rec.set("storage.dict_terms", sac::storage::dict::len() as f64);

    if inputs.full_output {
        // result: what materialisation costs on the full-output shape.
        let heaviest = &prepared[0];
        let full = heaviest.execute();
        let iterate = p50_ns_of(ctx.size(30, 3), || read_rows(&full));
        rec.set(
            "result.iterate_ns_per_row",
            iterate / full.len().max(1) as f64,
        );
        let boolean = p50_ns_of(reps, || heaviest.execute_boolean());
        let full_p50 = p50_ns_of(reps, || heaviest.execute().len());
        rec.set("result.boolean_vs_full_ratio", boolean / full_p50);

        // pool: the one probe here that uses two threads (= nproc).
        let parallel = open(inputs, inputs.instance.clone()).with_parallelism(2);
        let query = parallel
            .prepare(&shapes[0].text)
            .expect("workload query is valid");
        rec.check(Some(query.execute()) == first[0], || {
            "parallelism 2 changed the answer".to_owned()
        });
        parallel.reset_metrics();
        let p2 = p50_ns_of(reps, || query.execute().len());
        let metrics = parallel.metrics();
        rec.set("pool.p2_speedup", full_p50 / p2);
        rec.set(
            "pool.queue_wait_us",
            metrics.pool_queue_wait_ns as f64 / 1e3 / (reps + 1) as f64,
        );
        rec.set("pool.morsel_steals", metrics.morsel_steals as f64);
    }

    // Coverage: what the phase children of a traced request account for,
    // against the untraced median over the same requests (every served
    // shape once, as the span log has them).
    rec.summarize_spans(median_ns(&mut untraced_once));
}
