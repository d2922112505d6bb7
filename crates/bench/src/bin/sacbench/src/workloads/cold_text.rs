//! `cold_text`: text in, rows out, nothing warm.
//!
//! A request is `Database::from_facts` on a ~12 000-fact text whose every
//! constant carries a per-request prefix (a vocabulary the process has never
//! seen), then three query texts through `Database::query` — an acyclic
//! anchored 2-path, the Example 1 triangle under the collector tgd (witness
//! rung) and a cyclic triangle (indexed search) — reading every row.  Cold
//! by design: the warm-up that set-up times is one whole request.

use super::{
    add_phase_medians, anchor_node, digest_oracle, digest_result, index_build_ns, read_rows,
    run_rounds, Ctx, Recorder,
};
use crate::stats::{median_ns, p50_ns_of, timed};
use sac::prelude::*;
use sac::storage::dict;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const TGD: &str = "Interest(X, Z), Class(Y, Z) -> Owns(X, Y).";

struct ColdQuery {
    name: &'static str,
    shape_metric: &'static str,
    prepare_metric: &'static str,
    /// Query text with `@` where the request prefix goes.
    template: String,
    /// Row count and digest of the oracle's answer (unprefixed names).
    expected: (usize, String),
}

pub struct ColdInputs {
    /// `(predicate, constants)` of every fact, names unprefixed.
    facts: Vec<(String, Vec<String>)>,
    queries: Vec<ColdQuery>,
    instance: Instance,
    block: usize,
}

pub fn inputs(ctx: &Ctx) -> ColdInputs {
    // One big relation to load and index, one small one for the cyclic
    // search, and a music block closed under the collector tgd.
    let graph =
        sac::gen::random_graph_database(ctx.size(2_000, 60), ctx.size(10_000, 300), ctx.seed);
    let small =
        sac::gen::random_graph_database(ctx.size(400, 30), ctx.size(1_500, 90), ctx.seed + 1);
    let music = sac::gen::music_database(ctx.size(30, 6), ctx.size(60, 12), 5);
    let mut instance = graph.clone();
    for atom in small.atoms() {
        instance
            .insert(Atom::from_parts("F", atom.args))
            .expect("consistent arities");
    }
    instance.extend_from(&music).expect("disjoint schemas");
    let facts = instance
        .atoms()
        .map(|a| {
            let args = a.args.iter().map(Term::to_string).collect();
            (a.predicate.as_str(), args)
        })
        .collect();
    let anchor = anchor_node(&graph, 5);
    let query = |name, shape_metric, prepare_metric, template: String| {
        let oracle: ConjunctiveQuery = template.replace('@', "").parse().expect("valid query");
        ColdQuery {
            name,
            shape_metric,
            prepare_metric,
            expected: digest_oracle(&oracle, &instance),
            template,
        }
    };
    ColdInputs {
        facts,
        queries: vec![
            query(
                "cold_path2",
                "exec.shape_p50_us.cold_path2",
                "plan.cold_prepare_direct_us",
                format!("q(X, Z) :- E(X, Y), E(Y, Z), E(X, @{anchor})."),
            ),
            query(
                "cold_witness",
                "exec.shape_p50_us.cold_witness",
                "plan.cold_prepare_witness_us",
                "q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y).".to_owned(),
            ),
            query(
                "cold_triangle",
                "exec.shape_p50_us.cold_triangle",
                "plan.cold_prepare_search_us",
                "q(X, Y, Z) :- F(X, Y), F(Y, Z), F(Z, X).".to_owned(),
            ),
        ],
        instance,
        block: ctx.size(25, 3),
    }
}

impl ColdInputs {
    /// The fact text of one request: every constant prefixed.
    fn fact_text(&self, prefix: &str) -> String {
        let mut text = String::with_capacity(self.facts.len() * 28);
        for (predicate, args) in &self.facts {
            text.push_str(predicate);
            text.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    text.push_str(", ");
                }
                let _ = write!(text, "{prefix}{arg}");
            }
            text.push_str(").\n");
        }
        text
    }

    fn query_texts(&self, prefix: &str) -> Vec<String> {
        self.queries
            .iter()
            .map(|q| q.template.replace('@', prefix))
            .collect()
    }

    fn verify(&self, answers: &[ResultSet], prefix: &str, rec: &mut Recorder) {
        for (query, answer) in self.queries.iter().zip(answers) {
            let got = digest_result(answer, prefix);
            rec.check(got == query.expected, || {
                format!(
                    "{}: engine {got:?} != oracle {:?}",
                    query.name, query.expected
                )
            });
        }
    }
}

/// The one-call facade path the untraced run measures.
fn cold_request(facts: &str, queries: &[String]) -> Result<Vec<ResultSet>, String> {
    let db = Database::from_facts(facts).map_err(|e| e.to_string())?;
    db.set_tgds(vec![parse_tgd(TGD).map_err(|e| e.to_string())?]);
    queries
        .iter()
        .map(|text| {
            let answer = db.query(text.as_str()).map_err(|e| e.to_string())?;
            std::hint::black_box(read_rows(&answer));
            Ok(answer)
        })
        .collect()
}

pub fn run(ctx: &Ctx, rec: &mut Recorder) {
    let inputs = inputs(ctx);
    let rounds = ctx.rounds(16);
    let mut request_id = 0usize;
    let mut next_request = |inputs: &ColdInputs| {
        let prefix = format!("r{request_id}_");
        request_id += 1;
        (
            inputs.fact_text(&prefix),
            inputs.query_texts(&prefix),
            prefix,
        )
    };
    run_rounds(rec, rounds, inputs.block, |_, rec| {
        let (facts, queries, prefix) = next_request(&inputs);
        let start = Instant::now();
        let warm = cold_request(&facts, &queries);
        rec.setup_done(start);
        match warm {
            Ok(answers) => inputs.verify(&answers, &prefix, rec),
            Err(message) => rec.fail(|| format!("warm-up request: {message}")),
        }
        for _ in 0..inputs.block {
            let (facts, queries, prefix) = next_request(&inputs);
            if let Some(answers) = rec.request(|| cold_request(&facts, &queries)) {
                inputs.verify(&answers, &prefix, rec);
            }
        }
    });
    rec.count("rounds", rounds);
    rec.count("requests_per_round", inputs.block);
    rec.count("facts", inputs.facts.len());
    rec.count("fact_text_bytes", inputs.fact_text("r0_").len());
    rec.count("dict_terms_at_exit", dict::len());
    for query in &inputs.queries {
        rec.count(&format!("rows.{}", query.name), query.expected.0);
        rec.digest(query.name, query.expected.1.clone());
    }
}

/// The traced pass runs the *decomposed* pipeline — `parse_database` →
/// `Database::from_instance` → `parse_tgd`/`set_tgds` → per query
/// `parse_query` → `prepare` → `run_traced` → row iteration — one span per
/// call, interleaved with untraced facade requests for the baseline.
pub fn trace(ctx: &Ctx, rec: &mut Recorder) {
    let inputs = inputs(ctx);
    let reps = ctx.size(40, 3);
    let mut untraced = Vec::with_capacity(reps);
    let mut prepare_ns: Vec<Vec<u64>> = vec![Vec::new(); inputs.queries.len()];
    let mut run_ns: Vec<Vec<u64>> = vec![Vec::new(); inputs.queries.len()];
    let mut traces: Vec<Vec<QueryTrace>> = vec![Vec::new(); inputs.queries.len()];
    let mut fact_bytes = 0usize;
    let (mut hits, mut misses) = (0usize, 0usize);
    for rep in 0..reps {
        let prefix = format!("u{rep}_");
        let (facts, queries) = (inputs.fact_text(&prefix), inputs.query_texts(&prefix));
        let (ns, answers) = timed(|| cold_request(&facts, &queries));
        untraced.push(ns);
        match answers {
            Ok(answers) => inputs.verify(&answers, &prefix, rec),
            Err(message) => rec.fail(|| format!("untraced request: {message}")),
        }

        let prefix = format!("t{rep}_");
        let (facts, queries) = (inputs.fact_text(&prefix), inputs.query_texts(&prefix));
        fact_bytes = facts.len();
        let op = rep as u32;
        rec.attempted += 1;
        let answers = rec.spans.scope(op, "request", None, |spans, root| {
            let root = Some(root);
            let instance = spans
                .call(op, "parser.parse_database", root, || parse_database(&facts))
                .expect("generated facts parse");
            let db = spans.call(op, "storage.from_instance", root, || {
                Database::from_instance(instance)
            });
            let tgd = spans
                .call(op, "parser.parse_tgd", root, || parse_tgd(TGD))
                .expect("the collector tgd parses");
            spans.call(op, "plan.set_tgds", root, || db.set_tgds(vec![tgd]));
            let mut answers = Vec::new();
            for (index, text) in queries.iter().enumerate() {
                let query = spans
                    .call(op, "parser.parse_query", root, || parse_query(text))
                    .expect("generated query parses");
                let (ns, prepared) = timed(|| {
                    spans.call(op, "plan.prepare", root, || {
                        db.prepare(&query).expect("generated query is valid")
                    })
                });
                prepare_ns[index].push(ns);
                let (ns, (answer, trace)) = timed(|| {
                    spans.scope(op, "exec.run", root, |spans, run| {
                        let (answer, trace) = prepared.run_traced();
                        spans.add_phases(op, run, &trace.phases);
                        (answer, trace)
                    })
                });
                run_ns[index].push(ns);
                hits += trace.index_cache_hits;
                misses += trace.index_cache_misses;
                traces[index].push(trace);
                spans.call(op, "result.iterate", root, || {
                    std::hint::black_box(read_rows(&answer))
                });
                answers.push(answer);
            }
            spans.call(op, "storage.drop", root, || drop(db));
            answers
        });
        inputs.verify(&answers, &prefix, rec);
    }

    let parse_db = rec.spans.median_duration_ns("parser.parse_database");
    rec.set("parser.parse_database_us", parse_db / 1e3);
    rec.set(
        "parser.fact_bytes_per_s",
        fact_bytes as f64 / (parse_db / 1e9),
    );
    rec.set(
        "parser.parse_query_us",
        rec.spans.median_duration_ns("parser.parse_query") / 1e3,
    );
    let mut phase_totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (index, query) in inputs.queries.iter().enumerate() {
        rec.set(
            query.prepare_metric,
            median_ns(&mut prepare_ns[index]) / 1e3,
        );
        rec.set(query.shape_metric, median_ns(&mut run_ns[index]) / 1e3);
        add_phase_medians(&mut phase_totals, &traces[index]);
    }
    // One request runs each shape once: its phase time is the sum.
    for (metric, total) in phase_totals {
        rec.set(metric, total);
    }
    rec.set(
        "index.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // storage: the dictionary on unseen and on known terms, inserts of
    // already-encoded rows, and what a loaded row costs in memory.
    let fresh: Vec<Term> = (0..ctx.size(20_000, 500))
        .map(|i| Term::constant(&format!("fresh_{}_{i}", ctx.seed)))
        .collect();
    let (miss_ns, _) = timed(|| fresh.iter().map(|t| dict::encode(*t)).max());
    let (hit_ns, _) = timed(|| fresh.iter().map(|t| dict::encode(*t)).max());
    rec.set(
        "storage.dict_encode_miss_ns",
        miss_ns as f64 / fresh.len() as f64,
    );
    rec.set(
        "storage.dict_encode_hit_ns",
        hit_ns as f64 / fresh.len() as f64,
    );
    let atoms = inputs.instance.to_atoms();
    let insert = p50_ns_of(ctx.size(10, 2), || {
        let mut instance = Instance::new();
        for atom in &atoms {
            instance.insert(atom.clone()).expect("consistent arities");
        }
        instance.len()
    });
    rec.set("storage.insert_ns_per_row", insert / atoms.len() as f64);
    rec.set(
        "storage.heap_bytes_per_row",
        inputs.instance.heap_bytes() as f64 / inputs.instance.len() as f64,
    );
    rec.set("storage.dict_terms", dict::len() as f64);

    rec.set(
        "index.build_us",
        index_build_ns(&inputs.instance, ctx.size(10, 2)) / 1e3,
    );

    rec.summarize_spans(median_ns(&mut untraced));
}
